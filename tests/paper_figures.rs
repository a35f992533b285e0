//! Shape checks for every reproduced figure/table, on scaled-down workloads
//! (the full-size artifacts come from `arvis-bench`'s `experiments` binary;
//! these tests pin the *qualitative* claims so regressions are caught by
//! `cargo test`).

use arvis_bench::{
    fig2_config, fig2_service_rate, log_grid, paper_profile, run_full_traces, PAPER_DEPTHS,
};

use arvis::core::controller::{MaxDepth, MinDepth, ProposedDpp};
use arvis::core::experiment::Experiment;
use arvis::core::scenario::{FleetSpec, Scenario};
use arvis::octree::{LodMode, Octree, OctreeConfig};
use arvis::pointcloud::synth::{SubjectProfile, SynthBodyConfig};
use arvis::quality::psnr::geometry_distortion;

const TEST_POINTS: usize = 40_000;

#[test]
fn fig1_resolution_table_shape() {
    // Fig. 1: deeper octrees draw more, smaller voxels, at higher PSNR.
    let cloud = SynthBodyConfig::new(SubjectProfile::Longdress)
        .with_target_points(TEST_POINTS)
        .with_seed(1)
        .generate();
    let tree =
        Octree::build(&cloud, &OctreeConfig::with_max_depth(*PAPER_DEPTHS.end())).expect("octree");
    let mut prev_voxels = 0usize;
    let mut prev_psnr = f64::NEG_INFINITY;
    for d in PAPER_DEPTHS {
        let lod = tree.extract_lod(d, LodMode::VoxelCenters);
        let psnr = geometry_distortion(&cloud, &lod.cloud).unwrap().psnr_db();
        assert!(lod.cloud.len() > prev_voxels, "voxels must grow with depth");
        assert!(psnr > prev_psnr, "PSNR must grow with depth");
        prev_voxels = lod.cloud.len();
        prev_psnr = psnr;
    }
    // Geometry PSNR gains ~6 dB per depth (voxel size halves); check the
    // span over 5 levels is in that ballpark.
    assert!(
        prev_psnr > 30.0,
        "deepest PSNR {prev_psnr} suspiciously low"
    );
}

#[test]
fn fig2a_queue_dynamics_shape() {
    let cfg = fig2_config(paper_profile(TEST_POINTS, 1).unwrap());
    let exp = Experiment::new(cfg.clone());
    let proposed = exp.run(&mut ProposedDpp::new(cfg.controller_v));
    let max_run = exp.run(&mut MaxDepth);
    let min_run = exp.run(&mut MinDepth);

    // Divergence / convergence / stabilization triple.
    assert!(!max_run.stable && min_run.stable && proposed.stable);

    // Max-depth diverges linearly: final backlog ≈ slots × (a_max − b).
    let final_max = *max_run.backlog.values().last().unwrap();
    let profile = paper_profile(TEST_POINTS, 1).unwrap();
    let drift = profile.arrival(10) - fig2_service_rate(&profile);
    // Exact recursion: Q(t) = t·(a−b) + a (slot 0 serves an empty queue).
    let expected = (cfg.slots - 1) as f64 * drift + profile.arrival(10);
    assert!(
        (final_max - expected).abs() < 1e-6 * expected,
        "divergence rate: got {final_max}, expected {expected}"
    );

    // Min-depth ends each slot at exactly a(5) — "converges to 0" at the
    // figure's 10^5 scale.
    let final_min = *min_run.backlog.values().last().unwrap();
    assert!(final_min <= profile.arrival(5) + 1e-9);

    // Proposed's plateau: final backlog within 3x of its mean after warmup
    // (bounded, not diverging), and well below max-depth's final.
    assert!(*proposed.backlog.values().last().unwrap() < final_max / 1.5);
}

#[test]
fn fig2b_control_action_shape() {
    let cfg = fig2_config(paper_profile(TEST_POINTS, 1).unwrap());
    let exp = Experiment::new(cfg.clone());
    let proposed = exp.run(&mut ProposedDpp::new(cfg.controller_v));
    let max_run = exp.run(&mut MaxDepth);
    let min_run = exp.run(&mut MinDepth);

    // Baselines hold their extremes for the whole run.
    assert!(max_run.depth.values().iter().all(|&d| d == 10.0));
    assert!(min_run.depth.values().iter().all(|&d| d == 5.0));

    // Proposed: max depth before the knee, lower depths after.
    let depths = proposed.depth.values();
    let knee = depths.iter().position(|&d| d < 10.0).expect("knee exists");
    assert!(
        knee as f64 > 0.5 * arvis_bench::PAPER_KNEE,
        "knee {knee} too early"
    );
    assert!(depths[..knee].iter().all(|&d| d == 10.0));
    // After the knee the controller time-shares below the max.
    let after = &depths[knee..];
    let mean_after: f64 = after.iter().sum::<f64>() / after.len() as f64;
    assert!(
        (9.0..10.0).contains(&mean_after),
        "post-knee mean {mean_after}"
    );
}

#[test]
fn extension_v_sweep_tradeoff_shape() {
    // E1: quality rises toward 1 and backlog grows as V increases.
    let mut cfg = fig2_config(paper_profile(TEST_POINTS, 1).unwrap());
    cfg.slots = 1_600;
    cfg.warmup = 800;
    let vs = log_grid(cfg.controller_v / 30.0, cfg.controller_v * 3.0, 5);
    let pts = run_full_traces(&Scenario::v_sweep(&cfg, &vs));
    for w in pts.windows(2) {
        assert!(w[1].mean_quality >= w[0].mean_quality - 1e-9);
        assert!(w[1].mean_backlog >= w[0].mean_backlog * 0.9);
    }
    assert!(pts.last().unwrap().mean_quality > pts[0].mean_quality);
}

#[test]
fn extension_rate_sweep_shape() {
    // E3: more rendering capacity, more quality; all runs stable when the
    // horizon accommodates the plateau.
    let profile = paper_profile(TEST_POINTS, 1).unwrap();
    let mut cfg = fig2_config(profile.clone());
    cfg.slots = 4_000;
    cfg.warmup = 2_000;
    let rates = [
        profile.arrival(7) * 1.5,
        profile.arrival(8) * 1.5,
        profile.arrival(10) * 1.2,
    ];
    let pts = run_full_traces(&Scenario::rate_sweep(&cfg, &rates));
    assert!(pts[2].mean_quality > pts[0].mean_quality);
    assert!(
        pts[2].mean_quality == 1.0,
        "capacity above a(10) must allow permanent max depth"
    );
}

#[test]
fn extension_distributed_fleet_shape() {
    // E2: every device of a heterogeneous fleet independently stable.
    let mut cfg = fig2_config(paper_profile(TEST_POINTS, 1).unwrap());
    cfg.slots = 3_200;
    cfg.warmup = 1_600;
    let results = run_full_traces(&Scenario::fleet(&cfg, FleetSpec::heterogeneous(6, 0.6)));
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(|r| r.stable));
}
