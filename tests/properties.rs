//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;

use arvis::lyapunov::dpp::{Candidate, DppController};
use arvis::octree::occupancy::{decode_occupancy, encode_occupancy};
use arvis::octree::{LodMode, Octree, OctreeConfig};
use arvis::pointcloud::cloud::PointCloud;
use arvis::pointcloud::kdtree::KdTree;
use arvis::pointcloud::math::Vec3;
use arvis::pointcloud::ply::{read_ply, write_ply, Encoding};
use arvis::pointcloud::point::Point;
use arvis::pointcloud::voxel::{VoxelGrid, VoxelKey};
use arvis::sim::queue::WorkQueue;

fn arb_point() -> impl Strategy<Value = Point> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        any::<(u8, u8, u8)>(),
    )
        .prop_map(|(x, y, z, (r, g, b))| Point::xyz_rgb(x, y, z, r, g, b))
}

fn arb_cloud(max_points: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(arb_point(), 1..max_points).prop_map(PointCloud::from_points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- octree invariants -------------------------------------------

    #[test]
    fn octree_occupancy_monotone_and_bounded(cloud in arb_cloud(300), depth in 1u8..7) {
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap();
        let profile = tree.occupancy_profile();
        prop_assert_eq!(profile[0], 1);
        for w in profile.windows(2) {
            prop_assert!(w[0] <= w[1], "occupancy must be non-decreasing");
            prop_assert!(w[1] <= w[0] * 8, "branching cannot exceed 8");
        }
        prop_assert!(*profile.last().unwrap() as u64 <= tree.point_count());
    }

    #[test]
    fn octree_lod_points_inside_cube(cloud in arb_cloud(200), depth in 1u8..6) {
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap();
        let cube = tree.cube().inflated(1e-9);
        let lod = tree.extract_lod(depth, LodMode::VoxelCenters);
        prop_assert_eq!(lod.cloud.len(), tree.occupied_at_depth(depth));
        for p in lod.cloud.iter() {
            prop_assert!(cube.contains(p.position));
        }
    }

    #[test]
    fn occupancy_roundtrip_at_every_depth(cloud in arb_cloud(150), max_depth in 1u8..7) {
        // Encode→decode round-trip of the occupancy stream at every depth:
        // the decoded voxel-center cloud must be exactly the LoD extraction
        // at that depth (same voxel set, same centers).
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(max_depth)).unwrap();
        for depth in 1..=max_depth {
            let stream = encode_occupancy(&tree, depth);
            let decoded = decode_occupancy(stream, tree.cube()).unwrap();
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters);
            prop_assert_eq!(decoded.len(), lod.cloud.len(), "size mismatch at depth {}", depth);
            let mut got: Vec<_> = decoded
                .positions()
                .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
                .collect();
            let mut want: Vec<_> = lod
                .cloud
                .positions()
                .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "voxel centers differ at depth {}", depth);
        }
    }

    #[test]
    fn octree_matches_brute_force_voxelizer(cloud in arb_cloud(250), depth in 1u8..7) {
        // The SoA Morton build must agree with the brute-force hash-map
        // voxelizer over the same cube, at every level: the same
        // occupied-voxel count, and each LoD point's colour is the mean
        // colour of the grid voxel its centre falls in.
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap();
        // The brute-force grid rejects degenerate (single-point) cubes.
        prop_assume!(tree.cube().max_extent() > 0.0);
        for d in 0..=depth {
            let grid = VoxelGrid::from_cloud_in_cube(&cloud, tree.cube(), 1u32 << d).unwrap();
            prop_assert_eq!(tree.occupied_at_depth(d), grid.occupied(), "depth {}", d);
            for p in tree.extract_lod(d, LodMode::VoxelCenters).cloud.iter() {
                let cell = grid.cell(grid.key_of(p.position));
                prop_assert!(cell.is_some(), "voxel at {} missing from the grid", p.position);
                prop_assert_eq!(cell.unwrap().mean_color(), p.color, "colour at {}", p.position);
            }
        }
    }

    #[test]
    fn octree_serial_parallel_equivalence(cloud in arb_cloud(200), depth in 1u8..7) {
        // The parallel build must be bit-identical to the forced-serial
        // build: same arena, same level table, same cube.
        let cfg = OctreeConfig::with_max_depth(depth);
        let parallel = Octree::build(&cloud, &cfg).unwrap();
        let serial = arvis_par::serial_scope(|| Octree::build(&cloud, &cfg).unwrap());
        prop_assert_eq!(&parallel, &serial);
        // And the quality metrics over its LoD agree bit-for-bit too.
        let lod = parallel.extract_lod(depth, LodMode::VoxelCenters);
        let par_mse = arvis::quality::psnr::geometry_distortion(&cloud, &lod.cloud)
            .unwrap();
        let ser_mse = arvis_par::serial_scope(|| {
            arvis::quality::psnr::geometry_distortion(&cloud, &lod.cloud).unwrap()
        });
        prop_assert_eq!(par_mse.mse_symmetric.to_bits(), ser_mse.mse_symmetric.to_bits());
        prop_assert_eq!(par_mse.mse_forward.to_bits(), ser_mse.mse_forward.to_bits());
    }

    // ---- queue invariants --------------------------------------------

    #[test]
    fn queue_conservation(
        steps in prop::collection::vec((0.0f64..1e4, 0.0f64..1e4), 1..300)
    ) {
        let mut q = WorkQueue::new();
        for (a, b) in &steps {
            q.step(*a, *b);
        }
        prop_assert!(q.conservation_residual().abs() < 1e-6);
        prop_assert!(q.backlog() >= 0.0);
        prop_assert!(q.peak_backlog() >= q.backlog());
        prop_assert!(q.total_dropped() == 0.0);
    }

    #[test]
    fn finite_queue_never_exceeds_capacity(
        steps in prop::collection::vec((0.0f64..1e4, 0.0f64..1e4), 1..300),
        cap in 1.0f64..1e5,
    ) {
        let mut q = WorkQueue::with_capacity(cap);
        for (a, b) in &steps {
            let s = q.step(*a, *b);
            prop_assert!(s.backlog <= cap + 1e-9);
            prop_assert!(s.dropped >= 0.0);
        }
        prop_assert!(q.conservation_residual().abs() < 1e-6);
    }

    #[test]
    fn queue_backlog_matches_lindley_recursion(
        steps in prop::collection::vec((0.0f64..1e3, 0.0f64..1e3), 1..200)
    ) {
        let mut q = WorkQueue::new();
        let mut reference = 0.0f64;
        for (a, b) in &steps {
            q.step(*a, *b);
            reference = (reference - b).max(0.0) + a;
            prop_assert!((q.backlog() - reference).abs() < 1e-9);
        }
    }

    // ---- DPP decision invariants ---------------------------------------

    #[test]
    fn dpp_choice_maximizes_score(
        utilities in prop::collection::vec(0.0f64..1.0, 2..12),
        arrivals in prop::collection::vec(1.0f64..1e6, 2..12),
        q in 0.0f64..1e7,
        v in 0.0f64..1e9,
    ) {
        let n = utilities.len().min(arrivals.len());
        let candidates: Vec<Candidate<usize>> = (0..n)
            .map(|i| Candidate { action: i, utility: utilities[i], arrival: arrivals[i] })
            .collect();
        let ctl = DppController::new(v);
        let decision = ctl.decide(q, candidates.iter().copied()).unwrap();
        for c in &candidates {
            prop_assert!(
                decision.score >= ctl.score(q, c) - 1e-9,
                "chosen score {} beaten by {:?}",
                decision.score,
                c
            );
        }
    }

    #[test]
    fn dpp_depth_monotone_in_backlog(
        v in 1.0f64..1e9,
        q1 in 0.0f64..1e6,
        dq in 0.0f64..1e6,
    ) {
        // Canonical increasing-utility / increasing-arrival candidate set.
        let candidates: Vec<Candidate<u8>> = (0..6u8)
            .map(|i| Candidate {
                action: i,
                utility: f64::from(i) / 5.0,
                arrival: 100.0 * 4f64.powi(i32::from(i)),
            })
            .collect();
        let ctl = DppController::new(v);
        let lo = ctl.decide(q1, candidates.iter().copied()).unwrap().action;
        let hi = ctl.decide(q1 + dq, candidates.iter().copied()).unwrap().action;
        prop_assert!(hi <= lo, "depth increased with backlog: {} -> {}", lo, hi);
    }

    // ---- geometry / format invariants ----------------------------------

    #[test]
    fn kdtree_nearest_matches_brute_force(cloud in arb_cloud(120), probe in arb_point()) {
        let tree = KdTree::build(cloud.positions());
        let (_, d2) = tree.nearest(probe.position).unwrap();
        let brute = cloud
            .positions()
            .map(|p| p.distance_squared(probe.position))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d2 - brute).abs() < 1e-9);
    }

    #[test]
    fn ply_binary_roundtrip_preserves_cloud(cloud in arb_cloud(150)) {
        let mut bytes = Vec::new();
        write_ply(&mut bytes, &cloud, Encoding::BinaryLittleEndian).unwrap();
        let back = read_ply(&bytes[..]).unwrap();
        prop_assert_eq!(back.len(), cloud.len());
        for (a, b) in cloud.iter().zip(back.iter()) {
            // Positions pass through f32.
            prop_assert!(a.position.distance(b.position) < 1e-3);
            prop_assert_eq!(a.color, b.color);
        }
    }

    #[test]
    fn morton_roundtrip(x in 0u32..1024, y in 0u32..1024, z in 0u32..1024) {
        let key = VoxelKey::new(x, y, z);
        prop_assert_eq!(VoxelKey::from_morton(key.morton(10), 10), key);
    }

    #[test]
    fn aabb_octants_partition(center in -10.0f64..10.0, edge in 0.1f64..20.0) {
        let cube = arvis::pointcloud::Aabb::cube(Vec3::splat(center), edge);
        let octants = cube.octants();
        let vol: f64 = octants.iter().map(|o| o.volume()).sum();
        prop_assert!((vol - cube.volume()).abs() < 1e-6 * cube.volume().max(1e-12));
        // Every octant center maps back to its index.
        for (i, o) in octants.iter().enumerate() {
            prop_assert_eq!(cube.octant_index(o.center()), i);
        }
    }
}

// ---- closed-loop scheduler properties ----------------------------------

use arvis::core::controller::ProposedDpp;
use arvis::core::experiment::{Experiment, ExperimentConfig};
use arvis::lyapunov::bounds::DppBounds;
use arvis::quality::DepthProfile;

/// Strategy: a random feasible system — monotone profile, service rate
/// strictly between the extreme arrivals, V spanning five decades.
fn arb_system() -> impl Strategy<Value = (DepthProfile, f64, f64)> {
    (
        3usize..7,     // number of depths
        1.5f64..5.0,   // arrival growth per depth
        10.0f64..1e4,  // base arrival
        0.05f64..0.95, // service position in (a_min, a_max)
        1e3f64..1e8,   // V
    )
        .prop_map(|(n, growth, base, pos, v)| {
            let arrivals: Vec<f64> = (0..n).map(|i| base * growth.powi(i as i32)).collect();
            let quality: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
            let profile = DepthProfile::from_parts(3, arrivals.clone(), quality);
            // Service strictly above a_min (so draining is possible) and
            // strictly below a_max (so the trade-off is non-trivial).
            let a_min = arrivals[0];
            let a_max = arrivals[n - 1];
            let rate = a_min * 1.05 + pos * (a_max * 0.95 - a_min * 1.05);
            (profile, rate, v)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proposed_scheduler_never_exceeds_switching_bound(
        (profile, rate, v) in arb_system()
    ) {
        // Once Q exceeds the largest quality-per-work exchange rate, every
        // deeper depth loses to the minimum depth, which drains the queue:
        // the backlog can never exceed that threshold plus overshoot slack.
        let depths: Vec<u8> = profile.depths().collect();
        let mut max_ratio: f64 = 0.0;
        for &i in &depths {
            for &j in &depths {
                if profile.arrival(i) > profile.arrival(j) {
                    let r = v * (profile.quality(i) - profile.quality(j))
                        / (profile.arrival(i) - profile.arrival(j));
                    max_ratio = max_ratio.max(r);
                }
            }
        }
        let a_max = profile.arrival(*depths.last().unwrap());
        let bound = max_ratio + 2.0 * a_max;

        let cfg = ExperimentConfig::new(profile, rate, 3_000).with_controller_v(v);
        let r = Experiment::new(cfg).run(&mut ProposedDpp::new(v));
        let peak = r.backlog.summary().max;
        prop_assert!(
            peak <= bound + 1e-6,
            "peak backlog {} exceeded switching bound {}",
            peak,
            bound
        );
    }

    #[test]
    fn proposed_scheduler_is_rate_stable((profile, rate, v) in arb_system()) {
        // Rate stability: over the long run, admitted work per slot cannot
        // exceed the service rate (the queue would otherwise grow without
        // bound, contradicting the switching-threshold argument above).
        let cfg = ExperimentConfig::new(profile, rate, 4_000).with_controller_v(v);
        let r = Experiment::new(cfg).run(&mut ProposedDpp::new(v));
        let tail_arrivals = r.arrivals.mean_from(2_000).unwrap();
        prop_assert!(
            tail_arrivals <= rate * 1.05,
            "long-run arrivals {} exceed service {}",
            tail_arrivals,
            rate
        );
    }

    #[test]
    fn measured_backlog_respects_neely_bound((profile, rate, v) in arb_system()) {
        // The standard DPP bound: time-average backlog ≤ (B + V·span)/ε with
        // B = (a_max² + b²)/2 and ε the min-depth slack. Finite horizons and
        // deterministic dynamics sit well inside it.
        let depths: Vec<u8> = profile.depths().collect();
        let a_min = profile.arrival(depths[0]);
        let a_max = profile.arrival(*depths.last().unwrap());
        let epsilon = rate - a_min;
        prop_assume!(epsilon > 0.0);
        let b_const = DppBounds::b_from_peaks(a_max, rate);
        let bounds = DppBounds::new(b_const, v, epsilon, 1.0);

        let cfg = ExperimentConfig::new(profile, rate, 3_000)
            .with_controller_v(v)
            .with_warmup(0);
        let r = Experiment::new(cfg).run(&mut ProposedDpp::new(v));
        prop_assert!(
            r.mean_backlog <= bounds.backlog_bound() * 1.01,
            "mean backlog {} exceeds theoretical bound {}",
            r.mean_backlog,
            bounds.backlog_bound()
        );
    }
}
