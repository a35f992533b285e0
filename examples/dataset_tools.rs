//! Dataset tooling: everything the paper used Open3D for, natively.
//!
//! Generates the four synthetic 8i-like subjects, voxelizes them into the
//! 1024³ grid of the original distribution, writes/reads binary PLY, and
//! prints per-subject octree node and leaf counts.
//!
//! ```bash
//! cargo run --release --example dataset_tools
//! ```

use arvis::octree::{Octree, OctreeConfig};
use arvis::pointcloud::ply::{read_ply_file, write_ply_file, Encoding};
use arvis::pointcloud::synth::{SubjectProfile, SynthBodyConfig, EIGHT_I_GRID_BITS};

fn main() {
    let out_dir = std::env::temp_dir().join("arvis_dataset");
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    println!("writing PLY frames to {}\n", out_dir.display());

    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>12} {:>9}",
        "subject", "sampled", "voxelized", "ply_kib", "octree_nodes", "leaves"
    );
    for subject in SubjectProfile::ALL {
        // Sample the body surface, then voxelize into the 8i 1024³ grid.
        let cloud = SynthBodyConfig::new(subject)
            .with_target_points(60_000)
            .with_seed(42)
            .generate();
        let voxelized = SynthBodyConfig::new(subject)
            .with_target_points(60_000)
            .with_seed(42)
            .generate_voxelized(EIGHT_I_GRID_BITS);

        // Round-trip through the 8i on-disk format.
        let path = out_dir.join(format!("{}_vox10_0000.ply", subject.name()));
        write_ply_file(&path, &voxelized, Encoding::BinaryLittleEndian).expect("write ply");
        let reread = read_ply_file(&path).expect("read ply");
        assert_eq!(
            reread.len(),
            voxelized.len(),
            "PLY round-trip must preserve count"
        );
        let ply_kib = std::fs::metadata(&path).expect("stat").len() / 1024;

        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(8)).expect("octree");

        println!(
            "{:<12} {:>9} {:>10} {:>9} {:>12} {:>9}",
            subject.name(),
            cloud.len(),
            voxelized.len(),
            ply_kib,
            tree.node_count(),
            tree.occupied_at_depth(8),
        );
    }

    println!("\nper-level occupancy (loot):");
    let loot = SynthBodyConfig::new(SubjectProfile::Loot)
        .with_target_points(60_000)
        .generate();
    let tree = Octree::build(&loot, &OctreeConfig::with_max_depth(8)).expect("octree");
    for (d, n) in tree.occupancy_profile().iter().enumerate() {
        let bar = "#".repeat((*n as f64).log2().max(0.0) as usize);
        println!("depth {d:>2}: {n:>7} {bar}");
    }
}
