//! LoD extraction cost per depth — what the renderer pays per frame at each
//! candidate depth, i.e. the physical grounding of the arrival model `a(d)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use arvis_octree::{LodMode, Octree, OctreeConfig};
use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

fn bench_lod(c: &mut Criterion) {
    let cloud = SynthBodyConfig::new(SubjectProfile::Longdress)
        .with_target_points(100_000)
        .with_seed(2)
        .generate();
    let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(10)).unwrap();

    let mut group = c.benchmark_group("lod_extract");
    group.sample_size(30);
    for depth in [5u8, 6, 7, 8, 9, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter(|| black_box(tree.extract_lod(d, LodMode::VoxelCenters)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lod);
criterion_main!(benches);
