//! The materialized pipeline: real octrees, real byte streams, real decode.
//!
//! [`crate::experiment`] drives the scheduler against a *profile* (the
//! per-depth table), which is all Algorithm 1 needs. This module closes the
//! loop with actual data structures: each slot the chosen depth's LoD frame
//! has its **encoded** size (occupancy + attribute streams,
//! `arvis_octree::attr`) enter the queue, and encoded frames are decoded and
//! verified against the octree. It demonstrates (a) the scheduler is
//! unit-agnostic — bytes work as well as points — and (b) the codec path is
//! lossless at every depth the controller selects.
//!
//! [`PreparedSequence::prepare`] builds every frame's octree before a run:
//! the frames' bounding boxes, then their builds and byte profiles, each
//! fanned out over the `arvis_par` workers and assembled in frame order.
//!
//! A run takes two passes. The control pass is the serial loop of the
//! paper: decide, size, queue. The queue needs only a frame's byte size,
//! which the tree gives without encoding, and no decision waits for a
//! check, so the pass only notes the depth and size of each verified slot.
//! The verify pass then encodes those frames, checks each against the size
//! queued and its decode against the octree, in fixed blocks of slots,
//! fanned out over the workers once per run. The blocks never depend on the
//! worker count, and their answers are combined in slot order on the
//! calling thread, so a run reports the same, and panics with the same
//! message, on any number of workers.

use std::ops::RangeInclusive;
use std::sync::Mutex;

use arvis_octree::attr::{EncodedFrame, FrameCheck};
use arvis_octree::{Octree, OctreeBuilder, OctreeConfig, OctreeError};
use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_quality::profile::log_quality;
use arvis_quality::DepthProfile;
use arvis_sim::queue::WorkQueue;
use arvis_sim::stats::TimeSeries;

use crate::controller::DepthController;

/// A prepared content sequence: octrees over a shared cube, ready to encode
/// at any depth.
#[derive(Debug)]
pub struct PreparedSequence {
    trees: Vec<Octree>,
    depths: RangeInclusive<u8>,
    /// Byte-unit profile per frame (arrival = encoded frame size).
    byte_profiles: Vec<DepthProfile>,
}

impl PreparedSequence {
    /// Builds octrees for every frame over the union bounding cube and
    /// derives byte-unit profiles.
    ///
    /// Both passes fan out over the frames with [`arvis_par::map_chunks`]:
    /// first each frame's bounding box, which the calling thread then
    /// unions in frame order, so the shared cube is the serial fold's; then
    /// each frame's octree and byte profile, in fixed blocks of
    /// `PREPARE_BLOCK` frames, each worker building in one
    /// [`OctreeBuilder`] of its own. Trees and profiles are assembled in
    /// frame order, so the sequence is the same on any number of workers.
    ///
    /// # Errors
    ///
    /// Propagates octree construction failures (empty frames, excessive
    /// depth): the first in frame order, on any number of workers.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is empty or the depth range is reversed /
    /// starts at 0 (the codec needs depth ≥ 1).
    pub fn prepare(
        frames: &[PointCloud],
        depths: RangeInclusive<u8>,
    ) -> Result<PreparedSequence, OctreeError> {
        assert!(!frames.is_empty(), "need at least one frame");
        assert!(
            *depths.start() >= 1 && depths.start() < depths.end(),
            "need 1 <= min_depth < max_depth"
        );
        // Shared cube: union of all frame boxes, so voxel grids align
        // across the sequence. The workers find one frame's box per chunk;
        // the calling thread unions them in frame order.
        let cube = arvis_par::map_chunks(frames, 1, |_, frame| frame[0].aabb())
            .into_iter()
            .flatten()
            .reduce(|a, b| a.union(&b))
            .map(|b| b.bounding_cube())
            .ok_or(OctreeError::EmptyCloud)?;
        let config = OctreeConfig::with_max_depth(*depths.end()).in_cube(cube);
        // One builder per worker: a block borrows one from the spares, so
        // its sort buffers are allocated for a worker's first frame and
        // reused for every other.
        let blocks = map_blocks(
            frames,
            PREPARE_BLOCK,
            |block, builder: &mut OctreeBuilder| {
                block
                    .iter()
                    .map(|frame| {
                        let tree = builder.build(frame, &config)?;
                        let profile = byte_profile(&tree, depths.clone());
                        Ok((tree, profile))
                    })
                    .collect::<Result<Vec<_>, OctreeError>>()
            },
        );
        let mut trees = Vec::with_capacity(frames.len());
        let mut byte_profiles = Vec::with_capacity(frames.len());
        for block in blocks {
            for (tree, profile) in block? {
                trees.push(tree);
                byte_profiles.push(profile);
            }
        }
        Ok(PreparedSequence {
            trees,
            depths,
            byte_profiles,
        })
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// `true` when no frames were prepared (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The shared bounding cube.
    pub fn cube(&self) -> &Aabb {
        self.trees[0].cube()
    }

    /// The candidate depths.
    pub fn depths(&self) -> RangeInclusive<u8> {
        self.depths.clone()
    }

    /// The byte-unit profile of frame `i % len`.
    pub fn byte_profile(&self, slot: u64) -> &DepthProfile {
        &self.byte_profiles[(slot as usize) % self.byte_profiles.len()]
    }

    /// The octree of frame `i % len`.
    pub fn tree(&self, slot: u64) -> &Octree {
        &self.trees[(slot as usize) % self.trees.len()]
    }
}

/// `tree`'s byte-unit profile over `depths`: each depth's arrival is the
/// size of its encoded frame.
fn byte_profile(tree: &Octree, depths: RangeInclusive<u8>) -> DepthProfile {
    let min_depth = *depths.start();
    let arrivals: Vec<f64> = depths.map(|d| tree.encoded_frame_size(d) as f64).collect();
    let quality = log_quality(&arrivals)
        .expect("each level adds an occupancy byte, so frames grow with depth");
    DepthProfile::from_parts(min_depth, arrivals, quality)
}

/// Outcome of an encoded-pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Queue backlog in **bytes** per slot.
    pub backlog_bytes: TimeSeries,
    /// Chosen depth per slot.
    pub depth: TimeSeries,
    /// Total bytes queued (= admitted work): each slot's encoded frame
    /// size, which its tree gives without encoding.
    pub bytes_encoded: u64,
    /// Frames whose decode was verified against the LoD extraction.
    pub frames_verified: usize,
    /// Whether every verified decode was bit-faithful.
    pub all_decodes_lossless: bool,
    /// Stability verdict of the byte backlog.
    pub stable: bool,
}

/// Frames per block of `prepare`'s build pass: a fixed count, so every
/// worker count builds the same blocks. A build takes about a millisecond,
/// far more than a block costs, so one frame per block evens the workers'
/// shares best.
const PREPARE_BLOCK: usize = 1;

/// Verified slots per block of the verify pass: a fixed count, so every
/// worker count checks the same blocks, and a small one, so the workers'
/// shares of a run differ by at most a block.
const VERIFY_BLOCK: usize = 4;

/// Runs the encoded pipeline for `slots` slots against a device that drains
/// `bytes_per_slot`. Every `verify_every`-th slot the encoded frame is
/// decoded and compared against the LoD extraction (0 disables
/// verification).
///
/// The control pass steps every slot first: decide, size, queue, series.
/// A frame's encoded size comes from its tree, without encoding it. The
/// verify pass then encodes each verified slot's frame, which is two slice
/// copies, rather than hold every frame of the run, and checks that it is
/// as large as the size queued. It checks them in fixed blocks of slots,
/// each in one [`FrameCheck`], with the blocks fanned out by
/// [`arvis_par::map_chunks`] and their answers combined in slot order, so
/// the report is the same on any number of workers.
///
/// # Panics
///
/// Panics when a verified frame does not decode, or encodes to another
/// size than the one queued, with the fault of the first such slot.
pub fn run_encoded_pipeline(
    sequence: &PreparedSequence,
    controller: &mut dyn DepthController,
    bytes_per_slot: f64,
    slots: u64,
    verify_every: u64,
) -> PipelineReport {
    let mut queue = WorkQueue::new();
    let mut backlog_bytes = TimeSeries::new("backlog_bytes");
    let mut depth_series = TimeSeries::new("depth");
    let mut bytes_encoded = 0u64;
    let mut to_verify = Vec::new();

    for slot in 0..slots {
        let profile = sequence.byte_profile(slot);
        let d = controller.select_depth(slot, queue.backlog(), profile);
        let size = sequence.tree(slot).encoded_frame_size(d);
        bytes_encoded += size as u64;
        queue.step(size as f64, bytes_per_slot);
        backlog_bytes.push(queue.backlog());
        depth_series.push(f64::from(d));
        if verify_every > 0 && slot % verify_every == 0 {
            to_verify.push((slot, d, size));
        }
    }

    let blocks = map_blocks(&to_verify, VERIFY_BLOCK, |block, check| {
        verify_block(sequence, block, check)
    });
    let mut all_lossless = true;
    for block in blocks {
        all_lossless &= block.unwrap_or_else(|fault| panic!("{fault}"));
    }

    let stable = backlog_bytes.is_stable((slots / 2).max(2) as usize, 1e-3);
    PipelineReport {
        backlog_bytes,
        depth: depth_series,
        bytes_encoded,
        frames_verified: to_verify.len(),
        all_decodes_lossless: all_lossless,
        stable,
    }
}

/// Maps every `block`-sized piece of `data` through `f` with
/// [`arvis_par::map_chunks`], lending each piece an `S` to work in.
///
/// Pieces borrow their `S` from a list of spares and put it back, so a call
/// makes one per worker rather than one per piece: a fresh builder or check
/// faults its buffers in on first use, at about half a use's cost.
fn map_blocks<T: Sync, S: Default + Send, U: Send>(
    data: &[T],
    block: usize,
    f: impl Fn(&[T], &mut S) -> U + Sync,
) -> Vec<U> {
    let spare = Mutex::new(Vec::new());
    arvis_par::map_chunks(data, block, |_, piece| {
        let mut scratch = spare.lock().expect(UNPOISONED).pop().unwrap_or_default();
        let answer = f(piece, &mut scratch);
        spare.lock().expect(UNPOISONED).push(scratch);
        answer
    })
}

/// Why locking the spares cannot fail: the lock is held only for a `pop`
/// or a `push`, so no piece panics while holding it.
const UNPOISONED: &str = "the spares are locked only to pop or push";

/// Encodes and checks the frames of `block`'s `(slot, depth, queued size)`
/// triples in `check`: whether every frame was lossless, or the fault of
/// the first slot whose frame encodes to another size than the one queued
/// or does not decode. A frame that is not lossless does not stop the
/// block.
fn verify_block(
    sequence: &PreparedSequence,
    block: &[(u64, u8, usize)],
    check: &mut FrameCheck,
) -> Result<bool, String> {
    block.iter().try_fold(true, |all, &(slot, depth, size)| {
        let tree = sequence.tree(slot);
        let frame = EncodedFrame::encode(tree, depth);
        if frame.byte_size() != size {
            return Err(format!(
                "slot {slot} queued {size} bytes at depth {depth}, but its frame encodes to {}",
                frame.byte_size()
            ));
        }
        let lossless = check
            .lossless(&frame, tree, depth)
            .map_err(|e| format!("self-encoded frame decodes: {e:?}"))?;
        Ok(all && lossless)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{MaxDepth, ProposedDpp};
    use arvis_pointcloud::synth::{FrameSequence, SubjectProfile};

    fn sequence() -> PreparedSequence {
        let seq = FrameSequence::new(SubjectProfile::RedAndBlack, 4).with_target_points(4_000);
        let frames: Vec<PointCloud> = seq.iter_frames().collect();
        PreparedSequence::prepare(&frames, 2..=6).unwrap()
    }

    #[test]
    fn prepare_builds_aligned_trees() {
        let s = sequence();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.depths(), 2..=6);
        // All trees share the cube.
        for slot in 0..4u64 {
            assert_eq!(s.tree(slot).cube(), s.cube());
        }
        // Byte profiles grow with depth.
        let p = s.byte_profile(0);
        assert!(p.arrival(6) > p.arrival(2));
        assert_eq!(p.quality(2), 0.0);
        assert_eq!(p.quality(6), 1.0);
    }

    #[test]
    fn byte_profile_matches_real_encoded_sizes() {
        let s = sequence();
        for slot in 0..4u64 {
            let p = s.byte_profile(slot);
            for d in 2..=6u8 {
                let real = EncodedFrame::encode(s.tree(slot), d).byte_size() as f64;
                assert_eq!(p.arrival(d), real, "frame {slot} depth {d}");
            }
        }
    }

    #[test]
    fn pipeline_is_stable_and_lossless_under_proposed() {
        let s = sequence();
        // Service between the two deepest byte sizes.
        let p = s.byte_profile(0);
        let rate = (p.arrival(5) * p.arrival(6)).sqrt();
        let mut ctl = ProposedDpp::new(1e7);
        let report = run_encoded_pipeline(&s, &mut ctl, rate, 2_000, 10);
        assert!(report.stable, "byte-unit scheduling must stabilize");
        assert!(report.all_decodes_lossless, "codec must be lossless");
        assert_eq!(report.frames_verified, 200);
        assert!(report.bytes_encoded > 0);
        // The controller must actually use multiple depths (time-sharing).
        let depths: std::collections::BTreeSet<i64> =
            report.depth.values().iter().map(|&d| d as i64).collect();
        assert!(depths.len() >= 2, "expected time-sharing, got {depths:?}");
    }

    #[test]
    fn pipeline_diverges_under_max_depth_when_undersized() {
        let s = sequence();
        let p = s.byte_profile(0);
        let rate = p.arrival(5); // below the depth-6 byte rate
        let report = run_encoded_pipeline(&s, &mut MaxDepth, rate, 1_000, 0);
        assert!(!report.stable);
        assert_eq!(report.frames_verified, 0, "verification disabled");
    }

    #[test]
    fn verify_block_reports_a_size_the_frame_does_not_encode_to() {
        let s = sequence();
        let size = s.tree(1).encoded_frame_size(4);
        let queued = |size| [(0, 3, s.tree(0).encoded_frame_size(3)), (1, 4, size)];
        let mut check = FrameCheck::default();
        assert_eq!(verify_block(&s, &queued(size), &mut check), Ok(true));
        assert_eq!(
            verify_block(&s, &queued(size + 1), &mut check),
            Err(format!(
                "slot 1 queued {} bytes at depth 4, but its frame encodes to {size}",
                size + 1
            ))
        );
    }

    #[test]
    fn prepare_rejects_bad_inputs() {
        assert!(PreparedSequence::prepare(&[PointCloud::new()], 2..=5).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn prepare_rejects_empty_sequence() {
        let _ = PreparedSequence::prepare(&[], 2..=5);
    }

    #[test]
    #[should_panic(expected = "min_depth")]
    fn prepare_rejects_zero_min_depth() {
        let seq = FrameSequence::new(SubjectProfile::Loot, 1).with_target_points(500);
        let frames: Vec<PointCloud> = seq.iter_frames().collect();
        let _ = PreparedSequence::prepare(&frames, 0..=4);
    }
}
