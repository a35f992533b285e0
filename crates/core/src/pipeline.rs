//! The materialized pipeline: real octrees, real byte streams, real decode.
//!
//! [`crate::experiment`] drives the scheduler against a *profile* (the
//! per-depth table), which is all Algorithm 1 needs. This module closes the
//! loop with actual data structures: each slot the chosen depth's LoD frame
//! is **encoded** (occupancy + attribute streams, `arvis_octree::attr`), its
//! true byte size enters the queue, and decoded frames are verified against
//! the octree. It demonstrates (a) the scheduler is unit-agnostic — bytes
//! work as well as points — and (b) the codec path is lossless at every
//! depth the controller selects.
//!
//! A run takes two passes. The control pass is the serial loop of the
//! paper: decide, encode, queue. The queue needs only a frame's byte size,
//! and no decision waits for a check, so the pass only notes which depth
//! each verified slot took. The verify pass then re-encodes those frames
//! and checks them in fixed blocks of slots, fanned out over the
//! `arvis_par` workers once per run. The blocks never depend on the worker
//! count, and their answers are combined in slot order on the calling
//! thread, so a run reports the same, and panics with the same message,
//! on any number of workers.

use std::ops::RangeInclusive;
use std::sync::Mutex;

use arvis_octree::attr::{EncodedFrame, FrameCheck};
use arvis_octree::occupancy::DecodeError;
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
    /// # Errors
    ///
    /// Propagates octree construction failures (empty frames, excessive
    /// depth).
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
        // across the sequence.
        let cube = frames
            .iter()
            .filter_map(|f| f.aabb())
            .reduce(|a, b| a.union(&b))
            .map(|b| b.bounding_cube())
            .ok_or(OctreeError::EmptyCloud)?;
        let max_depth = *depths.end();
        let mut trees = Vec::with_capacity(frames.len());
        let mut byte_profiles = Vec::with_capacity(frames.len());
        // One builder for the whole sequence: Morton/SoA scratch buffers
        // are allocated for the first frame and reused for every other.
        let mut builder = OctreeBuilder::new();
        for f in frames {
            let tree = builder.build(f, &OctreeConfig::with_max_depth(max_depth).in_cube(cube))?;
            let arrivals: Vec<f64> = depths
                .clone()
                .map(|d| tree.encoded_frame_size(d) as f64)
                .collect();
            let quality = log_quality(&arrivals)
                .expect("each level adds an occupancy byte, so frames grow with depth");
            byte_profiles.push(DepthProfile::from_parts(*depths.start(), arrivals, quality));
            trees.push(tree);
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

/// Outcome of an encoded-pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Queue backlog in **bytes** per slot.
    pub backlog_bytes: TimeSeries,
    /// Chosen depth per slot.
    pub depth: TimeSeries,
    /// Total bytes encoded (= admitted work).
    pub bytes_encoded: u64,
    /// Frames whose decode was verified against the LoD extraction.
    pub frames_verified: usize,
    /// Whether every verified decode was bit-faithful.
    pub all_decodes_lossless: bool,
    /// Stability verdict of the byte backlog.
    pub stable: bool,
}

/// Verified slots per block of the verify pass: a fixed count, so every
/// worker count checks the same blocks, and a small one, so the workers'
/// shares of a run differ by at most a block.
const VERIFY_BLOCK: usize = 4;

/// Runs the encoded pipeline for `slots` slots against a device that drains
/// `bytes_per_slot`. Every `verify_every`-th slot the encoded frame is
/// decoded and compared against the LoD extraction (0 disables
/// verification).
///
/// The control pass steps every slot first: decide, encode, queue, series.
/// The verify pass then re-encodes each verified slot's frame, which is two
/// slice copies, rather than hold every frame of the run. It checks them in
/// fixed blocks of slots, each in one [`FrameCheck`], with the blocks
/// fanned out by [`arvis_par::map_chunks`] and their answers combined in
/// slot order, so the report is the same on any number of workers.
///
/// # Panics
///
/// Panics when a verified frame does not decode, with the error of the
/// first such slot.
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
        // Encoding is two slice copies of the tree's columns, so each slot
        // encodes its frame afresh.
        let size = EncodedFrame::encode(sequence.tree(slot), d).byte_size();
        bytes_encoded += size as u64;
        queue.step(size as f64, bytes_per_slot);
        backlog_bytes.push(queue.backlog());
        depth_series.push(f64::from(d));
        if verify_every > 0 && slot % verify_every == 0 {
            to_verify.push((slot, d));
        }
    }

    // Blocks borrow their `FrameCheck` from `spare` and put it back, so a
    // run makes one per worker rather than one per block: a fresh check
    // faults its buffers in on first use, at about half a check's cost.
    let spare = Mutex::new(Vec::new());
    let blocks = arvis_par::map_chunks(&to_verify, VERIFY_BLOCK, |_, block| {
        let mut check = spare.lock().expect(UNPOISONED).pop().unwrap_or_default();
        let answer = verify_block(sequence, block, &mut check);
        spare.lock().expect(UNPOISONED).push(check);
        answer
    });
    let mut all_lossless = true;
    for block in blocks {
        all_lossless &= block.expect("self-encoded frame decodes");
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

/// Why locking the spare checks cannot fail: the lock is held only for a
/// `pop` or a `push`, so no block panics while holding it.
const UNPOISONED: &str = "the spare checks are locked only to pop or push";

/// Re-encodes and checks the frames of `block`'s `(slot, depth)` pairs in
/// `check`: the first [`DecodeError`], or whether every frame was
/// lossless. A frame that is not lossless does not stop the block.
fn verify_block(
    sequence: &PreparedSequence,
    block: &[(u64, u8)],
    check: &mut FrameCheck,
) -> Result<bool, DecodeError> {
    block.iter().try_fold(true, |all, &(slot, depth)| {
        let tree = sequence.tree(slot);
        let lossless = check.lossless(&EncodedFrame::encode(tree, depth), tree, depth)?;
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
