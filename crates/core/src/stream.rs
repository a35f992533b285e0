//! AR stream sources: where each slot's depth profile comes from.
//!
//! Each time slot the scheduler consults the current frame's
//! [`DepthProfile`] (per-depth arrivals and quality). Sources:
//!
//! - [`ArStream::constant`]: one profile for every slot (the paper's setup —
//!   a stationary stream whose per-depth statistics are those of the 8i
//!   bodies);
//! - [`ArStream::cycle`]: per-frame measured profiles of a dynamic sequence,
//!   replayed cyclically;
//! - [`ArStream::modulated`]: the constant profile with a sinusoidal
//!   arrival modulation (subject moving closer/farther), for robustness
//!   experiments.

use std::borrow::Cow;

use arvis_pointcloud::synth::FrameSequence;
use arvis_quality::profile::{DepthProfile, ProfileError, QualityMetric};

use crate::json::{self, ensure, Broken, Codec, Emit, Emitter, JsonError, JsonValue, Rules};

/// A source of per-slot depth profiles.
#[derive(Debug, Clone)]
pub struct ArStream {
    kind: StreamKind,
}

#[derive(Debug, Clone)]
enum StreamKind {
    Constant(DepthProfile),
    Cycle(Vec<DepthProfile>),
    Modulated {
        base: DepthProfile,
        amplitude: f64,
        period_slots: f64,
    },
}

impl ArStream {
    /// A stationary stream: the same profile every slot.
    pub fn constant(profile: DepthProfile) -> ArStream {
        ArStream {
            kind: StreamKind::Constant(profile),
        }
    }

    /// Replays measured per-frame profiles cyclically.
    ///
    /// # Panics
    ///
    /// Panics when `profiles` is empty or the frames disagree on the depth
    /// range.
    pub fn cycle(profiles: Vec<DepthProfile>) -> ArStream {
        let stream = ArStream {
            kind: StreamKind::Cycle(profiles),
        };
        json::enforce(stream.check());
        stream
    }

    /// The base profile with arrivals scaled by
    /// `1 + amplitude · sin(2π · slot / period_slots)` — models the subject
    /// approaching and receding from the capture volume.
    ///
    /// # Panics
    ///
    /// Panics when `amplitude ∉ [0, 1)` or `period_slots <= 0`.
    pub fn modulated(base: DepthProfile, amplitude: f64, period_slots: f64) -> ArStream {
        let stream = ArStream {
            kind: StreamKind::Modulated {
                base,
                amplitude,
                period_slots,
            },
        };
        json::enforce(stream.check());
        stream
    }

    /// Measures per-frame profiles of a synthetic [`FrameSequence`] and
    /// builds a cycling stream. `frame_stride` measures every `stride`-th
    /// frame (profiles are expensive at full resolution).
    ///
    /// # Errors
    ///
    /// Propagates profile-measurement failures.
    ///
    /// # Panics
    ///
    /// Panics when `frame_stride == 0` or the sequence is empty.
    pub fn from_sequence(
        sequence: &FrameSequence,
        depths: std::ops::RangeInclusive<u8>,
        frame_stride: usize,
    ) -> Result<ArStream, ProfileError> {
        assert!(frame_stride >= 1, "stride must be >= 1");
        assert!(!sequence.is_empty(), "sequence must have frames");
        let mut profiles = Vec::new();
        // Shared octree scratch across the measured frames.
        let mut builder = arvis_octree::OctreeBuilder::new();
        let mut i = 0;
        while i < sequence.len() {
            let frame = sequence.frame(i);
            profiles.push(DepthProfile::measure_with_builder(
                &frame,
                depths.clone(),
                QualityMetric::LogPointCount,
                &mut builder,
            )?);
            i += frame_stride;
        }
        Ok(ArStream::cycle(profiles))
    }

    /// The profile in effect at `slot`.
    pub fn profile_at(&self, slot: u64) -> Cow<'_, DepthProfile> {
        match &self.kind {
            StreamKind::Constant(p) => Cow::Borrowed(p),
            StreamKind::Cycle(ps) => Cow::Borrowed(&ps[(slot as usize) % ps.len()]),
            StreamKind::Modulated {
                base,
                amplitude,
                period_slots,
            } => {
                let mut profile = unscaled(base);
                profile.rescale_arrivals(base, modulation(slot, *amplitude, *period_slots));
                Cow::Owned(profile)
            }
        }
    }

    /// The long-run mean arrival at depth `d` across the stream.
    pub fn mean_arrival(&self, depth: u8) -> f64 {
        match &self.kind {
            StreamKind::Constant(p) => p.arrival(depth),
            StreamKind::Cycle(ps) => {
                ps.iter().map(|p| p.arrival(depth)).sum::<f64>() / ps.len() as f64
            }
            // Sinusoid has zero mean over a period.
            StreamKind::Modulated { base, .. } => base.arrival(depth),
        }
    }

    /// The depth range served by this stream.
    pub fn depths(&self) -> std::ops::RangeInclusive<u8> {
        match &self.kind {
            StreamKind::Constant(p) => p.depths(),
            StreamKind::Cycle(ps) => ps[0].depths(),
            StreamKind::Modulated { base, .. } => base.depths(),
        }
    }

    /// The stream's rule walk: a cycle has frames that share one depth
    /// range, a modulation has `amplitude ∈ [0, 1)` and a positive period.
    /// Each profile's own rules are [`profile_rules`].
    pub(crate) fn check(&self) -> Rules {
        match &self.kind {
            StreamKind::Constant(_) => Ok(()),
            StreamKind::Cycle(profiles) => {
                ensure(!profiles.is_empty(), "profiles", || {
                    "need at least one frame profile".to_string()
                })?;
                match profiles
                    .iter()
                    .position(|p| p.depths() != profiles[0].depths())
                {
                    Some(i) => Err(Broken {
                        path: format!("profiles[{i}]"),
                        msg: "all frame profiles must share the same depth range".to_string(),
                    }),
                    None => Ok(()),
                }
            }
            StreamKind::Modulated {
                base: _,
                amplitude,
                period_slots,
            } => {
                ensure((0.0..1.0).contains(amplitude), "amplitude", || {
                    format!("amplitude must be in [0, 1), got {amplitude}")
                })?;
                ensure(*period_slots > 0.0, "period_slots", || {
                    format!("period_slots must be positive, got {period_slots}")
                })
            }
        }
    }
}

/// The arrival scale of a modulated stream at `slot`:
/// `1 + amplitude · sin(2π · slot / period_slots)`.
fn modulation(slot: u64, amplitude: f64, period_slots: f64) -> f64 {
    let phase = std::f64::consts::TAU * slot as f64 / period_slots;
    1.0 + amplitude * phase.sin()
}

/// A modulated stream's profile before its scale: the base's arrivals and
/// quality through `from_parts`, so the PSNR column is NaN.
fn unscaled(base: &DepthProfile) -> DepthProfile {
    let arrivals = base.depths().map(|d| base.arrival(d)).collect();
    let quality = base.depths().map(|d| base.quality(d)).collect();
    DepthProfile::from_parts(base.min_depth(), arrivals, quality)
}

/// A session's stream with one scratch profile: a modulated stream
/// rewrites its arrivals in place each slot, where [`ArStream::profile_at`]
/// builds a new profile (three columns) per call.
#[derive(Debug)]
pub(crate) struct StreamState {
    stream: ArStream,
    /// A modulated stream's profile; `None` for the other kinds.
    scratch: Option<DepthProfile>,
}

impl StreamState {
    /// Seeds a modulated stream's scratch with the session's other state,
    /// not on its first slot: seeded mid-run, the scratch profiles made a
    /// batch that is built and dropped again and again fault its pages in
    /// anew each time (perfbench's `tenant_cell` at seed 53 took up to 14×
    /// the minor faults), likely by changing where the heap ends.
    pub(crate) fn new(stream: ArStream) -> StreamState {
        let scratch = match &stream.kind {
            StreamKind::Modulated { base, .. } => Some(unscaled(base)),
            StreamKind::Constant(_) | StreamKind::Cycle(_) => None,
        };
        StreamState { stream, scratch }
    }

    /// The profile in effect at `slot`: [`ArStream::profile_at`]'s, bit for
    /// bit, PSNR column included.
    pub(crate) fn profile_at(&mut self, slot: u64) -> &DepthProfile {
        match &self.stream.kind {
            StreamKind::Constant(p) => p,
            StreamKind::Cycle(ps) => &ps[(slot as usize) % ps.len()],
            StreamKind::Modulated {
                base,
                amplitude,
                period_slots,
            } => {
                let profile = self
                    .scratch
                    .as_mut()
                    .expect("seeded for a modulated stream");
                profile.rescale_arrivals(base, modulation(slot, *amplitude, *period_slots));
                profile
            }
        }
    }
}

/// A stream's file form is its kind's: a `"type"`-tagged object whose
/// profiles are `{min_depth, arrivals, quality}` tables.
impl Emit for ArStream {
    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError> {
        let ArStream { kind } = self;
        kind.emit(out, name)
    }
}

impl Codec for ArStream {
    fn decode(v: &JsonValue) -> Result<ArStream, JsonError> {
        let stream = ArStream {
            kind: StreamKind::decode(v)?,
        };
        stream.check().map_err(|broken| broken.at(v))?;
        Ok(stream)
    }
}

json::codec!(StreamKind as "stream type" {
    Constant "constant" (profile),
    Cycle "cycle" (profiles),
    Modulated "modulated" { base, amplitude, period_slots },
});

/// A [`DepthProfile`]'s file form is its `{min_depth, arrivals, quality}`
/// table, the exact `from_parts` surface (PSNR columns are measurement
/// artifacts and never serialized). The type is foreign, so this glue is
/// written by hand, and decoding checks `profile_rules` before
/// `from_parts`, which panics on the same conditions.
impl Emit for DepthProfile {
    fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
        out.object(|out| {
            out.member("min_depth", &self.min_depth())?;
            out.key("arrivals");
            out.array(true, self.depths(), |out, d| {
                self.arrival(d).emit(out, "arrival")
            })?;
            out.key("quality");
            out.array(true, self.depths(), |out, d| {
                self.quality(d).emit(out, "quality")
            })
        })
    }
}

impl Codec for DepthProfile {
    fn decode(v: &JsonValue) -> Result<DepthProfile, JsonError> {
        let mut obj = v.as_obj()?;
        let min_depth = Codec::member(&mut obj, "min_depth")?;
        let arrivals: Vec<f64> = Codec::member(&mut obj, "arrivals")?;
        let quality: Vec<f64> = Codec::member(&mut obj, "quality")?;
        obj.finish()?;
        profile_rules(min_depth, &arrivals, &quality).map_err(|broken| broken.at(v))?;
        Ok(DepthProfile::from_parts(min_depth, arrivals, quality))
    }
}

/// A profile's rule walk, over its parts: at least two depths that fit in
/// a `u8` above `min_depth`, positive arrivals, and one quality per
/// arrival.
fn profile_rules(min_depth: u8, arrivals: &[f64], quality: &[f64]) -> Rules {
    ensure(arrivals.len() >= 2, "arrivals", || {
        "need at least two depths".to_string()
    })?;
    ensure(
        arrivals.len() - 1 <= usize::from(u8::MAX - min_depth),
        "arrivals",
        || {
            format!(
                "depth range overflows u8: min_depth {min_depth} + {} levels",
                arrivals.len()
            )
        },
    )?;
    if let Some(i) = arrivals.iter().position(|&a| a <= 0.0) {
        return Err(Broken {
            path: format!("arrivals[{i}]"),
            msg: format!("arrivals must be positive, got {}", arrivals[i]),
        });
    }
    ensure(quality.len() == arrivals.len(), "quality", || {
        format!(
            "quality has {} entries but arrivals has {}",
            quality.len(),
            arrivals.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_pointcloud::synth::SubjectProfile;

    fn profile(scale: f64) -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![scale * 100.0, scale * 400.0, scale * 1600.0],
            vec![0.0, 0.5, 1.0],
        )
    }

    #[test]
    fn constant_stream_is_constant() {
        let s = ArStream::constant(profile(1.0));
        assert_eq!(s.profile_at(0).arrival(5), 100.0);
        assert_eq!(s.profile_at(999).arrival(5), 100.0);
        assert_eq!(s.mean_arrival(6), 400.0);
        assert_eq!(s.depths(), 5..=7);
    }

    #[test]
    fn cycle_stream_rotates() {
        let s = ArStream::cycle(vec![profile(1.0), profile(2.0)]);
        assert_eq!(s.profile_at(0).arrival(5), 100.0);
        assert_eq!(s.profile_at(1).arrival(5), 200.0);
        assert_eq!(s.profile_at(2).arrival(5), 100.0);
        assert_eq!(s.mean_arrival(5), 150.0);
    }

    #[test]
    #[should_panic(expected = "same depth range")]
    fn cycle_rejects_mismatched_ranges() {
        let other = DepthProfile::from_parts(4, vec![1.0, 2.0], vec![0.0, 1.0]);
        let _ = ArStream::cycle(vec![profile(1.0), other]);
    }

    #[test]
    fn modulated_oscillates_and_preserves_quality() {
        let s = ArStream::modulated(profile(1.0), 0.5, 100.0);
        let at_zero = s.profile_at(0);
        let at_quarter = s.profile_at(25); // sin = 1 -> ×1.5
        let at_three_quarters = s.profile_at(75); // sin = -1 -> ×0.5
        assert!((at_zero.arrival(5) - 100.0).abs() < 1e-9);
        assert!((at_quarter.arrival(5) - 150.0).abs() < 1e-9);
        assert!((at_three_quarters.arrival(5) - 50.0).abs() < 1e-9);
        // Quality untouched by modulation.
        assert_eq!(at_quarter.quality(7), 1.0);
        assert_eq!(s.mean_arrival(5), 100.0);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn modulated_rejects_full_amplitude() {
        let _ = ArStream::modulated(profile(1.0), 1.0, 10.0);
    }

    #[test]
    fn from_sequence_measures_frames() {
        let seq = FrameSequence::new(SubjectProfile::Loot, 4).with_target_points(2_000);
        let s = ArStream::from_sequence(&seq, 3..=5, 2).unwrap();
        // Frames 0 and 2 measured.
        let p0 = s.profile_at(0);
        let p1 = s.profile_at(1);
        assert_eq!(p0.depths(), 3..=5);
        // Different poses -> different occupancy (almost surely).
        assert_ne!(p0.arrival(5), p1.arrival(5));
        // Cycles with period 2.
        assert_eq!(s.profile_at(0).arrival(5), s.profile_at(2).arrival(5));
    }

    #[test]
    fn scratch_profile_is_profile_at_bitwise() {
        // SplitMix64: seeded profiles, modulations and slot sequences.
        let mut state = 0x0d0c_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let bits = |p: &DepthProfile| -> Vec<[u64; 3]> {
            p.depths()
                .map(|d| [p.arrival(d), p.quality(d), p.psnr_db(d)].map(f64::to_bits))
                .collect()
        };
        for case in 0..200 {
            let min_depth = (unit() * 8.0) as u8;
            let len = 2 + (unit() * 7.0) as usize;
            let arrivals = (0..len).map(|_| 1.0 + unit() * 5e4).collect();
            let quality = (0..len).map(|_| unit()).collect();
            let base = DepthProfile::from_parts(min_depth, arrivals, quality);
            // Amplitudes in [0, 1) and periods that are not integers.
            let (amplitude, period) = (unit(), 0.37 + unit() * 1e3);
            let stream = ArStream::modulated(base.clone(), amplitude, period);
            let mut scratch = StreamState::new(stream.clone());
            // A batch clock from anywhere below 10^6, with jumps and cold
            // restarts, each of which sets the local clock back to 0.
            let (mut slot, mut offset) = ((unit() * 1e6) as u64, 0);
            for _ in 0..60 {
                match (unit() * 10.0) as u32 {
                    0 => offset = slot,
                    1 => slot += (unit() * 1e6) as u64,
                    _ => slot += 1,
                }
                let local = slot - offset;
                let phase = std::f64::consts::TAU * local as f64 / period;
                let scale = 1.0 + amplitude * phase.sin();
                let want: Vec<[u64; 3]> = base
                    .depths()
                    .map(|d| [base.arrival(d) * scale, base.quality(d), f64::NAN].map(f64::to_bits))
                    .collect();
                assert_eq!(
                    bits(&stream.profile_at(local)),
                    want,
                    "case {case}, slot {local}"
                );
                assert_eq!(
                    bits(scratch.profile_at(local)),
                    want,
                    "case {case}, slot {local}"
                );
            }
        }
    }
}
