//! `encoded_pipeline`: the materialized pipeline of `core::pipeline`.
//!
//! Seeded synthetic frames go through `PreparedSequence::prepare` (octree
//! builds and per-depth encoded sizes: the set-up), then
//! `run_encoded_pipeline` runs the proposed controller against a byte rate
//! between the two deepest encodings, encoding through its cache and
//! decoding, extracting the LoD and verifying every slot. It is the only
//! workload on `arvis_octree` and the codec, and it bypasses sessions and
//! the uplink entirely.

use std::collections::btree_map::{BTreeMap, Entry};

use arvis_core::controller::{DepthController, ProposedDpp};
use arvis_core::experiment::v_for_knee;
use arvis_core::pipeline::{run_encoded_pipeline, PipelineReport, PreparedSequence};
use arvis_octree::attr::{frames_equivalent, EncodedFrame};
use arvis_octree::{LodMode, OctreeBuilder, OctreeConfig};
use arvis_pointcloud::PointCloud;
use arvis_sim::queue::WorkQueue;
use arvis_sim::stats::TimeSeries;

use crate::clock::now_ns;
use crate::gen::{frames, PipelineShape, Size};
use crate::stats::{median, median_secs, quantile, ratio};
use crate::trace::Tracer;
use crate::{closed_loop, same_bits, spread_note, Checker, Outcome};

/// Traced repetitions (each paired with an untraced one).
const TRACE_REPS: u64 = 2;

/// The run's byte rate and controller `V`, derived from the first frame's
/// byte profile: a rate between the two deepest encodings, and the knee
/// at `knee` slots.
fn params(seq: &PreparedSequence, knee: f64) -> Result<(f64, f64), String> {
    let profile = seq.byte_profile(0);
    let top = profile.max_depth();
    let rate = (profile.arrival(top - 1) * profile.arrival(top)).sqrt();
    let v = v_for_knee(profile, rate, knee).ok_or("the byte rate covers the deepest encoding")?;
    Ok((rate, v))
}

/// A run's observable outputs, compared bitwise across runs.
// The fields are read through `Debug`, which `same_bits` compares.
#[allow(dead_code)]
#[derive(Debug)]
struct RunView {
    depth: Vec<f64>,
    backlog: Vec<f64>,
    bytes_encoded: u64,
    frames_verified: usize,
    lossless: bool,
    stable: bool,
}

impl RunView {
    fn of(report: &PipelineReport) -> RunView {
        RunView {
            depth: report.depth.values().to_vec(),
            backlog: report.backlog_bytes.values().to_vec(),
            bytes_encoded: report.bytes_encoded,
            frames_verified: report.frames_verified,
            lossless: report.all_decodes_lossless,
            stable: report.stable,
        }
    }
}

/// The checks every pipeline run must pass.
fn check(checker: &mut Checker, report: &PipelineReport, slots: u64) {
    checker.check(report.all_decodes_lossless, || {
        "a decode was not lossless".to_string()
    });
    checker.check(report.frames_verified as u64 == slots, || {
        format!("{} of {slots} frames verified", report.frames_verified)
    });
    checker.check(report.stable, || {
        "the byte backlog is not stable".to_string()
    });
    checker.check(report.bytes_encoded > 0, || "no bytes encoded".to_string());
}

/// One untimed-input repetition: prepare, then run; returns the set-up
/// and stepping times with the report.
fn rep(
    frames: &[PointCloud],
    shape: &PipelineShape,
) -> Result<(u64, u64, PreparedSequence, PipelineReport), String> {
    let t0 = now_ns();
    let seq = PreparedSequence::prepare(frames, shape.depths.clone())
        .map_err(|e| format!("prepare: {e}"))?;
    let t1 = now_ns();
    let (rate, v) = params(&seq, shape.knee)?;
    let mut controller = ProposedDpp::new(v);
    let t2 = now_ns();
    let report = run_encoded_pipeline(&seq, &mut controller, rate, shape.slots, 1);
    let t3 = now_ns();
    Ok((t1 - t0, t3 - t2, seq, report))
}

/// The timed run: repetitions of frames → verified run until `seconds`
/// pass.
pub fn timed(seed: u64, size: Size, seconds: f64) -> Outcome {
    let shape = PipelineShape::of(size);
    let frames = frames(seed, &shape);
    let mut checker = Checker::default();
    let (mut setup_ns, mut rates, mut slot_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes_per_frame = 0.0;
    let peak_rss_mb = closed_loop(seconds, |measured| {
        checker.begin();
        match rep(&frames, &shape) {
            Err(e) => checker.check(false, || e),
            Ok((prepare_ns, run_ns, _, report)) => {
                check(&mut checker, &report, shape.slots);
                if measured {
                    setup_ns.push(prepare_ns);
                    let run_s = run_ns as f64 * 1e-9;
                    rates.push(shape.slots as f64 / run_s);
                    slot_ms.push(run_s * 1e3 / shape.slots as f64);
                    bytes_per_frame = report.bytes_encoded as f64 / shape.slots as f64;
                }
            }
        }
        checker.end();
    });
    let mut out = Outcome::default();
    checker.finish(&mut out);
    out.set("peak_rss_mb", peak_rss_mb);
    let setup_s: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 * 1e-9).collect();
    out.set("setup_s", median(&setup_s));
    out.set("session_slots_per_s", median(&rates));
    out.notes.push(spread_note("setup_s", &setup_s));
    out.notes.push(spread_note("session_slots_per_s", &rates));
    out.set("slot_p50_ms", median(&slot_ms));
    out.set("slot_p90_ms", quantile(&slot_ms, 0.9));
    out.notes.push(format!(
        "{} frames x {} points, depths {:?}, {} slots per run, {:.0} B per frame, {} measured repetitions",
        shape.frames,
        shape.points,
        shape.depths,
        shape.slots,
        bytes_per_frame,
        rates.len()
    ));
    out
}

/// Re-drives `PreparedSequence::prepare` from outside: the shared cube,
/// one `OctreeBuilder` build per frame and the per-depth encoded sizes,
/// with a span around each; `true` when every size matches `seq`'s byte
/// profiles bitwise.
fn redrive_prepare(
    frames: &[PointCloud],
    shape: &PipelineShape,
    seq: &PreparedSequence,
    tracer: &mut Tracer,
    rep: u64,
) -> bool {
    let Some(cube) = frames
        .iter()
        .filter_map(PointCloud::aabb)
        .reduce(|a, b| a.union(&b))
        .map(|b| b.bounding_cube())
    else {
        return false;
    };
    let config = OctreeConfig::with_max_depth(*shape.depths.end()).in_cube(cube);
    let mut builder = OctreeBuilder::new();
    let mut same = true;
    for (i, frame) in frames.iter().enumerate() {
        let g = (rep << 32) | i as u64;
        let Ok(tree) = tracer.span("octree.build", g, || builder.build(frame, &config)) else {
            return false;
        };
        let sizes: Vec<f64> = tracer.span("octree.size", g, || {
            shape
                .depths
                .clone()
                .map(|d| tree.encoded_frame_size(d) as f64)
                .collect()
        });
        let profile = seq.byte_profile(i as u64);
        let expected: Vec<f64> = shape.depths.clone().map(|d| profile.arrival(d)).collect();
        same &= same_bits(&sizes, &expected);
    }
    same
}

/// What the re-driven run loop produced.
struct Redriven {
    view: RunView,
    encodes: u64,
    decode_errors: u64,
    loop_ns: u64,
}

/// Re-drives `run_encoded_pipeline`'s loop through its public calls —
/// `select_depth`, `EncodedFrame::encode` (once per frame and depth),
/// `WorkQueue::step`, `decode`, `extract_lod`, `frames_equivalent` — with a
/// span around each.
fn redrive_run(
    seq: &PreparedSequence,
    shape: &PipelineShape,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<Redriven, String> {
    let (rate, v) = params(seq, shape.knee)?;
    let mut controller = ProposedDpp::new(v);
    let mut queue = WorkQueue::new();
    let mut backlog = TimeSeries::new("backlog_bytes");
    let mut depth = TimeSeries::new("depth");
    let mut cache: BTreeMap<(usize, u8), EncodedFrame> = BTreeMap::new();
    let (mut bytes_encoded, mut verified, mut lossless) = (0u64, 0usize, true);
    let (mut encodes, mut decode_errors) = (0u64, 0u64);
    let t0 = now_ns();
    for slot in 0..shape.slots {
        let g = (rep << 32) | slot;
        tracer.enter("slot", g);
        let profile = seq.byte_profile(slot);
        let backlog_now = queue.backlog();
        let d = tracer.span("controller.decide", g, || {
            controller.select_depth(slot, backlog_now, profile)
        });
        let key = ((slot as usize) % seq.len(), d);
        let tree = seq.tree(slot);
        if let Entry::Vacant(slot) = cache.entry(key) {
            slot.insert(tracer.span("codec.encode", g, || EncodedFrame::encode(tree, d)));
            encodes += 1;
        }
        let frame = &cache[&key];
        let size = frame.byte_size();
        bytes_encoded += size as u64;
        tracer.span("queue.step", g, || queue.step(size as f64, rate));
        backlog.push(queue.backlog());
        depth.push(f64::from(d));
        let decoded = tracer.span("codec.decode", g, || frame.decode(tree.cube()));
        let lod = tracer.span("octree.lod", g, || {
            tree.extract_lod(d, LodMode::VoxelCenters)
        });
        match decoded {
            Ok(decoded) => {
                let ok = tracer.span("codec.verify", g, || {
                    frames_equivalent(&decoded, &lod.cloud)
                });
                lossless &= ok;
            }
            Err(_) => {
                decode_errors += 1;
                lossless = false;
            }
        }
        verified += 1;
        tracer.exit();
    }
    let loop_ns = now_ns() - t0;
    let stable = backlog.is_stable((shape.slots / 2).max(2) as usize, 1e-3);
    Ok(Redriven {
        view: RunView {
            depth: depth.values().to_vec(),
            backlog: backlog.values().to_vec(),
            bytes_encoded,
            frames_verified: verified,
            lossless,
            stable,
        },
        encodes,
        decode_errors,
        loop_ns,
    })
}

/// The traced run: untraced reference repetitions, each paired with a
/// re-driven set-up and run that must reproduce it bitwise, and a
/// set-up and run under `arvis_par::serial_scope` that must match too.
pub fn traced(seed: u64, size: Size, spans_file: Option<&std::path::Path>) -> Outcome {
    let shape = PipelineShape::of(size);
    let frames = frames(seed, &shape);
    let mut checker = Checker::default();
    let mut tracer = Tracer::new();
    let (mut prepare_ns, mut overhead, mut loop_ns) = (Vec::new(), Vec::new(), 0u64);
    let (mut divergent, mut prepare_speedup) = (0.0, 0.0);
    let (mut encodes, mut decode_errors, mut bytes_per_frame) = (0u64, 0u64, 0.0);
    for rep_id in 0..=TRACE_REPS {
        checker.begin();
        let reference = rep(&frames, &shape);
        if let Err(e) = &reference {
            checker.check(false, || e.clone());
        }
        if let Ok((_, _, _, report)) = &reference {
            check(&mut checker, report, shape.slots);
        }
        checker.end();
        let Ok((setup, run_ns, seq, report)) = reference else {
            continue;
        };
        if rep_id == 0 {
            continue;
        }
        prepare_ns.push(setup);
        let reference_view = RunView::of(&report);
        if rep_id == 1 {
            checker.begin();
            let serial = arvis_par::serial_scope(|| rep(&frames, &shape));
            match serial {
                Err(e) => checker.check(false, || e),
                Ok((serial_setup, _, serial_seq, serial_report)) => {
                    let profiles = |s: &PreparedSequence| -> Vec<String> {
                        (0..s.len() as u64)
                            .map(|i| format!("{:?}", s.byte_profile(i)))
                            .collect()
                    };
                    let same = profiles(&seq) == profiles(&serial_seq)
                        && same_bits(&reference_view, &RunView::of(&serial_report));
                    checker.check(same, || {
                        "serial and parallel pipeline runs differ".to_string()
                    });
                    prepare_speedup = ratio(serial_setup as f64, setup as f64);
                }
            }
            checker.end();
        }
        if !redrive_prepare(&frames, &shape, &seq, &mut tracer, rep_id) {
            divergent += 1.0;
        }
        match redrive_run(&seq, &shape, &mut tracer, rep_id) {
            Err(_) => divergent += 1.0,
            Ok(r) => {
                if !same_bits(&reference_view, &r.view) {
                    divergent += 1.0;
                }
                loop_ns += r.loop_ns;
                overhead.push(ratio(r.loop_ns as f64, run_ns as f64) - 1.0);
                encodes += r.encodes;
                decode_errors += r.decode_errors;
                bytes_per_frame = r.view.bytes_encoded as f64 / shape.slots as f64;
            }
        }
    }

    let mut out = Outcome::default();
    checker.finish(&mut out);
    for stem in [
        "octree.build_ms",
        "octree.size_ms",
        "controller.decide_us",
        "codec.encode_us",
        "queue.step_us",
        "codec.decode_us",
        "octree.lod_us",
        "codec.verify_us",
    ] {
        out.set_layer(&tracer, stem);
    }
    out.set_layer(&crate::probe_workers(1_000), "par.workers_us");
    let slots = (shape.slots * TRACE_REPS) as f64;
    out.set(
        "pipeline.encode_hit_frac",
        1.0 - ratio(encodes as f64, slots),
    );
    out.set("codec.bytes_per_frame", bytes_per_frame);
    out.set("codec.decode_errors", decode_errors as f64);
    out.set("par.prepare_speedup", prepare_speedup);
    out.set(
        "trace.unattributed_frac",
        1.0 - ratio(tracer.covered_ns("slot") as f64, loop_ns as f64),
    );
    out.set("trace.overhead_frac", median(&overhead));
    out.set("trace.divergent", divergent);
    out.notes.push(format!(
        "set-up median {:.4} s over {} untraced repetitions",
        median_secs(&prepare_ns),
        prepare_ns.len()
    ));
    if let Some(path) = spans_file {
        match tracer.write_tsv(path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    out
}
