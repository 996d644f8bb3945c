//! `sweep-cold` and `sweep-warm`: the VGG-8 sweep run the way
//! `simphony-cli sweep --cache DIR --backend packed --jsonl FILE
//! --checkpoint FILE --chunk-size 112` runs it, in process.
//!
//! The packed backend writes one segment file per shard; the default
//! one-file-per-entry layout would make every sweep create (cold) or open
//! (warm) 224 files, and on a virtual disk that metadata latency wanders by
//! several times between runs, drowning the program's own cost.

use std::fs;
use std::path::Path;
use std::time::Instant;

use simphony_explore::{
    ArtifactBudget, ArtifactStore, ExploreSession, JsonlSink, PackedSegmentCache, ShardProgress,
    StreamOutcome, SweepSpec,
};

use crate::breakdown::{self, Artifacts, AwareSeen};
use crate::explore_trace::{TracedCache, TracedSink};
use crate::inputs::{sweep_spec, SHARD_POINTS};
use crate::layers::LayerMetrics;
use crate::stats::{median, share};
use crate::trace::Tracer;
use crate::{run_loop, BoxError, Measured, Outcome, Settings, SETUP_REPS, SWEEP_TAIL};

/// The serial, uncached reference output of `spec`: one shard, pipeline
/// off, no cache, JSONL bytes.
pub fn reference_jsonl(spec: &SweepSpec, dir: &Path) -> Result<Vec<u8>, BoxError> {
    fs::create_dir_all(dir)?;
    let path = dir.join("reference.jsonl");
    let mut sink = JsonlSink::create(&path)?;
    let outcome = ExploreSession::new(spec)
        .pipelined(false)
        .sink(&mut sink)
        .run()?;
    if !outcome.failures.is_empty() {
        return Err(format!(
            "reference sweep recorded {} failures",
            outcome.failures.len()
        )
        .into());
    }
    let bytes = fs::read(&path)?;
    fs::remove_dir_all(dir)?;
    Ok(bytes)
}

/// Computes the reference [`SETUP_REPS`] times (each must agree) and
/// returns it with the median set-up time. `extra` runs after each
/// reference inside the timed set-up (cache fill, fleet start); the state
/// it returns is kept from the last set-up, and earlier ones go to
/// `discard` outside the timed sections.
pub fn setup_with<T>(
    spec: &SweepSpec,
    work: &Path,
    mut extra: impl FnMut(usize, &[u8]) -> Result<T, BoxError>,
    mut discard: impl FnMut(T),
) -> Result<(Vec<u8>, T, f64), BoxError> {
    let mut times = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        let bytes = reference_jsonl(spec, &work.join(format!("reference-{rep}")))?;
        last = Some(extra(rep, &bytes)?);
        times.push(start.elapsed().as_secs_f64());
        match &reference {
            Some(r) if *r != bytes => return Err("reference output differs between set-ups".into()),
            Some(_) => {}
            None => reference = Some(bytes),
        }
    }
    Ok((
        reference.expect("at least one set-up"),
        last.expect("at least one set-up"),
        median(&times),
    ))
}

/// One sweep, timed from opening the cache to the sink's final flush.
/// Returns the wall time in ms and the outcome.
fn sweep_once(
    spec: &SweepSpec,
    cache_dir: &Path,
    out_dir: &Path,
    traced: Option<&mut TraceState>,
) -> Result<(f64, StreamOutcome), BoxError> {
    fs::create_dir_all(out_dir)?;
    let jsonl = out_dir.join("records.jsonl");
    let checkpoint = out_dir.join("sweep.ckpt");
    let start = Instant::now();
    let cache = Box::new(PackedSegmentCache::open(cache_dir)?);
    let outcome = match traced {
        None => {
            let mut sink = JsonlSink::create(&jsonl)?;
            ExploreSession::new(spec)
                .chunk_size(SHARD_POINTS)
                .cache_boxed(cache)
                .checkpoint(&checkpoint)
                .sink(&mut sink)
                .run()?
        }
        Some(state) => {
            let tracer = &state.tracer;
            let session = tracer.open("explore.session", None);
            let mut previous = tracer.now();
            let store = ArtifactStore::shared(ArtifactBudget::default());
            let mut sink = TracedSink {
                inner: JsonlSink::create(&jsonl)?,
                tracer,
                parent: session,
            };
            let mut marks = Vec::new();
            let outcome = ExploreSession::new(spec)
                .chunk_size(SHARD_POINTS)
                .cache(TracedCache {
                    inner: cache,
                    tracer,
                    parent: session,
                })
                .artifact_store(store.clone())
                .checkpoint(&checkpoint)
                .sink(&mut sink)
                .on_progress(|_: &ShardProgress| marks.push(tracer.now()))
                .run()?;
            tracer.close(session);
            for mark in marks {
                state.shard_ms.push((mark - previous) as f64 / 1e6);
                previous = mark;
            }
            let stats = store.lock().expect("artifact store lock").stats();
            state.artifact_hits += stats.hits;
            state.artifact_misses += stats.misses;
            state.cache_hits += outcome.stats.hits as u64;
            state.points += outcome.total_points as u64;
            outcome
        }
    };
    Ok((start.elapsed().as_secs_f64() * 1e3, outcome))
}

/// Accumulators of the traced loop.
struct TraceState {
    tracer: Tracer,
    shard_ms: Vec<f64>,
    artifact_hits: u64,
    artifact_misses: u64,
    cache_hits: u64,
    points: u64,
}

/// Runs sweep-cold (`warm == false`) or sweep-warm.
pub fn run(settings: &Settings, warm: bool) -> Result<Outcome, BoxError> {
    let spec = sweep_spec(settings.seed);
    let work = settings.work.clone();
    let total = spec.point_count()? as u64;
    let (reference, warm_cache, setup_s) = setup_with(
        &spec,
        &work,
        |rep, reference| {
            let cache = work.join(format!("fill-{rep}"));
            if warm {
                // Fill the result cache the measured sweeps read, through
                // the same pipelined executor; its output must match too.
                let out = work.join("fill-out");
                let (_, outcome) = sweep_once(&spec, &cache, &out, None)?;
                if fs::read(out.join("records.jsonl"))? != reference
                    || outcome.stats.misses as u64 != total
                {
                    return Err("cache-fill sweep output differs from the reference".into());
                }
                fs::remove_dir_all(&out)?;
            }
            Ok(cache)
        },
        |cache| {
            let _ = fs::remove_dir_all(cache);
        },
    )?;

    // One measured operation: a sweep in fresh output (and, cold, cache)
    // directories, checked byte for byte against the reference.
    let mut iteration = 0usize;
    let mut op = |traced: Option<&mut TraceState>| -> Result<(f64, u64, bool), BoxError> {
        iteration += 1;
        let dir = work.join(format!("op-{iteration}"));
        let cache = if warm {
            warm_cache.clone()
        } else {
            dir.join("cache")
        };
        let (ms, outcome) = sweep_once(&spec, &cache, &dir, traced)?;
        let expected_hits = if warm { total } else { 0 };
        let ok = outcome.failures.is_empty()
            && outcome.stats.hits as u64 == expected_hits
            && fs::read(dir.join("records.jsonl"))? == reference;
        fs::remove_dir_all(&dir)?;
        Ok((ms, total, ok))
    };

    let (measured_window, traced_window) = settings.windows();
    let measured = run_loop(measured_window, usize::MAX, || op(None))?;
    let mut outcome = Outcome::new(
        Measured {
            setup_s,
            ..measured
        },
        SWEEP_TAIL,
    );
    if let Some(window) = traced_window {
        let mut state = TraceState {
            tracer: Tracer::new(),
            shard_ms: Vec::new(),
            artifact_hits: 0,
            artifact_misses: 0,
            cache_hits: 0,
            points: 0,
        };
        let traced = run_loop(window, 40, || op(Some(&mut state)))?;
        let ops = traced.attempted as usize;
        let mut layers = LayerMetrics::default();
        layers.set_explore(&state.tracer.spans(), "explore.session", ops);
        layers.set(
            "explore.cache.hit_ratio",
            share(state.cache_hits, state.points),
        );
        layers.set("explore.shard.p50_ms", median(&state.shard_ms));
        layers.set(
            "explore.artifacts.hits",
            state.artifact_hits as f64 / ops as f64,
        );
        layers.set(
            "explore.artifacts.misses",
            state.artifact_misses as f64 / ops as f64,
        );
        // Model-side layers: a cold sweep extracts, builds and simulates
        // every point once; a warm sweep serves every point from the cache
        // and does no model work.
        let mut model = breakdown::ModelWork::default();
        if !warm {
            model = breakdown::run(
                &spec.expand()?,
                &mut Artifacts::cold(),
                &mut AwareSeen::default(),
                &state.tracer,
            )?;
        }
        let spans = state.tracer.spans();
        layers.set_model(&spans, &model);
        outcome.set_trace(traced, layers, model.mismatches, spans);
    }
    Ok(outcome)
}
