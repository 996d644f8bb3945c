//! `fleet-sweep`: the sweep-cold spec distributed by `distribute_sweep`
//! over two resident loopback worker daemons, merged into a JSONL sink with
//! a checkpoint, the way `simphony-cli sweep --workers A,B --keep-going
//! --chunk-size 112 --jsonl FILE --checkpoint FILE` runs it.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use simphony_explore::{
    compute_shard_part, ArtifactBudget, ArtifactStore, Checkpoint, CheckpointHeader, JsonlSink,
    RecordSink, RetryPolicy, ShardProgress, StreamOptions, StreamOutcome, SweepSpec,
};
use simphony_serve::{distribute_sweep, Client, DistConfig, ServeConfig, Server};

use crate::breakdown::{self, Artifacts, AwareSeen};
use crate::daemon::artifact_counters;
use crate::explore_trace::TracedSink;
use crate::inputs::{sweep_spec, SHARD_POINTS};
use crate::layers::LayerMetrics;
use crate::stats::{median, share};
use crate::sweep::setup_with;
use crate::trace::Tracer;
use crate::{run_loop, BoxError, Measured, Outcome, Settings, SWEEP_TAIL};

/// Worker daemons in the fleet.
const WORKERS: usize = 2;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Interleaved repetitions per shard behind the `dist.*` metrics.
const SHARD_REPS: usize = 5;

fn options() -> StreamOptions {
    StreamOptions::chunked(SHARD_POINTS).keep_going()
}

/// One distributed sweep into `out_dir`, timed from dispatch to the final
/// merge. With a tracer, the whole sweep is a `dist.sweep` span with the
/// sink's spans under it, and the intervals between shard landings go
/// to the given list.
fn dist_once(
    spec: &SweepSpec,
    config: &DistConfig,
    out_dir: &Path,
    traced: Option<(&Tracer, &mut Vec<f64>)>,
) -> Result<(f64, StreamOutcome), BoxError> {
    fs::create_dir_all(out_dir)?;
    let options = options();
    let header = CheckpointHeader::for_sweep(spec, &options, spec.point_count()?);
    let start = Instant::now();
    let mut checkpoint = Checkpoint::resume(out_dir.join("sweep.ckpt"), &header)?;
    let jsonl = JsonlSink::create(out_dir.join("records.jsonl"))?;
    let outcome = match traced {
        None => {
            let mut sink = jsonl;
            distribute_sweep(
                spec,
                &options,
                config,
                &mut sink,
                &mut |_| {},
                Some(&mut checkpoint),
            )?
        }
        Some((tracer, shard_ms)) => {
            let session = tracer.open("dist.sweep", None);
            let mut sink = TracedSink {
                inner: jsonl,
                tracer,
                parent: session,
            };
            let mut previous = tracer.now();
            let outcome = distribute_sweep(
                spec,
                &options,
                config,
                &mut sink as &mut dyn RecordSink,
                &mut |_: &ShardProgress| {
                    let now = tracer.now();
                    shard_ms.push((now - previous) as f64 / 1e6);
                    previous = now;
                },
                Some(&mut checkpoint),
            )?;
            tracer.close(session);
            outcome
        }
    };
    Ok((start.elapsed().as_secs_f64() * 1e3, outcome))
}

fn start_fleet() -> Result<(Vec<Server>, DistConfig), BoxError> {
    let workers = (0..WORKERS)
        .map(|_| {
            Server::start(
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    ..ServeConfig::default()
                },
                None,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let config = DistConfig {
        workers: workers.iter().map(|w| w.local_addr().to_string()).collect(),
        ..DistConfig::default()
    };
    Ok((workers, config))
}

fn stop_fleet(workers: Vec<Server>) {
    for worker in &workers {
        worker.shutdown();
    }
    for worker in workers {
        worker.join();
    }
}

/// Runs fleet-sweep.
pub fn run(settings: &Settings) -> Result<Outcome, BoxError> {
    let spec = sweep_spec(settings.seed);
    let work = settings.work.clone();
    let total = spec.point_count()? as u64;
    // Set-up: reference, then start the fleet and warm its artifact stores
    // with one distributed sweep whose output must match the reference.
    let (reference, (workers, config), setup_s) = setup_with(
        &spec,
        &work,
        |_, reference| {
            let (workers, config) = start_fleet()?;
            let out = work.join("warm-out");
            let (_, outcome) = dist_once(&spec, &config, &out, None)?;
            if !outcome.failures.is_empty() || fs::read(out.join("records.jsonl"))? != reference {
                return Err("fleet warm-up output differs from the reference".into());
            }
            fs::remove_dir_all(&out)?;
            Ok((workers, config))
        },
        |(workers, _)| stop_fleet(workers),
    )?;

    let result = measure(settings, &spec, &config, &reference, total, setup_s);
    stop_fleet(workers);
    result
}

fn measure(
    settings: &Settings,
    spec: &SweepSpec,
    config: &DistConfig,
    reference: &[u8],
    total: u64,
    setup_s: f64,
) -> Result<Outcome, BoxError> {
    let work = &settings.work;
    let mut iteration = 0usize;
    let mut op = |traced: Option<(&Tracer, &mut Vec<f64>)>| -> Result<(f64, u64, bool), BoxError> {
        iteration += 1;
        let dir = work.join(format!("op-{iteration}"));
        let (ms, outcome) = dist_once(spec, config, &dir, traced)?;
        let ok = outcome.failures.is_empty() && fs::read(dir.join("records.jsonl"))? == reference;
        fs::remove_dir_all(&dir)?;
        Ok((ms, total, ok))
    };

    let (window, traced_window) = settings.windows();
    let measured = run_loop(window, usize::MAX, || op(None))?;
    let mut outcome = Outcome::new(
        Measured {
            setup_s,
            ..measured
        },
        SWEEP_TAIL,
    );
    let Some(window) = traced_window else {
        return Ok(outcome);
    };

    let tracer = Tracer::new();
    let mut shard_ms = Vec::new();
    let before: Vec<_> = config
        .workers
        .iter()
        .map(|addr| artifact_counters(addr))
        .collect::<Result<_, _>>()?;
    let traced = run_loop(window, 40, || op(Some((&tracer, &mut shard_ms))))?;
    let after: Vec<_> = config
        .workers
        .iter()
        .map(|addr| artifact_counters(addr))
        .collect::<Result<_, _>>()?;
    let ops = traced.attempted as usize;
    let mut layers = LayerMetrics::default();
    layers.set_explore(&tracer.spans(), "dist.sweep", ops);
    layers.set("explore.shard.p50_ms", median(&shard_ms));
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for (b, a) in before.iter().zip(&after) {
        hits += a.0 - b.0;
        misses += a.1 - b.1;
        evictions += a.2 - b.2;
    }
    layers.set("serve.artifacts.hit_ratio", share(hits, hits + misses));
    layers.set("serve.artifacts.evictions", evictions as f64);

    // Shard landing vs in-process compute on the same ranges: a
    // `compute-shard` round trip to a worker against `compute_shard_part`
    // on a warm local store, interleaved, median of SHARD_REPS each.
    let lines: Vec<&str> = std::str::from_utf8(reference)?.lines().collect();
    let spec_json = serde_json::to_string(spec)?;
    let mut client = Client::connect(&config.workers[0], TIMEOUT)?;
    let store = ArtifactStore::shared(ArtifactBudget::default());
    let (mut land, mut compute, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    for (shard, start) in (0..total as usize).step_by(SHARD_POINTS).enumerate() {
        let end = (start + SHARD_POINTS).min(total as usize);
        let request = format!(
            "{{\"kind\":\"compute-shard\",\"spec\":{spec_json},\"shard\":{shard},\"start\":{start},\"end\":{end}}}"
        );
        compute_shard_part(spec, None, RetryPolicy::none(), shard, start..end, &store)?;
        let (mut land_reps, mut compute_reps) = (Vec::new(), Vec::new());
        for _ in 0..SHARD_REPS {
            let sent = Instant::now();
            let reply = tracer.time("dist.shard.land", None, || client.send(&request))?;
            land_reps.push(sent.elapsed().as_secs_f64() * 1e3);
            // The part body must be the reference's lines for this range.
            let body: Vec<&str> = reply
                .iter()
                .filter(|l| !l.starts_with("{\"frame\":"))
                .map(String::as_str)
                .collect();
            if body != lines[start..end] {
                mismatches += 1;
            }
            let started = Instant::now();
            tracer.time("dist.shard.compute", None, || {
                compute_shard_part(spec, None, RetryPolicy::none(), shard, start..end, &store)
            })?;
            compute_reps.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let (land_ms, compute_ms) = (median(&land_reps), median(&compute_reps));
        land.push(land_ms);
        compute.push(compute_ms);
        overhead.push(land_ms - compute_ms);
    }
    layers.set("dist.shard.land_ms", median(&land));
    layers.set("dist.shard.compute_ms", median(&compute));
    layers.set("dist.overhead_ms", median(&overhead));

    // Model-side layers per sweep: the workers simulate every point against
    // artifacts their stores already hold (warmed during set-up).
    let points = spec.expand()?;
    let mut seen = AwareSeen::default();
    for point in &points {
        seen.repeat(point);
    }
    let model = breakdown::run(&points, &mut Artifacts::warm(), &mut seen, &tracer)?;
    let spans = tracer.spans();
    layers.set_model(&spans, &model);
    outcome.set_trace(traced, layers, model.mismatches + mismatches, spans);
    Ok(outcome)
}
