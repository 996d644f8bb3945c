//! `simbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload sweep-cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `sweep-cold`, `sweep-warm`, `daemon-run`, `fleet-sweep` (see
//! `simbench/README.md`). Every run sets up its inputs from `--seed`,
//! measures for `--seconds`, checks every output against a reference made
//! during set-up, and prints as its last stdout line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! is split between an untraced and a traced loop, and the metrics are the
//! per-layer ones, whose spans are written to
//! `.simbench/trace-<workload>-<seed>.jsonl`.
//!
//! Scratch files live under `.simbench/` in the working directory and are
//! removed before exit.

mod breakdown;
mod daemon;
mod explore_trace;
mod fleet;
mod host;
mod inputs;
mod layers;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layers::{json_number, LayerMetrics};
use stats::{median, percentile, samples_beyond, share};
use trace::Span;

type BoxError = Box<dyn std::error::Error>;

/// How many times each workload's set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Quantile reported as `request_tail_ms` on the sweep workloads. A sweep
/// takes 10-100 ms, so a run holds hundreds to a few thousand of them: p90
/// keeps well over ten samples beyond it, where p99 rests on the run's few
/// slowest stalls. daemon-run reports p99.
pub const SWEEP_TAIL: f64 = 0.9;

/// Parsed command line plus the run's scratch directory.
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

impl Settings {
    /// Lengths of the untraced and (in the traced run) traced loops. The
    /// traced run splits its time between both, so its overhead is the
    /// difference of two loops on the same machine state.
    pub fn windows(&self) -> (f64, Option<f64>) {
        if self.trace {
            (self.seconds / 2.0, Some(self.seconds / 2.0))
        } else {
            (self.seconds, None)
        }
    }
}

/// What one measured loop saw.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Latency of every operation (sweep or request), ms.
    pub latencies_ms: Vec<f64>,
    /// Design points whose results were delivered.
    pub points: u64,
    /// Host wall time the operations took, s.
    pub busy_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong output.
    pub failed: u64,
}

/// Runs `op` back to back until `window_s` seconds have passed (at least
/// once, at most `max_ops` times). `op` returns its latency in ms, the
/// points it delivered and whether its output was correct; the time `op`
/// spends outside its own timed section (output checks, clean-up) is not
/// counted as busy time.
pub fn run_loop(
    window_s: f64,
    max_ops: usize,
    mut op: impl FnMut() -> Result<(f64, u64, bool), BoxError>,
) -> Result<Measured, BoxError> {
    let start = Instant::now();
    let mut measured = Measured::default();
    while measured.attempted == 0
        || (start.elapsed().as_secs_f64() < window_s && (measured.attempted as usize) < max_ops)
    {
        let (ms, points, ok) = op()?;
        measured.attempted += 1;
        if ok {
            measured.latencies_ms.push(ms);
            measured.points += points;
            measured.busy_s += ms / 1e3;
        } else {
            measured.failed += 1;
        }
    }
    Ok(measured)
}

/// The traced half of a `--trace 1` run.
pub struct Traced {
    measured: Measured,
    layers: LayerMetrics,
    mismatches: u64,
    spans: Vec<Span>,
}

/// A workload's result.
pub struct Outcome {
    measured: Measured,
    /// Quantile reported as `request_tail_ms`.
    tail_q: f64,
    traced: Option<Traced>,
    /// Extra `"key":value` fields for the report line.
    info: Vec<(String, String)>,
}

impl Outcome {
    /// An untraced result whose tail latency is the `tail_q` quantile.
    pub fn new(measured: Measured, tail_q: f64) -> Self {
        Self {
            measured,
            tail_q,
            traced: None,
            info: Vec::new(),
        }
    }

    /// Attaches the traced loop, its per-layer metrics, the number of
    /// phase re-compositions that did not reproduce `simulate`, and the
    /// spans to write out.
    pub fn set_trace(
        &mut self,
        measured: Measured,
        layers: LayerMetrics,
        mismatches: u64,
        spans: Vec<Span>,
    ) {
        self.traced = Some(Traced {
            measured,
            layers,
            mismatches,
            spans,
        });
    }

    /// Adds a field to the report line.
    pub fn info(&mut self, key: &str, value: String) {
        self.info.push((key.to_string(), value));
    }
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, trace))
}

fn run(settings: &Settings) -> Result<Outcome, BoxError> {
    match settings.workload.as_str() {
        "sweep-cold" => sweep::run(settings, false),
        "sweep-warm" => sweep::run(settings, true),
        "daemon-run" => daemon::run(settings),
        "fleet-sweep" => fleet::run(settings),
        other => Err(format!(
            "unknown workload `{other}` (expected sweep-cold, sweep-warm, daemon-run or fleet-sweep)"
        )
        .into()),
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        json_number(value)
    )
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".simbench");
    let settings = Settings {
        work: root.join(format!("work-{workload}-{}", std::process::id())),
        workload,
        seed,
        seconds,
        trace,
    };
    let result = run(&settings);
    let _ = std::fs::remove_dir_all(&settings.work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("simbench: {}: {e}", settings.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_mb = host::peak_rss_mb();
    let nproc = host::nproc();
    let spin = host::spin_speedup();

    let m = &outcome.measured;
    let tail = percentile(&m.latencies_ms, outcome.tail_q).unwrap_or(0.0);
    let beyond = samples_beyond(&m.latencies_ms, outcome.tail_q);
    let mut attempted = m.attempted;
    let mut failed = m.failed;
    let metrics = match &mut outcome.traced {
        None => [
            metric("setup_s", m.setup_s, "s"),
            metric("points_per_s", m.points as f64 / m.busy_s, "1/s"),
            metric("request_p50_ms", median(&m.latencies_ms), "ms"),
            metric("request_tail_ms", tail, "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
        .join(","),
        Some(traced) => {
            attempted += traced.measured.attempted + traced.mismatches;
            failed += traced.measured.failed + traced.mismatches;
            traced.layers.set(
                "trace.overhead_ms",
                median(&traced.measured.latencies_ms) - median(&m.latencies_ms),
            );
            traced.layers.set("host.nproc", nproc as f64);
            traced.layers.set("host.spin_2t_speedup", spin);
            let path = root.join(format!("trace-{}-{seed}.jsonl", settings.workload));
            let written = std::fs::create_dir_all(&root)
                .and_then(|()| std::fs::write(&path, trace::to_jsonl(&traced.spans)));
            if let Err(e) = written {
                eprintln!("simbench: writing {}: {e}", path.display());
            }
            traced.layers.to_json_fields()
        }
    };

    let mut info = vec![
        format!("\"workload\":\"{}\"", settings.workload),
        format!("\"seed\":{seed}"),
        format!("\"nproc\":{nproc}"),
        format!("\"spin_2t_speedup\":{}", json_number(spin)),
        format!("\"samples\":{}", m.latencies_ms.len()),
        format!("\"tail_quantile\":{}", outcome.tail_q),
        format!("\"tail_samples_beyond\":{beyond}"),
        format!("\"tail_valid\":{}", beyond >= 10),
        format!("\"error_rate\":{}", json_number(share(failed, attempted))),
    ];
    info.extend(
        outcome
            .info
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}")),
    );
    println!("{{\"simbench\":{{{}}}}}", info.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
