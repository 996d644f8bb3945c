//! `daemon-run`: a resident `simphony-serve` daemon on loopback, driven as
//! a closed loop by one persistent client per CPU, each sending `run`
//! requests drawn by seed from a fixed pool (about 4 in 5 light VGG-8
//! points, 1 in 5 heavy BERT-Base points).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde_json::Value;
use simphony::DataAwareness;
use simphony_explore::{simulate_point, simulate_point_shared, ArtifactBudget, ArtifactStore};
use simphony_serve::{protocol, Client, ServeConfig, Server};

use crate::breakdown::{self, Artifacts, AwareSeen};
use crate::host::nproc;
use crate::inputs::{daemon_pool, draw, point_spec, PoolEntry, SplitMix64};
use crate::layers::LayerMetrics;
use crate::stats::{median, share};
use crate::trace::Tracer;
use crate::{BoxError, Measured, Outcome, Settings, SETUP_REPS};

/// Client connect and read timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Connect samples behind `serve.connect.ms`.
const CONNECT_SAMPLES: usize = 20;

/// Requests the traced loop sends at most.
const TRACED_REQUESTS: usize = 4000;

/// The request pool with its request lines and the responses recorded
/// during set-up.
struct Pool {
    entries: Vec<PoolEntry>,
    lines: Vec<String>,
    expected: Vec<Vec<String>>,
}

/// One answered request of a closed loop.
struct Sample {
    entry: usize,
    ms: f64,
    ok: bool,
    busy: bool,
}

fn start_server() -> Result<Server, BoxError> {
    Ok(Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
        None,
    )?)
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// The `artifacts` object of a `cache-stats` frame: (hits, misses, evictions).
pub fn artifact_counters(addr: &str) -> Result<(u64, u64, u64), BoxError> {
    let lines = Client::connect(addr, TIMEOUT)?.send("{\"kind\":\"cache-stats\"}")?;
    let frame: Value = serde_json::from_str(lines.first().ok_or("empty cache-stats reply")?)?;
    let artifacts = frame
        .get("artifacts")
        .ok_or("cache-stats frame without artifacts")?;
    let field = |name: &str| {
        artifacts
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("cache-stats artifacts without `{name}`"))
    };
    Ok((field("hits")?, field("misses")?, field("evictions")?))
}

/// Closed loop: one thread per CPU, each on one persistent connection,
/// sends drawn requests until `window_s` passes (or `max_requests` have been
/// sent in total). Each response is compared with the set-up's. Returns the
/// samples and the loop's wall time in seconds.
fn closed_loop(
    addr: &str,
    pool: &Pool,
    seed: u64,
    window_s: f64,
    max_requests: usize,
    tracer: Option<&Tracer>,
) -> Result<(Vec<Sample>, f64), BoxError> {
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..nproc())
            .map(|c| {
                let samples = &samples;
                scope.spawn(move || -> Result<(), String> {
                    let mut rng =
                        SplitMix64::new(seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
                    let connect = || Client::connect(addr, TIMEOUT).map_err(|e| e.to_string());
                    let mut client = connect()?;
                    while start.elapsed().as_secs_f64() < window_s
                        && samples.lock().expect("samples lock").len() < max_requests
                    {
                        let entry = draw(&mut rng, &pool.entries);
                        let span = tracer.map(|t| (t, t.open("serve.request", None)));
                        let sent = Instant::now();
                        let reply = client.send(&pool.lines[entry]);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        if let Some((t, id)) = span {
                            t.close(id);
                        }
                        let (ok, busy) = match reply {
                            Ok(reply) => (
                                reply == pool.expected[entry],
                                reply.iter().any(|l| l.contains("server busy")),
                            ),
                            Err(_) => {
                                // A lost connection fails the request; carry
                                // on with a fresh one.
                                client = connect()?;
                                (false, false)
                            }
                        };
                        samples.lock().expect("samples lock").push(Sample {
                            entry,
                            ms,
                            ok,
                            busy,
                        });
                    }
                    Ok(())
                })
            })
            .collect();
        clients
            .into_iter()
            .try_for_each(|client| client.join().expect("client thread"))
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    Ok((samples.into_inner().expect("samples lock"), elapsed))
}

fn measured(samples: &[Sample], elapsed: f64, setup_s: f64) -> Measured {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    Measured {
        setup_s,
        latencies_ms: ok.iter().map(|s| s.ms).collect(),
        points: ok.len() as u64,
        busy_s: elapsed,
        attempted: samples.len() as u64,
        failed: (samples.len() - ok.len()) as u64,
    }
}

/// Starts the daemon and warms its artifact store with every pool entry,
/// recording each response; [`SETUP_REPS`] times, and every set-up must
/// record the same responses. Returns the last daemon, the responses and
/// the median set-up time.
fn setup(lines: &[String]) -> Result<(Server, Vec<Vec<String>>, f64), BoxError> {
    let mut times = Vec::new();
    let mut server: Option<Server> = None;
    let mut expected: Vec<Vec<String>> = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            stop(old);
        }
        let start = Instant::now();
        let fresh = start_server()?;
        let mut client = Client::connect(&fresh.local_addr().to_string(), TIMEOUT)?;
        let replies = lines
            .iter()
            .map(|line| client.send(line))
            .collect::<Result<Vec<_>, _>>()?;
        times.push(start.elapsed().as_secs_f64());
        if !expected.is_empty() && replies != expected {
            return Err("daemon responses differ between set-ups".into());
        }
        expected = replies;
        server = Some(fresh);
    }
    Ok((
        server.expect("at least one set-up"),
        expected,
        median(&times),
    ))
}

/// Runs daemon-run.
pub fn run(settings: &Settings) -> Result<Outcome, BoxError> {
    let entries = daemon_pool(settings.seed);
    let lines = entries
        .iter()
        .map(|e| {
            Ok(format!(
                "{{\"kind\":\"run\",\"spec\":{}}}",
                serde_json::to_string(&point_spec(&e.point))?
            ))
        })
        .collect::<Result<Vec<String>, BoxError>>()?;
    let (server, expected, setup_s) = setup(&lines)?;
    let pool = Pool {
        entries,
        lines,
        expected,
    };
    let result = measure(settings, &server, &pool, setup_s);
    stop(server);
    result
}

fn measure(
    settings: &Settings,
    server: &Server,
    pool: &Pool,
    setup_s: f64,
) -> Result<Outcome, BoxError> {
    // The daemon must answer exactly what the CLI's `run` prints.
    for (entry, reply) in pool.entries.iter().zip(&pool.expected) {
        let report = simulate_point(&entry.point)?;
        let local = vec![
            protocol::report_frame(&format!("{report}\n")),
            protocol::run_summary_frame(),
        ];
        if *reply != local {
            return Err(format!(
                "daemon reply differs from in-process run for {}",
                entry.point.label()
            )
            .into());
        }
    }
    let addr = server.local_addr().to_string();

    let (window, traced_window) = settings.windows();
    let (samples, elapsed) = closed_loop(&addr, pool, settings.seed, window, usize::MAX, None)?;
    let mut outcome = Outcome::new(measured(&samples, elapsed, setup_s), 0.99);
    let heavy = samples
        .iter()
        .filter(|s| pool.entries[s.entry].heavy)
        .count();
    outcome.info(
        "heavy_request_share",
        format!("{}", share(heavy as u64, samples.len() as u64)),
    );
    let Some(window) = traced_window else {
        return Ok(outcome);
    };

    let tracer = Tracer::new();
    let before = artifact_counters(&addr)?;
    let (traced, elapsed) = closed_loop(
        &addr,
        pool,
        settings.seed.wrapping_add(1),
        window,
        TRACED_REQUESTS,
        Some(&tracer),
    )?;
    let after = artifact_counters(&addr)?;
    let mut layers = LayerMetrics::default();
    let connects: Vec<f64> = (0..CONNECT_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            Client::connect(&addr, TIMEOUT).map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    layers.set("serve.connect.ms", median(&connects));
    let busy = traced.iter().filter(|s| s.busy).count();
    layers.set("serve.busy_rejects", busy as f64);
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    layers.set("serve.artifacts.hit_ratio", share(hits, hits + misses));
    layers.set("serve.artifacts.evictions", (after.2 - before.2) as f64);

    // In-process cost of each entry against a warm store: the part of a
    // request's latency that is not protocol.
    let store = ArtifactStore::shared(ArtifactBudget::default());
    let mut in_process = Vec::new();
    for entry in &pool.entries {
        simulate_point_shared(&store, &entry.point)?;
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                simulate_point_shared(&store, &entry.point)
                    .map(|_| start.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<_, _>>()?;
        in_process.push(median(&reps));
    }
    let protocol: Vec<f64> = traced
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.ms - in_process[s.entry])
        .collect();
    layers.set("serve.protocol_ms", median(&protocol));

    // Model-side layers per request: each entry's phase breakdown on the
    // warm daemon's artifacts, weighted by how often it was drawn.
    let mut artifacts = Artifacts::warm();
    let mut mismatches = 0;
    let mut per_entry = Vec::new();
    for entry in &pool.entries {
        let entry_tracer = Tracer::new();
        let work = breakdown::run(
            std::slice::from_ref(&entry.point),
            &mut artifacts,
            &mut AwareSeen::default(),
            &entry_tracer,
        )?;
        mismatches += work.mismatches;
        let mut metrics = LayerMetrics::default();
        metrics.set_model(&entry_tracer.spans(), &work);
        per_entry.push(metrics);
    }
    for name in [
        "core.simulate.calls",
        "core.simulate.ms",
        "core.energy.ms",
        "core.link_budget.ms",
        "core.area.ms",
        "dataflow.map.ms",
        "dataflow.latency.ms",
        "memsim.hierarchy.ms",
    ] {
        let total: f64 = traced.iter().map(|s| per_entry[s.entry].get(name)).sum();
        layers.set(name, total / traced.len().max(1) as f64);
    }
    // Set-up simulated every entry once, so every data-aware request of the
    // loop repeats a (workload, family) pair the daemon has seen.
    let mut seen = AwareSeen::default();
    for entry in &pool.entries {
        seen.repeat(&entry.point);
    }
    let aware: Vec<&Sample> = traced
        .iter()
        .filter(|s| pool.entries[s.entry].point.data_awareness == DataAwareness::Aware)
        .collect();
    let repeats = aware
        .iter()
        .filter(|s| seen.repeat(&pool.entries[s.entry].point))
        .count();
    layers.set(
        "core.energy.aware_share",
        share(aware.len() as u64, traced.len() as u64),
    );
    layers.set(
        "core.energy.repeat_share",
        share(repeats as u64, aware.len() as u64),
    );
    outcome.set_trace(
        measured(&traced, elapsed, setup_s),
        layers,
        mismatches,
        tracer.spans(),
    );
    Ok(outcome)
}
