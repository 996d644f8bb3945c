//! The distributed-sweep coordinator: fans shards out to socket-fed worker
//! daemons and merges the results.
//!
//! `sweep --workers host:port,...` keeps the local executors' shard
//! geometry, but shards travel over the `compute-shard` request and come
//! back as parts (shard-local meta plus pre-rendered record lines). The
//! coordinator lazily expands the spec (only shard *ranges* go on the wire,
//! never point lists), keeps one thread per worker address pumping a shared
//! shard queue, and feeds the landed parts into the [`merge_shard_source`]
//! loop — so output is byte-identical to a serial or pipelined run at any
//! worker count.
//!
//! Fault handling uses deadlines:
//!
//! * a shard outstanding past [`DistConfig::shard_deadline_ms`] is
//!   re-dispatched to whichever worker asks next (the original dispatch may
//!   still land — duplicate arrival is idempotent, first-landed wins, and
//!   the bytes are deterministic so it could not matter anyway);
//! * a worker whose connection breaks is reconnected transparently by
//!   [`Client`]'s retry policy (the `compute-shard` kind is idempotent);
//!   a worker that stays unreachable is dropped from the fleet and its
//!   in-flight shard re-queued;
//! * the sweep only fails when *every* worker is gone with shards still
//!   unassigned, or a worker rejects a request as a usage error (a
//!   misconfigured fleet, e.g. a worker whose `--max-points` is below the
//!   shard size — no amount of re-dispatch fixes that).

use std::collections::{BTreeSet, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;
use simphony_explore::{
    effective_shard_size, merge_shard_source, Checkpoint, ErrorPolicy, ExploreError, RecordSink,
    Result, RetryPolicy, ShardCheckpoint, ShardProgress, ShardSource, StreamOptions, StreamOutcome,
    SweepRecord, SweepSpec,
};

use crate::protocol;
use crate::server::Client;

/// Default [`DistConfig::shard_deadline_ms`]: generous against stragglers
/// (shards here compute in milliseconds) while still re-dispatching work
/// from a hung worker within interactive patience.
pub const DEFAULT_SHARD_DEADLINE_MS: u64 = 10_000;

/// Fleet-level tuning of a distributed sweep. Sweep-level options (chunk
/// size, error policy, sink retry) stay in [`StreamOptions`], exactly like
/// every other execution path.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker daemon addresses (`host:port`), one coordinator thread each.
    pub workers: Vec<String>,
    /// A shard dispatched longer ago than this is presumed lost and
    /// re-dispatched. Doubles as the per-request socket read timeout, so a
    /// worker slower than the deadline is treated as dead — size it to
    /// comfortably cover one shard's compute time.
    pub shard_deadline_ms: u64,
    /// Reconnect schedule for worker connections (initial connect included).
    pub retry: RetryPolicy,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: Vec::new(),
            shard_deadline_ms: DEFAULT_SHARD_DEADLINE_MS,
            retry: RetryPolicy::new(3),
        }
    }
}

/// What the fleet knows, under one lock: the undispatched queue, in-flight
/// deadlines, landed parts, and the fleet's health.
struct Fleet {
    /// Shards not currently dispatched to any worker.
    queue: BTreeSet<usize>,
    /// Dispatched shards and when their deadline expires.
    outstanding: HashMap<usize, Instant>,
    /// Landed parts awaiting merge. First landed wins; duplicates from
    /// re-dispatch races are dropped (their bytes are identical anyway).
    parts: HashMap<usize, (ShardCheckpoint, Vec<SweepRecord>)>,
    /// Shards below this index are merged; late duplicates of them are
    /// dropped rather than accumulated.
    merged_below: usize,
    /// Worker threads still pumping.
    live_workers: usize,
    /// Set when the sweep cannot complete; every waiter bails out.
    failed: Option<String>,
    /// Set by the merge loop when it exits (success or error): workers
    /// stop taking new shards.
    done: bool,
}

struct FleetState {
    inner: Mutex<Fleet>,
    wakeup: Condvar,
}

impl FleetState {
    fn new(shards: std::ops::Range<usize>, workers: usize) -> FleetState {
        FleetState {
            inner: Mutex::new(Fleet {
                queue: shards.collect(),
                outstanding: HashMap::new(),
                parts: HashMap::new(),
                merged_below: 0,
                live_workers: workers,
                failed: None,
                done: false,
            }),
            wakeup: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Fleet> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until there is a shard for this worker (queued, or outstanding
    /// past its deadline — re-dispatch), or until the fleet is
    /// finished/failed (`None`: the worker thread exits).
    fn take_shard(&self, deadline: Duration) -> Option<usize> {
        let mut fleet = self.lock();
        loop {
            if fleet.done || fleet.failed.is_some() {
                return None;
            }
            if let Some(&shard) = fleet.queue.iter().next() {
                fleet.queue.remove(&shard);
                fleet.outstanding.insert(shard, Instant::now() + deadline);
                return Some(shard);
            }
            let now = Instant::now();
            let overdue = fleet
                .outstanding
                .iter()
                .filter(|&(_, &expiry)| expiry <= now)
                .map(|(&shard, _)| shard)
                .min();
            if let Some(shard) = overdue {
                fleet.outstanding.insert(shard, now + deadline);
                return Some(shard);
            }
            if fleet.outstanding.is_empty() {
                // Nothing queued, nothing in flight: every shard has landed
                // (or merged); this worker is no longer needed.
                return None;
            }
            // Sleep until a part lands, the fleet fails, or the nearest
            // outstanding deadline expires and re-dispatch becomes possible.
            let wait = fleet
                .outstanding
                .values()
                .map(|expiry| expiry.saturating_duration_since(now))
                .min()
                .unwrap_or(deadline)
                .max(Duration::from_millis(1));
            fleet = self
                .wakeup
                .wait_timeout(fleet, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Records a computed part. Duplicate arrivals (re-dispatch races) and
    /// parts for already-merged shards are dropped.
    fn land(&self, shard: usize, meta: ShardCheckpoint, records: Vec<SweepRecord>) {
        let mut fleet = self.lock();
        fleet.outstanding.remove(&shard);
        fleet.queue.remove(&shard);
        if shard >= fleet.merged_below && !fleet.parts.contains_key(&shard) {
            fleet.parts.insert(shard, (meta, records));
        }
        self.wakeup.notify_all();
    }

    /// Returns a failed dispatch to the queue (unless some other dispatch
    /// of it already landed).
    fn requeue(&self, shard: usize) {
        let mut fleet = self.lock();
        fleet.outstanding.remove(&shard);
        if shard >= fleet.merged_below && !fleet.parts.contains_key(&shard) {
            fleet.queue.insert(shard);
        }
        self.wakeup.notify_all();
    }

    /// A worker thread is giving up. If it was the last one and shards
    /// remain unlanded, the sweep cannot complete: fail it with the
    /// worker's final error as the explanation.
    fn worker_gone(&self, addr: &str, error: &ExploreError) {
        let mut fleet = self.lock();
        fleet.live_workers -= 1;
        if fleet.live_workers == 0
            && (!fleet.queue.is_empty() || !fleet.outstanding.is_empty())
            && fleet.failed.is_none()
        {
            fleet.failed = Some(format!(
                "every worker is gone with shards still unassigned; last worker \
                 (`{addr}`) failed with: {error}"
            ));
        }
        self.wakeup.notify_all();
    }

    /// An unrecoverable fleet error (usage rejection): no re-dispatch can
    /// help, so the whole sweep fails now.
    fn fail(&self, message: String) {
        let mut fleet = self.lock();
        if fleet.failed.is_none() {
            fleet.failed = Some(message);
        }
        self.wakeup.notify_all();
    }

    /// The merge loop is done (or dead): workers drain and exit.
    fn finish(&self) {
        let mut fleet = self.lock();
        fleet.done = true;
        self.wakeup.notify_all();
    }
}

/// The fleet as a [`ShardSource`]: the merge loop blocks here until the
/// workers land the shard it needs.
struct FleetSource<'a> {
    state: &'a FleetState,
    workers: &'a [String],
}

impl ShardSource for FleetSource<'_> {
    fn next_part(&mut self, shard: usize) -> Result<(ShardCheckpoint, Vec<SweepRecord>)> {
        let mut fleet = self.state.lock();
        loop {
            if let Some(part) = fleet.parts.remove(&shard) {
                fleet.merged_below = shard + 1;
                return Ok(part);
            }
            if let Some(reason) = fleet.failed.clone() {
                return Err(ExploreError::connection_lost(
                    self.workers.join(","),
                    reason,
                ));
            }
            fleet = self
                .state
                .wakeup
                .wait(fleet)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// How a worker's shard attempt failed.
enum ShardError {
    /// Transport-level or hard server error: the shard is re-queued and may
    /// succeed elsewhere.
    Transient(ExploreError),
    /// The worker rejected the request as a usage error: the fleet is
    /// misconfigured and re-dispatch cannot help.
    Fatal(String),
}

/// Parses a `compute-shard` response: the `part` frame's meta, then exactly
/// `meta.emitted` record lines, then a terminal summary (exit 0 or 3 —
/// recorded point failures are carried in the meta).
fn parse_part(
    addr: &str,
    shard: usize,
    lines: Vec<String>,
) -> std::result::Result<(ShardCheckpoint, Vec<SweepRecord>), ShardError> {
    let hard = |msg: String| ShardError::Transient(ExploreError::connection_lost(addr, msg));
    let Some((last, body)) = lines.split_last() else {
        return Err(hard("empty compute-shard response".to_string()));
    };
    if last.starts_with("{\"frame\":\"error\"") {
        let parsed: Value = serde_json::from_str(last).unwrap_or(Value::Null);
        let exit_code = parsed.get("exit_code").and_then(Value::as_u64);
        let message = parsed
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or(last)
            .to_string();
        return Err(if exit_code == Some(u64::from(protocol::EXIT_USAGE)) {
            ShardError::Fatal(format!("worker `{addr}` rejected shard {shard}: {message}"))
        } else {
            hard(format!("worker error on shard {shard}: {message}"))
        });
    }
    let Some((head, records)) = body.split_first() else {
        return Err(hard(format!(
            "shard {shard} response carries no part frame"
        )));
    };
    if !head.starts_with("{\"frame\":\"part\"") {
        return Err(hard(format!(
            "shard {shard} response starts with {head:?}, not a part frame"
        )));
    }
    let meta: ShardCheckpoint = serde_json::from_str(head)
        .ok()
        .and_then(|frame: Value| frame.get("meta").cloned())
        .and_then(|meta| serde_json::from_value(&meta).ok())
        .ok_or_else(|| hard(format!("shard {shard} part frame carries unreadable meta")))?;
    if meta.shard != shard {
        return Err(hard(format!(
            "worker `{addr}` answered shard {shard} with shard {} metadata",
            meta.shard
        )));
    }
    let mut parsed = Vec::with_capacity(records.len());
    for line in records {
        match serde_json::from_str(line) {
            Ok(record) => parsed.push(record),
            Err(e) => return Err(hard(format!("bad record line in shard {shard}: {e}"))),
        }
    }
    if parsed.len() != meta.emitted {
        return Err(hard(format!(
            "shard {shard} streamed {} records but its meta promises {}",
            parsed.len(),
            meta.emitted
        )));
    }
    Ok((meta, parsed))
}

/// One worker thread: connect (on the retry schedule), then pump shards
/// until the fleet is drained, failed, or this worker's connection is
/// unrecoverable.
fn worker_loop(
    state: &FleetState,
    addr: &str,
    spec_json: &str,
    shard_size: usize,
    total: usize,
    config: &DistConfig,
) {
    let timeout = Duration::from_millis(config.shard_deadline_ms.max(1));
    let mut client = match connect_with_retry(addr, timeout, config.retry) {
        Ok(client) => client,
        Err(e) => return state.worker_gone(addr, &e),
    };
    let deadline = timeout;
    while let Some(shard) = state.take_shard(deadline) {
        let start = shard * shard_size;
        let end = (start + shard_size).min(total);
        let request = format!(
            "{{\"kind\":\"compute-shard\",\"spec\":{spec_json},\"shard\":{shard},\
             \"start\":{start},\"end\":{end}}}"
        );
        // `compute-shard` is idempotent, so a broken pipe here reconnects
        // and replays inside Client::send.
        match client
            .send(&request)
            .map_err(ShardError::Transient)
            .and_then(|lines| parse_part(addr, shard, lines))
        {
            Ok((meta, records)) => state.land(shard, meta, records),
            Err(ShardError::Fatal(message)) => return state.fail(message),
            Err(ShardError::Transient(error)) => {
                // Give the shard back and retire this worker; surviving
                // workers absorb the queue. If it was the last one, the
                // sweep fails with this error.
                state.requeue(shard);
                return state.worker_gone(addr, &error);
            }
        }
    }
    state.lock().live_workers -= 1;
}

fn connect_with_retry(addr: &str, timeout: Duration, retry: RetryPolicy) -> Result<Client> {
    let mut last = match Client::connect(addr, timeout) {
        Ok(client) => return Ok(client.reconnect_policy(retry)),
        Err(e) => e,
    };
    for sleep_ms in retry.schedule() {
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
        match Client::connect(addr, timeout) {
            Ok(client) => return Ok(client.reconnect_policy(retry)),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Runs `spec` across a fleet of worker daemons and merges the results into
/// `sink`, byte-identical to a local run: shard geometry from
/// [`effective_shard_size`], parts merged strictly in expansion order by
/// [`merge_shard_source`], checkpoints and progress exactly like every other
/// execution path. See the module docs for the fault model.
///
/// # Errors
///
/// Refuses an empty worker list and non-`KeepGoing` policies; fails when the
/// whole fleet dies with shards unassigned or a worker rejects its request
/// as a usage error; propagates spec/sink/checkpoint errors.
pub fn distribute_sweep(
    spec: &SweepSpec,
    options: &StreamOptions,
    config: &DistConfig,
    sink: &mut dyn RecordSink,
    progress: &mut dyn FnMut(&ShardProgress),
    checkpoint: Option<&mut Checkpoint>,
) -> Result<StreamOutcome> {
    spec.validate()?;
    if config.workers.is_empty() {
        return Err(ExploreError::invalid_spec(
            "a distributed sweep needs at least one worker address (--workers host:port,...)",
        ));
    }
    if options.error_policy != ErrorPolicy::KeepGoing {
        return Err(ExploreError::invalid_spec(
            "distributed sweeps require ErrorPolicy::KeepGoing: a fail-fast abort cannot \
             be propagated to remote workers, so the combination is refused rather than \
             half-honoured (add .keep_going() / --keep-going)",
        ));
    }
    let total = spec.point_count()?;
    let shard_size = effective_shard_size(options, total);
    let shards = total.div_ceil(shard_size);
    let completed = checkpoint
        .as_ref()
        .map_or(0, |c| c.completed().len())
        .min(shards);
    let spec_json = serde_json::to_string(spec)?;

    let state = FleetState::new(completed..shards, config.workers.len());
    std::thread::scope(|scope| {
        for addr in &config.workers {
            let state = &state;
            let spec_json = &spec_json;
            scope.spawn(move || worker_loop(state, addr, spec_json, shard_size, total, config));
        }
        let mut source = FleetSource {
            state: &state,
            workers: &config.workers,
        };
        let outcome = merge_shard_source(spec, options, sink, progress, checkpoint, &mut source);
        // Merged (or failed): release any workers still waiting for work so
        // the scope can join.
        state.finish();
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simphony_explore::{compute_shard_part, ArtifactStore, ComputedPart};

    /// Long enough that no dispatch in these tests goes overdue on its own.
    const PATIENT: Duration = Duration::from_secs(60);

    fn meta(shard: usize, hits: usize) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            points: 0,
            hits,
            misses: 0,
            emitted: 0,
            failures: Vec::new(),
            cache_degraded: 0,
        }
    }

    fn next_part(state: &FleetState, shard: usize) -> Result<(ShardCheckpoint, Vec<SweepRecord>)> {
        let workers = ["w0".to_string()];
        let mut source = FleetSource {
            state,
            workers: &workers,
        };
        source.next_part(shard)
    }

    /// Shard 1 (points 2..4) of a 4-point sweep, computed locally.
    fn computed_part() -> ComputedPart {
        let spec = SweepSpec::new("parse").with_wavelengths(vec![1, 2, 4, 8]);
        let artifacts = Mutex::new(ArtifactStore::default());
        compute_shard_part(&spec, None, RetryPolicy::none(), 1, 2..4, &artifacts).unwrap()
    }

    /// The lines a worker streams back for `part`, as `Client::send` returns
    /// them.
    fn response(part: &ComputedPart) -> Vec<String> {
        let meta_json = serde_json::to_string(&part.meta).unwrap();
        let mut lines = vec![protocol::part_frame(&meta_json)];
        lines.extend(part.body.lines().map(str::to_string));
        lines.push(protocol::compute_shard_summary_frame(
            part.meta.shard,
            part.meta.emitted,
            part.meta.failures.len(),
        ));
        lines
    }

    /// Asserts that parsing `lines` as shard `shard` fails with a transient
    /// (re-dispatchable) error mentioning `needle`.
    fn assert_transient(shard: usize, lines: Vec<String>, needle: &str) {
        let Err(ShardError::Transient(e)) = parse_part("w0", shard, lines) else {
            panic!("expected a transient error mentioning {needle:?}")
        };
        assert!(e.to_string().contains(needle), "{e}");
    }

    #[test]
    fn each_queued_shard_is_handed_out_once_lowest_first() {
        let state = FleetState::new(0..3, 1);
        assert_eq!(state.take_shard(PATIENT), Some(0));
        assert_eq!(state.take_shard(PATIENT), Some(1));
        assert_eq!(state.take_shard(PATIENT), Some(2));
    }

    #[test]
    fn a_requeued_shard_is_dispatched_before_later_ones() {
        let state = FleetState::new(0..3, 2);
        assert_eq!(state.take_shard(PATIENT), Some(0));
        assert_eq!(state.take_shard(PATIENT), Some(1));
        state.requeue(0);
        assert_eq!(state.take_shard(PATIENT), Some(0));
        assert_eq!(state.take_shard(PATIENT), Some(2));
    }

    #[test]
    fn an_overdue_shard_is_redispatched() {
        let state = FleetState::new(0..1, 2);
        assert_eq!(state.take_shard(Duration::ZERO), Some(0));
        // The first dispatch is already past its deadline, so the next
        // asking worker gets the same shard.
        assert_eq!(state.take_shard(PATIENT), Some(0));
    }

    #[test]
    fn a_shard_inside_its_deadline_waits_for_its_part_instead_of_redispatching() {
        let state = FleetState::new(0..1, 2);
        assert_eq!(state.take_shard(PATIENT), Some(0));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| state.take_shard(PATIENT));
            state.land(0, meta(0, 0), Vec::new());
            // Landing the only outstanding shard leaves the second worker
            // nothing to do.
            assert_eq!(waiter.join().unwrap(), None);
        });
    }

    #[test]
    fn a_landed_part_blocks_redispatch_and_requeue() {
        let state = FleetState::new(0..1, 2);
        assert_eq!(state.take_shard(Duration::ZERO), Some(0));
        state.land(0, meta(0, 0), Vec::new());
        // A straggling dispatch of the same shard failing afterwards must
        // not put the landed shard back on the queue.
        state.requeue(0);
        assert_eq!(state.take_shard(Duration::ZERO), None);
    }

    #[test]
    fn concurrent_workers_split_the_queue_without_duplicates() {
        let state = FleetState::new(0..64, 8);
        let taken = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    while let Some(shard) = state.take_shard(PATIENT) {
                        taken.lock().unwrap().push(shard);
                        state.land(shard, meta(shard, 0), Vec::new());
                    }
                });
            }
        });
        let mut taken = taken.into_inner().unwrap();
        taken.sort_unstable();
        assert_eq!(taken, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn a_duplicate_landing_keeps_the_first_part() {
        let state = FleetState::new(0..1, 2);
        state.land(0, meta(0, 1), Vec::new());
        state.land(0, meta(0, 2), Vec::new());
        let (landed, _) = next_part(&state, 0).unwrap();
        assert_eq!(landed.hits, 1);
    }

    #[test]
    fn late_parts_for_merged_shards_are_dropped() {
        let state = FleetState::new(0..2, 2);
        state.land(0, meta(0, 0), Vec::new());
        next_part(&state, 0).unwrap();
        state.land(0, meta(0, 0), Vec::new());
        state.requeue(0);
        let fleet = state.lock();
        assert!(fleet.parts.is_empty(), "a merged shard's duplicate is kept");
        assert_eq!(
            fleet.queue,
            BTreeSet::from([1]),
            "a merged shard is requeued"
        );
    }

    #[test]
    fn the_last_worker_leaving_with_work_left_fails_the_sweep() {
        let state = FleetState::new(0..1, 2);
        let error = ExploreError::connection_lost("w1", "refused");
        state.worker_gone("w1", &error);
        assert!(state.lock().failed.is_none(), "one worker is still live");
        state.worker_gone("w0", &error);
        let err = next_part(&state, 0).unwrap_err();
        assert!(matches!(err, ExploreError::ConnectionLost { .. }), "{err}");
        assert!(err.to_string().contains("every worker is gone"), "{err}");
        assert!(err.to_string().contains("`w0`"), "{err}");
    }

    #[test]
    fn workers_leaving_after_every_part_landed_fail_nothing() {
        let state = FleetState::new(0..2, 2);
        state.land(0, meta(0, 0), Vec::new());
        state.land(1, meta(1, 0), Vec::new());
        let error = ExploreError::connection_lost("w", "closed");
        state.worker_gone("w0", &error);
        state.worker_gone("w1", &error);
        assert_eq!(next_part(&state, 0).unwrap().0.shard, 0);
        assert_eq!(next_part(&state, 1).unwrap().0.shard, 1);
    }

    #[test]
    fn a_failed_fleet_hands_out_nothing_and_keeps_its_first_reason() {
        let state = FleetState::new(0..2, 1);
        state.fail("first reason".to_string());
        state.fail("second reason".to_string());
        assert_eq!(state.take_shard(PATIENT), None);
        let err = next_part(&state, 0).unwrap_err();
        assert!(err.to_string().contains("first reason"), "{err}");
    }

    #[test]
    fn finishing_releases_a_worker_waiting_on_an_outstanding_shard() {
        let state = FleetState::new(0..1, 2);
        assert_eq!(state.take_shard(PATIENT), Some(0));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| state.take_shard(PATIENT));
            state.finish();
            assert_eq!(waiter.join().unwrap(), None);
        });
    }

    #[test]
    fn parse_part_reads_a_well_formed_response() {
        let part = computed_part();
        let (meta, records) = parse_part("w0", 1, response(&part)).unwrap_or_else(|_| {
            panic!("a well-formed response parses");
        });
        assert_eq!(meta, part.meta);
        assert_eq!(records.len(), 2);
        let rendered: String = records
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        assert_eq!(rendered, part.body, "record lines must round-trip exactly");
    }

    #[test]
    fn parse_part_makes_usage_errors_fatal_and_other_errors_transient() {
        let usage = vec![protocol::error_frame(
            protocol::EXIT_USAGE,
            "too many points",
        )];
        match parse_part("w0", 3, usage) {
            Err(ShardError::Fatal(message)) => {
                assert!(message.contains("rejected shard 3"), "{message}");
                assert!(message.contains("too many points"), "{message}");
            }
            _ => panic!("a usage rejection must be fatal"),
        }
        let hard = vec![protocol::error_frame(protocol::EXIT_HARD, "disk full")];
        assert_transient(3, hard, "disk full");
    }

    #[test]
    fn parse_part_rejects_a_part_for_the_wrong_shard() {
        let part = computed_part();
        assert_transient(0, response(&part), "answered shard 0 with shard 1");
    }

    #[test]
    fn parse_part_rejects_truncated_and_malformed_bodies() {
        let part = computed_part();
        assert_transient(1, Vec::new(), "empty compute-shard response");

        let summary_only = vec![response(&part).pop().unwrap()];
        assert_transient(1, summary_only, "no part frame");

        let mut short = response(&part);
        short.remove(1);
        assert_transient(1, short, "streamed 1 records but its meta promises 2");

        let mut garbled = response(&part);
        garbled[1] = "{\"not\":\"a record\"}".to_string();
        assert_transient(1, garbled, "bad record line in shard 1");
    }
}
