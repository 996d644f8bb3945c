//! The shard-dispatch seam: one merge loop, many ways to compute a shard.
//!
//! A distributed sweep (`sweep --workers`, shards computed by socket-fed
//! worker daemons) has this shape: shards are produced *somewhere*, each as
//! a shard-local [`ShardCheckpoint`] meta plus its records, and a single
//! primary merges them — strictly in expansion order — into the session's
//! sink, checkpointing as it goes. This module owns that shape:
//!
//! * [`compute_shard_part`] — computes one shard into a [`ComputedPart`]:
//!   the meta line, the pre-rendered record body (the exact bytes a
//!   [`JsonlSink`](crate::JsonlSink) would write — fresh records reuse the
//!   JSON already rendered for their cache entry). A worker daemon streams
//!   these bytes over a socket.
//! * [`ShardSource`] — where merged shards come from: a blocking
//!   `next_part(shard)` that returns shard `shard`'s meta and records once
//!   they exist. A worker fleet implements it by collecting socket
//!   responses.
//! * [`merge_shard_source`] — the shared primary loop: checkpoint-replay of
//!   already-recorded shards, then `next_part` per remaining shard, sink
//!   emission and flush, checkpoint append (cumulative `emitted`), progress
//!   reporting. Byte-identical output to a single-process run at any worker
//!   count, because every path feeds it the same deterministic bytes.

use std::ops::Range;

use crate::cache::{CacheBackend, CacheStats};
use crate::checkpoint::{Checkpoint, ShardCheckpoint};
use crate::error::{ExploreError, Result};
use crate::record::SweepRecord;
use crate::retry::RetryPolicy;
use crate::runner::{
    compute_shard, effective_shard_size, ArtifactStore, ErrorPolicy, FailureCause, PointFailure,
    ShardProgress, StreamOptions, StreamOutcome,
};
use crate::sink::RecordSink;
use crate::spec::SweepSpec;

/// One computed shard in the shard wire format: the shard-local meta and the
/// pre-rendered record body.
///
/// `body` is the payload that follows the meta line: one compact JSON
/// document per record, each `\n`-terminated — byte-identical to what a
/// [`JsonlSink`](crate::JsonlSink) writes for the same records, because
/// fresh records reuse the JSON already rendered for their cache entry.
#[derive(Debug, Clone)]
pub struct ComputedPart {
    /// Shard metadata with *shard-local* `emitted` (the merge loop
    /// accumulates the cumulative count for checkpoints).
    pub meta: ShardCheckpoint,
    /// The record lines: `meta.emitted` compact JSON documents, each ending
    /// in `\n`.
    pub body: String,
}

/// Computes one shard into its part form: cache writes (under
/// `retry`, degrading on exhaustion rather than failing — shard producers
/// always run under `KeepGoing`), then the rendered body.
///
/// This is the single compute path behind `worker` daemons answering
/// `compute-shard` requests: every worker produces identical bytes for a
/// given `(spec, shard range)` because they all run this function.
///
/// # Errors
///
/// Propagates spec-validation, simulation-engine and serialization errors.
pub fn compute_shard_part(
    spec: &SweepSpec,
    cache: Option<&dyn CacheBackend>,
    retry: RetryPolicy,
    shard: usize,
    points: Range<usize>,
    artifacts: &std::sync::Mutex<ArtifactStore>,
) -> Result<ComputedPart> {
    spec.validate()?;
    let (computed, _live_failures) =
        compute_shard(spec, cache, shard, points.start, points.end, artifacts)?;
    let mut cache_degraded = 0usize;
    if let Some(cache) = cache {
        for prepared in computed.slots.iter().flatten() {
            if let Some((key, json)) = &prepared.cache_entry {
                if retry
                    .run(|| cache.put_serialized(key, json, &prepared.record))
                    .is_err()
                {
                    cache_degraded += 1;
                }
            }
        }
        if retry.run(|| cache.flush()).is_err() {
            cache_degraded += 1;
        }
    }
    let mut body = String::new();
    let mut emitted = 0;
    for prepared in computed.slots.iter().flatten() {
        match &prepared.cache_entry {
            Some((_, json)) => body.push_str(json),
            None => body.push_str(&serde_json::to_string(&prepared.record)?),
        }
        body.push('\n');
        emitted += 1;
    }
    let meta = ShardCheckpoint {
        shard,
        points: computed.points,
        hits: computed.hits,
        misses: computed.points - computed.hits,
        emitted,
        failures: computed.checkpoint_failures,
        cache_degraded,
    };
    Ok(ComputedPart { meta, body })
}

/// Where a merging primary gets computed shards from.
///
/// Implementations block until the requested shard's part exists — by
/// waiting for socket-fed workers (the distributed coordinator), or anything
/// else that eventually produces every shard. The merge loop asks for shards
/// strictly in order, each exactly once.
pub trait ShardSource {
    /// Blocks until shard `shard` is complete, returning its shard-local
    /// meta and records.
    ///
    /// # Errors
    ///
    /// Whatever makes the shard unobtainable (the source decides what is
    /// fatal; transient producer failures should be retried internally).
    fn next_part(&mut self, shard: usize) -> Result<(ShardCheckpoint, Vec<SweepRecord>)>;
}

/// The shared primary merge loop: replays checkpointed shards, then pulls
/// every remaining shard from `source` — strictly in expansion order — into
/// `sink`, flushing per shard and checkpointing each merged shard (with
/// *cumulative* `emitted`, as checkpoints require). Returns once every shard
/// is merged, however many producers computed them.
///
/// Output is byte-identical to a single-process run of the same spec: record
/// bytes are deterministic, and the merge order is the expansion order.
///
/// # Errors
///
/// Refuses non-[`KeepGoing`](ErrorPolicy::KeepGoing) policies (a fail-fast
/// abort cannot be propagated to independent shard producers); propagates
/// spec-validation, source, sink and checkpoint errors.
pub fn merge_shard_source(
    spec: &SweepSpec,
    options: &StreamOptions,
    sink: &mut dyn RecordSink,
    progress: &mut dyn FnMut(&ShardProgress),
    mut checkpoint: Option<&mut Checkpoint>,
    source: &mut dyn ShardSource,
) -> Result<StreamOutcome> {
    spec.validate()?;
    if options.error_policy != ErrorPolicy::KeepGoing {
        return Err(ExploreError::invalid_spec(
            "merging from a shard source requires ErrorPolicy::KeepGoing: a fail-fast \
             abort cannot be propagated to independent shard producers, so the \
             combination is refused rather than half-honoured (add .keep_going() / \
             --keep-going)",
        ));
    }
    let total = spec.point_count()?;
    let shard_size = effective_shard_size(options, total);
    let shards = total.div_ceil(shard_size);

    let completed_shards = checkpoint.as_ref().map_or(0, |c| c.completed().len());
    if completed_shards > shards {
        return Err(ExploreError::checkpoint(format!(
            "checkpoint records {completed_shards} shards but the sweep only has {shards}"
        )));
    }
    let retry = options.retry;
    let mut stats = CacheStats::default();
    let mut failures: Vec<PointFailure> = Vec::new();
    let mut replayed_failures = 0usize;
    let mut skipped_points = 0usize;
    let mut cache_degraded = 0usize;
    let mut done = 0usize;
    let mut emitted = checkpoint.as_ref().map_or(0, |c| c.emitted());

    // Checkpoint-replay mirrors the single-process executor: recorded shards
    // are already durable in the primary's sink, so they are neither
    // re-merged nor re-computed.
    for shard in 0..completed_shards {
        let start = shard * shard_size;
        let shard_points = (start + shard_size).min(total) - start;
        let recorded = checkpoint
            .as_ref()
            .expect("completed_shards > 0 implies a checkpoint")
            .completed()[shard]
            .clone();
        for failure in &recorded.failures {
            failures.push(PointFailure {
                index: failure.index,
                label: failure.label.clone(),
                error: FailureCause::Recorded(failure.error.clone()),
            });
        }
        replayed_failures += recorded.failures.len();
        skipped_points += shard_points;
        done += shard_points;
        progress(&ShardProgress {
            shard,
            shards,
            points: shard_points,
            hits: 0,
            failures: recorded.failures.len(),
            skipped: shard_points,
            done,
            total,
        });
    }

    for shard in completed_shards..shards {
        let (meta, records) = source.next_part(shard)?;
        if meta.shard != shard {
            return Err(ExploreError::checkpoint(format!(
                "shard source returned shard {} metadata when shard {shard} was requested",
                meta.shard
            )));
        }
        for record in records {
            sink.accept(record)?;
        }
        retry.run(|| sink.flush_shard())?;
        emitted += meta.emitted;
        stats.hits += meta.hits;
        stats.misses += meta.misses;
        cache_degraded += meta.cache_degraded;
        for failure in &meta.failures {
            failures.push(PointFailure {
                index: failure.index,
                label: failure.label.clone(),
                error: FailureCause::Recorded(failure.error.clone()),
            });
        }
        let failed = meta.failures.len();
        if let Some(ckpt) = checkpoint.as_deref_mut() {
            retry.run(|| sink.sync())?;
            ckpt.record_shard(ShardCheckpoint {
                shard,
                points: meta.points,
                hits: meta.hits,
                misses: meta.misses,
                // Cumulative in the checkpoint, shard-local in the part.
                emitted,
                failures: meta.failures,
                cache_degraded: meta.cache_degraded,
            })?;
        }
        done += meta.points;
        progress(&ShardProgress {
            shard,
            shards,
            points: meta.points,
            hits: meta.hits,
            failures: failed,
            skipped: 0,
            done,
            total,
        });
    }
    sink.finish()?;

    Ok(StreamOutcome {
        stats,
        failures,
        replayed_failures,
        shards,
        total_points: total,
        skipped_points,
        cache_degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;

    /// A source that serves pre-baked parts, parsed the way the fleet parses
    /// a worker's record lines, recording the order they were asked for.
    struct BakedSource {
        parts: Vec<ComputedPart>,
        asked: Vec<usize>,
    }

    impl ShardSource for BakedSource {
        fn next_part(&mut self, shard: usize) -> Result<(ShardCheckpoint, Vec<SweepRecord>)> {
            self.asked.push(shard);
            let part = &self.parts[shard];
            Ok((part.meta.clone(), parse_body(&part.body)))
        }
    }

    fn parse_body(body: &str) -> Vec<SweepRecord> {
        body.lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn merge_pulls_shards_in_order_and_matches_the_direct_run() {
        let spec = SweepSpec::new("seam").with_wavelengths(vec![1, 2, 4, 8]);
        let artifacts = std::sync::Mutex::new(ArtifactStore::default());
        let parts: Vec<ComputedPart> = (0..2)
            .map(|shard| {
                compute_shard_part(
                    &spec,
                    None,
                    RetryPolicy::none(),
                    shard,
                    shard * 2..shard * 2 + 2,
                    &artifacts,
                )
                .unwrap()
            })
            .collect();
        // The part body is the exact JSONL rendering of its records.
        for part in &parts {
            let rendered: String = parse_body(&part.body)
                .iter()
                .map(|r| serde_json::to_string(r).unwrap() + "\n")
                .collect();
            assert_eq!(part.body, rendered);
            assert_eq!(part.meta.emitted, 2);
        }
        let mut source = BakedSource {
            parts,
            asked: Vec::new(),
        };
        let mut sink = VecSink::new();
        let options = StreamOptions::chunked(2).keep_going();
        let outcome =
            merge_shard_source(&spec, &options, &mut sink, &mut |_| {}, None, &mut source).unwrap();
        assert_eq!(source.asked, vec![0, 1], "strictly in expansion order");
        assert_eq!(outcome.total_points, 4);
        let direct = crate::ExploreSession::new(&spec).run_collect().unwrap();
        assert_eq!(sink.records(), &direct.records[..]);
    }

    #[test]
    fn merge_refuses_fail_fast() {
        let spec = SweepSpec::new("seam-ff").with_wavelengths(vec![1]);
        let mut source = BakedSource {
            parts: Vec::new(),
            asked: Vec::new(),
        };
        let mut sink = VecSink::new();
        let err = merge_shard_source(
            &spec,
            &StreamOptions::default(),
            &mut sink,
            &mut |_| {},
            None,
            &mut source,
        )
        .unwrap_err();
        assert!(err.to_string().contains("KeepGoing"), "{err}");
    }

    #[test]
    fn merge_rejects_mislabeled_parts() {
        let spec = SweepSpec::new("seam-mislabel").with_wavelengths(vec![1, 2]);
        let artifacts = std::sync::Mutex::new(ArtifactStore::default());
        let part =
            compute_shard_part(&spec, None, RetryPolicy::none(), 1, 0..2, &artifacts).unwrap();
        let mut source = BakedSource {
            // Asked for shard 0, serves shard-1-labeled metadata.
            parts: vec![part.clone(), part],
            asked: Vec::new(),
        };
        let mut sink = VecSink::new();
        let err = merge_shard_source(
            &spec,
            &StreamOptions::chunked(2).keep_going(),
            &mut sink,
            &mut |_| {},
            None,
            &mut source,
        )
        .unwrap_err();
        assert!(err.to_string().contains("shard 1 metadata"), "{err}");
    }
}
