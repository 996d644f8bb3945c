//! Span-recording wrappers around the explore crate's public seams: a
//! [`CacheBackend`] and a [`RecordSink`] that delegate every call and time
//! it.

use simphony_explore::{BackendStats, CacheBackend, RecordSink, Result, SweepPoint, SweepRecord};

use crate::trace::{SpanId, Tracer};

/// A cache backend recording `explore.cache.{get,put,flush}` spans under
/// the sweep's session span.
pub struct TracedCache<'t> {
    /// The backend being timed.
    pub inner: Box<dyn CacheBackend>,
    /// Where spans go.
    pub tracer: &'t Tracer,
    /// The session span.
    pub parent: SpanId,
}

impl CacheBackend for TracedCache<'_> {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        self.tracer
            .time("explore.cache.get", Some(self.parent), || {
                self.inner.get(point)
            })
    }

    fn get_batch(&self, points: &[&SweepPoint]) -> Vec<Option<SweepRecord>> {
        self.tracer
            .time("explore.cache.get", Some(self.parent), || {
                self.inner.get_batch(points)
            })
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        self.tracer
            .time("explore.cache.put", Some(self.parent), || {
                self.inner.put(record)
            })
    }

    fn put_serialized(&self, key: &str, json: &str, record: &SweepRecord) -> Result<()> {
        self.tracer
            .time("explore.cache.put", Some(self.parent), || {
                self.inner.put_serialized(key, json, record)
            })
    }

    fn len(&self) -> Result<usize> {
        self.inner.len()
    }

    fn stats(&self) -> Result<BackendStats> {
        self.inner.stats()
    }

    fn flush(&self) -> Result<()> {
        self.tracer
            .time("explore.cache.flush", Some(self.parent), || {
                self.inner.flush()
            })
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        self.inner.scan(visit)
    }
}

/// A record sink recording `explore.sink.accept` and `explore.sink.flush`
/// (flush, fsync and finish) spans.
pub struct TracedSink<'t, S> {
    /// The sink being timed.
    pub inner: S,
    /// Where spans go.
    pub tracer: &'t Tracer,
    /// The span the sink's calls belong to.
    pub parent: SpanId,
}

impl<S: RecordSink> RecordSink for TracedSink<'_, S> {
    fn accept(&mut self, record: SweepRecord) -> Result<()> {
        let (tracer, parent) = (self.tracer, Some(self.parent));
        tracer.time("explore.sink.accept", parent, || self.inner.accept(record))
    }

    fn flush_shard(&mut self) -> Result<()> {
        let (tracer, parent) = (self.tracer, Some(self.parent));
        tracer.time("explore.sink.flush", parent, || self.inner.flush_shard())
    }

    fn sync(&mut self) -> Result<()> {
        let (tracer, parent) = (self.tracer, Some(self.parent));
        tracer.time("explore.sink.flush", parent, || self.inner.sync())
    }

    fn finish(&mut self) -> Result<()> {
        let (tracer, parent) = (self.tracer, Some(self.parent));
        tracer.time("explore.sink.flush", parent, || self.inner.finish())
    }
}
