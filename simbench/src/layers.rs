//! The per-layer metrics of the traced run, and how spans aggregate into
//! them. The list must match `per_layer` in `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::breakdown::ModelWork;
use crate::stats::share;
use crate::trace::{self, Span};

/// Every per-layer metric, with its unit. Times and counts are per
/// operation (one sweep, or one daemon request) unless the name says
/// otherwise; a layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("onn.extract.calls", "count"),
    ("onn.extract.ms", "ms"),
    ("onn.extract.shared_model_share", "ratio"),
    ("arch.build.calls", "count"),
    ("arch.build.ms", "ms"),
    ("core.simulate.calls", "count"),
    ("core.simulate.ms", "ms"),
    ("core.energy.ms", "ms"),
    ("core.link_budget.ms", "ms"),
    ("core.area.ms", "ms"),
    ("core.energy.aware_share", "ratio"),
    ("core.energy.repeat_share", "ratio"),
    ("dataflow.map.ms", "ms"),
    ("dataflow.latency.ms", "ms"),
    ("memsim.hierarchy.ms", "ms"),
    ("explore.cache.get.calls", "count"),
    ("explore.cache.get.ms", "ms"),
    ("explore.cache.put.calls", "count"),
    ("explore.cache.put.ms", "ms"),
    ("explore.cache.flush.ms", "ms"),
    ("explore.cache.hit_ratio", "ratio"),
    ("explore.sink.accept.ms", "ms"),
    ("explore.sink.flush.ms", "ms"),
    ("explore.shard.p50_ms", "ms"),
    ("explore.session.other_ms", "ms"),
    ("explore.artifacts.hits", "count"),
    ("explore.artifacts.misses", "count"),
    ("serve.connect.ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("serve.busy_rejects", "count"),
    ("serve.artifacts.hit_ratio", "ratio"),
    ("serve.artifacts.evictions", "count"),
    ("dist.shard.land_ms", "ms"),
    ("dist.shard.compute_ms", "ms"),
    ("dist.overhead_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.nproc", "count"),
    ("host.spin_2t_speedup", "ratio"),
];

/// Per-layer values of one traced run; unset metrics read 0.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets the model-side metrics (onn, arch, core, dataflow, memsim) from
    /// the spans and counts of a breakdown pass over one operation's work.
    pub fn set_model(&mut self, spans: &[Span], work: &ModelWork) {
        let totals = trace::totals(spans);
        let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e6);
        self.set("onn.extract.calls", work.extracts as f64);
        self.set("onn.extract.ms", ms("onn.extract"));
        self.set(
            "onn.extract.shared_model_share",
            share(work.shared_model_extracts, work.extracts),
        );
        self.set("arch.build.calls", work.builds as f64);
        self.set("arch.build.ms", ms("arch.build"));
        self.set("core.simulate.calls", work.simulations as f64);
        self.set("core.simulate.ms", ms("core.simulate"));
        self.set("core.energy.ms", ms("core.energy"));
        self.set("core.link_budget.ms", ms("core.link_budget"));
        self.set("core.area.ms", ms("core.area"));
        self.set(
            "core.energy.aware_share",
            share(work.aware, work.simulations),
        );
        self.set(
            "core.energy.repeat_share",
            share(work.aware_repeats, work.aware),
        );
        self.set("dataflow.map.ms", ms("dataflow.map"));
        self.set("dataflow.latency.ms", ms("dataflow.latency"));
        self.set("memsim.hierarchy.ms", ms("memsim.hierarchy"));
    }

    /// Sets the explore-layer metrics from the spans of `ops` traced sweeps
    /// whose session spans are named `session`.
    pub fn set_explore(&mut self, spans: &[Span], session: &str, ops: usize) {
        let totals = trace::totals(spans);
        let per_op = 1.0 / ops.max(1) as f64;
        let count = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64) * per_op;
        let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e6) * per_op;
        self.set("explore.cache.get.calls", count("explore.cache.get"));
        self.set("explore.cache.get.ms", ms("explore.cache.get"));
        self.set("explore.cache.put.calls", count("explore.cache.put"));
        self.set("explore.cache.put.ms", ms("explore.cache.put"));
        self.set("explore.cache.flush.ms", ms("explore.cache.flush"));
        self.set("explore.sink.accept.ms", ms("explore.sink.accept"));
        self.set("explore.sink.flush.ms", ms("explore.sink.flush"));
        let other: u64 = (0..spans.len())
            .filter(|&id| spans[id].name == session)
            .map(|id| trace::self_time(spans, id))
            .sum();
        self.set("explore.session.other_ms", other as f64 / 1e6 * per_op);
    }

    /// Renders `"name":{"value":v,"unit":u},...` over [`PER_LAYER`], the
    /// members of the result line's `metrics` object.
    pub fn to_json_fields(&self) -> String {
        let fields: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(self.get(name))
                )
            })
            .collect();
        fields.join(",")
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
