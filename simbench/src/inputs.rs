//! Workload inputs, generated from the benchmark's `--seed`.
//!
//! The seed feeds the sweep spec's workload-extraction `seed` and the
//! daemon clients' request draws; the program only sees the generated specs
//! and request lines.

use simphony::DataAwareness;
use simphony_dataflow::DataflowStyle;
use simphony_explore::{ArchFamily, SweepPoint, SweepSpec, WorkloadSpec};

/// Points per shard of the pipelined sweeps (sweep-cold, sweep-warm,
/// fleet-sweep): two shards of the 224-point sweep. With two shards the
/// executor overlaps the second shard's compute with the first's
/// cache/sink/checkpoint I/O (and the fleet has one shard per worker),
/// while each sweep pays only two rounds of fsyncs: with 32-point shards a
/// warm sweep made 14 fsyncs in ~10 ms, and the host's fsync latency then
/// swung its tail between 12 and 28 ms from run to run.
pub const SHARD_POINTS: usize = 112;

/// The VGG-8 sweep of sweep-cold, sweep-warm and fleet-sweep: all seven
/// architecture families x 2 wavelength counts x 2 bitwidths x 2 sparsities
/// x 2 dataflows x both data-awareness modes (224 points). Four workload
/// variants (bitwidth x sparsity) share one (model, seed); half the points
/// are data-aware.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("simbench-vgg8")
        .with_workload(vec![WorkloadSpec::Vgg8])
        .with_arch(ArchFamily::ALL.to_vec())
        .with_wavelengths(vec![1, 4])
        .with_bitwidth(vec![4, 8])
        .with_sparsity(vec![0.0, 0.5])
        .with_dataflow(vec![
            DataflowStyle::OutputStationary,
            DataflowStyle::WeightStationary,
        ])
        .with_data_awareness(vec![DataAwareness::Aware, DataAwareness::Unaware]);
    spec.seed = seed;
    spec
}

/// The one-point spec a `run` request carries for `point`.
pub fn point_spec(point: &SweepPoint) -> SweepSpec {
    let mut spec = SweepSpec::new("simbench-run")
        .with_workload(vec![point.workload.clone()])
        .with_arch(vec![point.arch])
        .with_tiles(vec![point.tiles])
        .with_cores_per_tile(vec![point.cores_per_tile])
        .with_core_dims(vec![point.core_height])
        .with_wavelengths(vec![point.wavelengths])
        .with_bitwidth(vec![point.bits])
        .with_sparsity(vec![point.sparsity])
        .with_dataflow(vec![point.dataflow])
        .with_data_awareness(vec![point.data_awareness]);
    spec.core_width = vec![point.core_width];
    spec.clock_ghz = point.clock_ghz;
    spec.seed = point.seed;
    spec
}

/// One entry of the daemon's request pool.
pub struct PoolEntry {
    /// The configuration the request simulates.
    pub point: SweepPoint,
    /// Whether this is a heavy (BERT-Base) entry.
    pub heavy: bool,
}

/// Share of daemon requests drawn from the heavy (BERT-Base) entries.
pub const HEAVY_SHARE: f64 = 0.2;

/// The daemon's fixed request pool: eight light VGG-8 points (four
/// families, both awareness modes, two sparsities) and two heavy data-aware
/// BERT-Base (seq 128) points on TeMPO. Every artifact fits the default
/// `ArtifactBudget`, so a warmed daemon never evicts.
pub fn daemon_pool(seed: u64) -> Vec<PoolEntry> {
    let mut pool = Vec::new();
    let light = [
        ArchFamily::Tempo,
        ArchFamily::MrrBank,
        ArchFamily::Scatter,
        ArchFamily::Butterfly,
    ];
    for (i, arch) in light.into_iter().enumerate() {
        for awareness in [DataAwareness::Aware, DataAwareness::Unaware] {
            let mut spec = SweepSpec::new("pool")
                .with_workload(vec![WorkloadSpec::Vgg8])
                .with_arch(vec![arch])
                .with_sparsity(vec![if i % 2 == 0 { 0.0 } else { 0.5 }])
                .with_data_awareness(vec![awareness]);
            spec.seed = seed;
            pool.push(PoolEntry {
                point: spec.point_at(0),
                heavy: false,
            });
        }
    }
    for sparsity in [0.0, 0.5] {
        let mut spec = SweepSpec::new("pool")
            .with_workload(vec![WorkloadSpec::Bert { seq_len: 128 }])
            .with_arch(vec![ArchFamily::Tempo])
            .with_wavelengths(vec![4])
            .with_sparsity(vec![sparsity]);
        spec.seed = seed;
        pool.push(PoolEntry {
            point: spec.point_at(0),
            heavy: true,
        });
    }
    pool
}

/// SplitMix64, for the clients' request draws.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws a pool index: heavy with probability [`HEAVY_SHARE`], else light,
/// uniform within the class.
pub fn draw(rng: &mut SplitMix64, pool: &[PoolEntry]) -> usize {
    let heavy = rng.next_f64() < HEAVY_SHARE;
    let class: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].heavy == heavy)
        .collect();
    class[rng.below(class.len())]
}
