//! Phase breakdown of `Simulator::simulate`.
//!
//! [`recompose`] calls the same public phase functions `simulate` calls, in
//! the same order and on the same inputs, with a span around each phase.
//! Its report must equal `simulate`'s exactly (energy, cycles, area and
//! every other field); otherwise the breakdown would be timing a different
//! program, and the benchmark fails.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use simphony::{
    area_report, data_movement_energy, layer_energy_with_counts, link_budget, Accelerator,
    DataAwareness, EnergyBreakdown, EnergyKind, LayerReport, LinkBudgetReport, MappingPlan,
    SimulationConfig, SimulationReport, Simulator,
};
use simphony_dataflow::{glb_bandwidth_demand, layer_latency, map_gemm, memory_traffic};
use simphony_explore::{
    build_accelerator, extract_workload, ArchFamily, ArchKey, SweepPoint, WorkloadKey, WorkloadSpec,
};
use simphony_memsim::MemoryHierarchy;
use simphony_onn::ModelWorkload;
use simphony_units::{Bandwidth, Energy, Power, Time};

use crate::trace::{SpanId, Tracer};

/// `Simulator::simulate`'s clamp on the GLB demand used for sizing.
const MAX_GLB_DEMAND_GBPS: f64 = 4096.0;

type BoxError = Box<dyn std::error::Error>;

/// Re-composes `Simulator::simulate` for the default mapping plan from its
/// public phase functions, recording one span per phase under `parent`:
/// `dataflow.map` (placement + `map_gemm`), `memsim.hierarchy`
/// (`glb_bandwidth_demand` + `MemoryHierarchy` build), `core.link_budget`
/// (`link_budget` + instance counts), then per layer `dataflow.latency`
/// (`layer_latency` + `memory_traffic`) and `core.energy`
/// (`layer_energy_with_counts` + data movement), and finally `core.area`.
///
/// # Errors
///
/// Propagates any phase error.
pub fn recompose(
    accel: &Accelerator,
    workload: &ModelWorkload,
    config: SimulationConfig,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<SimulationReport, BoxError> {
    let library = accel.library();
    let subs = accel.sub_archs();
    let table = MappingPlan::default().resolve();
    let fallback = subs
        .iter()
        .position(|a| a.taxonomy().supports_dynamic_products());

    let placed = tracer.time("dataflow.map", parent, || {
        workload
            .layers()
            .iter()
            .map(|layer| {
                let planned = table[layer.kind().index()];
                let sub = if !layer.is_dynamic()
                    || subs[planned].taxonomy().supports_dynamic_products()
                {
                    planned
                } else {
                    fallback.ok_or("dynamic layer without a compatible sub-architecture")?
                };
                let mapping = map_gemm(
                    layer.gemm(),
                    layer.is_dynamic(),
                    &subs[sub],
                    config.dataflow,
                )?;
                Ok((sub, mapping))
            })
            .collect::<Result<Vec<_>, BoxError>>()
    })?;

    let hierarchy = tracer.time("memsim.hierarchy", parent, || {
        let mut demand_gbps = 1.0_f64;
        for (layer, (sub, mapping)) in workload.layers().iter().zip(&placed) {
            let demand = glb_bandwidth_demand(layer, mapping, &subs[*sub]);
            demand_gbps = demand_gbps.max(demand.gigabytes_per_second());
        }
        demand_gbps = demand_gbps.min(MAX_GLB_DEMAND_GBPS);
        let mem = accel.memory();
        MemoryHierarchy::builder()
            .glb_capacity(mem.glb_capacity)
            .lb_capacity(mem.lb_capacity)
            .rf_capacity(mem.rf_capacity)
            .bus_width_bits(mem.bus_width_bits)
            .technology(mem.technology)
            .demand_bandwidth(Bandwidth::from_gigabytes_per_second(demand_gbps))
            .build()
    })?;

    let (link_budgets, instance_counts) = tracer.time("core.link_budget", parent, || {
        let links = subs
            .iter()
            .map(|arch| link_budget(arch, library, accel.link()))
            .collect::<Result<Vec<LinkBudgetReport>, _>>()?;
        let counts = subs
            .iter()
            .map(|arch| arch.instance_counts())
            .collect::<Result<Vec<BTreeMap<String, usize>>, _>>()?;
        Ok::<_, BoxError>((links, counts))
    })?;

    let mut layers = Vec::with_capacity(workload.layers().len());
    let mut energy_by_kind = EnergyBreakdown::new();
    let mut total_energy = Energy::ZERO;
    let mut total_cycles = 0u64;
    let mut total_time = Time::ZERO;
    for (layer, (sub, mapping)) in workload.layers().iter().zip(&placed) {
        let arch = &subs[*sub];
        let (latency, traffic) = tracer.time("dataflow.latency", parent, || {
            let latency = layer_latency(layer, arch, mapping, hierarchy.glb_bandwidth())?;
            Ok::<_, BoxError>((latency, memory_traffic(layer, mapping)))
        })?;
        let energy = tracer.time("core.energy", parent, || {
            let mut energy = layer_energy_with_counts(
                arch,
                library,
                &link_budgets[*sub],
                &hierarchy,
                &instance_counts[*sub],
                layer,
                mapping,
                &latency,
                config.data_awareness,
            )?;
            energy.by_kind.add(
                EnergyKind::DataMovement,
                data_movement_energy(&hierarchy, &traffic),
            );
            energy.total = energy.by_kind.total();
            Ok::<_, BoxError>(energy)
        })?;
        energy_by_kind.merge(&energy.by_kind);
        total_energy += energy.total;
        total_cycles += latency.total_cycles();
        let time = latency.total_time(arch.clock());
        total_time += time;
        layers.push(LayerReport {
            name: layer.name().to_string(),
            sub_arch: arch.name().to_string(),
            kind: layer.kind(),
            latency,
            time,
            energy,
        });
    }
    let average_power = if total_time.seconds() > 0.0 {
        total_energy / total_time
    } else {
        Power::ZERO
    };
    let area = tracer.time("core.area", parent, || {
        area_report(accel, config.layout_aware)
    })?;
    Ok(SimulationReport {
        accelerator: accel.name().to_string(),
        workload: workload.model_name().to_string(),
        layers,
        energy_by_kind,
        total_energy,
        total_cycles,
        total_time,
        average_power,
        area,
        link_budgets,
        glb_blocks: hierarchy.glb_blocks(),
    })
}

/// Counts of the model-side work a breakdown pass timed.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelWork {
    /// `extract_workload` calls.
    pub extracts: u64,
    /// Extractions whose (model, seed) an earlier extraction already had:
    /// the share dense weight synthesis could be shared across.
    pub shared_model_extracts: u64,
    /// `build_accelerator` calls.
    pub builds: u64,
    /// `Simulator::simulate` calls.
    pub simulations: u64,
    /// Data-aware simulations.
    pub aware: u64,
    /// Data-aware simulations whose (workload key, arch family) pair an
    /// earlier data-aware simulation of the same resident process already
    /// had: the share a per-(layer, device model) power memo would serve.
    pub aware_repeats: u64,
    /// Simulations whose recomposed report differed from `simulate`'s.
    pub mismatches: u64,
}

/// Tracks which (workload key, arch family) pairs a resident process has
/// already simulated data-aware.
#[derive(Default)]
pub struct AwareSeen(HashSet<(WorkloadKey, ArchFamily)>);

impl AwareSeen {
    /// Records a simulation of `point`; true when it is a data-aware repeat.
    pub fn repeat(&mut self, point: &SweepPoint) -> bool {
        point.data_awareness == DataAwareness::Aware
            && !self.0.insert((point.workload_key(), point.arch))
    }
}

/// The artifacts a breakdown pass simulates against.
pub struct Artifacts {
    /// Whether building an artifact is part of the modelled work (a fresh
    /// sweep process) rather than already done (a warm resident store).
    cold: bool,
    workloads: HashMap<WorkloadKey, Arc<ModelWorkload>>,
    accels: HashMap<ArchKey, Arc<Accelerator>>,
    /// (model, seed) pairs extracted so far.
    models: HashSet<(WorkloadSpec, u64)>,
}

impl Artifacts {
    /// Artifacts a fresh process builds: each distinct one is extracted or
    /// built inside an `onn.extract` / `arch.build` span on first use.
    pub fn cold() -> Self {
        Self::new(true)
    }

    /// Artifacts a warm resident store already holds: built untimed.
    pub fn warm() -> Self {
        Self::new(false)
    }

    fn new(cold: bool) -> Self {
        Self {
            cold,
            workloads: HashMap::new(),
            accels: HashMap::new(),
            models: HashSet::new(),
        }
    }

    /// The artifacts of `point`, building them on first use.
    fn get(
        &mut self,
        point: &SweepPoint,
        tracer: &Tracer,
        work: &mut ModelWork,
    ) -> Result<(Arc<ModelWorkload>, Arc<Accelerator>), BoxError> {
        let workload = match self.workloads.get(&point.workload_key()) {
            Some(w) => Arc::clone(w),
            None => {
                let w = if self.cold {
                    work.extracts += 1;
                    if !self.models.insert((point.workload.clone(), point.seed)) {
                        work.shared_model_extracts += 1;
                    }
                    tracer.time("onn.extract", None, || extract_workload(point))?
                } else {
                    extract_workload(point)?
                };
                let w = Arc::new(w);
                self.workloads.insert(point.workload_key(), Arc::clone(&w));
                w
            }
        };
        let accel = match self.accels.get(&point.arch_key()) {
            Some(a) => Arc::clone(a),
            None => {
                let a = if self.cold {
                    work.builds += 1;
                    tracer.time("arch.build", None, || build_accelerator(point))?
                } else {
                    build_accelerator(point)?
                };
                let a = Arc::new(a);
                self.accels.insert(point.arch_key(), Arc::clone(&a));
                a
            }
        };
        Ok((workload, accel))
    }
}

/// Times `simulate` and its re-composition for each of `points`, in order,
/// against `artifacts`. `seen` carries the data-aware repeat tracking of
/// the process being modelled.
///
/// # Errors
///
/// Propagates artifact and simulation errors.
pub fn run(
    points: &[SweepPoint],
    artifacts: &mut Artifacts,
    seen: &mut AwareSeen,
    tracer: &Tracer,
) -> Result<ModelWork, BoxError> {
    let mut work = ModelWork::default();
    for point in points {
        let (workload, accel) = artifacts.get(point, tracer, &mut work)?;
        let sim = Simulator::shared(Arc::clone(&accel)).with_config(point.sim_config());
        let report = tracer.time("core.simulate", None, || {
            sim.simulate(&workload, &MappingPlan::default())
        })?;
        let phases = tracer.open("core.recompose", None);
        let recomposed = recompose(&accel, &workload, point.sim_config(), tracer, Some(phases))?;
        tracer.close(phases);
        work.simulations += 1;
        if point.data_awareness == DataAwareness::Aware {
            work.aware += 1;
        }
        if seen.repeat(point) {
            work.aware_repeats += 1;
        }
        if recomposed != report {
            work.mismatches += 1;
        }
    }
    Ok(work)
}
