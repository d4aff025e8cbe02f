//! Synthetic workload generation: random processes with guaranteed
//! termination, deployed over simulated subsystems, with a tunable conflict
//! structure.
//!
//! The generator produces *strictly well-formed flex* processes
//! (`comp* pivot tail`, recursively, with all-retriable fallback branches —
//! \[ZNBB94\], §3.1), assigns every activity a service drawn from per-kind
//! service pools, gives each service a physical program over hot (shared)
//! and cold (private) keys, and declares the conflict matrix from the
//! physical programs (plus perfect-commutativity closure). `conflict_density`
//! steers how often services touch hot keys and therefore how often
//! processes actually conflict.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use txproc_core::activity::Catalog;
use txproc_core::conflict::ConflictMatrix;
use txproc_core::flex::FlexAnalysis;
use txproc_core::ids::{ProcessId, ServiceId};
use txproc_core::process::ProcessBuilder;
use txproc_core::spec::Spec;
use txproc_subsystem::deploy::Deployment;
use txproc_subsystem::kv::{Key, KvOp, Program};
use txproc_subsystem::subsystem::SubsystemId;

/// How processes arrive at the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalModel {
    /// Closed system: every process is submitted at time zero (the
    /// virtual-time engine may still stagger them via its `arrival_gap`).
    #[default]
    Closed,
    /// Open system: a Poisson arrival process — exponential inter-arrival
    /// gaps with the given mean, in virtual ticks (the wall-clock
    /// concurrent driver maps one tick to one microsecond). Deterministic
    /// in the workload seed.
    Poisson {
        /// Mean inter-arrival gap (virtual ticks; must be ≥ 1).
        mean_gap: u64,
    },
    /// Flash crowd: the first `quiet` processes arrive spaced `quiet_gap`
    /// ticks apart, then every remaining process lands in one burst at the
    /// spike instant.
    Burst {
        /// Processes that arrive before the spike.
        quiet: usize,
        /// Inter-arrival gap of the quiet phase (ticks; must be ≥ 1).
        quiet_gap: u64,
    },
}

/// One tenant in a multi-tenant mix: a relative share of the processes plus
/// optional overrides of the structural knobs. Processes are dealt to
/// tenants by weighted round-robin over the process id, so the assignment
/// is deterministic and independent of every other knob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMix {
    /// Label used in reports.
    pub name: String,
    /// Relative share of processes (≥ 1).
    pub weight: usize,
    /// Override of [`WorkloadConfig::prefix_len`].
    pub prefix_len: Option<(usize, usize)>,
    /// Override of [`WorkloadConfig::tail_len`].
    pub tail_len: Option<(usize, usize)>,
    /// Override of [`WorkloadConfig::alternative_probability`].
    pub alternative_probability: Option<f64>,
    /// Override of [`WorkloadConfig::zipf_s`].
    pub zipf_s: Option<f64>,
}

/// A correlated subsystem crash-storm: during a virtual-time window, every
/// failable activity on the storm subsystems fails with `failure_probability`
/// instead of the base rate — the "half the machine room lost power mid-2PC"
/// shape. A run on the wall clock has no ticks to find the window in; it
/// applies the storm probability to the storm subsystems for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashStorm {
    /// Number of affected subsystems (absolute ids `0..subsystems`).
    pub subsystems: u32,
    /// Virtual-time window `[start, end)` of the storm.
    pub window: (u64, u64),
    /// Failure probability on storm subsystems during the window.
    pub failure_probability: f64,
}

/// Configuration of a synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// RNG seed: equal seeds produce equal workloads.
    pub seed: u64,
    /// Number of processes.
    pub processes: usize,
    /// Compensatable-prefix length range (inclusive).
    pub prefix_len: (usize, usize),
    /// Retriable-tail length range (inclusive).
    pub tail_len: (usize, usize),
    /// Probability that a pivot carries an alternative branch (recursion).
    pub alternative_probability: f64,
    /// Maximum nesting depth of alternatives.
    pub max_depth: usize,
    /// Size of each service pool (compensatable / pivot / retriable).
    pub services_per_kind: usize,
    /// Number of subsystems services are spread over.
    pub subsystems: usize,
    /// Number of hot (shared) keys per subsystem.
    pub hot_keys: u64,
    /// Number of independent service clusters (tenants). Each cluster gets
    /// its own service pools and its own subsystems (and therefore its own
    /// hot-key space); process `p` draws services only from cluster
    /// `p % clusters`. Clusters never share keys, so `conflict_density`
    /// steers *intra*-cluster contention while the potential-conflict graph
    /// decomposes into at least `clusters` independent parts — the
    /// multi-tenant shape the conflict-domain sharded driver exploits.
    /// `1` (the default) reproduces the classic single-pool workload
    /// bit-for-bit.
    pub clusters: usize,
    /// Probability that a service operation touches a hot key.
    pub conflict_density: f64,
    /// Probability that a failable activity fails at runtime.
    pub failure_probability: f64,
    /// Mean service duration (virtual time units).
    pub mean_duration: u64,
    /// Zipf skew of service popularity within each pool: activity `pick`s
    /// draw pool rank `r` with probability ∝ 1/(r+1)^s. `0.0` (the default)
    /// is bit-identical to the classic uniform pick.
    #[serde(default)]
    pub zipf_s: f64,
    /// Arrival model. [`ArrivalModel::Closed`] (the default) reproduces the
    /// classic all-at-time-zero submission.
    #[serde(default)]
    pub arrivals: ArrivalModel,
    /// Multi-tenant mix. Empty (the default) means one implicit tenant with
    /// the base knobs; otherwise process `p` belongs to
    /// [`tenant_of`]`(config, p)` and uses that tenant's overrides.
    #[serde(default)]
    pub tenants: Vec<TenantMix>,
    /// Correlated subsystem crash-storm (none by default).
    #[serde(default)]
    pub storm: Option<CrashStorm>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            processes: 8,
            prefix_len: (1, 3),
            tail_len: (1, 2),
            alternative_probability: 0.4,
            max_depth: 2,
            services_per_kind: 16,
            subsystems: 3,
            hot_keys: 4,
            clusters: 1,
            conflict_density: 0.3,
            failure_probability: 0.1,
            mean_duration: 10,
            zipf_s: 0.0,
            arrivals: ArrivalModel::Closed,
            tenants: Vec::new(),
            storm: None,
        }
    }
}

/// A rejected [`WorkloadConfig`]: which knob is invalid and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError(pub String);

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload config: {}", self.0)
    }
}

impl std::error::Error for WorkloadError {}

fn unit_interval(name: &str, v: f64) -> Result<(), WorkloadError> {
    if !(0.0..=1.0).contains(&v) {
        return Err(WorkloadError(format!("{name} must be in [0, 1], got {v}")));
    }
    Ok(())
}

impl WorkloadConfig {
    /// Validates every knob. [`generate`] panics on an invalid config;
    /// [`try_generate`] surfaces the error instead.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let err = |msg: String| Err(WorkloadError(msg));
        if self.processes == 0 {
            return err("processes must be >= 1".into());
        }
        if self.clusters == 0 {
            return err("clusters must be >= 1 (0 is not \"one pool\")".into());
        }
        if self.clusters > self.processes {
            return err(format!(
                "clusters ({}) must not exceed processes ({}): empty clusters would \
                 silently inflate the service catalog and the domain count",
                self.clusters, self.processes
            ));
        }
        if self.services_per_kind == 0 {
            return err("services_per_kind must be >= 1".into());
        }
        if self.subsystems == 0 {
            return err("subsystems must be >= 1".into());
        }
        if self.hot_keys == 0 && self.conflict_density > 0.0 {
            return err("hot_keys must be >= 1 when conflict_density > 0".into());
        }
        if self.prefix_len.0 > self.prefix_len.1 {
            return err(format!("prefix_len range is empty: {:?}", self.prefix_len));
        }
        if self.tail_len.0 > self.tail_len.1 {
            return err(format!("tail_len range is empty: {:?}", self.tail_len));
        }
        unit_interval("conflict_density", self.conflict_density)?;
        unit_interval("failure_probability", self.failure_probability)?;
        unit_interval("alternative_probability", self.alternative_probability)?;
        if !self.zipf_s.is_finite() || self.zipf_s < 0.0 {
            return err(format!(
                "zipf_s must be finite and >= 0, got {}",
                self.zipf_s
            ));
        }
        match self.arrivals {
            ArrivalModel::Closed => {}
            ArrivalModel::Poisson { mean_gap } => {
                if mean_gap == 0 {
                    return err("Poisson mean_gap must be >= 1".into());
                }
            }
            ArrivalModel::Burst { quiet, quiet_gap } => {
                if quiet_gap == 0 {
                    return err("Burst quiet_gap must be >= 1".into());
                }
                if quiet > self.processes {
                    return err(format!(
                        "Burst quiet ({quiet}) exceeds processes ({})",
                        self.processes
                    ));
                }
            }
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return err(format!("tenant {i} ({}) has weight 0", t.name));
            }
            if let Some((lo, hi)) = t.prefix_len {
                if lo > hi {
                    return err(format!(
                        "tenant {i} prefix_len range is empty: ({lo}, {hi})"
                    ));
                }
            }
            if let Some((lo, hi)) = t.tail_len {
                if lo > hi {
                    return err(format!("tenant {i} tail_len range is empty: ({lo}, {hi})"));
                }
            }
            if let Some(p) = t.alternative_probability {
                unit_interval("tenant alternative_probability", p)?;
            }
            if let Some(s) = t.zipf_s {
                if !s.is_finite() || s < 0.0 {
                    return err(format!(
                        "tenant {i} zipf_s must be finite and >= 0, got {s}"
                    ));
                }
            }
        }
        if let Some(storm) = &self.storm {
            if storm.subsystems == 0 {
                return err("storm.subsystems must be >= 1".into());
            }
            if storm.window.0 >= storm.window.1 {
                return err(format!("storm.window is empty: {:?}", storm.window));
            }
            unit_interval("storm.failure_probability", storm.failure_probability)?;
        }
        Ok(())
    }
}

/// Tenant index of process `p` under `config` (0 when no mix is declared):
/// weighted round-robin over the process id.
pub fn tenant_of(config: &WorkloadConfig, p: usize) -> usize {
    if config.tenants.is_empty() {
        return 0;
    }
    let cycle: usize = config.tenants.iter().map(|t| t.weight).sum();
    let mut pos = p % cycle.max(1);
    for (i, t) in config.tenants.iter().enumerate() {
        if pos < t.weight {
            return i;
        }
        pos -= t.weight;
    }
    config.tenants.len() - 1
}

/// Arrival time (virtual ticks) of every process under the config's
/// [`ArrivalModel`]. Deterministic in the seed; `Closed` is all zeros.
pub fn arrival_times(config: &WorkloadConfig) -> Vec<u64> {
    let n = config.processes;
    match config.arrivals {
        ArrivalModel::Closed => vec![0; n],
        ArrivalModel::Poisson { mean_gap } => {
            // A dedicated RNG stream (not the generator's) so arrival draws
            // never perturb the workload structure.
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa11a_17e5_0f00_ba55);
            let mut at = 0u64;
            (0..n)
                .map(|_| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    // Inverse-CDF exponential sample, floored at 0 ticks.
                    let gap = (-(1.0 - u).ln() * mean_gap as f64).round() as u64;
                    at += gap;
                    at
                })
                .collect()
        }
        ArrivalModel::Burst { quiet, quiet_gap } => {
            let spike_at = quiet as u64 * quiet_gap;
            (0..n)
                .map(|p| {
                    if p < quiet {
                        p as u64 * quiet_gap
                    } else {
                        spike_at
                    }
                })
                .collect()
        }
    }
}

/// Zipf(s) sample over ranks `0..n`: rank `r` with probability ∝ 1/(r+1)^s.
/// `s == 0.0` delegates to the uniform `gen_range` draw — same RNG
/// consumption, bit-identical stream.
pub fn zipf_sample(rng: &mut StdRng, n: usize, s: f64) -> usize {
    assert!(n > 0, "cannot sample from an empty pool");
    if s == 0.0 {
        return rng.gen_range(0..n);
    }
    // n is a pool size (tens), so the linear CDF walk beats building and
    // binary-searching a cached table.
    let total: f64 = (0..n).map(|r| ((r + 1) as f64).powf(-s)).sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for r in 0..n {
        u -= ((r + 1) as f64).powf(-s);
        if u < 0.0 {
            return r;
        }
    }
    n - 1
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Catalog + conflicts + processes.
    pub spec: Spec,
    /// Physical placement and programs.
    pub deployment: Deployment,
    /// The configuration that produced it.
    pub config: WorkloadConfig,
}

/// Generates a workload from a configuration, or reports why the
/// configuration is invalid. Deterministic in `seed`.
pub fn try_generate(config: &WorkloadConfig) -> Result<Workload, WorkloadError> {
    config.validate()?;
    Ok(generate_unchecked(config))
}

/// Generates a workload from a configuration. Deterministic in `seed`.
///
/// # Panics
/// On an invalid configuration (see [`WorkloadConfig::validate`]); use
/// [`try_generate`] to handle the error instead.
pub fn generate(config: &WorkloadConfig) -> Workload {
    match try_generate(config) {
        Ok(w) => w,
        Err(e) => panic!("{e}"),
    }
}

/// Per-process view of the knobs: the base config with the process's tenant
/// overrides applied.
fn effective_config(config: &WorkloadConfig, p: usize) -> WorkloadConfig {
    let mut eff = config.clone();
    if config.tenants.is_empty() {
        return eff;
    }
    let t = &config.tenants[tenant_of(config, p)];
    if let Some(v) = t.prefix_len {
        eff.prefix_len = v;
    }
    if let Some(v) = t.tail_len {
        eff.tail_len = v;
    }
    if let Some(v) = t.alternative_probability {
        eff.alternative_probability = v;
    }
    if let Some(v) = t.zipf_s {
        eff.zipf_s = v;
    }
    eff
}

fn generate_unchecked(config: &WorkloadConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut catalog = Catalog::new();
    let mut deployment = Deployment::new();

    let mut next_cold_key: u64 = 1_000_000;
    let mut make_program = |rng: &mut StdRng, subsystem: u32, writes: bool| -> Program {
        let ops = rng.gen_range(1..=3);
        let mut program = Program::empty();
        for _ in 0..ops {
            let key = if rng.gen_bool(config.conflict_density) {
                // Hot key within the subsystem's shared pool.
                Key(u64::from(subsystem) * 10_000 + rng.gen_range(0..config.hot_keys))
            } else {
                next_cold_key += 1;
                Key(next_cold_key)
            };
            let op = if !writes {
                KvOp::Read(key)
            } else {
                // Mostly commuting increments: two invocations of the same
                // service then conflict only through reads/overwrites, so
                // `conflict_density` (hot-key sharing) stays the dominant
                // contention knob.
                match rng.gen_range(0..10) {
                    0..=5 => KvOp::Add(key, rng.gen_range(1..100)),
                    6 => KvOp::Set(key, rng.gen_range(1..100)),
                    _ => KvOp::Read(key),
                }
            };
            program = program.then(op);
        }
        program
    };

    // Each cluster owns disjoint subsystems (and therefore a disjoint
    // hot-key space, since hot keys are namespaced by subsystem id), so
    // services of different clusters never share a key.
    let mut pool = |catalog: &mut Catalog,
                    deployment: &mut Deployment,
                    rng: &mut StdRng,
                    kind: &str,
                    cluster: u32|
     -> Vec<ServiceId> {
        (0..config.services_per_kind)
            .map(|i| {
                let idx = cluster as usize * config.services_per_kind + i;
                let subsystem =
                    cluster * config.subsystems as u32 + rng.gen_range(0..config.subsystems as u32);
                let svc = match kind {
                    "c" => catalog.compensatable(format!("c{idx}")).0,
                    "p" => catalog.pivot(format!("p{idx}")),
                    _ => catalog.retriable(format!("r{idx}")),
                };
                let writes = kind != "r" || rng.gen_bool(0.5);
                let program = make_program(rng, subsystem, writes);
                let duration = 1 + rng.gen_range(0..config.mean_duration.max(1) * 2);
                deployment.place_with_duration(svc, SubsystemId(subsystem), program, duration);
                svc
            })
            .collect()
    };

    let clusters = config.clusters;
    #[allow(clippy::type_complexity)]
    let cluster_pools: Vec<(Vec<ServiceId>, Vec<ServiceId>, Vec<ServiceId>)> = (0..clusters)
        .map(|k| {
            let comp = pool(&mut catalog, &mut deployment, &mut rng, "c", k as u32);
            let pivot = pool(&mut catalog, &mut deployment, &mut rng, "p", k as u32);
            let retriable = pool(&mut catalog, &mut deployment, &mut rng, "r", k as u32);
            (comp, pivot, retriable)
        })
        .collect();

    let conflicts = declare_conflicts(&catalog, &deployment);
    let mut spec = Spec::new(catalog, conflicts);
    for p in 0..config.processes {
        let pid = ProcessId(p as u32);
        let mut builder = ProcessBuilder::new(pid, format!("W{p}"));
        let (comp_pool, pivot_pool, retriable_pool) = &cluster_pools[p % clusters];
        let eff = effective_config(config, p);
        build_segment(
            &mut builder,
            &mut rng,
            &eff,
            comp_pool,
            pivot_pool,
            retriable_pool,
            None,
            config.max_depth,
        );
        let process = builder
            .build(&spec.catalog)
            .expect("generated process is structurally valid");
        debug_assert!(
            FlexAnalysis::analyze(&process, &spec.catalog).has_guaranteed_termination(),
            "generator must emit guaranteed-termination processes"
        );
        spec.add_process(process);
    }

    Workload {
        spec,
        deployment,
        config: config.clone(),
    }
}

/// Declares the conflict matrix from the physical programs (sound and
/// complete with respect to the deployment); the matrix stores base services
/// only, which closes it under perfect commutativity. Two programs can only
/// conflict through a key both touch, so sites are bucketed by key and
/// compared within a bucket.
fn declare_conflicts(catalog: &Catalog, deployment: &Deployment) -> ConflictMatrix {
    let mut conflicts = ConflictMatrix::new(catalog);
    let sites: Vec<(ServiceId, &Program)> = deployment
        .services()
        .map(|(s, site)| (s, &site.program))
        .collect();
    let mut by_key: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
    for (i, (_, program)) in sites.iter().enumerate() {
        for op in &program.ops {
            let bucket = by_key.entry(op.key()).or_default();
            if bucket.last() != Some(&i) {
                bucket.push(i);
            }
        }
    }
    for bucket in by_key.values() {
        for (k, &i) in bucket.iter().enumerate() {
            let (sa, pa) = sites[i];
            for &j in &bucket[k..] {
                let (sb, pb) = sites[j];
                if pa.conflicts_with(pb) {
                    conflicts
                        .declare_conflict(catalog, sa, sb)
                        .expect("services registered");
                }
            }
        }
    }
    conflicts
}

/// Oracle for [`declare_conflicts`]: every pair of sites compared.
#[cfg(test)]
fn declare_conflicts_all_pairs(catalog: &Catalog, deployment: &Deployment) -> ConflictMatrix {
    let mut conflicts = ConflictMatrix::new(catalog);
    let sites: Vec<(ServiceId, Program)> = deployment
        .services()
        .map(|(s, site)| (s, site.program.clone()))
        .collect();
    for (i, (sa, pa)) in sites.iter().enumerate() {
        for (sb, pb) in &sites[i..] {
            if pa.conflicts_with(pb) {
                conflicts
                    .declare_conflict(catalog, *sa, *sb)
                    .expect("services registered");
            }
        }
    }
    conflicts
}

/// Builds `comp* [pivot tail]` starting after `attach`; returns the first
/// activity of the segment.
#[allow(clippy::too_many_arguments)]
fn build_segment(
    b: &mut ProcessBuilder,
    rng: &mut StdRng,
    config: &WorkloadConfig,
    comp_pool: &[ServiceId],
    pivot_pool: &[ServiceId],
    retriable_pool: &[ServiceId],
    attach: Option<txproc_core::ids::ActivityId>,
    depth: usize,
) -> txproc_core::ids::ActivityId {
    let pick =
        |rng: &mut StdRng, pool: &[ServiceId]| pool[zipf_sample(rng, pool.len(), config.zipf_s)];
    let prefix = rng
        .gen_range(config.prefix_len.0..=config.prefix_len.1)
        .max(1);
    let mut prev = attach;
    let mut first = None;
    for i in 0..prefix {
        let a = b.activity(format!("c{i}"), pick(rng, comp_pool));
        if let Some(p) = prev {
            b.precede(p, a);
        }
        first.get_or_insert(a);
        prev = Some(a);
    }
    // Pivot.
    let pivot = b.activity("p", pick(rng, pivot_pool));
    if let Some(p) = prev {
        b.precede(p, pivot);
    }
    first.get_or_insert(pivot);
    // Tail: either a plain retriable tail, or a recursive preferred branch
    // with an all-retriable fallback.
    let recurse = depth > 0 && rng.gen_bool(config.alternative_probability);
    let tail_first = build_retriable_tail(b, rng, config, retriable_pool, None);
    if recurse {
        let preferred = build_segment(
            b,
            rng,
            config,
            comp_pool,
            pivot_pool,
            retriable_pool,
            None,
            depth - 1,
        );
        b.precede(pivot, preferred);
        b.precede(pivot, tail_first);
        b.prefer(pivot, preferred, tail_first);
    } else {
        b.precede(pivot, tail_first);
    }
    first.expect("segment has at least the pivot")
}

/// Builds a retriable chain; returns its first activity.
fn build_retriable_tail(
    b: &mut ProcessBuilder,
    rng: &mut StdRng,
    config: &WorkloadConfig,
    retriable_pool: &[ServiceId],
    attach: Option<txproc_core::ids::ActivityId>,
) -> txproc_core::ids::ActivityId {
    let pick =
        |rng: &mut StdRng, pool: &[ServiceId]| pool[zipf_sample(rng, pool.len(), config.zipf_s)];
    let len = rng.gen_range(config.tail_len.0..=config.tail_len.1).max(1);
    let mut prev = attach;
    let mut first = None;
    for i in 0..len {
        let a = b.activity(format!("r{i}"), pick(rng, retriable_pool));
        if let Some(p) = prev {
            b.precede(p, a);
        }
        first.get_or_insert(a);
        prev = Some(a);
    }
    first.expect("tail non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::default();
        let w1 = generate(&cfg);
        let w2 = generate(&cfg);
        assert_eq!(w1.spec.process_count(), w2.spec.process_count());
        let p1: Vec<String> = w1.spec.processes().map(|p| format!("{p:?}")).collect();
        let p2: Vec<String> = w2.spec.processes().map(|p| format!("{p:?}")).collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = generate(&WorkloadConfig::default());
        let w2 = generate(&WorkloadConfig {
            seed: 43,
            ..WorkloadConfig::default()
        });
        let p1: Vec<String> = w1.spec.processes().map(|p| format!("{p:?}")).collect();
        let p2: Vec<String> = w2.spec.processes().map(|p| format!("{p:?}")).collect();
        assert_ne!(p1, p2);
    }

    #[test]
    fn all_processes_have_guaranteed_termination() {
        for seed in 0..10 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 12,
                ..WorkloadConfig::default()
            });
            for p in w.spec.processes() {
                let a = FlexAnalysis::analyze(p, &w.spec.catalog);
                assert!(
                    a.has_guaranteed_termination(),
                    "seed {seed}, process {}: {:?}",
                    p.name,
                    a.guaranteed_termination
                );
            }
        }
    }

    #[test]
    fn conflict_matrix_covers_physical_conflicts() {
        for seed in 0..5 {
            let w = generate(&WorkloadConfig {
                seed,
                conflict_density: 0.8,
                ..WorkloadConfig::default()
            });
            let missing = w
                .deployment
                .validate_conflicts(&w.spec.catalog, &w.spec.conflicts);
            assert!(missing.is_empty(), "seed {seed}: {missing:?}");
        }
    }

    #[test]
    fn every_activity_has_a_deployed_service() {
        let w = generate(&WorkloadConfig::default());
        for p in w.spec.processes() {
            for (id, _) in p.iter() {
                let svc = p.service(id);
                assert!(w.deployment.site(svc).is_some());
            }
        }
    }

    #[test]
    fn zero_density_generates_no_hot_conflicts_across_processes() {
        let w = generate(&WorkloadConfig {
            conflict_density: 0.0,
            ..WorkloadConfig::default()
        });
        // With all-cold keys, distinct services never share keys; only
        // self-conflicts (same service reused) remain possible.
        let sites: Vec<_> = w.deployment.services().collect();
        for (i, (sa, a)) in sites.iter().enumerate() {
            for (sb, b) in &sites[i + 1..] {
                assert!(
                    !a.program.conflicts_with(&b.program),
                    "{sa} vs {sb} share keys despite zero density"
                );
            }
        }
    }

    #[test]
    fn clusters_partition_the_conflict_graph() {
        use txproc_core::domains::DomainPartition;
        for seed in 0..3 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 32,
                clusters: 4,
                conflict_density: 0.9,
                ..WorkloadConfig::default()
            });
            // Even at extreme density, clusters never share keys: the
            // potential-conflict graph has at least `clusters` components,
            // and no component mixes processes of different clusters.
            let part = DomainPartition::partition(&w.spec);
            assert!(part.domain_count() >= 4, "seed {seed}");
            for members in part.domains() {
                let cluster = members[0].0 % 4;
                for &pid in members {
                    assert_eq!(pid.0 % 4, cluster, "seed {seed}: mixed-cluster domain");
                }
            }
        }
    }

    #[test]
    fn single_cluster_reproduces_classic_workload() {
        // `clusters: 1` must be bit-identical to the pre-cluster generator:
        // same processes, same conflict matrix, same deployment shape.
        let w = generate(&WorkloadConfig::default());
        assert_eq!(w.config.clusters, 1);
        let procs: Vec<String> = w.spec.processes().map(|p| format!("{p:?}")).collect();
        let again = generate(&WorkloadConfig {
            clusters: 1,
            ..WorkloadConfig::default()
        });
        let procs2: Vec<String> = again.spec.processes().map(|p| format!("{p:?}")).collect();
        assert_eq!(procs, procs2);
        assert_eq!(
            w.spec.conflicts.declared_pairs(),
            again.spec.conflicts.declared_pairs()
        );
    }

    #[test]
    fn key_bucketed_declaration_equals_all_pairs() {
        // 32 configurations: every cluster count × density of the grid, the
        // seed and the catalog size varying along it.
        let grid = [1usize, 8, 64]
            .into_iter()
            .flat_map(|clusters| [0.0, 0.3, 1.0].map(|density| (clusters, density)))
            .cycle();
        for (seed, (clusters, conflict_density)) in (0..32u64).zip(grid) {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 64,
                clusters,
                conflict_density,
                services_per_kind: if seed % 2 == 0 { 4 } else { 16 },
                hot_keys: 1 + seed % 4,
                ..WorkloadConfig::default()
            });
            assert_eq!(
                w.spec.conflicts,
                declare_conflicts_all_pairs(&w.spec.catalog, &w.deployment),
                "seed {seed}, {clusters} clusters, density {conflict_density}"
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected_not_collapsed() {
        let bad = [
            WorkloadConfig {
                clusters: 0,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                clusters: 9,
                processes: 8,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                processes: 0,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                services_per_kind: 0,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                subsystems: 0,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                hot_keys: 0,
                conflict_density: 0.5,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                prefix_len: (3, 1),
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                failure_probability: 1.5,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                zipf_s: f64::NAN,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                arrivals: ArrivalModel::Poisson { mean_gap: 0 },
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                storm: Some(CrashStorm {
                    subsystems: 1,
                    window: (10, 10),
                    failure_probability: 0.5,
                }),
                ..WorkloadConfig::default()
            },
        ];
        for cfg in bad {
            assert!(
                try_generate(&cfg).is_err(),
                "accepted invalid config: {cfg:?}"
            );
        }
        // hot_keys = 0 is fine when nothing ever touches a hot key.
        assert!(try_generate(&WorkloadConfig {
            hot_keys: 0,
            conflict_density: 0.0,
            ..WorkloadConfig::default()
        })
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid workload config")]
    fn generate_panics_on_invalid_config() {
        generate(&WorkloadConfig {
            clusters: 0,
            ..WorkloadConfig::default()
        });
    }

    #[test]
    fn zipf_zero_matches_uniform_stream() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..2000 {
            assert_eq!(zipf_sample(&mut a, 17, 0.0), b.gen_range(0..17));
        }
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[zipf_sample(&mut rng, 16, 1.5)] += 1;
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[4], "{counts:?}");
        // Rank 0 should dominate: > 40% of the mass at s = 1.5, n = 16.
        assert!(counts[0] > 8_000, "{counts:?}");
    }

    #[test]
    fn arrival_models_are_deterministic_and_shaped() {
        let closed = WorkloadConfig::default();
        assert_eq!(arrival_times(&closed), vec![0; 8]);

        let poisson = WorkloadConfig {
            arrivals: ArrivalModel::Poisson { mean_gap: 25 },
            processes: 64,
            ..WorkloadConfig::default()
        };
        let a1 = arrival_times(&poisson);
        let a2 = arrival_times(&poisson);
        assert_eq!(a1, a2);
        assert!(a1.windows(2).all(|w| w[0] <= w[1]), "non-monotone arrivals");
        let mean_gap = *a1.last().unwrap() as f64 / (a1.len() - 1) as f64;
        assert!(
            (5.0..125.0).contains(&mean_gap),
            "mean inter-arrival gap way off: {mean_gap}"
        );

        let burst = WorkloadConfig {
            arrivals: ArrivalModel::Burst {
                quiet: 3,
                quiet_gap: 50,
            },
            processes: 8,
            ..WorkloadConfig::default()
        };
        assert_eq!(
            arrival_times(&burst),
            vec![0, 50, 100, 150, 150, 150, 150, 150]
        );
    }

    #[test]
    fn tenants_deal_processes_by_weight() {
        let cfg = WorkloadConfig {
            tenants: vec![
                TenantMix {
                    name: "heavy".into(),
                    weight: 1,
                    prefix_len: Some((6, 8)),
                    tail_len: None,
                    alternative_probability: None,
                    zipf_s: None,
                },
                TenantMix {
                    name: "light".into(),
                    weight: 3,
                    prefix_len: None,
                    tail_len: None,
                    alternative_probability: None,
                    zipf_s: None,
                },
            ],
            ..WorkloadConfig::default()
        };
        let assigned: Vec<usize> = (0..8).map(|p| tenant_of(&cfg, p)).collect();
        assert_eq!(assigned, vec![0, 1, 1, 1, 0, 1, 1, 1]);
        // Heavy-tenant processes (prefix >= 6 compensatable steps before the
        // pivot) must be visibly longer than light ones (prefix <= 3).
        let w = generate(&cfg);
        let sizes: Vec<usize> = w.spec.processes().map(|p| p.iter().count()).collect();
        for (p, &size) in sizes.iter().enumerate() {
            if tenant_of(&cfg, p) == 0 {
                assert!(size >= 8, "heavy process {p} too small: {size}");
            }
        }
    }

    #[test]
    fn no_tenants_is_bit_identical_to_base_config() {
        let base = generate(&WorkloadConfig::default());
        let with_empty = generate(&WorkloadConfig {
            tenants: Vec::new(),
            zipf_s: 0.0,
            ..WorkloadConfig::default()
        });
        let p1: Vec<String> = base.spec.processes().map(|p| format!("{p:?}")).collect();
        let p2: Vec<String> = with_empty
            .spec
            .processes()
            .map(|p| format!("{p:?}"))
            .collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn subsystem_count_respected() {
        let w = generate(&WorkloadConfig {
            subsystems: 2,
            ..WorkloadConfig::default()
        });
        for sid in w.deployment.subsystems() {
            assert!(sid.0 < 2);
        }
    }
}
