//! The parallel sweep engine: a cartesian grid of cluster experiments run
//! concurrently on a [`phase_rt::ThreadPool`].
//!
//! Every cluster sweep (the presets of the bench crate's one sweep driver:
//! `cluster_sweep`, `cluster_power_cap`, `coordinated_capping` and
//! `scenario_sweep`) is embarrassingly parallel: every
//! (nodes × budget × policy × machines × faults × arrivals × seed) cell is
//! an independent discrete-event simulation against the same immutable
//! [`FleetModel`]. The engine expands a [`SweepSpec`] into ordered
//! [`SweepCell`]s, shares the fleet by `Arc` (built once — thousands of
//! cells never re-train the ANN ensembles), executes cells on a worker
//! pool, and streams results back over a channel in completion order while
//! preserving a deterministic *report* order: [`run_sweep_fleet`] returns
//! outcomes sorted by cell index, so rendered CSV/JSON is bit-identical
//! regardless of worker count or completion order
//! (`actor_core::report::StreamingReporter` is the matching presentation
//! adapter).
//!
//! Worker panics do not poison the engine: the pool catches the unwind at
//! the job boundary and the sweep join surfaces it as
//! [`phase_rt::RtError::WorkerPanicked`] inside [`SweepError::Pool`].

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use actor_core::telemetry::{SharedSink, TraceEvent};
use phase_rt::{RtError, ThreadPool};
use serde::{Deserialize, Serialize};

use crate::cluster::{simulate, ClusterReport, ClusterSpec};
use crate::error::ClusterError;
use crate::fleet::{budget_for_mix, mix_by_name, FleetModel, MACHINE_MIX_NAMES};
use crate::job::WorkloadSpec;
use crate::policy::{policy_by_name, POLICY_NAMES};
use crate::scenario::{
    arrival_process_by_name, fault_scenario_by_name, ARRIVAL_PROCESS_NAMES, FAULT_SCENARIO_NAMES,
};

/// The per-node dynamic power ceiling used to translate budget fractions
/// into watts — the historical constant of every cluster bin.
pub const DEFAULT_MAX_NODE_W: f64 = 160.0;

/// The workload-shaping rule the cluster bins have always used: job count
/// and arrival rate scale with the cluster, and job width is capped at half
/// the cluster so the tight budget tier stays feasible for strict FCFS (a
/// full-width four-core BT would need ~0.83 of the dynamic range to
/// itself).
pub fn default_workload(nodes: usize) -> WorkloadSpec {
    WorkloadSpec {
        num_jobs: 8 * nodes.max(3),
        mean_interarrival_s: 12.0 / nodes as f64,
        node_counts: if nodes >= 8 {
            vec![1, 1, 2, 4]
        } else if nodes >= 4 {
            vec![1, 1, 2]
        } else {
            vec![1]
        },
        ..Default::default()
    }
}

/// A light workload for huge policy-search grids: a handful of jobs per
/// cell so a ~1000-cell grid stays interactive, same width rule as
/// [`default_workload`].
pub fn light_workload(nodes: usize) -> WorkloadSpec {
    WorkloadSpec { num_jobs: (2 * nodes).clamp(4, 16), ..default_workload(nodes) }
}

/// The four-benchmark test workload the cross-crate suites sweep with: six
/// jobs per cell drawing only CG/IS/MG/BT, so it pairs with a model trained
/// on those four benchmarks (`ActorConfig::fast`, `corpus_replicas: 2`)
/// instead of the full NAS suite the bins use.
pub fn quad_test_workload(nodes: usize) -> WorkloadSpec {
    use npb_workloads::BenchmarkId;
    WorkloadSpec {
        num_jobs: 6,
        mean_interarrival_s: 12.0 / nodes as f64,
        benchmarks: vec![BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt],
        node_counts: if nodes >= 4 { vec![1, 1, 2] } else { vec![1] },
        ..Default::default()
    }
}

/// The workload shapes a sweep can name *on the wire*: a
/// [`SweepSpec::workload`] is a function pointer, which cannot cross a
/// process boundary, so the distributed cluster daemon ships one of these
/// names and workers rebuild the `fn` through [`workload_shape_by_name`].
pub const WORKLOAD_SHAPE_NAMES: [&str; 3] = ["default", "light", "quad-test"];

/// Resolves a named workload shape ([`WORKLOAD_SHAPE_NAMES`]) back to its
/// function: `"default"` → [`default_workload`], `"light"` →
/// [`light_workload`], `"quad-test"` → [`quad_test_workload`].
pub fn workload_shape_by_name(name: &str) -> Option<fn(usize) -> WorkloadSpec> {
    match name {
        "default" => Some(default_workload),
        "light" => Some(light_workload),
        "quad-test" => Some(quad_test_workload),
        _ => None,
    }
}

/// One point of the sweep grid (a cell before it is given its index).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Cluster size.
    pub nodes: usize,
    /// Budget tier label (reporting only).
    pub budget_label: String,
    /// Budget as a fraction of the cluster's dynamic power range.
    pub budget_fraction: f64,
    /// Scheduling policy name (see [`POLICY_NAMES`]).
    pub policy: String,
    /// Machine mix name (see [`MACHINE_MIX_NAMES`]); `"uniform"` is the
    /// historical all-reference cluster.
    pub machines: String,
    /// Fault scenario name (see [`FAULT_SCENARIO_NAMES`]); `"none"` is the
    /// historical healthy cluster.
    pub faults: String,
    /// Arrival process name (see [`ARRIVAL_PROCESS_NAMES`]); `"poisson"` is
    /// the historical steady stream.
    pub arrivals: String,
    /// Workload generation seed.
    pub seed: u64,
}

/// One expanded, ordered cell of the sweep. `index` is the cell's position
/// in the deterministic expansion order — the order every report uses, no
/// matter which worker finishes first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// The grid point.
    pub point: SweepPoint,
}

/// A cartesian sweep grid plus explicit extra cells.
///
/// Expansion order is `nodes → budgets → policies → machines → faults →
/// arrivals → seeds` (the historical nested-loop order of the cluster bins,
/// with the scenario axes innermost before seeds), with `extra` points
/// appended afterwards in their given order.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Node-count axis.
    pub nodes: Vec<usize>,
    /// Budget axis: `(label, fraction of the dynamic power range)`.
    pub budgets: Vec<(String, f64)>,
    /// Policy axis (names accepted by [`policy_by_name`]).
    pub policies: Vec<String>,
    /// Machine-mix axis (names accepted by [`mix_by_name`]).
    pub machine_mixes: Vec<String>,
    /// Fault-scenario axis (names accepted by
    /// [`fault_scenario_by_name`]).
    pub faults: Vec<String>,
    /// Arrival-process axis (names accepted by
    /// [`arrival_process_by_name`]).
    pub arrivals: Vec<String>,
    /// Workload-seed axis.
    pub seeds: Vec<u64>,
    /// Explicit cells appended after the grid (for targeted re-runs and
    /// irregular grids).
    pub extra: Vec<SweepPoint>,
    /// Per-node dynamic power ceiling (W) for fraction → watts conversion.
    pub max_node_w: f64,
    /// Workload shape per node count. A plain `fn` so specs stay `Clone`
    /// and comparable; the default is [`default_workload`].
    pub workload: fn(usize) -> WorkloadSpec,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self {
            nodes: vec![8],
            budgets: vec![("tight".into(), 0.45)],
            policies: vec!["power-aware".into()],
            machine_mixes: vec!["uniform".into()],
            faults: vec!["none".into()],
            arrivals: vec!["poisson".into()],
            seeds: vec![2007],
            extra: Vec::new(),
            max_node_w: DEFAULT_MAX_NODE_W,
            workload: default_workload,
        }
    }
}

impl SweepSpec {
    /// Validates the axes: every axis non-empty, every policy/mix/fault/
    /// arrival name known, every budget fraction in (0, 1], node counts
    /// positive.
    pub fn validate(&self) -> Result<(), SweepError> {
        let empty = |name: &'static str| SweepError::InvalidGrid {
            reason: format!("axis {name:?} is empty — the grid has no cells"),
        };
        if self.nodes.is_empty() && self.extra.is_empty() {
            return Err(empty("nodes"));
        }
        if !self.nodes.is_empty() {
            if self.budgets.is_empty() {
                return Err(empty("budgets"));
            }
            if self.policies.is_empty() {
                return Err(empty("policies"));
            }
            if self.machine_mixes.is_empty() {
                return Err(empty("machines"));
            }
            if self.faults.is_empty() {
                return Err(empty("faults"));
            }
            if self.arrivals.is_empty() {
                return Err(empty("arrivals"));
            }
            if self.seeds.is_empty() {
                return Err(empty("seeds"));
            }
        }
        let check_point =
            |nodes: usize, fraction: f64, policy: &str, mix: &str, fault: &str, arr: &str| {
                if nodes == 0 {
                    return Err(SweepError::InvalidGrid {
                        reason: "node counts must be positive".into(),
                    });
                }
                if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
                    return Err(SweepError::InvalidGrid {
                        reason: format!("budget fraction {fraction} outside (0, 1]"),
                    });
                }
                if !POLICY_NAMES.contains(&policy) {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown policy {policy:?}; valid policies are: {}",
                            POLICY_NAMES.join(", ")
                        ),
                    });
                }
                if mix_by_name(mix).is_none() {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown machine mix {mix:?}; valid mixes are: {}",
                            MACHINE_MIX_NAMES.join(", ")
                        ),
                    });
                }
                if fault_scenario_by_name(fault).is_none() {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown fault scenario {fault:?}; valid scenarios are: {}",
                            FAULT_SCENARIO_NAMES.join(", ")
                        ),
                    });
                }
                if arrival_process_by_name(arr).is_none() {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown arrival process {arr:?}; valid processes are: {}",
                            ARRIVAL_PROCESS_NAMES.join(", ")
                        ),
                    });
                }
                Ok(())
            };
        for &nodes in &self.nodes {
            for (_, fraction) in &self.budgets {
                for policy in &self.policies {
                    for mix in &self.machine_mixes {
                        for fault in &self.faults {
                            for arr in &self.arrivals {
                                check_point(nodes, *fraction, policy, mix, fault, arr)?;
                            }
                        }
                    }
                }
            }
        }
        for p in &self.extra {
            check_point(
                p.nodes,
                p.budget_fraction,
                &p.policy,
                &p.machines,
                &p.faults,
                &p.arrivals,
            )?;
        }
        Ok(())
    }

    /// Number of cells the spec expands to.
    pub fn len(&self) -> usize {
        self.nodes.len()
            * self.budgets.len()
            * self.policies.len()
            * self.machine_mixes.len()
            * self.faults.len()
            * self.arrivals.len()
            * self.seeds.len()
            + self.extra.len()
    }

    /// Whether the spec expands to no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into ordered cells (`nodes → budgets → policies →
    /// machines → faults → arrivals → seeds`, then `extra`).
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for &nodes in &self.nodes {
            for (budget_label, budget_fraction) in &self.budgets {
                for policy in &self.policies {
                    for machines in &self.machine_mixes {
                        for faults in &self.faults {
                            for arrivals in &self.arrivals {
                                for &seed in &self.seeds {
                                    cells.push(SweepPoint {
                                        nodes,
                                        budget_label: budget_label.clone(),
                                        budget_fraction: *budget_fraction,
                                        policy: policy.clone(),
                                        machines: machines.clone(),
                                        faults: faults.clone(),
                                        arrivals: arrivals.clone(),
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells.extend(self.extra.iter().cloned());
        cells.into_iter().enumerate().map(|(index, point)| SweepCell { index, point }).collect()
    }

    /// The machine mixes the grid touches (axis plus extras), resolved —
    /// exactly what a [`FleetModel::build`] for this sweep must cover.
    pub fn mixes(&self) -> Result<Vec<crate::fleet::MachineMix>, SweepError> {
        let mut names: Vec<&str> = Vec::new();
        for name in self.machine_mixes.iter().chain(self.extra.iter().map(|p| &p.machines)) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                mix_by_name(name).ok_or_else(|| SweepError::InvalidGrid {
                    reason: format!(
                        "unknown machine mix {name:?}; valid mixes are: {}",
                        MACHINE_MIX_NAMES.join(", ")
                    ),
                })
            })
            .collect()
    }

    /// The distinct machine-mix *names* the grid touches, in
    /// first-appearance order — what a sweep daemon ships on the wire so
    /// workers rebuild a covering fleet.
    pub fn mix_names(&self) -> Result<Vec<String>, SweepError> {
        Ok(self.mixes()?.into_iter().map(|m| m.name).collect())
    }

    /// Parses a `--grid` command-line override: semicolon-separated
    /// `axis=values` clauses over the default axes, e.g.
    ///
    /// ```text
    /// nodes=2,4,8;budgets=tight:0.45,ample:1.0;policies=fcfs,power-aware;seeds=1..9
    /// ```
    ///
    /// * `nodes` — comma-separated counts.
    /// * `budgets` — comma-separated `label:fraction` pairs.
    /// * `policies` — comma-separated policy names.
    /// * `machines` — comma-separated machine-mix names
    ///   ([`MACHINE_MIX_NAMES`]).
    /// * `faults` — comma-separated fault-scenario names
    ///   ([`FAULT_SCENARIO_NAMES`]).
    /// * `arrivals` — comma-separated arrival-process names
    ///   ([`ARRIVAL_PROCESS_NAMES`]).
    /// * `seeds` — comma-separated values; `a..b` spans the half-open range.
    ///
    /// Unspecified axes keep the values `self` already has.
    pub fn with_grid(mut self, grid: &str) -> Result<Self, SweepError> {
        let invalid = |reason: String| SweepError::InvalidGrid { reason };
        for clause in grid.split(';').filter(|c| !c.trim().is_empty()) {
            let (axis, values) = clause
                .split_once('=')
                .ok_or_else(|| invalid(format!("clause {clause:?} is not axis=values")))?;
            let values = values.trim();
            match axis.trim() {
                "nodes" => {
                    self.nodes = values
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse::<usize>()
                                .map_err(|_| invalid(format!("bad node count {v:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "budgets" => {
                    self.budgets = values
                        .split(',')
                        .map(|pair| {
                            let (label, fraction) = pair
                                .trim()
                                .split_once(':')
                                .ok_or_else(|| invalid(format!("{pair:?} is not label:frac")))?;
                            let f = fraction
                                .parse::<f64>()
                                .map_err(|_| invalid(format!("bad fraction {fraction:?}")))?;
                            Ok((label.to_string(), f))
                        })
                        .collect::<Result<_, SweepError>>()?;
                }
                "policies" => {
                    self.policies = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "machines" => {
                    self.machine_mixes = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "faults" => {
                    self.faults = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "arrivals" => {
                    self.arrivals = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "seeds" => {
                    let mut seeds = Vec::new();
                    for v in values.split(',') {
                        let v = v.trim();
                        if let Some((a, b)) = v.split_once("..") {
                            let a =
                                a.parse::<u64>().map_err(|_| invalid(format!("bad seed {a:?}")))?;
                            let b =
                                b.parse::<u64>().map_err(|_| invalid(format!("bad seed {b:?}")))?;
                            if a >= b {
                                return Err(invalid(format!("empty seed range {v:?}")));
                            }
                            seeds.extend(a..b);
                        } else {
                            seeds.push(
                                v.parse::<u64>().map_err(|_| invalid(format!("bad seed {v:?}")))?,
                            );
                        }
                    }
                    self.seeds = seeds;
                }
                other => return Err(invalid(format!("unknown axis {other:?}"))),
            }
        }
        self.validate()?;
        Ok(self)
    }
}

/// One completed cell: the grid point plus its simulated cluster report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The simulation result.
    pub report: ClusterReport,
}

/// The result of a whole sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRun {
    /// Every cell's outcome, sorted by cell index (deterministic report
    /// order, independent of worker count).
    pub outcomes: Vec<SweepCellOutcome>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock duration of the execute phase (s).
    pub wall_clock_s: f64,
}

impl SweepRun {
    /// Throughput headline: completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_clock_s > 0.0 {
            self.outcomes.len() as f64 / self.wall_clock_s
        } else {
            f64::INFINITY
        }
    }

    /// The reports alone, in cell order.
    pub fn reports(&self) -> Vec<&ClusterReport> {
        self.outcomes.iter().map(|o| &o.report).collect()
    }
}

/// Sweep failures: an invalid grid, a failing cell, or a pool-level fault
/// (including a panicking worker job, surfaced as
/// [`RtError::WorkerPanicked`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepError {
    /// The grid specification is malformed.
    InvalidGrid {
        /// What was wrong.
        reason: String,
    },
    /// A cell's simulation failed; the lowest-index failure is reported.
    Cell {
        /// The failing cell.
        cell: Box<SweepCell>,
        /// Why it failed.
        source: ClusterError,
    },
    /// The worker pool failed (shutdown, or a panicking cell job).
    Pool(RtError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidGrid { reason } => write!(f, "invalid sweep grid: {reason}"),
            SweepError::Cell { cell, source } => write!(
                f,
                "sweep cell {} ({} nodes, {} budget, {}, machines {}, faults {}, arrivals {}, \
                 seed {}) failed: {source}",
                cell.index,
                cell.point.nodes,
                cell.point.budget_label,
                cell.point.policy,
                cell.point.machines,
                cell.point.faults,
                cell.point.arrivals,
                cell.point.seed
            ),
            SweepError::Pool(e) => write!(f, "sweep worker pool failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<RtError> for SweepError {
    fn from(e: RtError) -> Self {
        SweepError::Pool(e)
    }
}

/// The per-cell trace record: the cell's grid coordinates plus the two
/// headline results every downstream aggregation starts from.
fn sweep_cell_event(outcome: &SweepCellOutcome) -> TraceEvent {
    let point = &outcome.cell.point;
    TraceEvent::SweepCell {
        index: outcome.cell.index,
        nodes: point.nodes,
        budget: point.budget_label.clone(),
        policy: point.policy.clone(),
        seed: point.seed,
        makespan_s: outcome.report.makespan_s,
        total_energy_j: outcome.report.total_energy_j,
    }
}

/// Runs one cell against the shared fleet — exactly what each in-process
/// sweep worker does, exported so remote workers (the distributed
/// `cluster_worker`) execute cells through the *same* code path and stay
/// byte-identical with [`run_sweep_fleet`].
///
/// The cell's machine-mix, fault-scenario and arrival-process names are
/// resolved here, and the budget is priced with
/// [`budget_for_mix`] against the cell's own
/// mix — each node's idle floor is its own generation's, never a hardcoded
/// reference machine. A mix naming a generation the fleet was not built
/// with fails loudly inside [`simulate`].
///
/// `workload` is the spec's shape function (a remote worker rebuilds it via
/// [`workload_shape_by_name`]) and `max_node_w` the spec's per-node dynamic
/// ceiling.
pub fn execute_cell(
    fleet: &FleetModel,
    workload: fn(usize) -> WorkloadSpec,
    max_node_w: f64,
    cell: &SweepCell,
    telemetry: Option<&SharedSink>,
) -> Result<ClusterReport, ClusterError> {
    let point = &cell.point;
    let invalid = |reason: String| ClusterError::InvalidSpec { reason };
    let machines = mix_by_name(&point.machines).ok_or_else(|| {
        invalid(format!(
            "unknown machine mix {:?}; valid mixes are: {}",
            point.machines,
            MACHINE_MIX_NAMES.join(", ")
        ))
    })?;
    let faults = fault_scenario_by_name(&point.faults).ok_or_else(|| {
        invalid(format!(
            "unknown fault scenario {:?}; valid scenarios are: {}",
            point.faults,
            FAULT_SCENARIO_NAMES.join(", ")
        ))
    })?;
    let arrivals = arrival_process_by_name(&point.arrivals).ok_or_else(|| {
        invalid(format!(
            "unknown arrival process {:?}; valid processes are: {}",
            point.arrivals,
            ARRIVAL_PROCESS_NAMES.join(", ")
        ))
    })?;
    let mut workload = workload(point.nodes);
    workload.arrivals = arrivals;
    let cluster_spec = ClusterSpec {
        nodes: point.nodes,
        power_budget_w: budget_for_mix(point.nodes, &machines, max_node_w, point.budget_fraction),
        machines,
        faults,
        workload,
        seed: point.seed,
    };
    let mut policy = policy_by_name(&point.policy, fleet)?;
    simulate(&cluster_spec, fleet, policy.as_mut(), telemetry.cloned())
}

/// Runs one cell against the shared fleet.
fn run_cell(
    fleet: &FleetModel,
    spec: &SweepSpec,
    cell: &SweepCell,
    telemetry: Option<&SharedSink>,
) -> Result<ClusterReport, ClusterError> {
    execute_cell(fleet, spec.workload, spec.max_node_w, cell, telemetry)
}

/// Executes every cell of `spec` against the shared `fleet` on `jobs`
/// worker threads (1 = in-line serial execution, no pool).
///
/// `on_cell(outcome, done, total)` streams results in *completion* order as
/// they arrive — progress narration, incremental CSV rows. The returned
/// [`SweepRun`] is always sorted by cell index, so anything rendered from
/// it is bit-identical across worker counts; pair with
/// `actor_core::report::StreamingReporter` for the presentation side.
///
/// The fleet is `Arc`-shared immutably: one ANN training pass per
/// generation serves every cell, and each cell constructs its own policy
/// (policies are stateful) from the shared decision tables. The fleet must
/// cover every machine mix the grid names ([`SweepSpec::mixes`] lists
/// them); a missing generation is a loud per-cell error, never a silent
/// fallback to the reference machine. A homogeneous reference grid runs on
/// [`FleetModel::single`].
///
/// An optional telemetry sink is shared into every worker (cells trace
/// their cluster events and controller decisions through it,
/// concurrently), and one [`TraceEvent::SweepCell`] per completed cell is
/// emitted from the single-threaded join side, in completion order. `None`
/// leaves the sweep untraced.
pub fn run_sweep_fleet(
    spec: &SweepSpec,
    fleet: &Arc<FleetModel>,
    jobs: usize,
    telemetry: Option<SharedSink>,
    mut on_cell: impl FnMut(&SweepCellOutcome, usize, usize),
) -> Result<SweepRun, SweepError> {
    spec.validate()?;
    let cells = spec.expand();
    let total = cells.len();
    let started = Instant::now();

    let mut outcomes: Vec<SweepCellOutcome> = Vec::with_capacity(total);
    let mut failures: Vec<(SweepCell, ClusterError)> = Vec::new();

    if jobs <= 1 {
        for cell in cells {
            // Same panic semantics as the pooled path: a panicking cell is
            // contained and surfaced as WorkerPanicked, not an unwind
            // through the caller.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_cell(fleet, spec, &cell, telemetry.as_ref())
            }));
            match result {
                Ok(Ok(report)) => {
                    let outcome = SweepCellOutcome { cell, report };
                    if let Some(sink) = &telemetry {
                        sink.record(&sweep_cell_event(&outcome));
                    }
                    on_cell(&outcome, outcomes.len() + 1, total);
                    outcomes.push(outcome);
                }
                Ok(Err(e)) => failures.push((cell, e)),
                Err(payload) => {
                    return Err(SweepError::Pool(RtError::WorkerPanicked {
                        message: format!(
                            "sweep cell {} panicked: {}",
                            cell.index,
                            phase_rt::pool::panic_message(payload.as_ref())
                        ),
                    }))
                }
            }
        }
    } else {
        let pool = ThreadPool::new(jobs)?;
        let (tx, rx) = crossbeam::channel::unbounded();
        let shared_spec = Arc::new(spec.clone());
        for cell in cells {
            let fleet = Arc::clone(fleet);
            let spec = Arc::clone(&shared_spec);
            let tx = tx.clone();
            let telemetry = telemetry.clone();
            pool.execute(move || {
                let result = run_cell(&fleet, &spec, &cell, telemetry.as_ref());
                // A send failure means the join loop is gone; nothing to do.
                let _ = tx.send((cell, result));
            })?;
        }
        // The join loop holds no sender: when every job has sent (or
        // panicked, dropping its sender mid-unwind), the channel
        // disconnects and `recv` returns Err instead of hanging.
        drop(tx);
        let mut done = 0usize;
        while let Ok((cell, result)) = rx.recv() {
            done += 1;
            match result {
                Ok(report) => {
                    let outcome = SweepCellOutcome { cell, report };
                    if let Some(sink) = &telemetry {
                        sink.record(&sweep_cell_event(&outcome));
                    }
                    on_cell(&outcome, done, total);
                    outcomes.push(outcome);
                }
                Err(e) => failures.push((cell, e)),
            }
        }
        pool.wait_idle();
        if pool.panicked() > 0 {
            return Err(SweepError::Pool(RtError::WorkerPanicked {
                message: format!(
                    "{} sweep cell(s) panicked; last: {}",
                    pool.panicked(),
                    pool.last_panic().unwrap_or_else(|| "unknown".into())
                ),
            }));
        }
    }

    if let Some((cell, source)) = failures.into_iter().min_by_key(|(cell, _)| cell.index) {
        return Err(SweepError::Cell { cell: Box::new(cell), source });
    }
    outcomes.sort_by_key(|o| o.cell.index);
    Ok(SweepRun { outcomes, jobs: jobs.max(1), wall_clock_s: started.elapsed().as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(nodes: usize, policy: &str, seed: u64) -> SweepPoint {
        SweepPoint {
            nodes,
            budget_label: "odd".into(),
            budget_fraction: 0.6,
            policy: policy.into(),
            machines: "uniform".into(),
            faults: "none".into(),
            arrivals: "poisson".into(),
            seed,
        }
    }

    #[test]
    fn expansion_order_is_the_historical_nested_loop() {
        let spec = SweepSpec {
            nodes: vec![2, 4],
            budgets: vec![("tight".into(), 0.45), ("ample".into(), 1.0)],
            policies: vec!["fcfs".into(), "power-aware".into()],
            seeds: vec![1, 2],
            extra: vec![point(8, "backfill", 99)],
            ..SweepSpec::default()
        };
        assert_eq!(spec.len(), 17);
        assert!(!spec.is_empty());
        let cells = spec.expand();
        assert_eq!(cells.len(), 17);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // nodes is the outermost axis, seeds the innermost.
        assert_eq!((cells[0].point.nodes, cells[0].point.seed), (2, 1));
        assert_eq!((cells[1].point.nodes, cells[1].point.seed), (2, 2));
        assert_eq!(cells[2].point.policy, "power-aware");
        assert_eq!(cells[4].point.budget_label, "ample");
        assert_eq!(cells[8].point.nodes, 4);
        assert_eq!(cells[16].point.budget_label, "odd");
    }

    #[test]
    fn scenario_axes_expand_between_policies_and_seeds() {
        let spec = SweepSpec {
            machine_mixes: vec!["uniform".into(), "mixed".into()],
            faults: vec!["none".into(), "crash".into()],
            arrivals: vec!["poisson".into(), "bursty".into()],
            seeds: vec![1, 2],
            ..SweepSpec::default()
        };
        assert_eq!(spec.len(), 16);
        let cells = spec.expand();
        // machines is outermost of the scenario axes, seeds innermost.
        assert_eq!(cells[0].point.machines, "uniform");
        assert_eq!((cells[0].point.faults.as_str(), cells[0].point.seed), ("none", 1));
        assert_eq!((cells[1].point.faults.as_str(), cells[1].point.seed), ("none", 2));
        assert_eq!(cells[2].point.arrivals, "bursty");
        assert_eq!(cells[4].point.faults, "crash");
        assert_eq!(cells[8].point.machines, "mixed");
        let mixes = spec.mixes().unwrap();
        assert_eq!(mixes.len(), 2);
        assert_eq!(mixes[0].name, "uniform");
        assert_eq!(mixes[1].name, "mixed");
    }

    /// 2/4/8 nodes × tight/medium/ample × `policies`, seed 2007.
    fn three_tier_grid(policies: &[&str]) -> SweepSpec {
        SweepSpec {
            nodes: vec![2, 4, 8],
            budgets: vec![("tight".into(), 0.45), ("medium".into(), 0.7), ("ample".into(), 1.0)],
            policies: policies.iter().map(|p| p.to_string()).collect(),
            ..SweepSpec::default()
        }
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let ok = three_tier_grid(&POLICY_NAMES);
        assert!(ok.validate().is_ok());
        assert_eq!(ok.policies.len(), 5);
        let scenario = SweepSpec {
            budgets: vec![("tight".into(), 0.45), ("medium".into(), 0.7)],
            policies: vec!["power-aware-dvfs".into(), "power-aware-coordinated".into()],
            machine_mixes: vec!["uniform".into(), "mixed".into(), "legacy".into()],
            faults: vec!["none".into(), "crash".into()],
            arrivals: vec!["poisson".into(), "bursty".into()],
            ..SweepSpec::default()
        };
        assert!(scenario.validate().is_ok());

        let empty = SweepSpec { nodes: vec![], ..ok.clone() };
        assert!(matches!(empty.validate(), Err(SweepError::InvalidGrid { .. })));
        let bad_policy = SweepSpec { policies: vec!["lottery".into()], ..ok.clone() };
        let err = bad_policy.validate().unwrap_err();
        assert!(err.to_string().contains("power-aware-coordinated"), "{err}");
        let bad_fraction = SweepSpec { budgets: vec![("x".into(), 1.5)], ..ok.clone() };
        assert!(bad_fraction.validate().is_err());
        let bad_mix = SweepSpec { machine_mixes: vec!["beowulf".into()], ..ok.clone() };
        let err = bad_mix.validate().unwrap_err();
        assert!(err.to_string().contains("uniform"), "error lists valid mixes: {err}");
        let bad_fault = SweepSpec { faults: vec!["meteor".into()], ..ok.clone() };
        assert!(bad_fault.validate().is_err());
        let bad_arrivals = SweepSpec { arrivals: vec!["pigeon".into()], ..ok.clone() };
        assert!(bad_arrivals.validate().is_err());
        let zero_nodes = SweepSpec { nodes: vec![0], ..ok };
        assert!(zero_nodes.validate().is_err());
    }

    #[test]
    fn grid_parsing_overrides_axes() {
        let spec = three_tier_grid(&["fcfs", "backfill", "power-aware"])
            .with_grid("nodes=2,8;budgets=t:0.5,a:1.0;policies=fcfs,power-aware;seeds=1..4,9")
            .unwrap();
        assert_eq!(spec.nodes, vec![2, 8]);
        assert_eq!(spec.budgets, vec![("t".into(), 0.5), ("a".into(), 1.0)]);
        assert_eq!(spec.policies, vec!["fcfs".to_string(), "power-aware".into()]);
        assert_eq!(spec.seeds, vec![1, 2, 3, 9]);

        // The scenario axes parse the same way.
        let hazard = three_tier_grid(&["fcfs", "backfill", "power-aware"])
            .with_grid("machines=uniform,mixed;faults=crash,storm;arrivals=bursty")
            .unwrap();
        assert_eq!(hazard.machine_mixes, vec!["uniform".to_string(), "mixed".into()]);
        assert_eq!(hazard.faults, vec!["crash".to_string(), "storm".into()]);
        assert_eq!(hazard.arrivals, vec!["bursty".to_string()]);

        for bad in [
            "nodes=two",
            "budgets=0.5",
            "seeds=5..5",
            "dvfs=sideways",
            "dvfs=on",
            "warp=9",
            "policies=lottery",
            "machines=beowulf",
            "faults=meteor",
            "arrivals=pigeon",
            "noequals",
        ] {
            assert!(
                three_tier_grid(&["fcfs", "backfill", "power-aware"]).with_grid(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn workload_shapes_match_the_historical_rule() {
        for nodes in [1, 2, 4, 8, 16] {
            let w = default_workload(nodes);
            assert_eq!(w.num_jobs, 8 * nodes.max(3));
            assert!((w.mean_interarrival_s - 12.0 / nodes as f64).abs() < 1e-12);
            let widest = *w.node_counts.iter().max().unwrap();
            assert!(widest <= nodes.max(1), "width must fit the cluster");
            let light = light_workload(nodes);
            assert!(light.num_jobs <= 16 && light.num_jobs >= 4);
            assert_eq!(light.node_counts, w.node_counts);
            let quad = quad_test_workload(nodes);
            assert_eq!(quad.num_jobs, 6);
            assert_eq!(quad.benchmarks.len(), 4);
            assert!(*quad.node_counts.iter().max().unwrap() <= nodes.max(1));
        }
    }

    #[test]
    fn every_named_shape_resolves_and_unknown_names_do_not() {
        for name in WORKLOAD_SHAPE_NAMES {
            let shape = workload_shape_by_name(name)
                .unwrap_or_else(|| panic!("shape {name:?} must resolve"));
            assert!(shape(4).num_jobs > 0);
        }
        assert_eq!(
            workload_shape_by_name("default").map(|f| f as *const ()),
            Some(default_workload as fn(usize) -> WorkloadSpec as *const ())
        );
        assert!(workload_shape_by_name("bespoke").is_none());
    }
}
