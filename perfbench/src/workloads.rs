//! The four workloads. Each one builds its inputs from the seed, drives the
//! public APIs, checks the outputs and reports one [`Rep`].
//!
//! A rep is timed from process start: `setup_s` ends when work can run and
//! `run_s` ends when the outputs are checked. In a traced rep the same work
//! runs inside spans, and the extra measurements (the serial cell replay
//! and the model-build stage replay of the cluster workloads) run after
//! `run_s` is taken, so they never count as tracing overhead.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use actor_bench::sweep_out::{cells_output, default_spec};
use actor_core::adaptation::{adaptation_with_controller, Metric};
use actor_core::{
    paper_comparison, scalability_report, AccuracyStudy, ActorConfig, BenchmarkEvaluation,
    MetricsRegistry, NullReporter, SharedSink, SpannedEvent, Strategy, TelemetrySink, TraceEvent,
};
use actor_suite::ExperimentBuilder;
use cluster_daemon::{run_distributed, ProcessSweepOptions};
use cluster_rpc::SweepContext;
use cluster_sched::{
    default_workload, run_sweep_fleet, FleetModel, SweepCellOutcome, SweepSpec, WorkloadModel,
    POLICY_NAMES,
};
use npb_workloads::{nas_suite, BenchmarkId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xeon_sim::{Configuration, Machine};

use crate::replay::{self, StageCounts};
use crate::trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_fig8", "policy_sweep", "scenario_fleet", "daemon_sweep"];

/// Every per-layer metric a traced rep reports (`trace.overhead_frac`
/// compares reps, so the orchestrator adds it). A layer the workload does
/// not exercise reads 0.
pub const LAYER_METRICS: [&str; 34] = [
    "annlib.train_s",
    "annlib.trainings",
    "annlib.train_ms_per_fold",
    "annlib.predict_rows_per_s",
    "core.corpus_s",
    "core.sample_s",
    "core.decisions",
    "core.decide_ns_p50",
    "core.decide_ns_p99",
    "core.adaptation_s",
    "xeon-sim.simulate_s",
    "xeon-sim.presim_s",
    "xeon-sim.presim_calls",
    "cluster-sched.model_build_s",
    "cluster-sched.fleet_build_s",
    "cluster-sched.cell_ms_p50.fcfs",
    "cluster-sched.cell_ms_p50.backfill",
    "cluster-sched.cell_ms_p50.power-aware",
    "cluster-sched.cell_ms_p50.power-aware-dvfs",
    "cluster-sched.cell_ms_p50.power-aware-coordinated",
    "cluster-sched.events",
    "cluster-sched.events_per_s",
    "cluster-sched.jobs_completed_frac",
    "cluster-sched.cap_violations",
    "cluster-sched.node_failures",
    "cluster-sched.deadline_misses",
    "phase-rt.pool_busy_frac",
    "cluster-daemon.worker_ready_s",
    "cluster-daemon.model_builds",
    "cluster-daemon.overhead_ms_per_cell",
    "cluster-daemon.reassignments",
    "cluster-rpc.frames",
    "trace.stage_self_s",
    "trace.attributed_frac",
];

/// Worker threads or processes of every sweep: the closed-loop pool size.
pub const POOL: usize = 2;

/// What one rep is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed: ANN training seed and the source of every workload seed.
    pub seed: u64,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Record spans and the per-layer metrics.
    pub traced: bool,
}

/// Output checks: every operation attempted, and the ones that broke an
/// invariant.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }
}

/// FNV-1a over the timing-free outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The result of one rep.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    /// Units of work completed after setup (sweep cells; for `paper_fig8`
    /// the benchmark × strategy cells of the adaptation study).
    pub cells: usize,
    /// Wall time of the work after setup.
    pub work_s: f64,
    /// The workload's headline simulated ED² as a percentage of its
    /// reference arm.
    pub sim_ed2_pct: f64,
    pub digest: Digest,
    pub checks: Checks,
    /// Extra timing-free figures, printed for people.
    pub notes: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced reps only).
    pub layers: BTreeMap<&'static str, f64>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn fast_config(seed: u64) -> ActorConfig {
    ActorConfig { seed, ..ActorConfig::fast() }
}

/// `n` workload seeds derived from the input seed.
fn derived_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| seed.wrapping_mul(1000).wrapping_add(i)).collect()
}

/// Runs `workload` once; an error becomes a single failed operation.
pub fn run(workload: &str, o: Opts, t: &mut Tracer, start: Instant) -> Rep {
    let result = match workload {
        "paper_fig8" => paper_fig8(o, t, start),
        "policy_sweep" | "scenario_fleet" => in_process_sweep(workload, o, t, start),
        "daemon_sweep" => daemon_sweep(o, t, start),
        other => Err(format!("unknown workload {other:?}")),
    };
    result.unwrap_or_else(|e| {
        let mut rep = Rep { run_s: secs(start), ..Rep::default() };
        rep.checks.check(false, || e);
        rep
    })
}

// ---------------------------------------------------------------- paper_fig8

fn paper_fig8(o: Opts, t: &mut Tracer, start: Instant) -> Result<Rep, String> {
    let base = if o.tiny { ActorConfig::fast() } else { ActorConfig::default() };
    let config = ActorConfig { seed: o.seed, ..base };
    let machine = Machine::xeon_qx6600();
    let suite = nas_suite();
    let mut counts = StageCounts::default();
    let mut rep = Rep::default();
    let e = |e: actor_core::ActorError| e.to_string();

    let (evaluations, study, accuracy, scalability) = if o.traced {
        // The leave-one-out pipeline replayed stage by stage.
        config.validate().map_err(e)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let evals = t.span("setup", |t| {
            replay::loo_evaluations(t, &mut counts, &machine, &config, &suite, &mut rng)
        });
        let evals = evals.map_err(e)?;
        rep.setup_s = secs(start);
        let study = t.span("core.adaptation", |_| {
            adaptation_with_controller(
                &machine,
                &config,
                &suite,
                &evals,
                &mut |m, b, ev| Strategy::Prediction.controller(m, b, ev),
                None,
                false,
            )
        });
        let study = study.map_err(e)?;
        let accuracy = t.span("core.accuracy", |_| AccuracyStudy::from_evaluations(&evals));
        let scalability = t.span("xeon-sim.scalability", |_| scalability_report(&machine));
        (evals, study, accuracy, scalability)
    } else {
        let mut exp = experiment(&machine, &suite, &config).map_err(e)?;
        let evals = exp.evaluations().map_err(e)?.to_vec();
        rep.setup_s = secs(start);
        let study = exp.adaptation().map_err(e)?;
        let accuracy = exp.accuracy().map_err(e)?;
        let scalability = exp.scalability().clone();
        (evals, study, accuracy, scalability)
    };
    let headline = paper_comparison(&scalability, Some(&accuracy), Some(&study));

    check_evaluations(&mut rep, &suite, &evaluations);
    for bench in &study.benchmarks {
        for strategy in Strategy::ALL {
            let values: Vec<f64> =
                Metric::ALL.iter().map(|&m| bench.normalised(strategy, m)).collect();
            rep.checks.check(values.iter().all(|v| v.is_finite() && *v > 0.0), || {
                format!("{} {}: non-finite adaptation outcome", bench.id, strategy.label())
            });
            values.iter().for_each(|&v| rep.digest.f64(v));
        }
    }
    for entry in &headline.entries {
        rep.checks.check(entry.measured.is_finite(), || format!("{}: not finite", entry.name));
        rep.digest.f64(entry.measured);
    }
    let ed2 = study.average_normalised(Strategy::Prediction, Metric::Ed2);
    rep.sim_ed2_pct = 100.0 * ed2;
    rep.cells = study.benchmarks.len() * Strategy::ALL.len();
    rep.notes.insert("paper_ed2_gap_pts", (100.0 * (ed2 - 1.0) + 17.2).abs());
    rep.run_s = secs(start);
    rep.work_s = rep.run_s - rep.setup_s;

    if o.traced {
        // The library's own evaluations, untraced, after the timed work:
        // the replay must match them exactly, and their time is the
        // reference for the attribution.
        let library_start = Instant::now();
        let mut exp = experiment(&machine, &suite, &config).map_err(e)?;
        let library = exp.evaluations().map_err(e)?;
        let library_s = secs(library_start);
        rep.checks.check(library == evaluations.as_slice(), || {
            "the stage replay differs from the library's leave-one-out evaluations".into()
        });
        let l = &mut rep.layers;
        add_stage_layers(l, t, &counts);
        l.insert("core.adaptation_s", t.total("core.adaptation"));
        l.insert(
            "core.decisions",
            evaluations.iter().map(|e| e.phases.len()).sum::<usize>() as f64,
        );
        add_attribution(&mut rep, t.self_time_under("setup", &STAGE_PREFIXES), library_s);
    }
    Ok(rep)
}

/// The paper experiment through the public builder, reporting nothing.
fn experiment(
    machine: &Machine,
    suite: &[npb_workloads::BenchmarkProfile],
    config: &ActorConfig,
) -> Result<actor_suite::Experiment, actor_core::ActorError> {
    ExperimentBuilder::new()
        .machine(machine.clone())
        .suite(suite.to_vec())
        .config(config.clone())
        .reporter(Box::new(NullReporter))
        .run()
}

/// Span-name prefixes of the library stages (glue spans have none).
const STAGE_PREFIXES: [&str; 3] = ["annlib.", "core.", "xeon-sim."];

/// Every left-out benchmark was evaluated, and every phase decided a valid
/// configuration from finite predictions.
fn check_evaluations(
    rep: &mut Rep,
    suite: &[npb_workloads::BenchmarkProfile],
    evaluations: &[BenchmarkEvaluation],
) {
    for bench in suite {
        let eval = evaluations.iter().find(|e| e.id == bench.id);
        rep.checks.check(eval.is_some_and(|e| e.phases.len() == bench.phases.len()), || {
            format!("leave-one-out fold {} missing or incomplete", bench.id)
        });
    }
    for eval in evaluations {
        for phase in &eval.phases {
            let d = &phase.decision;
            let ok = Configuration::ALL.contains(&d.chosen)
                && d.sampled_ipc.is_finite()
                && d.ranked_predictions.len() == Configuration::TARGETS.len()
                && d.ranked_predictions.iter().all(|(_, p)| p.is_finite())
                && phase.observed_ipc.iter().all(|(_, v)| v.is_finite() && *v > 0.0);
            rep.checks.check(ok, || format!("{} {}: invalid decision", eval.id, phase.phase_name));
            rep.digest.str(d.chosen.label());
            d.ranked_predictions.iter().for_each(|(_, p)| rep.digest.f64(*p));
            phase.features.iter().for_each(|&f| rep.digest.f64(f));
        }
    }
}

/// The `annlib`/`core`/`xeon-sim` layer metrics of a stage replay.
fn add_stage_layers(l: &mut BTreeMap<&'static str, f64>, t: &Tracer, counts: &StageCounts) {
    let train_s = t.total("annlib.train");
    let predict_s = t.total("annlib.predict");
    l.insert("annlib.train_s", train_s);
    l.insert("annlib.trainings", counts.trainings as f64);
    l.insert("annlib.train_ms_per_fold", 1e3 * train_s / counts.folds.max(1) as f64);
    l.insert("annlib.predict_rows_per_s", counts.predicted_rows as f64 / predict_s.max(1e-9));
    l.insert("core.corpus_s", t.total("core.corpus"));
    l.insert("core.sample_s", t.total("core.sample"));
    l.insert("xeon-sim.simulate_s", t.total("xeon-sim.simulate"));
    l.insert("xeon-sim.presim_s", t.total("xeon-sim.presim"));
    l.insert("xeon-sim.presim_calls", counts.presim_calls as f64);
}

// ------------------------------------------------------------ cluster sweeps

/// A telemetry sink that forwards every event to a [`MetricsRegistry`] and
/// also counts the trace-batch frames a daemon ingests and when the first
/// worker finished its handshake.
#[derive(Debug)]
struct Probe {
    registry: MetricsRegistry,
    start: Instant,
    batches: AtomicU64,
    first_worker_s: OnceLock<f64>,
}

impl Probe {
    fn new(start: Instant) -> Self {
        Self {
            registry: MetricsRegistry::new(),
            start,
            batches: AtomicU64::new(0),
            first_worker_s: OnceLock::new(),
        }
    }
}

impl TelemetrySink for Probe {
    fn record(&self, event: &TraceEvent) {
        if matches!(event, TraceEvent::WorkerConnected { .. }) {
            let _ = self.first_worker_s.set(secs(self.start));
        }
        self.registry.record(event);
    }

    fn record_batch(&self, events: &[TraceEvent]) {
        self.registry.record_batch(events);
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.registry.record_spanned(events);
    }
}

/// The event kinds the cluster event loop emits.
const CLUSTER_EVENT_KINDS: [&str; 7] = [
    "job_arrival",
    "job_start",
    "job_completion",
    "node_failed",
    "node_recovered",
    "slo_violated",
    "redistribute",
];

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The grid of `policy_sweep` or `scenario_fleet`.
fn sweep_spec(workload: &str, o: Opts) -> SweepSpec {
    let budgets = vec![("tight".to_string(), 0.45), ("medium".to_string(), 0.7)];
    if workload == "policy_sweep" {
        SweepSpec {
            nodes: if o.tiny { vec![8] } else { vec![32, 64, 128] },
            budgets,
            policies: strings(&POLICY_NAMES),
            seeds: derived_seeds(o.seed, if o.tiny { 1 } else { 6 }),
            workload: default_workload,
            ..SweepSpec::default()
        }
    } else {
        SweepSpec {
            nodes: vec![if o.tiny { 8 } else { 32 }],
            budgets,
            policies: strings(&["power-aware-dvfs", "power-aware-coordinated"]),
            machine_mixes: strings(&["uniform", "mixed", "legacy"]),
            faults: strings(if o.tiny { &["none", "crash"] } else { &["none", "crash", "storm"] }),
            arrivals: strings(if o.tiny {
                &["poisson"]
            } else {
                &["poisson", "bursty", "tenants"]
            }),
            seeds: derived_seeds(o.seed, if o.tiny { 1 } else { 3 }),
            workload: default_workload,
            ..SweepSpec::default()
        }
    }
}

fn in_process_sweep(
    workload: &str,
    o: Opts,
    t: &mut Tracer,
    start: Instant,
) -> Result<Rep, String> {
    let config = fast_config(o.seed);
    let spec = sweep_spec(workload, o);
    let mut rep = Rep::default();
    let fleet = t.span("setup", |t| -> Result<FleetModel, String> {
        if workload == "policy_sweep" {
            let machine = Machine::xeon_qx6600();
            let model = t.span("cluster-sched.model_build", |_| {
                WorkloadModel::build(&machine, &config, &BenchmarkId::ALL)
            });
            let model = model.map_err(|e| e.to_string())?;
            Ok(t.span("cluster-sched.fleet_build", |_| FleetModel::single(model)))
        } else {
            let mixes = spec.mixes().map_err(|e| e.to_string())?;
            t.span("cluster-sched.fleet_build", |_| {
                FleetModel::build(&config, &BenchmarkId::ALL, &mixes)
            })
            .map_err(|e| e.to_string())
        }
    })?;
    let fleet = Arc::new(fleet);
    rep.setup_s = secs(start);

    let probe = o.traced.then(|| Arc::new(Probe::new(start)));
    let sink = probe.clone().map(|p| p as SharedSink);
    let sweep_start = Instant::now();
    let run =
        t.span("cluster-sched.sweep", |_| run_sweep_fleet(&spec, &fleet, POOL, sink, |_, _, _| {}));
    let run = run.map_err(|e| e.to_string())?;
    rep.work_s = secs(sweep_start);
    rep.cells = run.outcomes.len();
    check_cells(&mut rep, &spec, &run.outcomes);
    rep.sim_ed2_pct = if workload == "policy_sweep" {
        let pct = best_vs_fcfs_pct(&run.outcomes);
        rep.notes.insert("sim_ed2_vs_fcfs_pct", pct - 100.0);
        pct
    } else {
        let pct = coordinated_vs_independent_pct(&run.outcomes);
        rep.notes.insert("sim_ed2_coord_vs_indep_pct", pct - 100.0);
        pct
    };
    rep.run_s = secs(start);

    if o.traced {
        let serial = serial_replay(&spec, &fleet, &mut rep)?;
        rep.checks.check(serial.outcomes == run.outcomes, || {
            "the 2-thread sweep differs from the serial replay".into()
        });
        rep.layers.insert("phase-rt.pool_busy_frac", serial.total_s / (POOL as f64 * rep.work_s));
        let registry = &probe.as_ref().expect("traced").registry;
        add_sweep_layers(&mut rep, t, registry, serial.total_s);
        add_outcome_layers(&mut rep, &spec, &run.outcomes);
        let library_build_s =
            t.total("cluster-sched.model_build") + t.total("cluster-sched.fleet_build");
        let machines = fleet.gens().iter().map(|g| &g.machine);
        setup_replay(&mut rep, t, &config, machines, library_build_s)?;
    }
    Ok(rep)
}

/// Every cell index appears exactly once; every cell accounts for all its
/// jobs and reports finite, positive energy and makespan.
fn check_cells(rep: &mut Rep, spec: &SweepSpec, outcomes: &[SweepCellOutcome]) {
    let mut seen = vec![0usize; spec.len()];
    for o in outcomes {
        if let Some(n) = seen.get_mut(o.cell.index) {
            *n += 1;
        }
    }
    for (index, n) in seen.iter().enumerate() {
        rep.checks.check(*n == 1, || format!("cell {index} reported {n} times"));
    }
    for o in outcomes {
        let r = &o.report;
        let submitted = (spec.workload)(o.cell.point.nodes).num_jobs;
        let completed = r.outcomes.iter().filter(|j| j.completed).count();
        rep.checks.check(completed + r.killed_jobs == submitted, || {
            format!(
                "cell {}: {completed} completed + {} killed != {submitted} submitted",
                o.cell.index, r.killed_jobs
            )
        });
        let finite = |x: f64| x.is_finite() && x > 0.0;
        rep.checks.check(finite(r.total_energy_j) && finite(r.makespan_s), || {
            format!("cell {}: non-finite or non-positive energy/makespan", o.cell.index)
        });
        rep.digest.u64(o.cell.index as u64);
        rep.digest.f64(r.total_energy_j);
        rep.digest.f64(r.makespan_s);
        for count in [r.cap_violations, r.node_failures, r.killed_jobs] {
            rep.digest.u64(count as u64);
        }
    }
}

/// Groups outcomes by every grid axis except the policy.
fn policy_groups<'a>(
    outcomes: impl Iterator<Item = &'a SweepCellOutcome>,
) -> BTreeMap<String, Vec<(&'a str, f64)>> {
    let mut groups: BTreeMap<String, Vec<(&str, f64)>> = BTreeMap::new();
    for o in outcomes {
        let p = &o.cell.point;
        let key = format!(
            "{}/{}/{}/{}/{}/{}",
            p.nodes, p.budget_label, p.machines, p.faults, p.arrivals, p.seed
        );
        groups.entry(key).or_default().push((p.policy.as_str(), o.report.cluster_ed2()));
    }
    groups
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean over groups of the best non-fcfs policy's ED² as a percentage of
/// fcfs's.
fn best_vs_fcfs_pct(outcomes: &[SweepCellOutcome]) -> f64 {
    let ratios: Vec<f64> = policy_groups(outcomes.iter())
        .values()
        .filter_map(|members| {
            let fcfs = members.iter().find(|(p, _)| *p == "fcfs")?.1;
            let best =
                members.iter().filter(|(p, _)| *p != "fcfs").map(|m| m.1).reduce(f64::min)?;
            Some(100.0 * best / fcfs)
        })
        .collect();
    mean(&ratios)
}

/// Mean over the heterogeneous-mix groups of coordinated capping's ED² as a
/// percentage of independent capping's.
fn coordinated_vs_independent_pct(outcomes: &[SweepCellOutcome]) -> f64 {
    let heterogeneous = outcomes.iter().filter(|o| o.cell.point.machines != "uniform");
    let ratios: Vec<f64> = policy_groups(heterogeneous)
        .values()
        .filter_map(|members| {
            let indep = members.iter().find(|(p, _)| *p == "power-aware-dvfs")?.1;
            let coord = members.iter().find(|(p, _)| *p == "power-aware-coordinated")?.1;
            Some(100.0 * coord / indep)
        })
        .collect();
    mean(&ratios)
}

/// A serial, untraced run of the grid, timing each cell.
struct SerialRun {
    outcomes: Vec<SweepCellOutcome>,
    total_s: f64,
}

fn serial_replay(
    spec: &SweepSpec,
    fleet: &Arc<FleetModel>,
    rep: &mut Rep,
) -> Result<SerialRun, String> {
    let mut per_policy: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last = Instant::now();
    let started = last;
    let run = run_sweep_fleet(spec, fleet, 1, None, |o, _, _| {
        let now = Instant::now();
        per_policy
            .entry(o.cell.point.policy.clone())
            .or_default()
            .push(1e3 * (now - last).as_secs_f64());
        last = now;
    })
    .map_err(|e| e.to_string())?;
    let total_s = secs(started);
    for (policy, mut ms) in per_policy {
        ms.sort_by(f64::total_cmp);
        if let Some(name) = LAYER_METRICS
            .iter()
            .find(|n| n.strip_prefix("cluster-sched.cell_ms_p50.") == Some(&policy))
        {
            rep.layers.insert(name, ms[ms.len() / 2]);
        }
    }
    Ok(SerialRun { outcomes: run.outcomes, total_s })
}

/// The `cluster-sched` and `core` decision metrics of a traced sweep.
fn add_sweep_layers(rep: &mut Rep, t: &Tracer, registry: &MetricsRegistry, serial_s: f64) {
    let events: u64 = CLUSTER_EVENT_KINDS.iter().map(|k| registry.counter(k)).sum();
    let l = &mut rep.layers;
    l.insert("cluster-sched.model_build_s", t.total("cluster-sched.model_build"));
    l.insert("cluster-sched.fleet_build_s", t.total("cluster-sched.fleet_build"));
    l.insert("cluster-sched.events", events as f64);
    l.insert("cluster-sched.events_per_s", events as f64 / serial_s.max(1e-9));
    l.insert("core.decisions", registry.counter("decision") as f64);
    if let Some(h) = registry.histogram("decision_latency_ns") {
        l.insert("core.decide_ns_p50", h.p50);
        l.insert("core.decide_ns_p99", h.p99);
    }
}

/// Outcome counters summed over the cells.
fn add_outcome_layers(rep: &mut Rep, spec: &SweepSpec, outcomes: &[SweepCellOutcome]) {
    let submitted: usize =
        outcomes.iter().map(|o| (spec.workload)(o.cell.point.nodes).num_jobs).sum();
    let sum = |f: &dyn Fn(&SweepCellOutcome) -> usize| outcomes.iter().map(f).sum::<usize>() as f64;
    let completed = sum(&|o| o.report.outcomes.iter().filter(|j| j.completed).count());
    let l = &mut rep.layers;
    l.insert("cluster-sched.jobs_completed_frac", completed / submitted.max(1) as f64);
    l.insert("cluster-sched.cap_violations", sum(&|o| o.report.cap_violations));
    l.insert("cluster-sched.node_failures", sum(&|o| o.report.node_failures));
    l.insert("cluster-sched.deadline_misses", sum(&|o| o.report.deadline_misses()));
}

/// Replays the model build of every fleet generation stage by stage, after
/// the timed work, to split setup between the library layers.
/// `library_build_s` is the library's own build of the same models, timed
/// in the same rep.
fn setup_replay<'a>(
    rep: &mut Rep,
    t: &mut Tracer,
    config: &ActorConfig,
    machines: impl Iterator<Item = &'a Machine>,
    library_build_s: f64,
) -> Result<(), String> {
    let suite = nas_suite();
    let mut counts = StageCounts::default();
    for machine in machines {
        let mut rng = StdRng::seed_from_u64(config.seed);
        t.span("setup_replay", |t| -> Result<(), String> {
            replay::loo_evaluations(t, &mut counts, machine, config, &suite, &mut rng)
                .map_err(|e| e.to_string())?;
            replay::ladder_presim(t, &mut counts, machine, &suite);
            Ok(())
        })?;
    }
    add_stage_layers(&mut rep.layers, t, &counts);
    add_attribution(rep, t.self_time_under("setup_replay", &STAGE_PREFIXES), library_build_s);
    Ok(())
}

/// `trace.attributed_frac`: the share of the library's own (untraced)
/// model-build time that the stage spans of the replay account for. Both
/// are timed in one rep, so host-speed drift between reps cancels.
fn add_attribution(rep: &mut Rep, stage_self_s: f64, library_build_s: f64) {
    rep.layers.insert("trace.stage_self_s", stage_self_s);
    rep.layers.insert("trace.attributed_frac", stage_self_s / library_build_s.max(1e-9));
}

// -------------------------------------------------------------- daemon_sweep

fn daemon_sweep(o: Opts, t: &mut Tracer, start: Instant) -> Result<Rep, String> {
    let config = fast_config(o.seed);
    let mut spec = default_spec(o.tiny);
    spec.seeds = derived_seeds(o.seed, spec.seeds.len());
    let worker_bin: PathBuf =
        std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let context = SweepContext {
        config: config.clone(),
        benchmarks: BenchmarkId::ALL.to_vec(),
        workload: "light".into(),
        machines: spec.mix_names().map_err(|e| e.to_string())?,
        max_node_w: spec.max_node_w,
        heartbeat_ms: 250,
        run_id: o.seed,
    };
    let opts = ProcessSweepOptions::new(POOL, worker_bin, context);
    let probe = o.traced.then(|| Arc::new(Probe::new(start)));
    let sink = probe.clone().map(|p| p as SharedSink);
    let mut arrivals = Vec::with_capacity(spec.len());
    let dist = t.span("cluster-daemon.sweep", |_| {
        run_distributed(&spec, &opts, sink, |_, _, _| arrivals.push(secs(start)))
    });
    let dist = dist.map_err(|e| e.to_string())?;
    let (first, last) = match (arrivals.first(), arrivals.last()) {
        (Some(&f), Some(&l)) => (f, l),
        _ => return Err("the daemon returned no cells".into()),
    };
    let mut rep = Rep {
        setup_s: first,
        work_s: (last - first).max(1e-9),
        cells: dist.run.outcomes.len(),
        ..Rep::default()
    };
    check_cells(&mut rep, &spec, &dist.run.outcomes);
    rep.checks.check(dist.reassignments == 0, || {
        format!("{} cell(s) were reassigned from dead workers", dist.reassignments)
    });
    let pct = best_vs_fcfs_pct(&dist.run.outcomes);
    rep.sim_ed2_pct = pct;
    rep.notes.insert("sim_ed2_vs_fcfs_pct", pct - 100.0);
    rep.run_s = secs(start);

    // The referee, outside the timed part: an in-process serial sweep of
    // the same grid must give the same timing-free outputs.
    let mixes = spec.mixes().map_err(|e| e.to_string())?;
    let build_start = Instant::now();
    let fleet = FleetModel::build(&config, &BenchmarkId::ALL, &mixes).map_err(|e| e.to_string())?;
    let referee_build_s = secs(build_start);
    let fleet = Arc::new(fleet);
    let serial = serial_replay(&spec, &fleet, &mut rep)?;
    rep.checks.check(cells_output(&serial.outcomes) == cells_output(&dist.run.outcomes), || {
        "daemon outputs differ from the in-process sweep of the same grid".into()
    });

    if o.traced {
        let probe = probe.as_ref().expect("traced");
        let cells = rep.cells as f64;
        let l = &mut rep.layers;
        l.insert(
            "cluster-daemon.worker_ready_s",
            probe.first_worker_s.get().copied().unwrap_or(0.0),
        );
        l.insert("cluster-daemon.model_builds", dist.workers_seen as f64);
        l.insert(
            "cluster-daemon.overhead_ms_per_cell",
            1e3 * (POOL as f64 * rep.work_s - serial.total_s) / cells,
        );
        l.insert("cluster-daemon.reassignments", dist.reassignments as f64);
        // Handshake (2 frames per worker), one assignment and one result
        // per dispatched cell, and every trace batch a worker forwarded.
        let frames = 2 * dist.workers_seen as u64
            + 2 * (rep.cells + dist.reassignments) as u64
            + probe.batches.load(Ordering::Relaxed);
        l.insert("cluster-rpc.frames", frames as f64);
        add_sweep_layers(&mut rep, t, &probe.registry, serial.total_s);
        add_outcome_layers(&mut rep, &spec, &dist.run.outcomes);
        let machines = fleet.gens().iter().map(|g| &g.machine);
        setup_replay(&mut rep, t, &config, machines, referee_build_s)?;
    }
    Ok(rep)
}
