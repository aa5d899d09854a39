//! Cross-crate tests of the unified control plane:
//!
//! * the refactored, `ControlPlane`-backed cluster policies schedule
//!   byte-identically to the pre-refactor inline observe → decide loop
//!   (for both `power-aware` and `power-aware-dvfs`, JSON included);
//! * the live controller loop's one empirical search
//!   (`JointSearchController`) is pinned by its literal binding trace, and a
//!   fixed phase → binding plan is a `DecisionTableController` in that loop;
//! * the live `ActorRuntime` loop drives real `phase-rt` kernels end to end
//!   (via the `ExperimentBuilder` facade) without changing their numerics.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use actor_suite::actor::controller::{
    binding_for, validate_decision, CandidatePerf, DecisionCtx, DecisionTableController, DvfsSpace,
    JointSearchController, PowerPerfController,
};
use actor_suite::actor::runtime::ActorRuntime;
use actor_suite::actor::throttle::select_configuration;
use actor_suite::actor::{ActorConfig, NullReporter};
use actor_suite::cluster::{
    budget_from_fraction, policy_by_name, simulate, Assignment, ClusterSpec, FaultSpec, FleetModel,
    MachineMix, SchedContext, SchedulerPolicy, WorkloadModel, WorkloadSpec,
};
use actor_suite::prelude::{ControllerSpec, ExperimentBuilder};
use actor_suite::rt::{Binding, MachineShape, PhaseId, RegionEvent, RegionListener, Team};
use actor_suite::sim::{Configuration, Machine};
use actor_suite::workloads::kernels::ConjugateGradient;
use actor_suite::workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn model() -> WorkloadModel {
    let machine = Machine::xeon_qx6600();
    let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
    WorkloadModel::build(&machine, &config, &IDS).unwrap()
}

/// The pre-refactor power-aware policy, reconstructed verbatim: the
/// observe → decide loop inlined against the controller, no `ControlPlane`.
struct InlineLoopPowerAware {
    controller: DecisionTableController,
    shape: MachineShape,
    observed: HashSet<PhaseId>,
    dvfs: bool,
}

impl InlineLoopPowerAware {
    fn new(model: &WorkloadModel, dvfs: bool) -> Self {
        Self {
            controller: model.decision_table(),
            shape: MachineShape::quad_core(),
            observed: HashSet::new(),
            dvfs,
        }
    }
}

impl SchedulerPolicy for InlineLoopPowerAware {
    fn name(&self) -> &'static str {
        if self.dvfs {
            "power-aware-dvfs"
        } else {
            "power-aware"
        }
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        let ladder = ctx.model.freq_ladder();
        let mut out = Vec::new();
        let mut free: Vec<usize> = ctx.idle_nodes.to_vec();
        let mut headroom = ctx.headroom_w();
        for (queue_idx, job) in ctx.queue.iter().enumerate() {
            let k = job.nodes;
            if free.len() < k {
                break;
            }
            let node_cap = headroom / k as f64 + ctx.node_idle_w;
            let knowledge = ctx.model.knowledge(job.benchmark);
            let mut choices = Vec::with_capacity(knowledge.phases.len());
            for (idx, phase) in knowledge.phases.iter().enumerate() {
                let pid = ctx.model.phase_id(job.benchmark, idx);
                if self.observed.insert(pid) {
                    self.controller.observe(pid, &phase.sample());
                }
                let candidates: &[CandidatePerf] = phase.candidate_menu();
                let joint = if self.dvfs { phase.joint_candidates() } else { &[] };
                let decision = self.controller.decide(&DecisionCtx {
                    phase: pid,
                    shape: &self.shape,
                    candidates,
                    power_cap_w: Some(node_cap),
                    dvfs: self.dvfs.then_some(DvfsSpace { ladder, joint }),
                });
                let config =
                    validate_decision(&decision, &self.shape, ladder.len(), self.dvfs).unwrap();
                choices.push((config, decision.freq_step));
            }
            let mut iter = choices.into_iter();
            let plan = ctx.model.plan_with_joint(job, |_| iter.next().expect("one per phase"));
            if (plan.peak_power_w - ctx.node_idle_w) * k as f64 > headroom + 1e-9 {
                break;
            }
            headroom -= (plan.peak_power_w - ctx.node_idle_w) * k as f64;
            let nodes: Vec<usize> = free.drain(..k).collect();
            out.push(Assignment { queue_idx, nodes, plan });
        }
        out
    }
}

#[test]
fn refactored_policies_schedule_byte_identically_to_the_inline_loop() {
    let fleet = FleetModel::single(model());
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;
    for fraction in [0.45, 0.7, 1.0] {
        let spec = ClusterSpec {
            nodes: 4,
            power_budget_w: budget_from_fraction(4, idle_w, 160.0, fraction),
            machines: MachineMix::uniform(),
            faults: FaultSpec::default(),
            workload: WorkloadSpec {
                num_jobs: 12,
                mean_interarrival_s: 4.0,
                benchmarks: IDS.to_vec(),
                node_counts: vec![1, 1, 2],
                ..Default::default()
            },
            seed: 99,
        };
        for dvfs in [false, true] {
            let name = if dvfs { "power-aware-dvfs" } else { "power-aware" };
            let mut inline = InlineLoopPowerAware::new(fleet.reference(), dvfs);
            let before = simulate(&spec, &fleet, &mut inline, None).unwrap();
            let mut refactored = policy_by_name(name, &fleet).unwrap();
            let after = simulate(&spec, &fleet, refactored.as_mut(), None).unwrap();
            assert_eq!(
                before, after,
                "{name} at fraction {fraction}: the ControlPlane refactor changed the schedule"
            );
            // Byte-identity, not just structural equality: the emitted JSON
            // (what `cluster_power_cap` persists) is the same string.
            assert_eq!(
                serde_json::to_string(&before).unwrap(),
                serde_json::to_string(&after).unwrap(),
                "{name} at fraction {fraction}: JSON diverged across the refactor"
            );
        }
    }
}

/// Drives one phase of a runtime through a scripted sequence of region
/// executions and returns the bindings it enforced.
fn drive(runtime: &ActorRuntime, phase: PhaseId, shape: &MachineShape, ms: &[u64]) -> Vec<Binding> {
    let requested = Binding::packed(shape.num_cores, shape);
    let mut trace = Vec::new();
    for (i, t) in ms.iter().enumerate() {
        let binding =
            runtime.before_region(phase, &requested, i as u64).unwrap_or(requested.clone());
        runtime.after_region(&RegionEvent {
            phase,
            binding: binding.clone(),
            duration: Duration::from_millis(*t),
            instance: i as u64,
        });
        trace.push(binding);
    }
    trace
}

#[test]
fn search_mode_and_live_empirical_controller_are_one_strategy() {
    // The live loop's one empirical search, pinned literally: for these
    // measured durations JointSearchController explores 1, 2a, 2b, 3 and 4
    // in order, then holds 2b (the 10 ms measurement).
    let shape = MachineShape::quad_core();
    let phase = PhaseId::new(5);
    let live = ActorRuntime::new(Box::new(JointSearchController::default()), &shape);
    let trace = drive(&live, phase, &shape, &[50, 40, 10, 30, 20, 25, 25, 25]);

    let two_loose = Binding::spread(2, &shape);
    let explored = [
        Binding::packed(1, &shape),
        Binding::packed(2, &shape),
        two_loose.clone(),
        Binding::spread(3, &shape),
        Binding::packed(4, &shape),
    ];
    let held = [two_loose.clone(), two_loose.clone(), two_loose.clone()];
    assert_eq!(trace, [explored.as_slice(), held.as_slice()].concat());
    assert_eq!(live.decision_for(phase), Some(two_loose));
}

#[test]
fn fixed_plan_is_a_decision_table_in_the_live_loop() {
    // A fixed phase → configuration plan is a DecisionTableController:
    // planned phases run their planned binding, observations never move it,
    // and an unplanned phase runs the sampling configuration (all cores).
    let shape = MachineShape::quad_core();
    let plan = [(PhaseId::new(1), Configuration::One), (PhaseId::new(2), Configuration::TwoLoose)];
    let table = DecisionTableController::new(
        plan.map(|(phase, config)| (phase, select_configuration(1.0, &[(config, 2.0)]))),
    );
    let runtime = ActorRuntime::new(Box::new(table), &shape);
    let requested = Binding::packed(4, &shape);
    for (phase, config) in plan {
        let binding = binding_for(config, &shape);
        assert_eq!(runtime.before_region(phase, &requested, 0).as_ref(), Some(&binding));
        runtime.after_region(&RegionEvent {
            phase,
            binding: binding.clone(),
            duration: Duration::from_millis(1),
            instance: 0,
        });
        assert_eq!(runtime.decision_for(phase).as_ref(), Some(&binding));
        assert_eq!(runtime.before_region(phase, &requested, 1).as_ref(), Some(&binding));
    }
    assert_eq!(runtime.decisions().len(), plan.len());
    assert_eq!(runtime.before_region(PhaseId::new(9), &requested, 0), Some(requested));
}

#[test]
fn live_controller_loop_drives_a_real_kernel_through_the_facade() {
    let benchmarks = IDS.map(actor_suite::workloads::benchmark);
    let mut exp = ExperimentBuilder::new()
        .suite(benchmarks.to_vec())
        .config(ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() })
        .controller(ControllerSpec::JointSearch)
        .reporter(Box::new(NullReporter))
        .run()
        .expect("valid experiment");

    let team = Team::new(4).unwrap();
    let shape = *team.shape();
    let solver = ConjugateGradient::poisson(20, 80);

    // Reference solution without any listener.
    let reference = solver.run(&team, &Binding::packed(4, &shape));

    // The closed loop: the facade builds the live runtime, the runtime
    // observes every region and decides every next one.
    let runtime = Arc::new(
        exp.live_runtime_for(BenchmarkId::Cg, &shape).expect("live runtime for a suite member"),
    );
    team.set_listener(runtime.clone());
    let adaptive = solver.run(&team, &Binding::packed(4, &shape));
    team.clear_listener();

    assert_eq!(
        reference.iterations, adaptive.iterations,
        "live controller throttling must not change convergence"
    );
    let max_diff = reference
        .solution
        .iter()
        .zip(&adaptive.solution)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-9, "live controller throttling changed the solution ({max_diff})");

    // The loop closed: at least one phase ran often enough for the search
    // controller to explore every configuration and lock a decision.
    let decisions = runtime.decisions();
    assert!(!decisions.is_empty(), "the live loop must have decided at least one phase");
    for (_, binding) in &decisions {
        assert!(binding.num_threads() >= 1 && binding.num_threads() <= 4);
    }

    // Asking for a benchmark outside the suite is a typed error.
    assert!(exp.live_runtime_for(BenchmarkId::Ft, &shape).is_err());
}
