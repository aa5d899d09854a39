//! The one output schema of every cluster sweep: the compact cell records,
//! the policy scoreboard, the JSON artefacts and the wire context of a
//! distributed run — used by the sweep driver behind the four sweep bins
//! ([`crate::sweep_driver`], in-process and `--processes` modes) and by
//! the `cluster_daemon` bin, so every execution mode renders
//! **byte-identical** artefacts from the same outcomes.

use std::collections::BTreeMap;

use cluster_rpc::SweepContext;
use cluster_sched::{
    light_workload, workload_shape_by_name, SweepCellOutcome, SweepError, SweepPoint, SweepRun,
    SweepSpec, WORKLOAD_SHAPE_NAMES,
};
use npb_workloads::BenchmarkId;
use serde::{Deserialize, Serialize};

use crate::{BenchArgs, Harness};

/// One compact cell record (the full `ClusterReport`s would make a
/// 1000-cell artefact enormous).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEntry {
    /// Cell index in expansion order.
    pub index: usize,
    /// Cluster size.
    pub nodes: usize,
    /// Budget tier label.
    pub budget_label: String,
    /// Budget as a fraction of the dynamic power range.
    pub budget_fraction: f64,
    /// Scheduling policy.
    pub policy: String,
    /// Machine-mix name.
    pub machines: String,
    /// Fault-scenario name.
    pub faults: String,
    /// Arrival-process name.
    pub arrivals: String,
    /// Workload seed.
    pub seed: u64,
    /// Cluster energy × makespan² (the headline metric).
    pub cluster_ed2_j_s2: f64,
    /// Makespan (s).
    pub makespan_s: f64,
    /// Total energy (J).
    pub total_energy_j: f64,
    /// Mean job wait (s).
    pub avg_wait_s: f64,
    /// Fraction of decisions that throttled below the ideal configuration.
    pub throttle_fraction: f64,
    /// Budget violations observed.
    pub cap_violations: usize,
    /// Node crash events injected by the fault scenario.
    pub node_failures: usize,
    /// Jobs terminated unfinished under `FaultPolicy::Kill`.
    pub killed_jobs: usize,
}

/// The deterministic artefact (`<stem>_cells.json`): every cell plus the
/// FCFS scoreboard, no timing. Byte-identical for the same grid and seed
/// across serial, `--jobs N`, `--processes N`, and daemon modes — the
/// distributed CI smoke test diffs exactly this file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellsOutput {
    /// Completed cells.
    pub cells: usize,
    /// Every cell, in index order.
    pub entries: Vec<CellEntry>,
    /// Per policy: mean ED² relative to FCFS over every scoring group that
    /// ran both (%; negative = beats FCFS) — the `fcfs`, no-breakdown
    /// [`scoreboard`]. Empty when the grid has no `fcfs` reference cells.
    pub policy_mean_ed2_vs_fcfs_pct: Vec<(String, f64)>,
    /// Per policy: number of scoring groups it won outright (lowest ED² in
    /// the group).
    pub policy_wins: Vec<(String, usize)>,
}

/// The full `<stem>.json` artefact of every sweep bin: the
/// [`CellsOutput`], the preset's scoreboard, and timing (`jobs`,
/// `wall_clock_s`, `cells_per_sec`, which vary run to run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutput {
    /// Worker threads (or processes) used.
    pub jobs: usize,
    /// Wall-clock of the execute phase (s).
    pub wall_clock_s: f64,
    /// Throughput headline.
    pub cells_per_sec: f64,
    /// The timing-free part, as written to `<stem>_cells.json`.
    pub grid: CellsOutput,
    /// The policy [`Self::scoreboard`] measures against.
    pub reference: String,
    /// The axes [`Self::scoreboard`] breaks down by ([`Axis::name`]), in
    /// key order.
    pub breakdown: Vec<String>,
    /// Every policy's mean ED² vs [`Self::reference`], per breakdown key.
    pub scoreboard: Vec<PolicyScore>,
}

impl SweepOutput {
    /// The scoreboard's mean ED² delta of `policy` at breakdown `key`, if
    /// this artefact is scored against `reference` and the policy ran
    /// against it there.
    pub fn score(&self, reference: &str, key: &[&str], policy: &str) -> Option<f64> {
        if self.reference != reference {
            return None;
        }
        self.scoreboard
            .iter()
            .find(|s| {
                s.policy == policy && s.key.iter().map(String::as_str).eq(key.iter().copied())
            })
            .map(|s| s.mean_ed2_vs_reference_pct)
    }
}

/// The default ~1000-cell policy-search grid, or the 48-cell smoke grid
/// under `--fast`. Both use the `"light"` workload shape (breadth over
/// depth), so the grid can be served to remote workers by name.
pub fn default_spec(fast: bool) -> SweepSpec {
    let mut spec = if fast {
        SweepSpec {
            nodes: vec![2, 4],
            budgets: vec![("tight".into(), 0.45), ("ample".into(), 1.0)],
            policies: vec!["fcfs".into(), "power-aware".into(), "power-aware-dvfs".into()],
            seeds: (2007..2011).collect(),
            ..SweepSpec::default()
        }
    } else {
        SweepSpec {
            nodes: vec![2, 4, 6, 8],
            budgets: vec![
                ("tight".into(), 0.45),
                ("snug".into(), 0.55),
                ("medium".into(), 0.7),
                ("ample".into(), 1.0),
            ],
            policies: cluster_sched::POLICY_NAMES.iter().map(|s| s.to_string()).collect(),
            seeds: (2007..2020).collect(),
            ..SweepSpec::default()
        }
    };
    // Policy search wants breadth over depth: a light per-cell workload
    // keeps a four-digit grid interactive.
    spec.workload = light_workload;
    spec
}

/// The compact record of one outcome.
pub fn cell_entry(o: &SweepCellOutcome) -> CellEntry {
    CellEntry {
        index: o.cell.index,
        nodes: o.cell.point.nodes,
        budget_label: o.cell.point.budget_label.clone(),
        budget_fraction: o.cell.point.budget_fraction,
        policy: o.cell.point.policy.clone(),
        machines: o.cell.point.machines.clone(),
        faults: o.cell.point.faults.clone(),
        arrivals: o.cell.point.arrivals.clone(),
        seed: o.cell.point.seed,
        cluster_ed2_j_s2: o.report.cluster_ed2(),
        makespan_s: o.report.makespan_s,
        total_energy_j: o.report.total_energy_j,
        avg_wait_s: o.report.avg_wait_s(),
        throttle_fraction: o.report.throttle_fraction(),
        cap_violations: o.report.cap_violations,
        node_failures: o.report.node_failures,
        killed_jobs: o.report.killed_jobs,
    }
}

/// A non-policy grid axis a [`scoreboard`] can break down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Cluster size.
    Nodes,
    /// Budget tier, keyed `label:fraction` (the `--grid` spelling), so two
    /// tiers that share a label stay apart.
    Budget,
    /// Machine mix.
    Machines,
}

impl Axis {
    /// The axis name, as it heads a scoreboard column.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Nodes => "nodes",
            Axis::Budget => "budget",
            Axis::Machines => "machines",
        }
    }

    fn value(self, p: &SweepPoint) -> String {
        match self {
            Axis::Nodes => p.nodes.to_string(),
            Axis::Budget => format!("{}:{}", p.budget_label, p.budget_fraction),
            Axis::Machines => p.machines.clone(),
        }
    }
}

/// One scoreboard row: a policy's mean ED² against the reference policy
/// over the scoring groups of one breakdown key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyScore {
    /// The breakdown axes' values (empty without a breakdown).
    pub key: Vec<String>,
    /// Scheduling policy.
    pub policy: String,
    /// Mean of `(ED² / reference ED² − 1) × 100` over the key's scoring
    /// groups (%; negative = beats the reference).
    pub mean_ed2_vs_reference_pct: f64,
    /// Cells averaged.
    pub cells: usize,
}

/// (nodes, budget label, budget fraction bits, machines, faults, arrivals,
/// seed): every axis but the policy.
type GroupKey<'a> = (usize, &'a str, u64, &'a str, &'a str, &'a str, u64);

/// Sorts outcomes into scoring groups: cells that differ only in their
/// policy. Every other axis is part of the key. The budget fraction (as
/// bits, for `Ord`) joins the label, since `--grid` may reuse a label for
/// distinct tiers. The scenario axes and the seed are in the key too, so a
/// faulty bursty cell is never scored against a healthy Poisson reference,
/// nor one seed against another's.
fn scoring_groups(outcomes: &[SweepCellOutcome]) -> BTreeMap<GroupKey<'_>, Vec<&SweepCellOutcome>> {
    let mut groups: BTreeMap<GroupKey<'_>, Vec<&SweepCellOutcome>> = BTreeMap::new();
    for o in outcomes {
        let p = &o.cell.point;
        groups
            .entry((
                p.nodes,
                p.budget_label.as_str(),
                p.budget_fraction.to_bits(),
                p.machines.as_str(),
                p.faults.as_str(),
                p.arrivals.as_str(),
                p.seed,
            ))
            .or_default()
            .push(o);
    }
    groups
}

/// Scores every policy against `reference`. Within each scoring group a
/// cell's ED² is normalised by the group's reference cell; the deltas are
/// then averaged per breakdown key (the values of the `breakdown` axes).
/// Groups without a reference cell are skipped. Keys come in scoring-group
/// order, policies by name within a key.
pub fn scoreboard(
    outcomes: &[SweepCellOutcome],
    reference: &str,
    breakdown: &[Axis],
) -> Vec<PolicyScore> {
    // Breakdown keys in first-seen order; deltas by (key slot, policy).
    let mut keys: Vec<Vec<String>> = Vec::new();
    let mut deltas: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    for members in scoring_groups(outcomes).values() {
        let Some(reference_ed2) = members
            .iter()
            .find(|o| o.cell.point.policy == reference)
            .map(|o| o.report.cluster_ed2())
        else {
            continue;
        };
        let key: Vec<String> = breakdown.iter().map(|a| a.value(&members[0].cell.point)).collect();
        let slot = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            keys.push(key);
            keys.len() - 1
        });
        for o in members {
            deltas
                .entry((slot, o.cell.point.policy.as_str()))
                .or_default()
                .push((o.report.cluster_ed2() / reference_ed2 - 1.0) * 100.0);
        }
    }
    deltas
        .into_iter()
        .map(|((slot, policy), deltas)| PolicyScore {
            key: keys[slot].clone(),
            policy: policy.to_string(),
            mean_ed2_vs_reference_pct: deltas.iter().sum::<f64>() / deltas.len() as f64,
            cells: deltas.len(),
        })
        .collect()
}

/// Per policy, by name: the scoring groups it won outright (lowest ED² in
/// the group; the first cell wins a tie).
pub fn policy_wins(outcomes: &[SweepCellOutcome]) -> Vec<(String, usize)> {
    let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
    for members in scoring_groups(outcomes).values() {
        let winner =
            members.iter().min_by(|a, b| a.report.cluster_ed2().total_cmp(&b.report.cluster_ed2()));
        if let Some(winner) = winner {
            *wins.entry(winner.cell.point.policy.as_str()).or_default() += 1;
        }
    }
    wins.into_iter().map(|(p, n)| (p.to_string(), n)).collect()
}

/// The deterministic (timing-free) artefact for a set of outcomes.
pub fn cells_output(outcomes: &[SweepCellOutcome]) -> CellsOutput {
    CellsOutput {
        cells: outcomes.len(),
        entries: outcomes.iter().map(cell_entry).collect(),
        policy_mean_ed2_vs_fcfs_pct: scoreboard(outcomes, "fcfs", &[])
            .into_iter()
            .map(|s| (s.policy, s.mean_ed2_vs_reference_pct))
            .collect(),
        policy_wins: policy_wins(outcomes),
    }
}

/// The full artefact, timing included, scored against `reference` per
/// `breakdown` key.
pub fn sweep_output(run: &SweepRun, reference: &str, breakdown: &[Axis]) -> SweepOutput {
    SweepOutput {
        jobs: run.jobs,
        wall_clock_s: run.wall_clock_s,
        cells_per_sec: run.cells_per_sec(),
        grid: cells_output(&run.outcomes),
        reference: reference.to_string(),
        breakdown: breakdown.iter().map(|a| a.name().to_string()).collect(),
        scoreboard: scoreboard(&run.outcomes, reference, breakdown),
    }
}

/// The wire context of a distributed sweep over `spec`: the training
/// configuration `args` select, the whole NPB suite, and the grid's
/// machine mixes. The workload shape travels by name
/// ([`WORKLOAD_SHAPE_NAMES`]); a spec whose shape has none is refused here,
/// before any worker is spawned.
pub fn sweep_context(spec: &SweepSpec, args: &BenchArgs) -> Result<SweepContext, SweepError> {
    let workload = WORKLOAD_SHAPE_NAMES
        .into_iter()
        .find(|name| {
            workload_shape_by_name(name).map(|f| f as usize) == Some(spec.workload as usize)
        })
        .ok_or_else(|| SweepError::InvalidGrid {
            reason: format!(
                "the workload shape has no wire name, so workers cannot rebuild it; a \
                 distributed sweep runs one of: {}",
                WORKLOAD_SHAPE_NAMES.join(", ")
            ),
        })?;
    Ok(SweepContext {
        config: args.config(),
        benchmarks: BenchmarkId::ALL.to_vec(),
        workload: workload.to_string(),
        machines: spec.mix_names()?,
        max_node_w: spec.max_node_w,
        heartbeat_ms: 250,
        // Workers stamp their spans with this, the same run id the
        // harness's own SpanSink uses — one causal timeline per run.
        run_id: Harness::run_id(),
    })
}

/// The streamed per-cell table headers shared by the sweep and daemon
/// bins.
pub fn sweep_table_headers() -> Vec<&'static str> {
    vec![
        "cell",
        "nodes",
        "budget",
        "policy",
        "machines",
        "faults",
        "arrivals",
        "seed",
        "makespan s",
        "energy kJ",
        "ED2 MJ.s2",
    ]
}

/// One streamed table row for an outcome, matching
/// [`sweep_table_headers`].
pub fn sweep_table_row(o: &SweepCellOutcome) -> Vec<String> {
    use actor_core::report::fmt3;
    let (p, r) = (&o.cell.point, &o.report);
    vec![
        o.cell.index.to_string(),
        p.nodes.to_string(),
        p.budget_label.clone(),
        p.policy.clone(),
        p.machines.clone(),
        p.faults.clone(),
        p.arrivals.clone(),
        p.seed.to_string(),
        fmt3(r.makespan_s),
        fmt3(r.total_energy_j / 1e3),
        fmt3(r.cluster_ed2() / 1e6),
    ]
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_specs_use_the_named_light_shape() {
        for fast in [true, false] {
            let spec = default_spec(fast);
            spec.validate().unwrap();
            // The shape must be resolvable by name on a remote worker.
            assert_eq!(
                cluster_sched::workload_shape_by_name("light").map(|f| f as *const ()),
                Some(spec.workload as *const ()),
                "default_spec must keep the wire-nameable light shape"
            );
        }
        assert_eq!(default_spec(true).len(), 48);
    }

    /// A synthetic outcome at 8 nodes with cluster ED² `ed2`.
    fn outcome(index: usize, policy: &str, seed: u64, fraction: f64, ed2: f64) -> SweepCellOutcome {
        use cluster_sched::{ClusterReport, SweepCell};
        SweepCellOutcome {
            cell: SweepCell {
                index,
                point: SweepPoint {
                    nodes: 8,
                    budget_label: "tight".into(),
                    budget_fraction: fraction,
                    policy: policy.into(),
                    machines: "mixed".into(),
                    faults: "none".into(),
                    arrivals: "poisson".into(),
                    seed,
                },
            },
            report: ClusterReport {
                policy: policy.into(),
                nodes: 8,
                machines: "mixed".into(),
                power_budget_w: 0.0,
                outcomes: Vec::new(),
                makespan_s: 1.0,
                total_energy_j: ed2,
                peak_power_w: 0.0,
                cap_violations: 0,
                node_failures: 0,
                killed_jobs: 0,
            },
        }
    }

    #[test]
    fn each_cell_is_scored_against_the_reference_of_its_own_seed_and_tier() {
        // Two seeds × two tiers that share the label "tight". Coordinated
        // capping beats its own reference cell by 10/20/30/40 %; scored
        // against any other reference cell it would not.
        let mut outcomes = Vec::new();
        for (i, (seed, fraction, reference, coordinated)) in [
            (1, 0.45, 100.0, 90.0),
            (2, 0.45, 200.0, 160.0),
            (1, 0.6, 400.0, 280.0),
            (2, 0.6, 800.0, 480.0),
        ]
        .into_iter()
        .enumerate()
        {
            outcomes.push(outcome(2 * i, "power-aware-dvfs", seed, fraction, reference));
            outcomes.push(outcome(
                2 * i + 1,
                "power-aware-coordinated",
                seed,
                fraction,
                coordinated,
            ));
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;

        let by_mix = scoreboard(&outcomes, "power-aware-dvfs", &[Axis::Machines]);
        assert_eq!(by_mix.len(), 2);
        let coordinated = &by_mix[0];
        assert_eq!(
            (coordinated.key.as_slice(), coordinated.policy.as_str()),
            (&["mixed".to_string()][..], "power-aware-coordinated")
        );
        assert_eq!(coordinated.cells, 4);
        assert!(close(coordinated.mean_ed2_vs_reference_pct, -25.0), "{coordinated:?}");
        assert!(close(by_mix[1].mean_ed2_vs_reference_pct, 0.0));

        let by_tier = scoreboard(&outcomes, "power-aware-dvfs", &[Axis::Budget]);
        let tier = |key: &str| {
            by_tier
                .iter()
                .find(|s| s.key == [key] && s.policy == "power-aware-coordinated")
                .map(|s| (s.cells, s.mean_ed2_vs_reference_pct))
                .unwrap_or_else(|| panic!("no row for {key}: {by_tier:?}"))
        };
        let (cells, tight) = tier("tight:0.45");
        assert!(cells == 2 && close(tight, -15.0), "{by_tier:?}");
        let (cells, snug) = tier("tight:0.6");
        assert!(cells == 2 && close(snug, -35.0), "{by_tier:?}");

        // Every group has a winner; no group has an FCFS reference.
        assert_eq!(policy_wins(&outcomes), vec![("power-aware-coordinated".to_string(), 4)]);
        assert!(cells_output(&outcomes).policy_mean_ed2_vs_fcfs_pct.is_empty());
    }
}
