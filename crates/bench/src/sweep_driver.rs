//! The one sweep driver behind the four cluster sweep bins.
//!
//! Each bin names a [`Preset`] — a grid, a reference policy and the axes
//! its scoreboard breaks down by — and [`main`] runs it the same way for
//! all of them:
//!
//! 1. resolve the preset's [`SweepSpec`] and apply `--grid`;
//! 2. run the cells on `--jobs N` threads against one [`FleetModel`]
//!    covering the grid's machine mixes — or, under `--processes N`, on N
//!    worker processes that each build the same fleet from the wire
//!    context ([`sweep_context`]);
//! 3. stream one per-cell table (`results/<bin>.csv`);
//! 4. print the scoreboard — every policy's mean ED² against the
//!    reference, per breakdown key ([`crate::sweep_out::scoreboard`]) —
//!    and write `results/<bin>.json` ([`SweepOutput`], timing included)
//!    and `results/<bin>_cells.json`, which is byte-identical for any
//!    `--jobs N` or `--processes N`.
//!
//! Flags: `--fast` (reduced ANN training, plus the smoke grid or light
//! workload where the preset has one), `--jobs N`, `--processes N`,
//! `--grid SPEC` (see `SweepSpec::with_grid`), `--seed N` (ANN training
//! seed) and `--trace PATH`. `--serve` and `--connect` belong to
//! `cluster_daemon` and `cluster_worker`; the sweep bins exit 2 on them.

use std::sync::Arc;

use actor_core::report::{StreamingReporter, Table};
use cluster_daemon::{run_distributed, ProcessSweepOptions};
use cluster_sched::{
    light_workload, run_sweep_fleet, FleetModel, SweepCellOutcome, SweepSpec, POLICY_NAMES,
};
use npb_workloads::BenchmarkId;

use crate::sweep_out::{
    default_spec, sweep_context, sweep_output, sweep_table_headers, sweep_table_row, Axis,
    SweepOutput,
};
use crate::{BenchArgs, FileReporter, Harness};

/// One sweep bin, as data.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// The bin's name, which is also its artefact stem.
    pub name: &'static str,
    /// The grid, given `--fast`.
    pub spec: fn(bool) -> SweepSpec,
    /// The policy every scoreboard row is measured against.
    pub reference: &'static str,
    /// The axes the scoreboard breaks down by.
    pub breakdown: &'static [Axis],
}

/// Every sweep bin.
pub const PRESETS: [Preset; 4] = [
    // Policy search: which policy wins, and by how much, across the whole
    // operating envelope (~1000 cells; 48 under --fast).
    Preset { name: "cluster_sweep", spec: default_spec, reference: "fcfs", breakdown: &[] },
    // The paper's question at cluster scale: every policy against FCFS at
    // each cluster size and power budget.
    Preset {
        name: "cluster_power_cap",
        spec: power_cap_spec,
        reference: "fcfs",
        breakdown: &[Axis::Nodes, Axis::Budget],
    },
    // Coordinated vs independent capping (and DCT-only vs joint DVFS+DCT)
    // at 8 nodes across budgets.
    Preset {
        name: "coordinated_capping",
        spec: coordinated_spec,
        reference: "power-aware-dvfs",
        breakdown: &[Axis::Budget],
    },
    // The coordinated-vs-independent comparison re-run on heterogeneous,
    // fault-injected clusters under hostile arrivals, per machine mix.
    Preset {
        name: "scenario_sweep",
        spec: scenario_spec,
        reference: "power-aware-dvfs",
        breakdown: &[Axis::Machines],
    },
];

fn budgets(tiers: &[(&str, f64)]) -> Vec<(String, f64)> {
    tiers.iter().map(|&(label, fraction)| (label.to_string(), fraction)).collect()
}

fn names(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

/// 2/4/8 nodes × tight/medium/ample × all five policies, seed 2007.
fn power_cap_spec(_fast: bool) -> SweepSpec {
    SweepSpec {
        nodes: vec![2, 4, 8],
        budgets: budgets(&[("tight", 0.45), ("medium", 0.7), ("ample", 1.0)]),
        policies: names(&POLICY_NAMES),
        ..SweepSpec::default()
    }
}

/// 8 nodes × tight/snug/medium/ample × the three power-aware policies,
/// seed 2007.
fn coordinated_spec(_fast: bool) -> SweepSpec {
    SweepSpec {
        budgets: budgets(&[("tight", 0.45), ("snug", 0.55), ("medium", 0.7), ("ample", 1.0)]),
        policies: names(&["power-aware", "power-aware-dvfs", "power-aware-coordinated"]),
        ..SweepSpec::default()
    }
}

/// 8 nodes × tight/medium × independent vs coordinated capping ×
/// uniform/mixed/legacy × none/crash × poisson/bursty, seed 2007; the light
/// workload under `--fast`.
fn scenario_spec(fast: bool) -> SweepSpec {
    let mut spec = SweepSpec {
        budgets: budgets(&[("tight", 0.45), ("medium", 0.7)]),
        policies: names(&["power-aware-dvfs", "power-aware-coordinated"]),
        machine_mixes: names(&["uniform", "mixed", "legacy"]),
        faults: names(&["none", "crash"]),
        arrivals: names(&["poisson", "bursty"]),
        ..SweepSpec::default()
    };
    if fast {
        spec.workload = light_workload;
    }
    spec
}

/// A usage error: print it and exit with status 2.
fn usage_error(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Runs the preset called `name` with the process arguments.
pub fn main(name: &str) {
    let preset = PRESETS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no sweep preset is called {name:?}"));
    let harness = Harness::from_env();
    let args = &harness.args;
    if args.serve.is_some() || args.connect.is_some() {
        usage_error(format!(
            "{name} neither serves nor connects; use the cluster_daemon and cluster_worker \
             binaries for external workers"
        ));
    }
    let mut spec = (preset.spec)(args.fast);
    if let Some(grid) = &args.grid {
        spec = spec.with_grid(grid).unwrap_or_else(|e| usage_error(e));
    }

    let mut streaming = StreamingReporter::new(
        Box::new(FileReporter::default()),
        name,
        &format!("{name}: every cell"),
        sweep_table_headers(),
        spec.len(),
    );
    if let Some(sink) = harness.telemetry_sink() {
        streaming = streaming.with_telemetry(sink);
    }
    let mut on_cell = |outcome: &SweepCellOutcome, _: usize, _: usize| {
        streaming.row(outcome.cell.index, sweep_table_row(outcome));
    };
    let run = if let Some(processes) = args.processes {
        let context = sweep_context(&spec, args).unwrap_or_else(|e| usage_error(e));
        let worker_bin =
            BenchArgs::sibling_bin("cluster_worker").unwrap_or_else(|e| usage_error(e));
        let opts = ProcessSweepOptions::new(processes, worker_bin, context);
        eprintln!(
            "running {} sweep cells on {processes} worker process(es) (each builds the fleet \
             model)...",
            spec.len()
        );
        let dist = run_distributed(&spec, &opts, harness.telemetry_sink(), &mut on_cell)
            .unwrap_or_else(|e| panic!("distributed sweep failed: {e}"));
        if dist.reassignments > 0 {
            eprintln!("note: {} cell(s) were reassigned from dead workers", dist.reassignments);
        }
        dist.run
    } else {
        let jobs = args.jobs_or_auto();
        let mixes = spec.mixes().unwrap_or_else(|e| usage_error(e));
        eprintln!("building the fleet model (leave-one-out ANN training over the NPB suite)...");
        let fleet = FleetModel::build(&args.config(), &BenchmarkId::ALL, &mixes)
            .unwrap_or_else(|e| panic!("fleet model construction failed: {e}"));
        eprintln!("running {} sweep cells on {jobs} worker thread(s)...", spec.len());
        run_sweep_fleet(&spec, &Arc::new(fleet), jobs, harness.telemetry_sink(), &mut on_cell)
            .unwrap_or_else(|e| panic!("sweep failed: {e}"))
    };

    let mut reporter = streaming.finish();
    reporter.note(&format!(
        "sweep: {} cells in {:.1} s on {} worker(s) ({:.2} cells/s)",
        run.outcomes.len(),
        run.wall_clock_s,
        run.jobs,
        run.cells_per_sec(),
    ));
    let output = sweep_output(&run, preset.reference, preset.breakdown);
    reporter.table(
        &format!("{name}_scoreboard"),
        &format!("Policy scoreboard: mean cluster ED2 vs {}", preset.reference),
        &scoreboard_table(&output),
    );
    let wins: Vec<String> =
        output.grid.policy_wins.iter().map(|(p, n)| format!("{p} {n}")).collect();
    reporter.note(&format!("group wins: {}", wins.join(", ")));

    let json = serde_json::to_string_pretty(&output).expect("sweep serializes");
    reporter.artifact(&format!("{name}.json"), &json);
    // The timing-free part: byte-identical across every execution mode.
    let cells_json = serde_json::to_string_pretty(&output.grid).expect("cells serialize");
    reporter.artifact(&format!("{name}_cells.json"), &cells_json);
}

/// The scoreboard as a table: one column per breakdown axis, then the
/// policy, its mean ED² vs the reference, and the cells averaged.
fn scoreboard_table(output: &SweepOutput) -> Table {
    let vs = format!("mean ED2 vs {}", output.reference);
    let mut headers: Vec<&str> = output.breakdown.iter().map(String::as_str).collect();
    headers.extend(["policy", vs.as_str(), "cells"]);
    let mut table = Table::new(headers);
    for score in &output.scoreboard {
        let mut row = score.key.clone();
        row.push(score.policy.clone());
        row.push(format!("{:+.1}%", score.mean_ed2_vs_reference_pct));
        row.push(score.cells.to_string());
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_resolves_a_wire_name_and_a_custom_shape_is_refused() {
        let args = BenchArgs::default();
        for preset in PRESETS {
            for fast in [true, false] {
                let spec = (preset.spec)(fast);
                spec.validate().unwrap();
                let context = sweep_context(&spec, &args)
                    .unwrap_or_else(|e| panic!("{} (fast {fast}): {e}", preset.name));
                assert!(cluster_sched::workload_shape_by_name(&context.workload).is_some());
                assert!(spec.policies.iter().any(|p| p == preset.reference), "{}", preset.name);
            }
        }
        fn bespoke(nodes: usize) -> cluster_sched::WorkloadSpec {
            cluster_sched::WorkloadSpec { num_jobs: nodes, ..Default::default() }
        }
        let custom = SweepSpec { workload: bespoke, ..SweepSpec::default() };
        let err = sweep_context(&custom, &args).unwrap_err();
        assert!(err.to_string().contains("light"), "the error lists the wire names: {err}");
    }
}
