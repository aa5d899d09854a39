//! Report tables (per-job and cluster-level) over `core::report::Table`.

use actor_core::report::{fmt3, Table};

use crate::cluster::ClusterReport;
use crate::job::JobOutcome;

fn config_summary(outcome: &JobOutcome) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (_, config) in &outcome.decisions {
        let label = config.label().to_string();
        match parts.last_mut() {
            Some(last) if last.split('×').next_back() == Some(label.as_str()) => {
                // Collapse runs like "4,4,4" into "3×4".
                let (count, _) = last.split_once('×').unwrap_or(("1", label.as_str()));
                let count: usize = count.parse().unwrap_or(1);
                *last = format!("{}×{label}", count + 1);
            }
            _ => parts.push(format!("1×{label}")),
        }
    }
    parts.join(" ")
}

/// Per-job table: one row per completed job, in completion order.
pub fn job_table(report: &ClusterReport) -> Table {
    let mut table = Table::new(vec![
        "job", "bench", "prio", "nodes", "arrive s", "start s", "finish s", "wait s", "exec s",
        "energy J", "peak W", "ED2 J.s2", "deadline", "configs",
    ]);
    for o in &report.outcomes {
        table.push_row(vec![
            o.job.id.to_string(),
            o.job.benchmark.to_string(),
            o.job.priority.to_string(),
            o.nodes.iter().map(ToString::to_string).collect::<Vec<_>>().join("+"),
            fmt3(o.job.arrival_s),
            fmt3(o.start_s),
            fmt3(o.finish_s),
            fmt3(o.wait_s()),
            fmt3(o.exec_s()),
            fmt3(o.energy_j),
            fmt3(o.peak_power_w),
            fmt3(o.ed2()),
            match o.job.deadline_s {
                Some(_) if o.deadline_met() => "met".to_string(),
                Some(_) => "MISSED".to_string(),
                None => "-".to_string(),
            },
            config_summary(o),
        ]);
    }
    table
}

/// One run's row of the cluster-level comparison table (the one definition
/// of the row format; [`cluster_summary_table`] delegates here).
pub fn cluster_summary_row(r: &ClusterReport) -> Vec<String> {
    vec![
        r.policy.clone(),
        r.nodes.to_string(),
        fmt3(r.power_budget_w),
        r.outcomes.len().to_string(),
        fmt3(r.makespan_s),
        fmt3(r.total_energy_j / 1e3),
        fmt3(r.total_energy_j / r.makespan_s.max(1e-12)),
        fmt3(r.peak_power_w),
        fmt3(r.cluster_ed2() / 1e6),
        fmt3(r.avg_wait_s()),
        r.deadline_misses().to_string(),
        fmt3(r.throttle_fraction() * 100.0),
        r.cap_violations.to_string(),
    ]
}

/// Cluster-level comparison table: one row per run.
pub fn cluster_summary_table(reports: &[ClusterReport]) -> Table {
    let mut table = Table::new(vec![
        "policy",
        "nodes",
        "budget W",
        "jobs",
        "makespan s",
        "energy kJ",
        "avg power W",
        "peak W",
        "cluster ED2 MJ.s2",
        "avg wait s",
        "misses",
        "throttled %",
        "cap viol",
    ]);
    for r in reports {
        table.push_row(cluster_summary_row(r));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use npb_workloads::BenchmarkId;
    use xeon_sim::Configuration;

    fn outcome() -> JobOutcome {
        JobOutcome {
            job: Job {
                id: 3,
                benchmark: BenchmarkId::Is,
                arrival_s: 1.0,
                nodes: 2,
                priority: 2,
                deadline_s: Some(4.0),
                duration_scale: 1.0,
            },
            nodes: vec![0, 1],
            start_s: 2.0,
            finish_s: 5.0,
            energy_j: 450.0,
            peak_power_w: 150.0,
            completed: true,
            decisions: vec![
                ("p0".into(), Configuration::Four),
                ("p1".into(), Configuration::Four),
                ("p2".into(), Configuration::TwoLoose),
            ],
        }
    }

    fn report() -> ClusterReport {
        ClusterReport {
            policy: "fcfs".into(),
            nodes: 2,
            machines: "uniform".into(),
            power_budget_w: 400.0,
            outcomes: vec![outcome()],
            makespan_s: 5.0,
            total_energy_j: 1500.0,
            peak_power_w: 380.0,
            cap_violations: 0,
            node_failures: 0,
            killed_jobs: 0,
        }
    }

    #[test]
    fn job_table_has_one_row_per_outcome_and_flags_misses() {
        let r = report();
        let t = job_table(&r);
        assert_eq!(t.len(), 1);
        let text = t.to_text();
        assert!(text.contains("MISSED"), "finish 5.0 > deadline 4.0: {text}");
        assert!(text.contains("2×4 1×2b"), "config runs collapse: {text}");
    }

    #[test]
    fn summary_table_reports_cluster_metrics() {
        let r = report();
        let t = cluster_summary_table(std::slice::from_ref(&r));
        let text = t.to_text();
        assert!(text.contains("fcfs"));
        let csv = t.to_csv();
        assert!(csv.lines().count() == 2);
    }
}
