//! # actor-bench — the benchmark harness regenerating every figure of the paper
//!
//! One binary per table/figure of the evaluation (see DESIGN.md §5 for the
//! experiment index):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig1_exec_time` | Figure 1 — execution time per configuration |
//! | `fig2_sp_phase_ipc` | Figure 2 — per-phase IPC of SP |
//! | `fig3_power_energy` | Figure 3 — power and energy per configuration |
//! | `fig6_error_cdf` | Figure 6 — CDF of IPC prediction error |
//! | `fig7_rank_accuracy` | Figure 7 — rank of the selected configuration |
//! | `fig8_adaptation` | Figure 8 — adaptation vs oracle strategies |
//! | `summary_stats` | the headline numbers quoted in Sections III & V |
//! | `ablation_predictors` | ANN vs linear regression vs empirical search |
//! | `manycore_projection` | extension: the same study on an 8-core machine |
//! | `fig_dvfs_dct` | extension: joint DVFS + concurrency throttling under a cap |
//! | `cluster_sweep` | extension: ~1000-cell policy-search grid, scored vs FCFS |
//! | `cluster_power_cap` | extension: nodes × power budget × policy, scored vs FCFS |
//! | `coordinated_capping` | extension: coordinated vs independent capping per budget |
//! | `scenario_sweep` | extension: the same per machine mix, with faults and bursts |
//! | `cluster_daemon` | extension: serve a sweep grid to external workers |
//! | `cluster_worker` | extension: execute sweep cells for a daemon |
//! | `decision_bench` | hot-path headlines: decisions/s, events/s, trace overhead |
//! | `trace_tool` | trace stats / filter / check / merge |
//! | `bench_check` | CI: bench-trajectory collector + regression gate |
//! | `doc_links` | CI: dead relative links in the prose docs |
//!
//! The four cluster sweep bins are presets of one driver
//! ([`sweep_driver`]) and share one output schema ([`sweep_out`]).
//! Every binary goes through the shared [`harness`]: arguments are parsed by
//! [`BenchArgs`] (`--fast`, `--scalability-only`, `--seed N`, `--trace
//! PATH`, and for the sweep binaries `--jobs N`, `--processes N` and
//! `--grid SPEC`), the studies
//! run through `actor_suite::ExperimentBuilder`, and all output is routed
//! through the [`FileReporter`] — aligned tables on stdout plus CSV/JSON
//! artefacts under `results/` for re-plotting.
//!
//! `benches/micro.rs` holds the Criterion microbenchmarks backing the paper's
//! overhead arguments (prediction is cheap; search scales with the number of
//! configurations).

pub mod alloc_count;
pub mod harness;
pub mod sweep_driver;
pub mod sweep_out;
pub mod trace_ops;

pub use alloc_count::allocation_count;
pub use harness::{BenchArgs, FileReporter, Harness};
