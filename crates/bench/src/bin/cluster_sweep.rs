//! `cluster_sweep` — the policy-search grid: every policy's mean cluster
//! ED² against FCFS across ~1000 cells (48 under `--fast`). Flags and
//! artefacts: `actor_bench::sweep_driver`.

fn main() {
    actor_bench::sweep_driver::main("cluster_sweep");
}
