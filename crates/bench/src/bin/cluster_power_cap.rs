//! `cluster_power_cap` — nodes × power budget × all five policies, each
//! scored against FCFS per (nodes, budget). Flags and artefacts:
//! `actor_bench::sweep_driver`.

fn main() {
    actor_bench::sweep_driver::main("cluster_power_cap");
}
