//! `scenario_sweep` — coordinated vs independent capping across machine
//! mixes, fault scenarios and arrival processes, scored against
//! `power-aware-dvfs` per mix. Flags and artefacts:
//! `actor_bench::sweep_driver`.

fn main() {
    actor_bench::sweep_driver::main("scenario_sweep");
}
