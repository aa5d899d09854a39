//! `coordinated_capping` — the power-aware policies at 8 nodes across
//! budgets, scored against independent `power-aware-dvfs` per budget.
//! Flags and artefacts: `actor_bench::sweep_driver`.

fn main() {
    actor_bench::sweep_driver::main("coordinated_capping");
}
