//! The training kernel's steady state does not touch the allocator.
//!
//! A counting global allocator (hence a test binary of its own) measures one
//! training at 20 epochs and one at 40, with early stopping disabled. The
//! extra 20 epochs — each presenting every training sample and scoring the
//! validation set — may only add what the growth of `val_mse_history` costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use annlib::{Dataset, Mlp, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// [`System`] plus one bump of this thread's counter per allocation.
struct CountingAlloc;

thread_local! {
    // Per thread, so the harness's other threads do not disturb the count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// side effect with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn dataset(rng: &mut StdRng, n: usize) -> Dataset {
    let xs: Vec<Vec<f64>> =
        (0..n).map(|_| (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let ys = xs.iter().map(|x| vec![x[0] * x[1] - 0.5 * x[2] + x[3] * x[3]]).collect();
    Dataset::new(xs, ys).unwrap()
}

/// Allocations of one training run of `epochs` epochs, plus its report's
/// epoch count.
fn training_allocations(epochs: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(15);
    let train = dataset(&mut rng, 48);
    let val = dataset(&mut rng, 12);
    let mut net = Mlp::sigmoid_regressor(5, &[8, 4], 1, &mut rng).unwrap();
    let config = TrainConfig {
        max_epochs: epochs,
        patience: epochs + 1,
        weight_decay: 1e-4,
        ..Default::default()
    };
    let trainer = Trainer::new(config).unwrap();
    let (allocations, report) =
        allocations_during(|| trainer.train(&mut net, &train, &val, &mut rng).unwrap());
    (allocations, report.epochs_run)
}

/// Allocations of pushing `n` values onto a fresh `Vec<f64>`, the way the
/// trainer records its validation history.
fn history_allocations(n: usize) -> usize {
    allocations_during(|| {
        let mut history = Vec::new();
        for i in 0..n {
            history.push(i as f64);
        }
        std::hint::black_box(history)
    })
    .0
}

#[test]
fn epochs_beyond_the_first_make_no_heap_allocations() {
    let (short, short_epochs) = training_allocations(20);
    let (long, long_epochs) = training_allocations(40);
    assert_eq!((short_epochs, long_epochs), (20, 40), "early stopping must stay off");
    let history_growth = history_allocations(40) - history_allocations(20);
    assert!(
        long.saturating_sub(short) <= history_growth,
        "20 more epochs made {} more allocations ({short} -> {long}); only the history's \
         growth ({history_growth}) is allowed",
        long.saturating_sub(short),
    );
}
