//! Predictor feature vectors.
//!
//! Equation (2) of the paper defines the prediction function per target
//! configuration `T` as
//! `IPC_T = F_T(IPC_S, e(1,S), …, e(n,S))`:
//! the inputs are the IPC observed on the sampling configuration `S` plus the
//! rate (events per cycle) of each monitored event observed on `S`. An
//! [`EventRates`] value is exactly that ordered feature vector.

use serde::{Deserialize, Serialize};

use xeon_sim::{CounterVector, HwEvent};

use crate::event_set::EventSet;

/// The ordered feature vector consumed by the ACTOR predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRates {
    ipc: f64,
    rates: Vec<(HwEvent, f64)>,
}

impl EventRates {
    /// Builds the feature vector from raw counter totals and the monitored
    /// event set. Returns `None` when no cycles were recorded (nothing was
    /// sampled) and when the counters are not usable: a non-finite cycle
    /// count, or any non-finite feature (counters come from outside, and a
    /// NaN feature must never reach a predictor).
    pub fn from_counters(counters: &CounterVector, events: &EventSet) -> Option<Self> {
        let cycles = counters.get(HwEvent::Cycles);
        if !(cycles.is_finite() && cycles > 0.0) {
            return None;
        }
        let ipc = counters.get(HwEvent::Instructions) / cycles;
        let rates: Vec<(HwEvent, f64)> =
            events.events().iter().map(|&e| (e, counters.get(e) / cycles)).collect();
        (ipc.is_finite() && rates.iter().all(|(_, r)| r.is_finite())).then_some(Self { ipc, rates })
    }

    /// IPC observed on the sampling configuration.
    pub fn ipc(&self) -> f64 {
        self.ipc
    }

    /// Rate of one monitored event, if it is part of the feature vector.
    pub fn rate(&self, event: HwEvent) -> Option<f64> {
        self.rates.iter().find(|(e, _)| *e == event).map(|(_, r)| *r)
    }

    /// Number of features (`1 + number of monitored events`).
    pub fn dim(&self) -> usize {
        1 + self.rates.len()
    }

    /// The flat feature vector `[IPC, rate_1, …, rate_n]` in the event set's
    /// order — the exact input handed to the ANN ensemble.
    pub fn features(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        out.push(self.ipc);
        out.extend(self.rates.iter().map(|(_, r)| *r));
        out
    }

    /// Human-readable names matching [`EventRates::features`], for reports
    /// and model inspection.
    pub fn feature_names(events: &EventSet) -> Vec<String> {
        let mut names = Vec::with_capacity(events.len() + 1);
        names.push("IPC_sample".to_string());
        names.extend(events.events().iter().map(|e| format!("{}_per_cycle", e.mnemonic())));
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> CounterVector {
        let mut cv = CounterVector::zero();
        cv.set(HwEvent::Cycles, 2000.0);
        cv.set(HwEvent::Instructions, 3000.0);
        cv.set(HwEvent::L2Misses, 40.0);
        cv.set(HwEvent::Branches, 200.0);
        cv
    }

    #[test]
    fn features_follow_equation_2_ordering() {
        let set = EventSet::full();
        let rates = EventRates::from_counters(&counters(), &set).unwrap();
        assert!((rates.ipc() - 1.5).abs() < 1e-12);
        assert_eq!(rates.dim(), 13);
        let f = rates.features();
        assert_eq!(f.len(), 13);
        assert!((f[0] - 1.5).abs() < 1e-12, "first feature is the sampled IPC");
        // The L2 miss rate appears at its event-set position (offset by the IPC slot).
        let pos = set.events().iter().position(|e| *e == HwEvent::L2Misses).unwrap();
        assert!((f[pos + 1] - 0.02).abs() < 1e-12);
        assert_eq!(rates.rate(HwEvent::L2Misses), Some(0.02));
    }

    #[test]
    fn reduced_sets_shrink_the_vector() {
        let set = EventSet::reduced();
        let rates = EventRates::from_counters(&counters(), &set).unwrap();
        assert_eq!(rates.dim(), set.len() + 1);
        // Branches are not in the reduced set.
        assert_eq!(rates.rate(HwEvent::Branches), None);
    }

    #[test]
    fn no_cycles_means_no_features() {
        let set = EventSet::full();
        assert!(EventRates::from_counters(&CounterVector::zero(), &set).is_none());
    }

    #[test]
    fn non_finite_counters_mean_no_features() {
        for (event, value) in [
            (HwEvent::Cycles, f64::NAN),
            (HwEvent::Cycles, f64::INFINITY),
            (HwEvent::Instructions, f64::NAN),
        ] {
            let mut cv = counters();
            cv.set(event, value);
            assert!(
                EventRates::from_counters(&cv, &EventSet::full()).is_none(),
                "{event:?} = {value} must not yield features"
            );
        }
    }

    #[test]
    fn feature_names_align_with_features() {
        let set = EventSet::full();
        let names = EventRates::feature_names(&set);
        let rates = EventRates::from_counters(&counters(), &set).unwrap();
        assert_eq!(names.len(), rates.dim());
        assert_eq!(names[0], "IPC_sample");
        assert!(names[1..].iter().all(|n| n.ends_with("_per_cycle")));
    }
}
