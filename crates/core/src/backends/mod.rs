//! Battery-model backends implementing [`crate::model::BatteryModel`].
//!
//! Four backends ship with the crate, all constructible from a
//! heterogeneous [`kibam::FleetSpec`] (with a uniform `params × count`
//! convenience constructor):
//!
//! * [`DiscretizedKibam`] — the discretized KiBaM of Section 2.3 (integer
//!   charge and height units, precomputed per-type recovery tables). This
//!   is the model the paper's TA encoding explores and the default for all
//!   Table 5 experiments.
//! * [`ContinuousKibam`] — the closed-form continuous KiBaM of Section 2.2.
//!   Jobs become constant-current intervals solved analytically, which makes
//!   stepping cost independent of the discretization and provides an
//!   independent cross-check of the discretized results (the ~1–2 %
//!   agreement of Tables 3 and 4).
//! * [`RvDiffusion`] — the Rakhmatov–Vrudhula diffusion model (the `rv`
//!   crate), parameter-fitted per battery type from the fleet's KiBaM
//!   parameters: the structurally different chemistry that cross-validates
//!   the scheduling conclusions (same recovery and rate-capacity effects,
//!   different spectrum — the KiBaM is its one-term truncation).
//! * [`IdealBattery`] — a linear battery with no rate-capacity or recovery
//!   effect: the cross-model baseline that isolates how much the battery
//!   nonlinearities cost on a given load.
//!
//! The two table-driven backends step their batteries through the batch
//! kernels of their model crates ([`dkibam::DiscreteBatch`],
//! [`rv::RvBatch`](::rv::RvBatch), one lane per battery) and share their tables through an
//! `Arc`, so a clone of a built system copies only its battery state. The
//! scalar forms of the same dynamics — [`dkibam::multi::MultiBatteryState`]
//! and per-cell [`rv::RvCell`](::rv::RvCell) stepping — are the references the lockstep
//! tests hold them bit-identical to.

mod continuous;
mod discrete;
mod ideal;
mod rv;

pub use continuous::{ContinuousCell, ContinuousKibam};
pub use discrete::DiscretizedKibam;
pub use ideal::{IdealBattery, IdealCell};
pub use rv::RvDiffusion;

#[cfg(test)]
mod lockstep {
    //! Lockstep tests for the table-driven backends. Each steps its batteries
    //! through a batch kernel; here it runs side by side with the scalar
    //! reference of the same dynamics — [`MultiBatteryState`] for the
    //! discretized KiBaM, per-cell [`RvCell`] stepping for the RV model — over
    //! seeded jobs, idle periods, degenerate jobs, retirements and search-style
    //! save → reset → restore cycles, comparing every observable the simulator
    //! and the search read after every epoch.

    use super::{DiscretizedKibam, RvDiffusion};
    use crate::model::{BatteryModel, StateKey};
    use dkibam::multi::MultiBatteryState;
    use dkibam::{DiscreteFleet, Discretization};
    use kibam::{BatteryParams, FleetSpec};
    use rv::{RvCell, RvFleet};
    use std::sync::Arc;
    use workload::random::SplitMix64;

    /// Everything the simulator and the search read from a system, with every
    /// charge as raw bits so the comparison is exact.
    #[derive(Debug, PartialEq)]
    struct Observed {
        key: Option<StateKey>,
        total: u64,
        usable: u64,
        /// Per battery: total and available charge bits, emptiness.
        batteries: Vec<(u64, u64, bool)>,
        /// `states_identical` for every ordered pair of batteries.
        identical: Vec<bool>,
    }

    fn observe<M: BatteryModel>(model: &M) -> Observed {
        let n = model.battery_count();
        Observed {
            key: model.memo_key(),
            total: model.total_charge().to_bits(),
            usable: model.usable_charge().to_bits(),
            batteries: (0..n)
                .map(|i| {
                    let charge = model.charge(i);
                    (charge.total.to_bits(), charge.available.to_bits(), model.is_empty(i))
                })
                .collect(),
            identical: (0..n * n).map(|p| model.states_identical(p / n, p % n)).collect(),
        }
    }

    /// The scalar reference stepping of one backend's dynamics.
    trait Reference: Clone {
        fn reset(&mut self);
        fn advance_idle(&mut self, steps: u64);
        /// Steps consumed and whether the job portion completed.
        fn advance_job(
            &mut self,
            active: usize,
            steps: u64,
            interval: u32,
            units: u32,
        ) -> (u64, bool);
        fn observe(&self) -> Observed;
    }

    #[derive(Clone)]
    struct DiscreteReference {
        fleet: Arc<DiscreteFleet>,
        state: MultiBatteryState,
    }

    impl Reference for DiscreteReference {
        fn reset(&mut self) {
            self.state = MultiBatteryState::new_full(&self.fleet);
        }

        fn advance_idle(&mut self, steps: u64) {
            self.state.advance_idle(steps, &self.fleet);
        }

        fn advance_job(
            &mut self,
            active: usize,
            steps: u64,
            interval: u32,
            units: u32,
        ) -> (u64, bool) {
            let advance =
                self.state.advance_job(active, steps, interval, units, &self.fleet).unwrap();
            (advance.steps_consumed, advance.completed)
        }

        fn observe(&self) -> Observed {
            let fleet = &self.fleet;
            let batteries = self.state.batteries();
            let unit = fleet.disc().charge_unit();
            let n = batteries.len();
            Observed {
                key: StateKey::from_typed_words(
                    batteries.iter().enumerate().map(|(i, b)| (fleet.type_of(i), b.state_word())),
                ),
                total: (self.state.total_charge_units() as f64 * unit).to_bits(),
                usable: batteries
                    .iter()
                    .filter(|b| !b.is_observed_empty())
                    .map(|b| f64::from(b.charge_units()) * unit)
                    .sum::<f64>()
                    .to_bits(),
                batteries: batteries
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let available = b.available_charge(fleet.params_of(i), fleet.disc());
                        let empty = b.is_empty(fleet.params_of(i));
                        (b.total_charge(fleet.disc()).to_bits(), available.to_bits(), empty)
                    })
                    .collect(),
                identical: (0..n * n)
                    .map(|p| {
                        let (a, b) = (p / n, p % n);
                        fleet.type_of(a) == fleet.type_of(b) && batteries[a] == batteries[b]
                    })
                    .collect(),
            }
        }
    }

    #[derive(Clone)]
    struct RvReference {
        fleet: Arc<RvFleet>,
        cells: Vec<RvCell>,
    }

    impl RvReference {
        fn recover_others(&mut self, active: Option<usize>, steps: u64) {
            for (index, cell) in self.cells.iter_mut().enumerate() {
                if Some(index) != active {
                    self.fleet.table_of(index).recover(cell, steps);
                }
            }
        }
    }

    impl Reference for RvReference {
        fn reset(&mut self) {
            self.cells.fill(RvCell::fresh());
        }

        fn advance_idle(&mut self, steps: u64) {
            self.recover_others(None, steps);
        }

        fn advance_job(
            &mut self,
            active: usize,
            steps: u64,
            interval: u32,
            units: u32,
        ) -> (u64, bool) {
            if interval == 0 || units == 0 {
                self.advance_idle(steps);
                return (steps, true);
            }
            let table = self.fleet.table_of(active);
            if table.is_empty(&self.cells[active]) {
                self.cells[active].mark_observed_empty();
                return (0, false);
            }
            let advance = table.serve(&mut self.cells[active], steps, interval, units);
            self.recover_others(Some(active), advance.steps_consumed);
            (advance.steps_consumed, advance.completed)
        }

        fn observe(&self) -> Observed {
            let fleet = &self.fleet;
            let cells = &self.cells;
            let n = cells.len();
            let words: Option<Vec<(usize, u128)>> = cells
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    fleet.table_of(i).state_word(cell).map(|word| (fleet.type_of(i), word))
                })
                .collect();
            let totals: Vec<f64> =
                cells.iter().enumerate().map(|(i, c)| fleet.table_of(i).total_charge(c)).collect();
            Observed {
                key: words.and_then(StateKey::from_typed_words),
                total: totals.iter().sum::<f64>().to_bits(),
                usable: cells
                    .iter()
                    .zip(&totals)
                    .filter(|(cell, _)| !cell.is_observed_empty())
                    .map(|(_, total)| total)
                    .sum::<f64>()
                    .to_bits(),
                batteries: cells
                    .iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        let table = fleet.table_of(i);
                        let apparent = table.apparent_charge(cell).to_bits();
                        (totals[i].to_bits(), apparent, table.is_empty(cell))
                    })
                    .collect(),
                identical: (0..n * n)
                    .map(|p| {
                        let (a, b) = (p / n, p % n);
                        fleet.type_of(a) == fleet.type_of(b) && cells[a] == cells[b]
                    })
                    .collect(),
            }
        }
    }

    /// Runs `epochs` seeded epochs on both sides, comparing after each one.
    /// Every 40th epoch is a search-style excursion: save the state (in place),
    /// reset, explore a few epochs, restore. A fleet that has died is reset so
    /// the run keeps exercising live batteries; returns the retirements seen.
    fn lockstep<M: BatteryModel, R: Reference>(
        model: &mut M,
        reference: &mut R,
        seed: u64,
        epochs: usize,
    ) -> usize {
        let n = model.battery_count();
        let mut rng = SplitMix64::new(seed);
        let mut saved = model.save_state();
        let mut retirements = 0;
        let mut epoch = |model: &mut M, reference: &mut R, rng: &mut SplitMix64, at: String| {
            if rng.next_index(5) == 0 {
                let steps = rng.next_u64() % 2_000;
                model.advance_idle(steps);
                reference.advance_idle(steps);
            } else {
                let active = rng.next_index(n);
                let steps = rng.next_u64() % 1_500;
                // Index 0 of each draws the degenerate, draw-free job.
                let interval = u32::try_from(rng.next_index(5)).unwrap();
                let units = u32::try_from(rng.next_index(3)).unwrap();
                let advance = model.advance_job(active, steps, interval, units).unwrap();
                let expected = reference.advance_job(active, steps, interval, units);
                assert_eq!((advance.steps_consumed, advance.completed), expected, "{at}");
                if !advance.completed {
                    retirements += 1;
                }
            }
            assert_eq!(observe(model), reference.observe(), "{at}");
        };
        assert_eq!(observe(model), reference.observe(), "seed {seed}: fresh systems");
        for at in 0..epochs {
            epoch(model, reference, &mut rng, format!("seed {seed}, epoch {at}"));
            if at % 40 == 39 {
                model.save_state_into(&mut saved);
                let reference_saved = reference.clone();
                model.reset();
                reference.reset();
                assert_eq!(observe(model), reference.observe(), "seed {seed}, reset at {at}");
                for step in 0..5 {
                    epoch(
                        model,
                        reference,
                        &mut rng,
                        format!("seed {seed}, excursion {at}.{step}"),
                    );
                }
                model.restore_state(&saved);
                *reference = reference_saved;
                assert_eq!(observe(model), reference.observe(), "seed {seed}, restore at {at}");
            }
            if (0..n).all(|i| model.is_empty(i)) {
                model.reset();
                reference.reset();
            }
        }
        assert!(model.advance_job(n, 10, 2, 1).is_err(), "battery indices are bounds-checked");
        retirements
    }

    fn fleets() -> [FleetSpec; 2] {
        let b1 = BatteryParams::itsy_b1();
        [
            FleetSpec::uniform(b1, 2).unwrap(),
            FleetSpec::new(vec![b1, BatteryParams::itsy_b2()]).unwrap(),
        ]
    }

    #[test]
    fn discretized_kibam_steps_in_lockstep_with_the_multi_battery_state() {
        let disc = Discretization::paper_default();
        for fleet in fleets() {
            for seed in [0xD5_0909, 42] {
                let mut model = DiscretizedKibam::from_fleet(&fleet, &disc);
                let shared = Arc::clone(model.fleet());
                let mut reference = DiscreteReference {
                    state: MultiBatteryState::new_full(&shared),
                    fleet: shared,
                };
                let retirements = lockstep(&mut model, &mut reference, seed, 240);
                assert!(retirements > 0, "seed {seed}: the run must retire batteries");
            }
        }
    }

    #[test]
    fn rv_diffusion_steps_in_lockstep_with_scalar_rv_cells() {
        let disc = Discretization::paper_default();
        for fleet in fleets() {
            for seed in [0xB1B2, 7] {
                let mut model = RvDiffusion::from_fleet(&fleet, &disc);
                let shared = Arc::clone(model.fleet());
                let mut reference =
                    RvReference { cells: vec![RvCell::fresh(); shared.len()], fleet: shared };
                let retirements = lockstep(&mut model, &mut reference, seed, 240);
                assert!(retirements > 0, "seed {seed}: the run must retire batteries");
            }
        }
    }
}
