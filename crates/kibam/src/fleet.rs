//! Heterogeneous battery fleets.
//!
//! The paper schedules identical batteries, but its Section 7 outlook — and
//! the whole point of scheduling — is mixed systems, e.g. one B1 next to one
//! B2. A [`FleetSpec`] is the construction-time description of such a
//! system: an ordered list of per-battery [`BatteryParams`] plus derived
//! *type-group* metadata (batteries with bit-identical parameters share a
//! type). Every layer above — discretized state, battery-model backends,
//! the optimal search's symmetry pruning and canonical state keys — is
//! built from a fleet; [`FleetSpec::uniform`] is the convenience
//! constructor that recovers the paper's `params × count` systems.

use crate::{BatteryParams, KibamError};

/// An ordered list of per-battery parameters with type-group metadata.
///
/// Batteries whose [`BatteryParams`] compare equal belong to the same
/// *type group*; type ids are assigned in order of first appearance, so a
/// `B1 + B2 + B1` fleet has type ids `[0, 1, 0]`. Schedulers use the
/// groups for symmetry pruning (only same-type batteries are
/// interchangeable) and for canonical state keys (state words are sorted
/// *within* a type group, never across groups).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    params: Vec<BatteryParams>,
    type_ids: Vec<usize>,
    type_params: Vec<BatteryParams>,
}

impl FleetSpec {
    /// Creates a fleet from explicit per-battery parameters, in battery
    /// index order.
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::EmptyFleet`] if `params` is empty.
    pub fn new(params: Vec<BatteryParams>) -> Result<Self, KibamError> {
        if params.is_empty() {
            return Err(KibamError::EmptyFleet);
        }
        let mut type_ids = Vec::with_capacity(params.len());
        let mut type_params: Vec<BatteryParams> = Vec::new();
        for battery in &params {
            let type_id = match type_params.iter().position(|p| p == battery) {
                Some(existing) => existing,
                None => {
                    type_params.push(*battery);
                    type_params.len() - 1
                }
            };
            type_ids.push(type_id);
        }
        Ok(Self { params, type_ids, type_params })
    }

    /// A fleet of `count` identical batteries — the paper's systems.
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::EmptyFleet`] if `count` is zero.
    pub fn uniform(params: BatteryParams, count: usize) -> Result<Self, KibamError> {
        Self::new(vec![params; count])
    }

    /// The number of batteries in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the fleet holds no batteries (never true for a constructed
    /// fleet; provided for clippy-idiomatic completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The per-battery parameters, in battery index order.
    #[must_use]
    pub fn params(&self) -> &[BatteryParams] {
        &self.params
    }

    /// The parameters of battery `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (battery indices come from the
    /// fleet itself, so an out-of-range index is a caller bug).
    #[must_use]
    pub fn battery(&self, index: usize) -> &BatteryParams {
        &self.params[index]
    }

    /// The type-group id of battery `index` (ids are dense, assigned in
    /// order of first appearance).
    #[must_use]
    pub fn type_of(&self, index: usize) -> usize {
        self.type_ids[index]
    }

    /// The type-group id of every battery, in battery index order.
    #[must_use]
    pub fn type_ids(&self) -> &[usize] {
        &self.type_ids
    }

    /// The number of distinct battery types in the fleet.
    #[must_use]
    pub fn type_count(&self) -> usize {
        self.type_params.len()
    }

    /// The representative parameters of type group `type_id`.
    #[must_use]
    pub fn type_params(&self, type_id: usize) -> &BatteryParams {
        &self.type_params[type_id]
    }

    /// Whether every battery in the fleet has identical parameters.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.type_params.len() == 1
    }

    /// The combined capacity of all batteries, in A·min.
    #[must_use]
    pub fn total_capacity(&self) -> f64 {
        self.params.iter().map(BatteryParams::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fleet_has_one_type_group() {
        let fleet = FleetSpec::uniform(BatteryParams::itsy_b1(), 3).unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(fleet.is_uniform());
        assert_eq!(fleet.type_count(), 1);
        assert_eq!(fleet.type_ids(), &[0, 0, 0]);
        assert!((fleet.total_capacity() - 16.5).abs() < 1e-12);
        assert_eq!(fleet.battery(2), &BatteryParams::itsy_b1());
    }

    #[test]
    fn mixed_fleet_groups_by_first_appearance() {
        let b1 = BatteryParams::itsy_b1();
        let b2 = BatteryParams::itsy_b2();
        let fleet = FleetSpec::new(vec![b1, b2, b1]).unwrap();
        assert!(!fleet.is_uniform());
        assert_eq!(fleet.type_count(), 2);
        assert_eq!(fleet.type_ids(), &[0, 1, 0]);
        assert_eq!(fleet.type_of(1), 1);
        assert_eq!(fleet.type_params(0), &b1);
        assert_eq!(fleet.type_params(1), &b2);
        assert!((fleet.total_capacity() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fleets_are_rejected() {
        assert!(matches!(FleetSpec::new(vec![]), Err(KibamError::EmptyFleet)));
        assert!(matches!(
            FleetSpec::uniform(BatteryParams::itsy_b1(), 0),
            Err(KibamError::EmptyFleet)
        ));
        assert!(!FleetSpec::uniform(BatteryParams::itsy_b1(), 1).unwrap().is_empty());
    }

    #[test]
    fn type_identity_is_exact_parameter_equality() {
        let b1 = BatteryParams::itsy_b1();
        let almost = BatteryParams::new(b1.capacity() + 1e-9, b1.c(), b1.k_prime()).unwrap();
        let fleet = FleetSpec::new(vec![b1, almost]).unwrap();
        assert_eq!(fleet.type_count(), 2, "nearly-equal parameters are distinct types");
    }
}
