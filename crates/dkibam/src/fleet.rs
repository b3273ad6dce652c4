//! Static per-fleet data of the discretized model.
//!
//! The discretized KiBaM separates a multi-battery system into *dynamic*
//! state (one [`crate::DiscreteBattery`] per battery, snapshotted and restored
//! by search schedulers at every node) and *static* data, which never changes
//! during a simulation: the per-battery [`BatteryParams`] of the
//! [`FleetSpec`], the [`Discretization`], and one precomputed
//! [`RecoveryTable`] per battery *type group* (identical batteries share a
//! table, so a `2×B1 + 1×B2` fleet builds two tables, not three). A
//! [`DiscreteFleet`] bundles that static side, which every copy of a system
//! shares. Its one mutable part is the per-type [`EnvelopeStore`]: the
//! service envelopes the optimal search builds, kept for every later search
//! on the same system.

use crate::{Discretization, EnvelopeStore, RecoveryTable, ServiceRateTable};
use kibam::{BatteryParams, FleetSpec};

/// The static side of a discretized multi-battery system: fleet parameters,
/// discretization, per-type recovery tables and per-type envelope stores
/// (each holding its type's service-rate table).
#[derive(Debug)]
pub struct DiscreteFleet {
    spec: FleetSpec,
    disc: Discretization,
    tables: Vec<RecoveryTable>,
    envelopes: Vec<EnvelopeStore>,
}

impl DiscreteFleet {
    /// Builds the static data for a fleet: one recovery table and one
    /// envelope store over a service-rate table per distinct battery type.
    #[must_use]
    pub fn new(spec: FleetSpec, disc: Discretization) -> Self {
        let tables: Vec<RecoveryTable> = (0..spec.type_count())
            .map(|t| RecoveryTable::for_battery(spec.type_params(t), &disc))
            .collect();
        let envelopes = tables
            .iter()
            .enumerate()
            .map(|(t, table)| {
                EnvelopeStore::new(ServiceRateTable::from_recovery(
                    spec.type_params(t),
                    &disc,
                    table,
                ))
            })
            .collect();
        Self { spec, disc, tables, envelopes }
    }

    /// The static data for `count` identical batteries (the paper's
    /// systems).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`FleetSpec::uniform`] and
    /// [`DiscreteFleet::new`] to handle the error explicitly.
    #[must_use]
    pub fn uniform(params: &BatteryParams, disc: &Discretization, count: usize) -> Self {
        // xlint: allow(panic) -- documented `# Panics` convenience constructor
        let spec = FleetSpec::uniform(*params, count).expect("battery count must be positive");
        Self::new(spec, *disc)
    }

    /// The fleet description.
    #[must_use]
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The discretization shared by all batteries.
    #[must_use]
    pub fn disc(&self) -> &Discretization {
        &self.disc
    }

    /// The number of batteries in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spec.len()
    }

    /// Whether the fleet holds no batteries (never true for a constructed
    /// fleet).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spec.is_empty()
    }

    /// The parameters of battery `index`.
    #[must_use]
    pub fn params_of(&self, index: usize) -> &BatteryParams {
        self.spec.battery(index)
    }

    /// The recovery table of battery `index` (shared within its type group).
    #[must_use]
    pub fn table_of(&self, index: usize) -> &RecoveryTable {
        &self.tables[self.spec.type_of(index)]
    }

    /// The envelope store of battery `index` (shared within its type group
    /// and by every search on this fleet), with the type's service-rate
    /// table, used by the availability-aware search bound.
    #[must_use]
    pub fn envelopes_of(&self, index: usize) -> &EnvelopeStore {
        &self.envelopes[self.spec.type_of(index)]
    }

    /// The type-group id of battery `index`.
    #[must_use]
    pub fn type_of(&self, index: usize) -> usize {
        self.spec.type_of(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_shared_within_type_groups() {
        let b1 = BatteryParams::itsy_b1();
        let b2 = BatteryParams::itsy_b2();
        let disc = Discretization::paper_default();
        let fleet = DiscreteFleet::new(FleetSpec::new(vec![b1, b2, b1]).unwrap(), disc);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.tables.len(), 2, "one table per type, not per battery");
        assert_eq!(fleet.type_of(0), fleet.type_of(2));
        assert!(std::ptr::eq(fleet.table_of(0), fleet.table_of(2)));
        assert!(!std::ptr::eq(fleet.table_of(0), fleet.table_of(1)));
        assert_eq!(fleet.params_of(1), &b2);
        assert_eq!(fleet.disc().time_step(), disc.time_step());
    }

    #[test]
    fn service_tables_follow_each_battery_type() {
        let b1 = BatteryParams::itsy_b1();
        let b2 = BatteryParams::itsy_b2();
        let disc = Discretization::coarse();
        let fleet = DiscreteFleet::new(FleetSpec::new(vec![b2, b1, b2]).unwrap(), disc);
        let service_of = |index| fleet.envelopes_of(index).table();
        assert!(std::ptr::eq(fleet.envelopes_of(0), fleet.envelopes_of(2)));
        for index in 0..fleet.len() {
            let params = fleet.params_of(index);
            assert_eq!(
                service_of(index),
                &ServiceRateTable::for_battery(params, &disc),
                "battery {index}: the shared table is its own type's"
            );
            assert_eq!(fleet.table_of(index), &RecoveryTable::for_battery(params, &disc));
        }
        assert_ne!(service_of(0), service_of(1), "B1 and B2 differ");
    }

    #[test]
    fn uniform_matches_the_explicit_construction() {
        let b1 = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let uniform = DiscreteFleet::uniform(&b1, &disc, 2);
        let explicit = DiscreteFleet::new(FleetSpec::uniform(b1, 2).unwrap(), disc);
        assert_eq!(uniform.spec(), explicit.spec());
        assert_eq!(uniform.table_of(0).max_units(), explicit.table_of(0).max_units());
    }

    #[test]
    #[should_panic(expected = "battery count must be positive")]
    fn uniform_rejects_zero_batteries() {
        let _ =
            DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 0);
    }
}
