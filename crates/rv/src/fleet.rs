//! Static per-fleet data of the discretized RV model.
//!
//! Exactly like `dkibam::DiscreteFleet`, the discretized RV model separates
//! dynamic state (the [`RvCell`]s, snapshotted and restored by search
//! schedulers at every node) from static data: the [`FleetSpec`], the
//! [`Discretization`], and one precomputed [`RvStepTable`] per battery
//! *type group* (identical batteries share a table). The RV parameters of
//! each type are derived from its KiBaM parameters through the cross-model
//! fit ([`RvParams::from_kibam`]), so the same `FleetSpec` drives every
//! backend of the comparison.

use crate::{RvParams, RvStepTable};
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};

/// The static side of a discretized RV multi-battery system: fleet
/// parameters, discretization and per-type correction tables.
#[derive(Debug, Clone)]
pub struct RvFleet {
    spec: FleetSpec,
    disc: Discretization,
    tables: Vec<RvStepTable>,
}

impl RvFleet {
    /// Builds the static data for a fleet: one correction table per
    /// distinct battery type, with RV parameters fitted from the type's
    /// KiBaM parameters.
    #[must_use]
    pub fn new(spec: FleetSpec, disc: Discretization) -> Self {
        let tables = (0..spec.type_count())
            .map(|t| {
                RvStepTable::new(&RvParams::from_kibam(spec.type_params(t)), &disc)
                    // xlint: allow(panic) -- fitted_terms is clamped to MAX_STEP_TERMS
                    .expect("fitted truncation orders stay within the stepping form's cap")
            })
            .collect();
        Self { spec, disc, tables }
    }

    /// The static data for `count` identical batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`FleetSpec::uniform`] and
    /// [`RvFleet::new`] to handle the error explicitly.
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

    /// The KiBaM parameters of battery `index` (the fit's input).
    #[must_use]
    pub fn params_of(&self, index: usize) -> &BatteryParams {
        self.spec.battery(index)
    }

    /// The fitted RV parameters of battery `index` (shared within its type
    /// group).
    #[must_use]
    pub fn rv_params_of(&self, index: usize) -> &RvParams {
        self.table_of(index).params()
    }

    /// The correction table of battery `index` (shared within its type
    /// group).
    #[must_use]
    pub fn table_of(&self, index: usize) -> &RvStepTable {
        &self.tables[self.spec.type_of(index)]
    }

    /// The type-group id of battery `index`.
    #[must_use]
    pub fn type_of(&self, index: usize) -> usize {
        self.spec.type_of(index)
    }

    /// The per-type correction tables, indexed by type-group id (the
    /// [`kernel`](crate::kernel) hoists its recovery decays per type).
    #[must_use]
    pub fn type_tables(&self) -> &[RvStepTable] {
        &self.tables
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
        let fleet = RvFleet::new(FleetSpec::new(vec![b1, b2, b1]).unwrap(), disc);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.tables.len(), 2, "one table per type, not per battery");
        assert!(std::ptr::eq(fleet.table_of(0), fleet.table_of(2)));
        assert!(!std::ptr::eq(fleet.table_of(0), fleet.table_of(1)));
        assert_eq!(fleet.type_of(0), fleet.type_of(2));
        assert_eq!(fleet.params_of(1), &b2);
        assert_eq!(fleet.rv_params_of(1).alpha(), 11.0);
        // Both types share the fitted diffusion rate (same c and k').
        assert_eq!(fleet.rv_params_of(0).beta_squared(), fleet.rv_params_of(1).beta_squared());
    }

    #[test]
    fn uniform_matches_the_explicit_construction() {
        let b1 = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let uniform = RvFleet::uniform(&b1, &disc, 2);
        let explicit = RvFleet::new(FleetSpec::uniform(b1, 2).unwrap(), disc);
        assert_eq!(uniform.spec(), explicit.spec());
        assert_eq!(uniform.table_of(0), explicit.table_of(0));
        assert_eq!(uniform.disc().time_step(), disc.time_step());
    }

    #[test]
    #[should_panic(expected = "battery count must be positive")]
    fn uniform_rejects_zero_batteries() {
        let _ = RvFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 0);
    }
}
