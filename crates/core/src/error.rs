use std::error::Error;
use std::fmt;

/// Errors produced by the battery-scheduling library.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// A system was configured with no batteries.
    NoBatteries,
    /// A fixed schedule referred to a battery index outside the system.
    InvalidBatteryIndex {
        /// The offending index.
        index: usize,
        /// The number of batteries in the system.
        count: usize,
    },
    /// The optimal-schedule search exceeded its node budget.
    SearchBudgetExceeded {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// An error from the discretized battery model.
    Dkibam(dkibam::DkibamError),
    /// An error from the continuous battery model.
    Kibam(kibam::KibamError),
    /// An error from the workload model.
    Workload(workload::WorkloadError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoBatteries => write!(f, "a battery system needs at least one battery"),
            SchedError::InvalidBatteryIndex { index, count } => {
                write!(f, "battery index {index} is out of range for a system of {count} batteries")
            }
            SchedError::SearchBudgetExceeded { budget } => {
                write!(f, "optimal-schedule search exceeded its budget of {budget} nodes")
            }
            SchedError::Dkibam(e) => write!(f, "discrete battery model error: {e}"),
            SchedError::Kibam(e) => write!(f, "battery model error: {e}"),
            SchedError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Dkibam(e) => Some(e),
            SchedError::Kibam(e) => Some(e),
            SchedError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dkibam::DkibamError> for SchedError {
    fn from(e: dkibam::DkibamError) -> Self {
        SchedError::Dkibam(e)
    }
}

impl From<kibam::KibamError> for SchedError {
    fn from(e: kibam::KibamError) -> Self {
        SchedError::Kibam(e)
    }
}

impl From<workload::WorkloadError> for SchedError {
    fn from(e: workload::WorkloadError) -> Self {
        SchedError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SchedError::NoBatteries.to_string().contains("at least one"));
        assert!(SchedError::InvalidBatteryIndex { index: 4, count: 2 }.to_string().contains('4'));
        assert!(SchedError::SearchBudgetExceeded { budget: 10 }.to_string().contains("10"));
    }

    #[test]
    fn wraps_sub_crate_errors_with_sources() {
        let e: SchedError = dkibam::DkibamError::EmptyLoad.into();
        assert!(e.source().is_some());
        let e: SchedError = kibam::KibamError::InvalidCapacity { value: 0.0 }.into();
        assert!(e.source().is_some());
        let e: SchedError = workload::WorkloadError::EmptyProfile.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn implements_std_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SchedError>();
    }
}
