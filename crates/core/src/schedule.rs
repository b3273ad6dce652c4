//! Schedules and charge traces produced by a simulation.
//!
//! A [`Schedule`] records which battery served which (portion of a) job; a
//! [`SystemTrace`] records the evolution of total and available charge of
//! every battery over time, which is exactly the data plotted in Figure 6 of
//! the paper.

use dkibam::Discretization;

/// One assignment of a battery to a (portion of a) job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Sequence number of the scheduling decision (0-based).
    pub decision_index: usize,
    /// The job (0-based, counting only job epochs) this assignment serves.
    pub job_index: usize,
    /// The battery chosen.
    pub battery: usize,
    /// First time step of the assignment (inclusive).
    pub start_step: u64,
    /// Last time step of the assignment (exclusive).
    pub end_step: u64,
    /// Whether this assignment continues a job after another battery was
    /// observed empty.
    pub continuation: bool,
}

/// The complete schedule of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The assignments in chronological order.
    pub assignments: Vec<Assignment>,
}

impl Schedule {
    /// The battery chosen at each scheduling decision, in decision order.
    /// This is the format [`crate::policy::FixedSchedule`] replays.
    #[must_use]
    pub fn decisions(&self) -> Vec<usize> {
        self.assignments.iter().map(|a| a.battery).collect()
    }

    /// The number of times the schedule switches from one battery to a
    /// different one between consecutive assignments.
    #[must_use]
    pub fn switches(&self) -> usize {
        self.assignments.windows(2).filter(|w| w[0].battery != w[1].battery).count()
    }

    /// How many assignments each battery received, indexed by battery.
    #[must_use]
    pub fn assignments_per_battery(&self, battery_count: usize) -> Vec<usize> {
        let mut counts = vec![0; battery_count];
        for assignment in &self.assignments {
            if assignment.battery < battery_count {
                counts[assignment.battery] += 1;
            }
        }
        counts
    }
}

/// The charge of one battery at one sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryCharge {
    /// Total remaining charge `γ` (A·min).
    pub total: f64,
    /// Charge in the available-charge well (A·min).
    pub available: f64,
}

/// One sample of the whole system, as plotted in Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemTracePoint {
    /// Sample time in minutes.
    pub time: f64,
    /// Per-battery charge at that time, indexed by battery.
    pub charges: Vec<BatteryCharge>,
    /// The battery serving the load at that time, if any (the "chosen
    /// battery" stair-step curve of Figure 6; `None` during idle periods and
    /// after system death).
    pub active: Option<usize>,
}

/// A sampled trace of a whole simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemTrace {
    /// The samples in time order.
    pub points: Vec<SystemTracePoint>,
}

impl SystemTrace {
    /// Whether the trace holds any samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Renders the trace as CSV with one row per sample:
    /// `time, total_0, available_0, ..., total_{B-1}, available_{B-1}, active`.
    /// The active column is empty when no battery is serving. This is the
    /// format consumed by the Figure 6 generator in the bench crate.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let battery_count = self.points.first().map(|p| p.charges.len()).unwrap_or(0);
        let mut out = String::from("time");
        for battery in 0..battery_count {
            out.push_str(&format!(",total_{battery},available_{battery}"));
        }
        out.push_str(",active\n");
        for point in &self.points {
            out.push_str(&format!("{:.4}", point.time));
            for charge in &point.charges {
                out.push_str(&format!(",{:.4},{:.4}", charge.total, charge.available));
            }
            match point.active {
                Some(battery) => out.push_str(&format!(",{battery}\n")),
                None => out.push_str(",\n"),
            }
        }
        out
    }
}

/// Converts a step count into minutes under the given discretization;
/// convenience shared by reporting code.
#[must_use]
pub fn steps_to_minutes(steps: u64, disc: &Discretization) -> f64 {
    disc.steps_to_minutes(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> Schedule {
        Schedule {
            assignments: vec![
                Assignment {
                    decision_index: 0,
                    job_index: 0,
                    battery: 0,
                    start_step: 0,
                    end_step: 100,
                    continuation: false,
                },
                Assignment {
                    decision_index: 1,
                    job_index: 1,
                    battery: 1,
                    start_step: 200,
                    end_step: 300,
                    continuation: false,
                },
                Assignment {
                    decision_index: 2,
                    job_index: 1,
                    battery: 0,
                    start_step: 300,
                    end_step: 320,
                    continuation: true,
                },
            ],
        }
    }

    #[test]
    fn decisions_and_switch_count() {
        let s = schedule();
        assert_eq!(s.decisions(), vec![0, 1, 0]);
        assert_eq!(s.switches(), 2);
        assert_eq!(s.assignments_per_battery(2), vec![2, 1]);
    }

    #[test]
    fn trace_csv_has_header_and_rows() {
        let trace = SystemTrace {
            points: vec![
                SystemTracePoint {
                    time: 0.0,
                    charges: vec![
                        BatteryCharge { total: 5.5, available: 0.913 },
                        BatteryCharge { total: 5.5, available: 0.913 },
                    ],
                    active: Some(0),
                },
                SystemTracePoint {
                    time: 1.0,
                    charges: vec![
                        BatteryCharge { total: 5.0, available: 0.5 },
                        BatteryCharge { total: 5.5, available: 0.92 },
                    ],
                    active: None,
                },
            ],
        };
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "time,total_0,available_0,total_1,available_1,active");
        assert!(lines[1].ends_with(",0"));
        assert!(lines[2].ends_with(','));
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn steps_to_minutes_uses_discretization() {
        let disc = Discretization::paper_default();
        assert_eq!(steps_to_minutes(250, &disc), 2.5);
    }
}
