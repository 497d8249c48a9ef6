//! The catalogue of cacheable statistical functions.
//!
//! §3.2: "Searching a Summary Database will require using a function
//! name-attribute name(s) pair as the search argument." A
//! [`StatFunction`] is the function-name half of that pair, with a
//! canonical string form (the index key), a batch implementation over
//! column values, and a *maintenance class* that tells the engine how
//! the cached result reacts to updates (§4.2's differentiable vs
//! "difficult" functions).

use std::fmt;

use sdbms_data::Value;
use sdbms_stats::{descriptive, quantile, FrequencyTable, Histogram, Moments, StatsError};

use crate::error::Result;
use crate::value::SummaryValue;

/// Largest distinct-value count for which Mode / UniqueCount keep a
/// full frequency table as incremental state. Beyond this, entries are
/// maintained by invalidation: storage can hold arbitrarily large
/// entries (long records), but auxiliary state that rivals the column
/// in size defeats the purpose of a summary cache.
pub const MAX_FREQ_AUX_DISTINCT: usize = 128;

/// A cacheable function over one attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StatFunction {
    /// Count of non-missing values.
    Count,
    /// Sum.
    Sum,
    /// Mean.
    Mean,
    /// Sample variance.
    Variance,
    /// Sample standard deviation.
    StdDev,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median.
    Median,
    /// Q1, median, Q3 (one vector entry, as Figure 4 allows).
    Quartiles,
    /// Arbitrary quantile, in per-mille (so the key stays hashable);
    /// `Quantile(50)` is the 5th percentile.
    Quantile(u16),
    /// Most frequent value.
    Mode,
    /// Number of distinct values.
    UniqueCount,
    /// Equi-width histogram with this many bins over the column range.
    Histogram(u16),
    /// Trimmed mean between two per-mille quantile bounds.
    TrimmedMean(u16, u16),
}

/// How a cached result can be maintained under updates (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceClass {
    /// Fully differentiable: O(1) exact update from constant-size
    /// auxiliary state (count/sum/M2 — the Koenig & Paige aggregates).
    Differentiable,
    /// Insert is O(1) but deleting the extreme forces a rescan
    /// (min/max).
    SemiDifferentiable,
    /// Order statistics: maintained through the §4.2 median window,
    /// with occasional single-pass regeneration.
    OrderStatistic,
    /// Incrementally maintainable through a frequency table or
    /// histogram (bounded-size state, O(log u) updates).
    Distributional,
    /// No incremental form; invalidate on update (§4.3 fallback).
    NonIncremental,
}

impl StatFunction {
    /// Canonical name — the function half of the Summary Database key.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            StatFunction::Count => "count".into(),
            StatFunction::Sum => "sum".into(),
            StatFunction::Mean => "mean".into(),
            StatFunction::Variance => "variance".into(),
            StatFunction::StdDev => "std_dev".into(),
            StatFunction::Min => "min".into(),
            StatFunction::Max => "max".into(),
            StatFunction::Median => "median".into(),
            StatFunction::Quartiles => "quartiles".into(),
            StatFunction::Quantile(pm) => format!("quantile_{pm}"),
            StatFunction::Mode => "mode".into(),
            StatFunction::UniqueCount => "unique_count".into(),
            StatFunction::Histogram(bins) => format!("histogram_{bins}"),
            StatFunction::TrimmedMean(lo, hi) => format!("trimmed_mean_{lo}_{hi}"),
        }
    }

    /// How this function's cache entry is maintained.
    #[must_use]
    pub fn maintenance_class(&self) -> MaintenanceClass {
        match self {
            StatFunction::Count
            | StatFunction::Sum
            | StatFunction::Mean
            | StatFunction::Variance
            | StatFunction::StdDev => MaintenanceClass::Differentiable,
            StatFunction::Min | StatFunction::Max => MaintenanceClass::SemiDifferentiable,
            StatFunction::Median | StatFunction::Quantile(_) | StatFunction::Quartiles => {
                MaintenanceClass::OrderStatistic
            }
            StatFunction::Mode | StatFunction::UniqueCount | StatFunction::Histogram(_) => {
                MaintenanceClass::Distributional
            }
            StatFunction::TrimmedMean(_, _) => MaintenanceClass::NonIncremental,
        }
    }

    /// Whether the function needs numeric input (everything except the
    /// value-based Mode / UniqueCount).
    #[must_use]
    pub fn needs_numeric(&self) -> bool {
        !matches!(self, StatFunction::Mode | StatFunction::UniqueCount)
    }

    /// Compute the function over a column of values (missing values
    /// skipped for numeric functions, counted as a value by Mode /
    /// UniqueCount only if present). Numeric functions delegate to
    /// [`StatFunction::compute_numeric`] over the column's numeric
    /// view.
    pub fn compute(&self, values: &[Value]) -> Result<SummaryValue> {
        match self {
            StatFunction::Mode => {
                let t = FrequencyTable::from_values(values.iter());
                let (v, c) = t.mode()?;
                Ok(SummaryValue::ModalValue(v, c))
            }
            StatFunction::UniqueCount => {
                let t = FrequencyTable::from_values(values.iter());
                Ok(SummaryValue::Count(t.unique_count() as u64))
            }
            _ => {
                let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
                self.compute_numeric(&nums)
            }
        }
    }

    /// Compute a numeric function ([`StatFunction::needs_numeric`])
    /// over a column's numeric view — the values that have one, in row
    /// order, as [`Value::as_f64`] gives them. This is the one kernel
    /// dispatch for numeric summaries; Mode and UniqueCount need the
    /// values themselves and fail here with
    /// [`StatsError::InvalidParameter`].
    pub fn compute_numeric(&self, nums: &[f64]) -> Result<SummaryValue> {
        Ok(match self {
            StatFunction::Count => SummaryValue::Count(nums.len() as u64),
            StatFunction::Sum => SummaryValue::Scalar(descriptive::sum(nums)),
            StatFunction::Mean => SummaryValue::Scalar(descriptive::mean(nums)?),
            StatFunction::Variance => SummaryValue::Scalar(descriptive::variance(nums)?),
            StatFunction::StdDev => SummaryValue::Scalar(descriptive::std_dev(nums)?),
            StatFunction::Min => SummaryValue::Scalar(descriptive::min(nums)?),
            StatFunction::Max => SummaryValue::Scalar(descriptive::max(nums)?),
            StatFunction::Median => SummaryValue::Scalar(quantile::median(nums)?),
            StatFunction::Quartiles => {
                let (q1, q2, q3) = quantile::quartiles(nums)?;
                SummaryValue::Vector(vec![q1, q2, q3])
            }
            StatFunction::Quantile(pm) => {
                SummaryValue::Scalar(quantile::quantile(nums, f64::from(*pm) / 1000.0)?)
            }
            StatFunction::Histogram(bins) => {
                SummaryValue::Histogram(Histogram::from_data(nums, usize::from(*bins))?)
            }
            StatFunction::TrimmedMean(lo, hi) => SummaryValue::Scalar(quantile::trimmed_mean(
                nums,
                f64::from(*lo) / 1000.0,
                f64::from(*hi) / 1000.0,
            )?),
            StatFunction::Mode | StatFunction::UniqueCount => {
                return Err(StatsError::InvalidParameter(
                    "mode and unique count need values, not a numeric view",
                )
                .into())
            }
        })
    }

    /// Build the auxiliary maintenance state for this function over the
    /// same column (None for [`MaintenanceClass::NonIncremental`]).
    #[must_use]
    pub fn build_aux(&self, values: &[Value]) -> Option<AuxState> {
        let nums = || -> Vec<f64> { values.iter().filter_map(Value::as_f64).collect() };
        match self.maintenance_class() {
            MaintenanceClass::Differentiable => {
                Some(AuxState::Moments(Moments::from_slice(&nums())))
            }
            MaintenanceClass::SemiDifferentiable => Some(AuxState::MinMax(
                sdbms_stats::MinMaxAcc::from_slice(&nums()),
            )),
            MaintenanceClass::OrderStatistic => {
                // The §4.2 window tracks the *median* region only. For
                // other quantiles (and the Q1/Q3 of Quartiles) it can
                // never answer, so those entries carry no aux and fall
                // back to invalidate-and-regenerate — exactly the §4.3
                // fallback for "difficult" functions.
                if !matches!(self, StatFunction::Median | StatFunction::Quantile(500)) {
                    return None;
                }
                let mut w =
                    crate::median_window::MedianWindow::new(crate::median_window::DEFAULT_WINDOW);
                w.rebuild(&nums());
                Some(AuxState::Window(w))
            }
            MaintenanceClass::Distributional => match self {
                StatFunction::Histogram(bins) => Histogram::from_data(&nums(), usize::from(*bins))
                    .ok()
                    .map(AuxState::Histo),
                _ => {
                    let t = FrequencyTable::from_values(values.iter());
                    // A frequency table over a near-key column is as
                    // large as the column itself; persisting it as
                    // auxiliary state would defeat the cache (even
                    // though long records could hold it). Beyond this
                    // bound the entry falls back to the §4.3
                    // invalidate-and-regenerate policy (aux = None).
                    (t.unique_count() <= MAX_FREQ_AUX_DISTINCT).then_some(AuxState::Freq(t))
                }
            },
            MaintenanceClass::NonIncremental => None,
        }
    }

    /// Re-derive the cached result from auxiliary state alone (no data
    /// access) — the payoff of finite differencing. Returns `None` when
    /// the state cannot answer (e.g. window ran off), in which case the
    /// engine falls back to recompute-from-data.
    #[must_use]
    pub fn result_from_aux(&self, aux: &AuxState) -> Option<SummaryValue> {
        match (self, aux) {
            (StatFunction::Count, AuxState::Moments(m)) => Some(SummaryValue::Count(m.count())),
            (StatFunction::Sum, AuxState::Moments(m)) => Some(SummaryValue::Scalar(m.sum())),
            (StatFunction::Mean, AuxState::Moments(m)) => m.mean().ok().map(SummaryValue::Scalar),
            (StatFunction::Variance, AuxState::Moments(m)) => {
                m.variance().ok().map(SummaryValue::Scalar)
            }
            (StatFunction::StdDev, AuxState::Moments(m)) => {
                m.std_dev().ok().map(SummaryValue::Scalar)
            }
            (StatFunction::Min, AuxState::MinMax(mm)) => mm.min().ok().map(SummaryValue::Scalar),
            (StatFunction::Max, AuxState::MinMax(mm)) => mm.max().ok().map(SummaryValue::Scalar),
            (StatFunction::Median, AuxState::Window(w)) => w.median().map(SummaryValue::Scalar),
            (StatFunction::Quantile(pm), AuxState::Window(w)) => {
                // The window tracks the median region only; other
                // quantiles can be answered only at the median.
                if *pm == 500 {
                    w.median().map(SummaryValue::Scalar)
                } else {
                    None
                }
            }
            (StatFunction::Quartiles, _) => None, // needs Q1 and Q3: recompute
            (StatFunction::Mode, AuxState::Freq(t)) => {
                t.mode().ok().map(|(v, c)| SummaryValue::ModalValue(v, c))
            }
            (StatFunction::UniqueCount, AuxState::Freq(t)) => {
                Some(SummaryValue::Count(t.unique_count() as u64))
            }
            (StatFunction::Histogram(_), AuxState::Histo(h)) => {
                Some(SummaryValue::Histogram(h.clone()))
            }
            _ => None,
        }
    }
}

impl fmt::Display for StatFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Auxiliary per-entry maintenance state (the "perhaps some auxiliary
/// information" of §3.2's incremental recomputation).
#[derive(Debug, Clone, PartialEq)]
pub enum AuxState {
    /// Count/mean/M2 for the differentiable aggregates.
    Moments(Moments),
    /// Extremes with occurrence counts.
    MinMax(sdbms_stats::MinMaxAcc),
    /// The §4.2 median window.
    Window(crate::median_window::MedianWindow),
    /// Full frequency table (mode, unique count).
    Freq(FrequencyTable),
    /// Incrementally maintained histogram.
    Histo(Histogram),
}

impl AuxState {
    /// Fold another partition's auxiliary state into this one, so that
    /// the merged state equals the state that a single pass over the
    /// concatenated data would have built (the *merge law* — what the
    /// parallel executor and the soundness checker both rely on).
    ///
    /// Errors when the two states are different variants, when the
    /// variant has no merge law (the §4.2 median window is inherently
    /// sequential), or when histogram edges disagree.
    pub fn merge(&mut self, other: &AuxState) -> Result<()> {
        match (self, other) {
            (AuxState::Moments(a), AuxState::Moments(b)) => {
                a.merge(b);
                Ok(())
            }
            (AuxState::MinMax(a), AuxState::MinMax(b)) => {
                a.merge(b);
                Ok(())
            }
            (AuxState::Freq(a), AuxState::Freq(b)) => {
                a.merge(b);
                Ok(())
            }
            (AuxState::Histo(a), AuxState::Histo(b)) => Ok(a.merge(b)?),
            (AuxState::Window(_), AuxState::Window(_)) => Err(
                crate::error::SummaryError::Unmergeable("median window is order-dependent"),
            ),
            _ => Err(crate::error::SummaryError::Unmergeable(
                "auxiliary states of different kinds",
            )),
        }
    }
}

/// The standing summary set §3.2 lists for every summarizable column:
/// "mode, mean, median, quartiles, the ranges of values in each column
/// (min & max), the number of unique values, and some measure of
/// frequency of values" (the histogram).
#[must_use]
pub fn standing_summary_functions() -> Vec<StatFunction> {
    vec![
        StatFunction::Count,
        StatFunction::Mean,
        StatFunction::Median,
        StatFunction::Quartiles,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Mode,
        StatFunction::UniqueCount,
        StatFunction::Histogram(20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Vec<Value> {
        vec![
            Value::Int(2),
            Value::Int(4),
            Value::Int(4),
            Value::Int(4),
            Value::Int(5),
            Value::Int(5),
            Value::Int(7),
            Value::Int(9),
            Value::Missing,
        ]
    }

    #[test]
    fn compute_matches_stats_crate() {
        let c = col();
        assert_eq!(
            StatFunction::Count.compute(&c).unwrap(),
            SummaryValue::Count(8)
        );
        assert_eq!(
            StatFunction::Mean.compute(&c).unwrap(),
            SummaryValue::Scalar(5.0)
        );
        assert_eq!(
            StatFunction::Min.compute(&c).unwrap(),
            SummaryValue::Scalar(2.0)
        );
        assert_eq!(
            StatFunction::Median.compute(&c).unwrap(),
            SummaryValue::Scalar(4.5)
        );
        let SummaryValue::Vector(q) = StatFunction::Quartiles.compute(&c).unwrap() else {
            panic!("quartiles should be a vector")
        };
        assert_eq!(q.len(), 3);
        assert_eq!(
            StatFunction::Mode.compute(&c).unwrap(),
            SummaryValue::ModalValue(Value::Int(4), 3)
        );
        assert_eq!(
            StatFunction::UniqueCount.compute(&c).unwrap(),
            SummaryValue::Count(6),
            "5 distinct ints + missing"
        );
    }

    #[test]
    fn quantile_per_mille() {
        let c: Vec<Value> = (1..=100).map(Value::Int).collect();
        let SummaryValue::Scalar(p5) = StatFunction::Quantile(50).compute(&c).unwrap() else {
            panic!()
        };
        assert!((p5 - 5.95).abs() < 1e-9, "type-7 5th percentile of 1..=100");
    }

    #[test]
    fn maintenance_classes() {
        assert_eq!(
            StatFunction::Mean.maintenance_class(),
            MaintenanceClass::Differentiable
        );
        assert_eq!(
            StatFunction::Min.maintenance_class(),
            MaintenanceClass::SemiDifferentiable
        );
        assert_eq!(
            StatFunction::Median.maintenance_class(),
            MaintenanceClass::OrderStatistic
        );
        assert_eq!(
            StatFunction::Mode.maintenance_class(),
            MaintenanceClass::Distributional
        );
        assert_eq!(
            StatFunction::TrimmedMean(50, 950).maintenance_class(),
            MaintenanceClass::NonIncremental
        );
    }

    #[test]
    fn aux_roundtrip_to_result() {
        let c = col();
        for f in [
            StatFunction::Count,
            StatFunction::Sum,
            StatFunction::Mean,
            StatFunction::Variance,
            StatFunction::StdDev,
            StatFunction::Min,
            StatFunction::Max,
            StatFunction::Median,
            StatFunction::Mode,
            StatFunction::UniqueCount,
            StatFunction::Histogram(5),
        ] {
            let aux = f.build_aux(&c).unwrap_or_else(|| panic!("{f} has aux"));
            let from_aux = f.result_from_aux(&aux).unwrap_or_else(|| panic!("{f}"));
            let direct = f.compute(&c).unwrap();
            assert!(
                from_aux.approx_eq(&direct, 1e-9),
                "{f}: {from_aux:?} != {direct:?}"
            );
        }
        assert!(StatFunction::TrimmedMean(50, 950).build_aux(&c).is_none());
    }

    #[test]
    fn names_unique_and_stable() {
        let fns = [
            StatFunction::Count,
            StatFunction::Sum,
            StatFunction::Quantile(50),
            StatFunction::Quantile(950),
            StatFunction::Histogram(10),
            StatFunction::Histogram(20),
            StatFunction::TrimmedMean(50, 950),
        ];
        let names: std::collections::HashSet<String> = fns.iter().map(StatFunction::name).collect();
        assert_eq!(names.len(), fns.len());
        assert_eq!(StatFunction::Quantile(50).name(), "quantile_50");
    }

    #[test]
    fn standing_set_matches_paper_list() {
        let fns = standing_summary_functions();
        assert!(fns.contains(&StatFunction::Mode));
        assert!(fns.contains(&StatFunction::Mean));
        assert!(fns.contains(&StatFunction::Median));
        assert!(fns.contains(&StatFunction::Quartiles));
        assert!(fns.contains(&StatFunction::Min));
        assert!(fns.contains(&StatFunction::Max));
        assert!(fns.contains(&StatFunction::UniqueCount));
    }

    #[test]
    fn empty_column_errors() {
        assert!(StatFunction::Mean.compute(&[]).is_err());
        assert!(StatFunction::Mean.compute(&[Value::Missing]).is_err());
        assert_eq!(
            StatFunction::Count.compute(&[Value::Missing]).unwrap(),
            SummaryValue::Count(0)
        );
    }
}
