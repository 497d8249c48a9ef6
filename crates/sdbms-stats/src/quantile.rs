//! Quantiles and order statistics.
//!
//! §3.1's examples: "the analyst may be interested in finding out the
//! 5th and 95th quantiles. Later, the analyst may ask for the trimmed
//! mean… bounded by the 5th and 95th quantile values", and less general
//! order statistics like "the 10th largest value". Quantiles use the
//! type-7 (linear interpolation) definition. Quantiles and exact order
//! statistics select the one or two ranks they need, so each costs
//! O(n) average rather than a sort.

use crate::error::{Result, StatsError};

/// `q`-th quantile (0 ≤ q ≤ 1), type-7 linear interpolation (R's
/// default). NaNs must be filtered by the caller.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile q must be in [0,1]"));
    }
    let [v] = select_quantiles(&mut xs.to_vec(), [q]);
    Ok(v)
}

/// [`quantile`] over data the caller already sorted ascending.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let (h, lo, hi) = type7_ranks(n, q);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(h, lo, sorted[lo], sorted[hi])
    }
}

/// The type-7 position of quantile `q` among `n ≥ 2` ordered values:
/// the fractional rank `h` and its neighbours `lo = ⌊h⌋`, `hi = ⌈h⌉`.
fn type7_ranks(n: usize, q: f64) -> (f64, usize, usize) {
    let h = q * (n as f64 - 1.0);
    // lint: allow(lossy-cast): h lies in [0, n-1] under the documented q in [0,1] contract (validated by `quantile`), so floor/ceil fit in usize exactly
    let lo = h.floor() as usize;
    // lint: allow(lossy-cast): same bound as the floor above
    let hi = h.ceil() as usize;
    (h, lo, hi)
}

/// Linear interpolation between the values at ranks `lo` and `lo + 1`.
fn interpolate(h: f64, lo: usize, x_lo: f64, x_hi: f64) -> f64 {
    x_lo + (h - lo as f64) * (x_hi - x_lo)
}

/// Type-7 quantiles at `qs` (ascending, each in [0, 1]) of non-empty
/// `buf`, by selection instead of a full sort; `buf` is reordered.
///
/// Rank `lo` comes from `select_nth_unstable_by(f64::total_cmp)`, and
/// rank `lo + 1` is the `total_cmp` minimum of the partition to its
/// right. Values that compare equal under `total_cmp` have equal bits,
/// so each result is bit-for-bit what [`quantile_sorted`] returns on
/// the sorted data. Each selection leaves every rank below `lo` to its
/// left, so the next (larger) rank is selected in `buf[lo..]` only.
fn select_quantiles<const K: usize>(buf: &mut [f64], qs: [f64; K]) -> [f64; K] {
    let n = buf.len();
    if n == 1 {
        return [buf[0]; K];
    }
    let mut start = 0;
    qs.map(|q| {
        let (h, lo, hi) = type7_ranks(n, q);
        let tail = &mut buf[start..];
        let (_, &mut x_lo, right) = tail.select_nth_unstable_by(lo - start, f64::total_cmp);
        start = lo;
        if lo == hi {
            x_lo
        } else {
            // hi = lo + 1 ≤ n - 1, so the right partition is non-empty.
            let x_hi = right.iter().copied().min_by(f64::total_cmp).unwrap_or(x_lo);
            interpolate(h, lo, x_lo, x_hi)
        }
    })
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(xs: &[f64]) -> Result<(f64, f64, f64)> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    let [q1, q2, q3] = select_quantiles(&mut xs.to_vec(), [0.25, 0.5, 0.75]);
    Ok((q1, q2, q3))
}

/// Five-number summary: min, Q1, median, Q3, max.
pub fn five_number_summary(xs: &[f64]) -> Result<[f64; 5]> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    // The 0 and 1 quantiles are exactly ranks 0 and n - 1.
    Ok(select_quantiles(
        &mut xs.to_vec(),
        [0.0, 0.25, 0.5, 0.75, 1.0],
    ))
}

/// Exact `k`-th smallest value (0-based) by selection — O(n) average,
/// no full sort.
pub fn kth_smallest(xs: &[f64], k: usize) -> Result<f64> {
    if k >= xs.len() {
        return Err(StatsError::NotEnoughData {
            needed: k + 1,
            got: xs.len(),
        });
    }
    let mut buf = xs.to_vec();
    let (_, &mut v, _) = buf.select_nth_unstable_by(k, f64::total_cmp);
    Ok(v)
}

/// Exact `k`-th largest value (0-based: `k = 0` is the maximum).
pub fn kth_largest(xs: &[f64], k: usize) -> Result<f64> {
    if k >= xs.len() {
        return Err(StatsError::NotEnoughData {
            needed: k + 1,
            got: xs.len(),
        });
    }
    kth_smallest(xs, xs.len() - 1 - k)
}

/// Trimmed mean: the mean of observations between the `lo_q` and
/// `hi_q` quantiles inclusive (§3.1's "mean of all the values in a
/// given range bounded by the 5th and 95th quantile values").
pub fn trimmed_mean(xs: &[f64], lo_q: f64, hi_q: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&lo_q) || !(0.0..=1.0).contains(&hi_q) || lo_q >= hi_q {
        return Err(StatsError::InvalidParameter(
            "trim bounds must satisfy 0 <= lo < hi <= 1",
        ));
    }
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    // A full sort, not selection: `descriptive::sum` is Neumaier
    // compensated summation, whose result depends on the order it adds
    // in, so the kept values must be summed in sorted order.
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let lo_v = quantile_sorted(&sorted, lo_q);
    let hi_v = quantile_sorted(&sorted, hi_q);
    let kept: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|x| (lo_v..=hi_v).contains(x))
        .collect();
    if kept.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    Ok(crate::descriptive::sum(&kept) / kept.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quantile_type7_reference() {
        // R: quantile(1:10, c(.25,.5,.75)) -> 3.25, 5.50, 7.75
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&xs, 0.25).unwrap() - 3.25).abs() < 1e-12);
        assert!((quantile(&xs, 0.5).unwrap() - 5.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 7.75).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 10.0);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn quartiles_and_five_numbers_agree() {
        let xs: Vec<f64> = (0..101).map(f64::from).rev().collect();
        let (q1, q2, q3) = quartiles(&xs).unwrap();
        let five = five_number_summary(&xs).unwrap();
        assert_eq!(five, [0.0, q1, q2, q3, 100.0]);
        assert_eq!(q2, 50.0);
    }

    #[test]
    fn kth_order_statistics() {
        let xs = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(kth_smallest(&xs, 0).unwrap(), 1.0);
        assert_eq!(kth_smallest(&xs, 4).unwrap(), 5.0);
        assert_eq!(kth_smallest(&xs, 8).unwrap(), 9.0);
        // "The 10th largest value" style query (here: 2nd largest).
        assert_eq!(kth_largest(&xs, 0).unwrap(), 9.0);
        assert_eq!(kth_largest(&xs, 1).unwrap(), 8.0);
        assert!(kth_smallest(&xs, 9).is_err());
    }

    #[test]
    fn quickselect_handles_duplicates_and_sorted_input() {
        let mut xs: Vec<f64> = (0..1000).map(|i| f64::from(i / 10)).collect();
        assert_eq!(kth_smallest(&xs, 500).unwrap(), 50.0);
        xs.reverse();
        assert_eq!(kth_smallest(&xs, 0).unwrap(), 0.0);
        let all_same = vec![3.0; 100];
        assert_eq!(kth_smallest(&all_same, 57).unwrap(), 3.0);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        xs.push(1e9); // wild outlier
        let plain = crate::descriptive::mean(&xs).unwrap();
        let trimmed = trimmed_mean(&xs, 0.05, 0.95).unwrap();
        assert!(plain > 1e6);
        assert!((45.0..56.0).contains(&trimmed), "trimmed {trimmed}");
        assert!(trimmed_mean(&xs, 0.9, 0.1).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_quickselect_matches_sort(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
            k_idx in proptest::prelude::any::<proptest::sample::Index>()
        ) {
            let k = k_idx.index(xs.len());
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            proptest::prop_assert_eq!(kth_smallest(&xs, k).unwrap(), sorted[k]);
        }

        #[test]
        fn prop_quantiles_monotone(
            xs in proptest::collection::vec(-1e6f64..1e6, 2..200)
        ) {
            let q25 = quantile(&xs, 0.25).unwrap();
            let q50 = quantile(&xs, 0.50).unwrap();
            let q75 = quantile(&xs, 0.75).unwrap();
            proptest::prop_assert!(q25 <= q50 && q50 <= q75);
        }
    }

    /// The sort-based type-7 quantile the selection path must match.
    fn sorted_reference(xs: &[f64]) -> Vec<f64> {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Decode a generated `(kind, x)` pair into a value drawn mostly
    /// from a small pool, so duplicates, both zeros and both
    /// infinities are common.
    fn tricky_value(kind: u8, x: i64) -> f64 {
        match kind % 8 {
            0 => -0.0,
            1 => 0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 | 5 => f64::from(i32::try_from(x % 4).expect("small")),
            _ => f64::from(i32::try_from(x % 1_000_000).expect("small")) / 7.0,
        }
    }

    /// Every q checked: 0, 1, 0.5 and every per-mille step.
    fn checked_qs() -> impl Iterator<Item = f64> {
        [0.0, 1.0, 0.5]
            .into_iter()
            .chain((0..=1000).map(|m| f64::from(m) / 1000.0))
    }

    fn assert_bit_identical(xs: &[f64]) {
        let sorted = sorted_reference(xs);
        let bits = |v: f64| v.to_bits();
        for q in checked_qs() {
            assert_eq!(
                bits(quantile(xs, q).unwrap()),
                bits(quantile_sorted(&sorted, q)),
                "q {q} over {xs:?}"
            );
        }
        assert_eq!(
            bits(median(xs).unwrap()),
            bits(quantile_sorted(&sorted, 0.5))
        );
        let (q1, q2, q3) = quartiles(xs).unwrap();
        let want = [0.25, 0.5, 0.75].map(|q| bits(quantile_sorted(&sorted, q)));
        assert_eq!([bits(q1), bits(q2), bits(q3)], want, "quartiles {xs:?}");
        let five = five_number_summary(xs).unwrap().map(bits);
        let want = [
            bits(sorted[0]),
            want[0],
            want[1],
            want[2],
            bits(sorted[sorted.len() - 1]),
        ];
        assert_eq!(five, want, "five numbers {xs:?}");
    }

    #[test]
    fn selection_matches_sort_on_tiny_and_signed_zero_inputs() {
        for xs in [
            vec![-0.0],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![f64::INFINITY, 1.0],
            vec![2.0, 2.0],
            vec![0.0, -0.0, 0.0, -0.0, 0.0],
            vec![f64::NEG_INFINITY, -0.0, 0.0, f64::INFINITY],
        ] {
            assert_bit_identical(&xs);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_selection_quantiles_bit_identical_to_sort(
            raw in proptest::collection::vec((0u8..=255, 0i64..1_000_000), 1..200)
        ) {
            let xs: Vec<f64> = raw.iter().map(|&(k, x)| tricky_value(k, x)).collect();
            assert_bit_identical(&xs);
        }
    }
}
