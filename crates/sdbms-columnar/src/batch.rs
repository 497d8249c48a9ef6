//! Typed column batches: the vectorized unit of scan execution.
//!
//! A [`ColumnBatch`] holds a window of one column as a *typed lane*
//! (`&[f64]`, `&[i64]`, `&[u32]` codes, or a `Value` fallback) plus a
//! validity bitmap, instead of a `Vec<Value>` of per-cell enums. The
//! kernels in `sdbms-exec` run branchless loops straight over the lane
//! slices, which is what lets the compiler auto-vectorize filter and
//! aggregate scans.
//!
//! Batches are produced directly from encoded segment bytes by
//! [`decode_batch_range`] — the RLE and dictionary paths never
//! materialize one `Value` per row (a run becomes one `Value` plus a
//! length), and the raw path decodes primitive payloads straight into
//! the lane. The contract, tested below, is exact equivalence:
//! expanding a batch with [`ColumnBatch::to_values`] yields the same
//! `Vec<Value>` as [`crate::segment::decode_segment_range`] on the
//! same bytes, bit for bit (NaN payloads included).
//!
//! ## Lane semantics
//!
//! - A lane is *type-homogeneous*: every **valid** row in an `F64`
//!   lane came from `Value::Float`, every valid `I64` row from
//!   `Value::Int`, every valid `Code` row from `Value::Code`. Missing
//!   rows sit in the lane as placeholders (`0.0` / `0`) with their
//!   validity bit clear — kernels must consult the bitmap before
//!   trusting a slot.
//! - Mixing types (or any `Str`) demotes the lane to `Other`, which
//!   stores exact `Value`s; correctness never depends on staying
//!   typed, only speed does.
//! - The validity bitmap is little-endian within each `u64` word (row
//!   `i` is bit `i & 63` of word `i >> 6`); a **set** bit means
//!   present. Bits at positions `>= rows()` are always zero, so
//!   word-granular kernels need no tail masking when intersecting
//!   with validity.
//!
//! ## Run view
//!
//! When a batch was built purely from run-level pushes (RLE or
//! dictionary segments), [`ColumnBatch::run_lens`] exposes the run
//! partition: `run_lens()[k]` consecutive rows sharing one value.
//! Run boundaries carry no meaning — the paper's accumulators are
//! run-invariant (`ColumnProfile::from_runs == from_values` under any
//! partition) — so the view is purely an optimization handle. Any
//! row-level push drops it.

use sdbms_data::{DataError, Value};

use crate::rle;

/// The typed storage behind a batch. Private: callers go through
/// [`BatchValues`] so the invariants stay inside this module.
#[derive(Debug, Clone)]
enum Lane {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Code(Vec<u32>),
    Other(Vec<Value>),
}

/// Borrowed, typed view of a batch's lane. Pattern-match to pick the
/// specialized kernel; `Other` is the exact scalar fallback.
#[derive(Debug, Clone, Copy)]
pub enum BatchValues<'a> {
    /// Float lane: valid rows were `Value::Float`.
    F64(&'a [f64]),
    /// Integer lane: valid rows were `Value::Int`.
    I64(&'a [i64]),
    /// Category-code lane: valid rows were `Value::Code`.
    Code(&'a [u32]),
    /// Fallback lane of exact `Value`s (mixed types or strings).
    Other(&'a [Value]),
}

/// A typed window of one column: lane + validity bitmap + optional
/// run-length view. See the module docs for the layout contract.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    rows: usize,
    missing: usize,
    lane: Lane,
    validity: Vec<u64>,
    run_lens: Option<Vec<usize>>,
}

impl Default for ColumnBatch {
    fn default() -> Self {
        ColumnBatch {
            rows: 0,
            missing: 0,
            lane: Lane::F64(Vec::new()),
            validity: Vec::new(),
            run_lens: Some(Vec::new()),
        }
    }
}

impl ColumnBatch {
    /// Empty batch (float lane until told otherwise, live run view).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a batch from scalar values (row-level pushes: no run
    /// view). `to_values` of the result equals `values`.
    #[must_use]
    pub fn from_values(values: &[Value]) -> Self {
        let mut b = Self::new();
        for v in values {
            b.push_value(v);
        }
        b
    }

    /// Number of rows in the batch.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of missing rows.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.missing
    }

    /// True when every row is present (kernels may skip the bitmap).
    #[must_use]
    pub fn all_valid(&self) -> bool {
        self.missing == 0
    }

    /// Validity bitmap words (set bit = present; tail bits zero).
    #[must_use]
    pub fn validity_words(&self) -> &[u64] {
        &self.validity
    }

    /// Whether row `i < rows()` is present.
    #[must_use]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.rows);
        (self.validity[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Borrowed typed view of the lane.
    #[must_use]
    pub fn values(&self) -> BatchValues<'_> {
        match &self.lane {
            Lane::F64(v) => BatchValues::F64(v),
            Lane::I64(v) => BatchValues::I64(v),
            Lane::Code(v) => BatchValues::Code(v),
            Lane::Other(v) => BatchValues::Other(v),
        }
    }

    /// Run partition, if the batch was built purely from run-level
    /// pushes: `run_lens()[k]` consecutive rows share one value and
    /// one validity state. `None` after any row-level push.
    #[must_use]
    pub fn run_lens(&self) -> Option<&[usize]> {
        self.run_lens.as_deref()
    }

    /// Reconstruct the exact `Value` at row `i < rows()`.
    #[must_use]
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Missing;
        }
        match &self.lane {
            Lane::F64(v) => Value::Float(v[i]),
            Lane::I64(v) => Value::Int(v[i]),
            Lane::Code(v) => Value::Code(v[i]),
            Lane::Other(v) => v[i].clone(),
        }
    }

    /// Expand the batch back to scalar values (the equivalence oracle
    /// for every kernel: exact, NaN payloads included).
    #[must_use]
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.rows).map(|i| self.value_at(i)).collect()
    }

    /// Append one value, dropping the run view.
    pub fn push_value(&mut self, v: &Value) {
        self.run_lens = None;
        self.push_value_lane(v);
    }

    /// Append `n` copies of `v`, extending the run view if still live.
    pub fn push_run(&mut self, v: &Value, n: usize) {
        if n == 0 {
            return;
        }
        // The first row settles lane typing (re-laning or demotion);
        // the rest of the run then extends the settled lane wholesale
        // instead of re-dispatching per row.
        self.push_value_lane(v);
        let rest = n - 1;
        if rest > 0 {
            #[derive(PartialEq)]
            enum Note {
                Valid,
                Missing,
                PerRow,
            }
            let note = match (v, &mut self.lane) {
                (Value::Missing, lane) => {
                    match lane {
                        Lane::F64(xs) => xs.extend(std::iter::repeat_n(0.0, rest)),
                        Lane::I64(xs) => xs.extend(std::iter::repeat_n(0, rest)),
                        Lane::Code(xs) => xs.extend(std::iter::repeat_n(0, rest)),
                        Lane::Other(xs) => xs.extend(std::iter::repeat_n(Value::Missing, rest)),
                    }
                    Note::Missing
                }
                (Value::Int(x), Lane::I64(xs)) => {
                    xs.extend(std::iter::repeat_n(*x, rest));
                    Note::Valid
                }
                (Value::Float(x), Lane::F64(xs)) => {
                    xs.extend(std::iter::repeat_n(*x, rest));
                    Note::Valid
                }
                (Value::Code(x), Lane::Code(xs)) => {
                    xs.extend(std::iter::repeat_n(*x, rest));
                    Note::Valid
                }
                (other, Lane::Other(xs)) => {
                    xs.extend(std::iter::repeat_n(other.clone(), rest));
                    Note::Valid
                }
                // Unreachable in practice — the first push settled the
                // lane to match `v` — but stay correct if it ever isn't.
                _ => Note::PerRow,
            };
            match note {
                Note::Valid => self.note_valid_run(rest),
                Note::Missing => self.note_missing_run(rest),
                Note::PerRow => {
                    for _ in 0..rest {
                        self.push_value_lane(v);
                    }
                }
            }
        }
        if let Some(runs) = &mut self.run_lens {
            runs.push(n);
        }
    }

    // ---- internal lane machinery -------------------------------------

    fn push_value_lane(&mut self, v: &Value) {
        match v {
            Value::Missing => self.lane_push_missing(),
            Value::Float(x) => self.lane_push_f64(*x),
            Value::Int(i) => self.lane_push_i64(*i),
            Value::Code(c) => self.lane_push_code(*c),
            Value::Str(_) => self.lane_push_other(v.clone()),
        }
    }

    fn note_valid(&mut self) {
        let i = self.rows;
        if self.validity.len() * 64 <= i {
            self.validity.push(0);
        }
        self.validity[i >> 6] |= 1u64 << (i & 63);
        self.rows += 1;
    }

    fn note_missing(&mut self) {
        if self.validity.len() * 64 <= self.rows {
            self.validity.push(0);
        }
        self.rows += 1;
        self.missing += 1;
    }

    /// Mark the next `n` rows valid in one pass: whole validity words
    /// at a time instead of a bit test per row.
    fn note_valid_run(&mut self, n: usize) {
        let start = self.rows;
        let end = start + n;
        while self.validity.len() * 64 < end {
            self.validity.push(0);
        }
        let mut i = start;
        while i < end {
            let take = (64 - (i & 63)).min(end - i);
            self.validity[i >> 6] |= (!0u64 >> (64 - take)) << (i & 63);
            i += take;
        }
        self.rows = end;
    }

    /// Mark the next `n` rows missing in one pass (validity bits stay
    /// zero; only the word vector needs to cover them).
    fn note_missing_run(&mut self, n: usize) {
        self.rows += n;
        self.missing += n;
        while self.validity.len() * 64 < self.rows {
            self.validity.push(0);
        }
    }

    /// Rebuild the lane as exact `Value`s. Exact because lanes are
    /// type-homogeneous: `value_at` reconstructs precisely what was
    /// pushed.
    fn demote(&mut self) {
        let vals: Vec<Value> = self.to_values();
        self.lane = Lane::Other(vals);
    }

    /// Ensure the lane is `Other` before pushing a `Value` verbatim.
    fn ensure_other(&mut self) {
        if !matches!(self.lane, Lane::Other(_)) {
            self.demote();
        }
    }

    fn lane_push_missing(&mut self) {
        match &mut self.lane {
            Lane::F64(v) => v.push(0.0),
            Lane::I64(v) => v.push(0),
            Lane::Code(v) => v.push(0),
            Lane::Other(v) => v.push(Value::Missing),
        }
        self.note_missing();
    }

    fn lane_push_f64(&mut self, x: f64) {
        loop {
            match &mut self.lane {
                Lane::F64(v) => {
                    v.push(x);
                    break;
                }
                Lane::Other(v) => {
                    v.push(Value::Float(x));
                    break;
                }
                _ if self.missing == self.rows => {
                    // No valid rows yet: re-lane cheaply (placeholders
                    // only), keeping the batch typed.
                    self.lane = Lane::F64(vec![0.0; self.rows]);
                }
                _ => self.demote(),
            }
        }
        self.note_valid();
    }

    fn lane_push_i64(&mut self, x: i64) {
        loop {
            match &mut self.lane {
                Lane::I64(v) => {
                    v.push(x);
                    break;
                }
                Lane::Other(v) => {
                    v.push(Value::Int(x));
                    break;
                }
                _ if self.missing == self.rows => {
                    self.lane = Lane::I64(vec![0; self.rows]);
                }
                _ => self.demote(),
            }
        }
        self.note_valid();
    }

    fn lane_push_code(&mut self, x: u32) {
        loop {
            match &mut self.lane {
                Lane::Code(v) => {
                    v.push(x);
                    break;
                }
                Lane::Other(v) => {
                    v.push(Value::Code(x));
                    break;
                }
                _ if self.missing == self.rows => {
                    self.lane = Lane::Code(vec![0; self.rows]);
                }
                _ => self.demote(),
            }
        }
        self.note_valid();
    }

    fn lane_push_other(&mut self, v: Value) {
        self.ensure_other();
        if let Lane::Other(vs) = &mut self.lane {
            vs.push(v);
        }
        self.note_valid();
    }

    /// Row-level pushes from the raw decode path: invalidate the run
    /// view once, up front.
    fn drop_run_view(&mut self) {
        self.run_lens = None;
    }
}

// ---- decoding straight from segment bytes ----------------------------

/// Decode rows `[lo, hi)` of an encoded segment record into `out`,
/// appending. Mirrors [`crate::segment::decode_segment_range`] exactly
/// — same clamping, same error strings — but builds a typed batch with
/// no per-row `Value` materialization on the RLE and dictionary paths.
pub fn decode_batch_range(
    buf: &[u8],
    lo: usize,
    hi: usize,
    out: &mut ColumnBatch,
) -> Result<(), DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let lo = lo.min(n);
    let hi = hi.min(n);
    if lo >= hi {
        return Ok(());
    }
    match tag {
        0 => {
            // Raw rows arrive one by one: no run structure to keep.
            out.drop_run_view();
            let mut pos = 0usize;
            for i in 0..hi {
                let vtag = *body
                    .get(pos)
                    .ok_or(DataError::Decode("value tag missing"))?;
                pos += 1;
                match vtag {
                    0 => {
                        if i >= lo {
                            out.lane_push_missing();
                        }
                    }
                    1 => {
                        let b = crate::take_arr::<8>(body, &mut pos)?;
                        if i >= lo {
                            out.lane_push_i64(i64::from_le_bytes(b));
                        }
                    }
                    2 => {
                        let b = crate::take_arr::<8>(body, &mut pos)?;
                        if i >= lo {
                            out.lane_push_f64(f64::from_bits(u64::from_le_bytes(b)));
                        }
                    }
                    3 => {
                        let len =
                            u16::from_le_bytes(crate::take_arr::<2>(body, &mut pos)?) as usize;
                        let sb = crate::take_n(body, &mut pos, len)?;
                        let s = std::str::from_utf8(sb)
                            .map_err(|_| DataError::Decode("string not UTF-8"))?;
                        if i >= lo {
                            out.lane_push_other(Value::Str(s.to_string()));
                        }
                    }
                    4 => {
                        let b = crate::take_arr::<4>(body, &mut pos)?;
                        if i >= lo {
                            out.lane_push_code(u32::from_le_bytes(b));
                        }
                    }
                    _ => return Err(DataError::Decode("unknown value tag")),
                }
            }
            Ok(())
        }
        1 => {
            let mut row = 0usize;
            let mut pushed = 0usize;
            for run in rle::RunCursor::new(body)? {
                let (v, len) = run?;
                let start = row;
                row += len;
                if row <= lo {
                    continue;
                }
                let take = row.min(hi) - start.max(lo);
                out.push_run(&v, take);
                pushed += take;
                if row >= hi {
                    break;
                }
            }
            if pushed != hi - lo {
                return Err(DataError::Decode("rle segment shorter than header count"));
            }
            Ok(())
        }
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            // Codes are fixed-width: jump straight into the window and
            // coalesce equal adjacent codes into runs (2-byte compares,
            // never value compares — mirrors `segment_runs`).
            let mut i = lo;
            while i < hi {
                let code = crate::read_u16(body, pos + 2 * i, "dict code truncated")? as usize;
                let mut j = i + 1;
                while j < hi
                    && crate::read_u16(body, pos + 2 * j, "dict code truncated")? as usize == code
                {
                    j += 1;
                }
                let v = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                out.push_run(v, j - i);
                i = j;
            }
            Ok(())
        }
        _ => Err(DataError::Decode("unknown segment encoding tag")),
    }
}

/// Decode a whole segment record as a fresh batch. Equivalent to
/// [`decode_batch_range`] over `[0, count)`.
pub fn decode_batch(buf: &[u8]) -> Result<ColumnBatch, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let mut out = ColumnBatch::new();
    decode_batch_range(buf, 0, n, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{decode_segment, decode_segment_range, encode_segment, Compression};

    const ALL: [Compression; 3] = [Compression::None, Compression::Rle, Compression::Dictionary];

    /// Bit-exact vector equality: `group_eq` is `total_cmp == Equal`,
    /// so NaN payloads and -0.0 vs 0.0 are distinguished — unlike
    /// derived `PartialEq`, under which NaN != NaN.
    fn bit_eq(a: &[Value], b: &[Value]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.group_eq(y))
    }

    fn mixed() -> Vec<Value> {
        let nan2 = f64::from_bits(0x7ff8_0000_0000_0001);
        vec![
            Value::Str("M".into()),
            Value::Str("M".into()),
            Value::Str("F".into()),
            Value::Missing,
            Value::Missing,
            Value::Code(4),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(nan2),
            Value::Float(-0.0),
        ]
    }

    fn floats_with_gaps() -> Vec<Value> {
        (0..200)
            .map(|i| {
                if i % 13 == 0 {
                    Value::Missing
                } else if i % 31 == 0 {
                    Value::Float(f64::NAN)
                } else {
                    Value::Float(f64::from(i) * 0.5 - 40.0)
                }
            })
            .collect()
    }

    fn blocky_codes() -> Vec<Value> {
        (0..256)
            .map(|i| match (i / 32) % 3 {
                0 => Value::Code(u32::try_from(i / 64).unwrap()),
                1 => Value::Missing,
                _ => Value::Code(7),
            })
            .collect()
    }

    #[test]
    fn from_values_roundtrips_exactly() {
        for vals in [mixed(), floats_with_gaps(), blocky_codes(), Vec::new()] {
            let b = ColumnBatch::from_values(&vals);
            assert_eq!(b.rows(), vals.len());
            assert!(bit_eq(&b.to_values(), &vals));
            assert!(b.run_lens().is_none() || vals.is_empty());
            let missing = vals.iter().filter(|v| v.is_missing()).count();
            assert_eq!(b.missing(), missing);
        }
        // NaN payloads survive bit-exactly.
        let b = ColumnBatch::from_values(&mixed());
        let out = b.to_values();
        if let (Value::Float(a), Value::Float(e)) = (&out[9], &mixed()[9]) {
            assert_eq!(a.to_bits(), e.to_bits());
        } else {
            panic!("lane lost the float");
        }
    }

    #[test]
    fn typed_lanes_for_homogeneous_columns() {
        let b = ColumnBatch::from_values(&floats_with_gaps());
        assert!(
            matches!(b.values(), BatchValues::F64(_)),
            "floats+missing stay typed"
        );
        let ints: Vec<Value> = (0..50).map(Value::Int).collect();
        assert!(matches!(
            ColumnBatch::from_values(&ints).values(),
            BatchValues::I64(_)
        ));
        let codes: Vec<Value> = (0..50u32).map(Value::Code).collect();
        assert!(matches!(
            ColumnBatch::from_values(&codes).values(),
            BatchValues::Code(_)
        ));
        // Leading missings re-lane cheaply once the first typed value
        // arrives.
        let late = [Value::Missing, Value::Missing, Value::Int(9)];
        assert!(matches!(
            ColumnBatch::from_values(&late).values(),
            BatchValues::I64(_)
        ));
        // Mixed types and strings demote to the exact fallback.
        assert!(matches!(
            ColumnBatch::from_values(&mixed()).values(),
            BatchValues::Other(_)
        ));
        let mixed_num = [Value::Int(1), Value::Float(2.0)];
        assert!(matches!(
            ColumnBatch::from_values(&mixed_num).values(),
            BatchValues::Other(_)
        ));
    }

    #[test]
    fn validity_bitmap_matches_missingness_and_masks_tail() {
        let vals = floats_with_gaps();
        let b = ColumnBatch::from_values(&vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(b.is_valid(i), !v.is_missing(), "row {i}");
        }
        let bits: u32 = b.validity_words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(
            bits as usize,
            vals.len() - b.missing(),
            "no stray tail bits"
        );
    }

    #[test]
    fn decode_batch_equals_decode_segment() {
        for vals in [mixed(), floats_with_gaps(), blocky_codes(), Vec::new()] {
            for c in ALL {
                let buf = encode_segment(&vals, c);
                let batch = decode_batch(&buf).unwrap();
                assert!(
                    bit_eq(&batch.to_values(), &decode_segment(&buf).unwrap()),
                    "{c:?}"
                );
            }
        }
    }

    #[test]
    fn decode_batch_range_equals_decode_segment_range() {
        let vals = blocky_codes();
        for c in ALL {
            let buf = encode_segment(&vals, c);
            for (lo, hi) in [
                (0, 256),
                (0, 1),
                (100, 200),
                (255, 256),
                (40, 40),
                (250, 999),
            ] {
                let mut b = ColumnBatch::new();
                decode_batch_range(&buf, lo, hi, &mut b).unwrap();
                assert_eq!(
                    b.to_values(),
                    decode_segment_range(&buf, lo, hi).unwrap(),
                    "{c:?} [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn batches_accumulate_across_segments() {
        // One batch built from three segments of different encodings
        // must equal the concatenation of their scalar decodes.
        let parts = [mixed(), blocky_codes(), floats_with_gaps()];
        let mut b = ColumnBatch::new();
        let mut want = Vec::new();
        for (vals, c) in parts.iter().zip(ALL) {
            let buf = encode_segment(vals, c);
            decode_batch_range(&buf, 0, vals.len(), &mut b).unwrap();
            want.extend(decode_segment(&buf).unwrap());
        }
        assert!(bit_eq(&b.to_values(), &want));
    }

    #[test]
    fn run_view_present_for_run_encodings_and_consistent() {
        for c in [Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&blocky_codes(), c);
            let b = decode_batch(&buf).unwrap();
            let runs = b.run_lens().unwrap_or_else(|| panic!("{c:?} lost runs"));
            assert_eq!(runs.iter().sum::<usize>(), b.rows(), "{c:?}");
            assert!(runs.len() * 4 < b.rows(), "{c:?}: runs actually coalesce");
            // Within a run every row reconstructs the same value.
            let mut row = 0;
            for &n in runs {
                let v = b.value_at(row);
                for i in row..row + n {
                    assert!(b.value_at(i).group_eq(&v), "{c:?} row {i}");
                }
                row += n;
            }
        }
        // The raw path yields no run view.
        let buf = encode_segment(&blocky_codes(), Compression::None);
        assert!(decode_batch(&buf).unwrap().run_lens().is_none());
    }

    #[test]
    fn push_value_drops_run_view() {
        let buf = encode_segment(&blocky_codes(), Compression::Rle);
        let mut b = decode_batch(&buf).unwrap();
        assert!(b.run_lens().is_some());
        b.push_value(&Value::Code(1));
        assert!(b.run_lens().is_none());
    }

    #[test]
    fn decode_rejects_damage_like_scalar_path() {
        for c in ALL {
            let buf = encode_segment(&mixed(), c);
            let mut bad = buf.clone();
            bad[2] = 9;
            assert_eq!(
                decode_batch(&bad).unwrap_err(),
                decode_segment(&bad).unwrap_err(),
                "{c:?} bad tag"
            );
            let trunc = &buf[..buf.len() - 1];
            assert!(decode_batch(trunc).is_err(), "{c:?} truncated");
        }
        assert!(decode_batch(&[0]).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_decode_batch_matches_scalar(
            cells in proptest::collection::vec((0u8..5, -400i64..400), 0..crate::SEGMENT_ROWS),
            tag in 0u8..3,
            window in (0usize..260, 0usize..260),
        ) {
            let vals: Vec<Value> = cells
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => Value::Missing,
                    1 => Value::Int(x),
                    2 if x % 17 == 0 => Value::Float(f64::NAN),
                    2 => Value::Float(x as f64 * 0.25),
                    3 => Value::Code(x.unsigned_abs() as u32 % 6),
                    _ => Value::Str(format!("s{}", x % 4)),
                })
                .collect();
            let c = match tag {
                0 => Compression::None,
                1 => Compression::Rle,
                _ => Compression::Dictionary,
            };
            let buf = encode_segment(&vals, c);
            let batch = decode_batch(&buf).unwrap();
            proptest::prop_assert!(bit_eq(&batch.to_values(), &decode_segment(&buf).unwrap()));
            let (lo, hi) = window;
            let mut b = ColumnBatch::new();
            decode_batch_range(&buf, lo, hi, &mut b).unwrap();
            proptest::prop_assert!(bit_eq(
                &b.to_values(),
                &decode_segment_range(&buf, lo, hi).unwrap()
            ));
        }
    }
}
