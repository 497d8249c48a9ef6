//! Column segments: the unit of transposed-file storage.
//!
//! A segment packs up to [`SEGMENT_ROWS`] consecutive values of one
//! column into one storage record, under one of three encodings:
//! raw, run-length ([`crate::rle`]), or dictionary. The per-column
//! encoding choice is the knob experiment E5 sweeps.

use std::collections::HashMap;

use sdbms_data::{DataError, Value};

use crate::rle;

/// Maximum values per segment. 256 keeps raw float segments
/// (256 × 9 B ≈ 2.3 KiB) comfortably inside one storage record.
pub const SEGMENT_ROWS: usize = 256;

/// How a column's segments are encoded on storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compression {
    /// Values stored back to back.
    None,
    /// Run-length encoded (best for sorted / category columns).
    Rle,
    /// Dictionary encoded (best for low-cardinality strings).
    Dictionary,
}

/// Encode `values` as one segment record.
#[must_use]
pub fn encode_segment(values: &[Value], compression: Compression) -> Vec<u8> {
    debug_assert!(values.len() <= SEGMENT_ROWS);
    let mut buf = Vec::new();
    buf.extend_from_slice(&(values.len() as u16).to_le_bytes());
    match compression {
        Compression::None => {
            buf.push(0);
            for v in values {
                v.encode(&mut buf);
            }
        }
        Compression::Rle => {
            buf.push(1);
            buf.extend_from_slice(&rle::compress_values(values));
        }
        Compression::Dictionary => {
            buf.push(2);
            let mut dict: Vec<&Value> = Vec::new();
            let mut index: HashMap<String, u16> = HashMap::new();
            let mut codes: Vec<u16> = Vec::with_capacity(values.len());
            for v in values {
                // Keyed on the full debug form so distinct values never
                // collide; group_eq semantics preserved by exact bytes.
                let key = format!("{v:?}");
                let code = *index.entry(key).or_insert_with(|| {
                    dict.push(v);
                    (dict.len() - 1) as u16
                });
                codes.push(code);
            }
            buf.extend_from_slice(&(dict.len() as u16).to_le_bytes());
            for v in dict {
                v.encode(&mut buf);
            }
            for c in codes {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    buf
}

/// Decode a segment record back into values.
pub fn decode_segment(buf: &[u8]) -> Result<Vec<Value>, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let out = match tag {
        0 => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(Value::decode(body, &mut pos)?);
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in raw segment"));
            }
            out
        }
        1 => rle::decompress_values(body)?,
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let code = crate::read_u16(body, pos, "dict code truncated")? as usize;
                pos += 2;
                let v = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                out.push(v.clone());
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in dict segment"));
            }
            out
        }
        _ => return Err(DataError::Decode("unknown segment encoding tag")),
    };
    if out.len() != n {
        return Err(DataError::Decode("segment count mismatch"));
    }
    Ok(out)
}

/// Decode a segment record straight into its numeric view: append
/// [`Value::as_f64`] of every row that has one to `out`, and return
/// the segment's row count (rows without a numeric view — `Missing`,
/// `Code`, `Str` — are counted but not appended).
///
/// This is the typed lane behind numeric summaries: no per-row
/// `Value` is built, so a string cell is UTF-8-checked but never
/// allocated. It accepts and rejects exactly the buffers
/// [`decode_segment`] does, and on success appends bit for bit what
/// `decode_segment(buf)` filtered through `as_f64` would. On error,
/// `out` may hold part of the segment.
pub fn decode_segment_f64(buf: &[u8], out: &mut Vec<f64>) -> Result<usize, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    match tag {
        0 => {
            let mut pos = 0usize;
            for _ in 0..n {
                if let Some(x) = decode_cell_f64(body, &mut pos)? {
                    out.push(x);
                }
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in raw segment"));
            }
        }
        1 => {
            let n_runs = crate::read_u16(body, 0, "rle header truncated")? as usize;
            let mut pos = 2usize;
            let mut rows = 0usize;
            for _ in 0..n_runs {
                let len = crate::read_u16(body, pos, "rle run truncated")? as usize;
                pos += 2;
                let x = decode_cell_f64(body, &mut pos)?;
                rows += len;
                // Runs past the header count can only end in an error,
                // so stop before a damaged length inflates the lane.
                if rows > n {
                    return Err(DataError::Decode("segment count mismatch"));
                }
                if let Some(x) = x {
                    out.resize(out.len() + len, x);
                }
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes after rle runs"));
            }
            if rows != n {
                return Err(DataError::Decode("segment count mismatch"));
            }
        }
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(decode_cell_f64(body, &mut pos)?);
            }
            for _ in 0..n {
                let code = crate::read_u16(body, pos, "dict code truncated")? as usize;
                pos += 2;
                let x = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                if let Some(x) = x {
                    out.push(*x);
                }
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in dict segment"));
            }
        }
        _ => return Err(DataError::Decode("unknown segment encoding tag")),
    }
    Ok(n)
}

/// Decode one encoded cell's numeric view at `body[*pos..]`,
/// advancing `pos` past it. Mirrors [`Value::decode`] byte for byte —
/// same accepted tags, same truncation and UTF-8 failures — without
/// building the `Value`.
fn decode_cell_f64(body: &[u8], pos: &mut usize) -> Result<Option<f64>, DataError> {
    let tag = *body
        .get(*pos)
        .ok_or(DataError::Decode("value tag missing"))?;
    *pos += 1;
    match tag {
        0 => Ok(None),
        1 => Ok(Some(i64::from_le_bytes(crate::take_arr(body, pos)?) as f64)),
        2 => Ok(Some(f64::from_bits(u64::from_le_bytes(crate::take_arr(
            body, pos,
        )?)))),
        3 => {
            let len = u16::from_le_bytes(crate::take_arr(body, pos)?) as usize;
            std::str::from_utf8(crate::take_n(body, pos, len)?)
                .map_err(|_| DataError::Decode("string not UTF-8"))?;
            Ok(None)
        }
        4 => crate::take_n(body, pos, 4).map(|_| None),
        _ => Err(DataError::Decode("unknown value tag")),
    }
}

/// Decode only rows `[lo, hi)` of a segment record (positions are
/// segment-relative; the range is clamped to the stored count).
///
/// This is the partial-range read path: a raw segment stops decoding at
/// `hi`, an RLE segment walks runs and never materializes rows outside
/// the window, and a dictionary segment jumps straight to the fixed-
/// width code array. Returns exactly `decode_segment(buf)[lo..hi]`.
pub fn decode_segment_range(buf: &[u8], lo: usize, hi: usize) -> Result<Vec<Value>, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let lo = lo.min(n);
    let hi = hi.min(n);
    if lo >= hi {
        return Ok(Vec::new());
    }
    match tag {
        0 => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(hi - lo);
            for i in 0..hi {
                let v = Value::decode(body, &mut pos)?;
                if i >= lo {
                    out.push(v);
                }
            }
            Ok(out)
        }
        1 => {
            let mut out = Vec::with_capacity(hi - lo);
            let mut row = 0usize;
            for run in rle::RunCursor::new(body)? {
                let (v, len) = run?;
                let start = row;
                row += len;
                if row <= lo {
                    continue;
                }
                let take = row.min(hi) - start.max(lo);
                out.extend(std::iter::repeat_n(v, take));
                if row >= hi {
                    break;
                }
            }
            if out.len() != hi - lo {
                return Err(DataError::Decode("rle segment shorter than header count"));
            }
            Ok(out)
        }
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            let mut out = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let code = crate::read_u16(body, pos + 2 * i, "dict code truncated")? as usize;
                let v = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                out.push(v.clone());
            }
            Ok(out)
        }
        _ => Err(DataError::Decode("unknown segment encoding tag")),
    }
}

/// Read a segment as `(value, run-length)` pairs — the compressed-
/// domain path for run-aware accumulators.
///
/// An RLE segment yields its stored runs without expansion; raw and
/// dictionary segments coalesce adjacent [`Value::group_eq`] values
/// (for a dictionary this compares 2-byte codes, not values). The
/// expansion of the result always equals [`decode_segment`]; run
/// boundaries themselves carry no meaning.
pub fn segment_runs(buf: &[u8]) -> Result<Vec<(Value, usize)>, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let runs: Vec<(Value, usize)> = match tag {
        1 => rle::RunCursor::new(body)?.collect::<Result<_, _>>()?,
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            let mut runs: Vec<(usize, usize)> = Vec::new(); // (code, len)
            for _ in 0..n {
                let code = crate::read_u16(body, pos, "dict code truncated")? as usize;
                pos += 2;
                match runs.last_mut() {
                    Some((c, len)) if *c == code => *len += 1,
                    _ => runs.push((code, 1)),
                }
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in dict segment"));
            }
            let mut out = Vec::with_capacity(runs.len());
            for (code, len) in runs {
                let v = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                out.push((v.clone(), len));
            }
            out
        }
        _ => {
            let mut out: Vec<(Value, usize)> = Vec::new();
            for v in decode_segment(buf)? {
                match out.last_mut() {
                    Some((rv, len)) if rv.group_eq(&v) => *len += 1,
                    _ => out.push((v, 1)),
                }
            }
            out
        }
    };
    if runs.iter().map(|(_, len)| len).sum::<usize>() != n {
        return Err(DataError::Decode("segment count mismatch"));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Value> {
        vec![
            Value::Str("M".into()),
            Value::Str("M".into()),
            Value::Str("F".into()),
            Value::Missing,
            Value::Code(4),
            Value::Int(-3),
            Value::Float(2.5),
        ]
    }

    #[test]
    fn roundtrip_all_encodings() {
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&sample(), c);
            assert_eq!(decode_segment(&buf).unwrap(), sample(), "{c:?}");
        }
    }

    #[test]
    fn empty_segment_roundtrip() {
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&[], c);
            assert_eq!(decode_segment(&buf).unwrap(), Vec::<Value>::new());
        }
    }

    #[test]
    fn rle_smaller_on_runs_dict_smaller_on_low_cardinality() {
        let runs: Vec<Value> =
            std::iter::repeat_n(Value::Str("White".into()), SEGMENT_ROWS).collect();
        let raw = encode_segment(&runs, Compression::None).len();
        let rle = encode_segment(&runs, Compression::Rle).len();
        assert!(rle * 10 < raw, "rle {rle} vs raw {raw}");

        // Alternating values defeat RLE but not a dictionary.
        let alt: Vec<Value> = (0..SEGMENT_ROWS)
            .map(|i| Value::Str(if i % 2 == 0 { "Male" } else { "Female" }.into()))
            .collect();
        let raw = encode_segment(&alt, Compression::None).len();
        let rle = encode_segment(&alt, Compression::Rle).len();
        let dict = encode_segment(&alt, Compression::Dictionary).len();
        assert!(dict < raw, "dict {dict} vs raw {raw}");
        assert!(dict < rle, "dict {dict} vs rle {rle}");
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        let mut buf = encode_segment(&sample(), Compression::None);
        buf[2] = 9;
        assert!(decode_segment(&buf).is_err());
        let good = encode_segment(&sample(), Compression::Dictionary);
        assert!(decode_segment(&good[..good.len() - 1]).is_err());
        assert!(decode_segment(&[0]).is_err());
    }

    #[test]
    fn nan_distinct_values_in_dictionary() {
        // Two different NaN payloads must each roundtrip bit-exactly.
        let vals = vec![
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(f64::NAN),
        ];
        let buf = encode_segment(&vals, Compression::Dictionary);
        let out = decode_segment(&buf).unwrap();
        assert!(matches!(out[0], Value::Float(x) if x.is_nan()));
        assert_eq!(out[1], Value::Float(1.0));
    }

    #[test]
    fn range_decode_matches_full_decode_slice() {
        let vals: Vec<Value> = (0..SEGMENT_ROWS)
            .map(|i| match i % 7 {
                0 => Value::Missing,
                1 | 2 => Value::Code(u32::try_from(i / 50).unwrap()),
                3 => Value::Str("x".into()),
                _ => Value::Int(i as i64 % 11),
            })
            .collect();
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&vals, c);
            let full = decode_segment(&buf).unwrap();
            for (lo, hi) in [
                (0, 256),
                (0, 1),
                (100, 200),
                (255, 256),
                (40, 40),
                (250, 999),
            ] {
                let got = decode_segment_range(&buf, lo, hi).unwrap();
                let want = &full[lo.min(full.len())..hi.min(full.len())];
                assert_eq!(got, want, "{c:?} [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn segment_runs_expand_to_decoded_values() {
        let vals: Vec<Value> = (0..200)
            .map(|i| match (i / 25) % 3 {
                0 => Value::Code(9),
                1 => Value::Missing,
                _ => Value::Int(i as i64 / 60),
            })
            .collect();
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&vals, c);
            let runs = segment_runs(&buf).unwrap();
            let expanded: Vec<Value> = runs
                .iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v.clone(), *n))
                .collect();
            assert_eq!(expanded, vals, "{c:?}");
            // Runs are genuinely coalesced: far fewer runs than rows.
            assert!(runs.len() * 10 < vals.len(), "{c:?}: {} runs", runs.len());
        }
    }

    #[test]
    fn range_and_runs_reject_damage() {
        let buf = encode_segment(&sample(), Compression::Rle);
        assert!(decode_segment_range(&buf[..buf.len() - 1], 0, 7).is_err());
        assert!(segment_runs(&buf[..buf.len() - 1]).is_err());
        let mut bad = buf;
        bad[2] = 9;
        assert!(decode_segment_range(&bad, 0, 7).is_err());
        assert!(segment_runs(&bad).is_err());
    }

    /// The numeric-lane oracle: `decode_segment` filtered through
    /// `as_f64`. The typed decoder must agree on Ok vs Err, on the row
    /// count and on every appended value's bits, and must append after
    /// the lane's prior contents.
    fn f64_decoder_agrees(buf: &[u8]) -> Result<(), String> {
        const PRIOR: f64 = -7.25;
        let mut lane = vec![PRIOR];
        let got = decode_segment_f64(buf, &mut lane);
        match (decode_segment(buf), got) {
            (Ok(vals), Ok(rows)) => {
                let want: Vec<u64> = vals
                    .iter()
                    .filter_map(Value::as_f64)
                    .map(f64::to_bits)
                    .collect();
                let lane_bits: Vec<u64> = lane.iter().map(|x| x.to_bits()).collect();
                if rows != vals.len() {
                    return Err(format!("row count {rows}, want {}", vals.len()));
                }
                if lane_bits[0] != PRIOR.to_bits() || lane_bits[1..] != want[..] {
                    return Err(format!("lane {lane:?}, want {vals:?}"));
                }
            }
            (Err(_), Err(_)) => {}
            (want, got) => return Err(format!("value path {want:?}, typed path {got:?}")),
        }
        Ok(())
    }

    /// A cell drawn from every shape the decoder distinguishes:
    /// missing, ordinary and extreme ints, arbitrary float bit
    /// patterns (NaN payloads included), signed zeros, codes, strings.
    fn cell(kind: u8, bits: u64) -> Value {
        match kind {
            0 => Value::Missing,
            1 => Value::Int(bits as i64 % 1_000),
            2 => Value::Int([i64::MIN, i64::MAX, 0, -1][bits as usize % 4]),
            3 => Value::Float(f64::from_bits(bits)),
            4 => Value::Float(
                [
                    0.0,
                    -0.0,
                    f64::NAN,
                    f64::from_bits(0xFFF8_0000_0000_0001),
                    f64::INFINITY,
                    (bits % 97) as f64 * 0.5,
                ][bits as usize % 6],
            ),
            5 => Value::Code((bits % 9) as u32),
            _ => Value::Str(["", "M", "Female", "é"][bits as usize % 4].into()),
        }
    }

    #[test]
    fn f64_decode_equals_value_decode_on_fixed_shapes() {
        let mut shapes: Vec<Vec<Value>> = vec![sample(), Vec::new()];
        shapes.push((0..SEGMENT_ROWS as u64).map(|i| cell(3, i << 40)).collect());
        shapes.push(
            (0..SEGMENT_ROWS)
                .map(|i| cell((i / 30) as u8 % 7, i as u64 / 7))
                .collect(),
        );
        for vals in &shapes {
            for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
                let buf = encode_segment(vals, c);
                f64_decoder_agrees(&buf).unwrap_or_else(|e| panic!("{c:?}: {e}"));
            }
        }
    }

    #[test]
    fn f64_decode_rejects_what_value_decode_rejects() {
        // A header count one off either way.
        let vals: Vec<Value> = (0..40).map(|i| cell(i as u8 % 7, i * 31)).collect();
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&vals, c);
            for n in [39u16, 41] {
                let mut bad = buf.clone();
                bad[..2].copy_from_slice(&n.to_le_bytes());
                f64_decoder_agrees(&bad).unwrap_or_else(|e| panic!("{c:?} n={n}: {e}"));
                assert!(decode_segment_f64(&bad, &mut Vec::new()).is_err());
            }
        }
        // A run length inflated to u16::MAX fails before the lane grows.
        let buf = encode_segment(&vec![Value::Int(5); 3], Compression::Rle);
        let mut bad = buf.clone();
        bad[5..7].copy_from_slice(&u16::MAX.to_le_bytes());
        let mut lane = Vec::new();
        assert!(decode_segment_f64(&bad, &mut lane).is_err());
        assert!(lane.capacity() < 1024);
        f64_decoder_agrees(&bad).unwrap();
    }

    proptest::proptest! {
        #[test]
        fn prop_f64_decode_matches_value_decode_and_damage(
            cells in proptest::collection::vec((0u8..9, proptest::arbitrary::any::<u64>()), 0..=SEGMENT_ROWS),
            tag in 0u8..3,
            flips in proptest::collection::vec((proptest::arbitrary::any::<u64>(), 1u8..=255), 0..48)
        ) {
            // Kinds 7 and 8 repeat the previous cell, so RLE and
            // dictionary segments hold real runs.
            let mut vals: Vec<Value> = Vec::with_capacity(cells.len());
            for (kind, bits) in cells {
                let v = match (kind, vals.last()) {
                    (7 | 8, Some(prev)) => prev.clone(),
                    _ => cell(kind % 7, bits),
                };
                vals.push(v);
            }
            let c = match tag {
                0 => Compression::None,
                1 => Compression::Rle,
                _ => Compression::Dictionary,
            };
            let buf = encode_segment(&vals, c);
            let check = |b: &[u8]| f64_decoder_agrees(b).map_err(proptest::test_runner::TestCaseError::Fail);
            check(&buf)?;
            // Truncation at every byte.
            for cut in 0..buf.len() {
                check(&buf[..cut])?;
            }
            // Trailing bytes.
            let mut long = buf.clone();
            long.push(0);
            check(&long)?;
            // Single-byte damage anywhere: value tags, run lengths,
            // dictionary codes, the header count, the encoding tag.
            for (at, mask) in flips {
                let mut bad = buf.clone();
                let i = at as usize % bad.len();
                bad[i] ^= mask;
                check(&bad)?;
            }
        }

        #[test]
        fn prop_segment_roundtrip(
            codes in proptest::collection::vec(0u32..8, 0..SEGMENT_ROWS),
            tag in 0u8..3
        ) {
            let vals: Vec<Value> = codes.into_iter().map(Value::Code).collect();
            let c = match tag {
                0 => Compression::None,
                1 => Compression::Rle,
                _ => Compression::Dictionary,
            };
            let buf = encode_segment(&vals, c);
            proptest::prop_assert_eq!(decode_segment(&buf).unwrap(), vals);
        }
    }
}
