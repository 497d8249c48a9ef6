//! Transposed (fully decomposed) view storage: one file per column.
//!
//! §2.6: "Both [ALDS/SDB and RAPID] rely on the use of transposed files
//! to minimize access time to a column of a data set… a transposed file
//! organization will minimize the number of I/O operations needed to
//! retrieve all entries in a column", at the price of poor
//! "informational" (whole-row) queries. Each column is a chain of
//! [`crate::segment`] records in its own heap file; a small in-memory
//! directory maps row ranges to segment records.

use std::borrow::Cow;
use std::sync::Arc;

use sdbms_data::{DataError, DataSet, DataType, Schema, Value};
use sdbms_storage::{BufferPool, HeapFile, MmapSegmentSource, PageId, Rid};

use crate::batch::{decode_batch_range, ColumnBatch};
use crate::segment::{
    decode_segment, decode_segment_f64, decode_segment_range, encode_segment, segment_runs,
    Compression, SEGMENT_ROWS,
};
use crate::store::{Result, TableStore};
use crate::zonemap::ZoneMap;

#[derive(Debug, Clone, Copy)]
struct SegmentInfo {
    rid: Rid,
    start_row: usize,
    len: usize,
    /// Record holding this segment's persisted [`ZoneMap`], in the
    /// column's *zones* file. `None` means no map: the segment is
    /// scanned unpruned. Writers clear this before touching segment
    /// data and only restore it after a map for the *new* contents is
    /// durably written, so a map is never stale.
    zone: Option<Rid>,
}

struct Column {
    file: HeapFile,
    /// Zone-map records, one per segment, in a separate heap file so
    /// map pages and data pages fail independently (and fault
    /// injection can target one without the other).
    zones: HeapFile,
    segments: Vec<SegmentInfo>,
    compression: Compression,
}

/// A view stored column-at-a-time (transposed files).
pub struct TransposedFile {
    pool: Arc<BufferPool>,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    /// Version generation stamped into every persisted zone map. A map
    /// whose stamp disagrees is ignored ("scan unpruned"), so maps from
    /// a retired store version — or from before a rebuild — can never
    /// prune this version's scans.
    generation: u64,
    /// Scan seal: CRC-verified images of the data pages, captured by
    /// [`TableStore::seal_for_scan`]. While present, every segment
    /// read is served zero-copy from the images instead of the buffer
    /// pool. Every mutator clears it (mutation unseals); the seal dies
    /// with the store, so MVCC-lite epoch retirement of a superseded
    /// store version is what finally "unmaps" it — never under a
    /// pinned snapshot.
    mmap: Option<MmapSegmentSource>,
}

impl std::fmt::Debug for TransposedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransposedFile")
            .field("rows", &self.rows)
            .field("columns", &self.columns.len())
            .field("sealed", &self.mmap.is_some())
            .finish()
    }
}

/// Pick a default compression per attribute: RLE for category-like
/// types (codes, strings, ints — long runs in cross-product order),
/// raw for floats (runs are rare in measurements).
#[must_use]
pub fn default_compression(dtype: DataType) -> Compression {
    match dtype {
        DataType::Code => Compression::Rle,
        DataType::Str => Compression::Dictionary,
        DataType::Int => Compression::Rle,
        DataType::Float => Compression::None,
    }
}

impl TransposedFile {
    /// Create an empty transposed store; compression is chosen per
    /// column by [`default_compression`].
    pub fn create(pool: Arc<BufferPool>, schema: Schema) -> Result<Self> {
        let compressions: Vec<Compression> = schema
            .attributes()
            .iter()
            .map(|a| default_compression(a.dtype))
            .collect();
        Self::create_with(pool, schema, &compressions)
    }

    /// Create with an explicit compression per column.
    pub fn create_with(
        pool: Arc<BufferPool>,
        schema: Schema,
        compressions: &[Compression],
    ) -> Result<Self> {
        if compressions.len() != schema.len() {
            return Err(DataError::ArityMismatch {
                expected: schema.len(),
                got: compressions.len(),
            });
        }
        let mut columns = Vec::with_capacity(schema.len());
        for &compression in compressions {
            columns.push(Column {
                file: HeapFile::create(pool.clone()).map_err(DataError::Storage)?,
                zones: HeapFile::create(pool.clone()).map_err(DataError::Storage)?,
                segments: Vec::new(),
                compression,
            });
        }
        Ok(TransposedFile {
            pool,
            schema,
            columns,
            rows: 0,
            generation: 0,
            mmap: None,
        })
    }

    /// Bulk-load a data set (column at a time, full segments).
    pub fn from_dataset(pool: Arc<BufferPool>, ds: &DataSet) -> Result<Self> {
        Self::from_dataset_at(pool, ds, 0)
    }

    /// Bulk-load at a specific store generation — used when building
    /// the successor version of an existing store, so its zone maps are
    /// stamped correctly from the first write.
    pub fn from_dataset_at(pool: Arc<BufferPool>, ds: &DataSet, generation: u64) -> Result<Self> {
        let mut store = Self::create(pool, ds.schema().clone())?;
        store.generation = generation;
        store.bulk_append(ds)?;
        Ok(store)
    }

    /// The generation this store stamps into (and requires of) its
    /// persisted zone maps.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Append all rows of `ds` (schema must match).
    pub fn bulk_append(&mut self, ds: &DataSet) -> Result<()> {
        if ds.schema() != &self.schema {
            return Err(DataError::Decode("bulk_append schema mismatch"));
        }
        self.mmap = None; // mutation unseals
        let generation = self.generation;
        for (ci, attr) in self.schema.attributes().iter().enumerate() {
            let values: Vec<Value> = ds.column(&attr.name)?.cloned().collect();
            let col = &mut self.columns[ci];
            let mut start = self.rows;
            for chunk in values.chunks(SEGMENT_ROWS) {
                let bytes = encode_segment(chunk, col.compression);
                let rid = col.file.insert(&bytes).map_err(DataError::Storage)?;
                let zone = Self::write_zone(&mut col.zones, chunk, generation);
                col.segments.push(SegmentInfo {
                    rid,
                    start_row: start,
                    len: chunk.len(),
                    zone,
                });
                start += chunk.len();
            }
        }
        self.rows += ds.len();
        self.repack_tail()?;
        Ok(())
    }

    /// Total disk pages across all column files.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.columns.iter().map(|c| c.file.page_count()).sum()
    }

    /// Pages of one column's file.
    pub fn column_page_count(&self, attribute: &str) -> Result<usize> {
        let ci = self.schema.require(attribute)?;
        Ok(self.columns[ci].file.page_count())
    }

    /// The compression of one column.
    pub fn column_compression(&self, attribute: &str) -> Result<Compression> {
        let ci = self.schema.require(attribute)?;
        Ok(self.columns[ci].compression)
    }

    fn segment_index_for_row(col: &Column, row: usize) -> Option<usize> {
        let i = col.segments.partition_point(|s| s.start_row + s.len <= row);
        (i < col.segments.len()).then_some(i)
    }

    /// Persist a zone map for `values`, stamped with `generation`,
    /// returning its record id. Returns `None` on any write failure —
    /// zone maps are advisory, so losing one degrades scans to
    /// unpruned, never fails the data operation that triggered it.
    fn write_zone(zones: &mut HeapFile, values: &[Value], generation: u64) -> Option<Rid> {
        zones
            .insert(&ZoneMap::build(values).encode_tagged(generation))
            .ok()
    }

    /// Load one segment's zone map. Returns `None` — "scan unpruned" —
    /// when the segment has no map, the record read fails (torn or
    /// corrupt page fails its checksum), the bytes don't decode, the
    /// map's generation stamp disagrees with the store's, or the map
    /// disagrees with the directory about the row count.
    fn load_zone(col: &Column, si: usize, generation: u64) -> Option<ZoneMap> {
        let info = col.segments[si];
        let bytes = col.zones.get(info.zone?).ok()?;
        let (zm, stamp) = ZoneMap::decode_tagged(&bytes).ok()?;
        (stamp == generation && zm.rows == info.len).then_some(zm)
    }

    fn load_segment(col: &Column, si: usize) -> Result<Vec<Value>> {
        let info = col.segments[si];
        let bytes = col.file.get(info.rid).map_err(DataError::Storage)?;
        let vals = decode_segment(&bytes)?;
        if vals.len() != info.len {
            return Err(DataError::Decode("segment directory out of sync"));
        }
        Ok(vals)
    }

    /// Fetch one segment's raw record, verifying the stored row count
    /// against the directory (partial decoders skip the full-decode
    /// length check).
    fn segment_bytes(col: &Column, si: usize) -> Result<Vec<u8>> {
        let info = col.segments[si];
        let bytes = col.file.get(info.rid).map_err(DataError::Storage)?;
        let n = crate::read_u16(&bytes, 0, "segment header truncated")? as usize;
        if n != info.len {
            return Err(DataError::Decode("segment directory out of sync"));
        }
        Ok(bytes)
    }

    /// Fetch one segment's raw record for a read path, serving it
    /// zero-copy from the scan seal when one is in place and from the
    /// buffer pool otherwise. Both sides verify the stored row count
    /// against the directory, so the bytes handed to decoders are
    /// interchangeable.
    fn segment_bytes_view<'a>(&'a self, col: &'a Column, si: usize) -> Result<Cow<'a, [u8]>> {
        if let Some(m) = &self.mmap {
            let info = col.segments[si];
            let bytes = m.record_bytes(info.rid).map_err(DataError::Storage)?;
            let n = crate::read_u16(bytes, 0, "segment header truncated")? as usize;
            if n != info.len {
                return Err(DataError::Decode("segment directory out of sync"));
            }
            return Ok(Cow::Borrowed(bytes));
        }
        Self::segment_bytes(col, si).map(Cow::Owned)
    }

    fn store_segment(col: &mut Column, si: usize, values: &[Value], generation: u64) -> Result<()> {
        // Invalidate-first: drop the old zone map before the data
        // changes so a failure between the two writes leaves the
        // segment unpruned rather than pruned by a stale map.
        if let Some(z) = col.segments[si].zone.take() {
            // lint: allow(swallowed-error): the zone entry is already detached — a failed delete leaks a dead zone-map page, never a stale pruning decision
            let _ = col.zones.delete(z);
        }
        let bytes = encode_segment(values, col.compression);
        let info = col.segments[si];
        let new_rid = col
            .file
            .update(info.rid, &bytes)
            .map_err(DataError::Storage)?;
        col.segments[si].rid = new_rid;
        col.segments[si].len = values.len();
        col.segments[si].zone = Self::write_zone(&mut col.zones, values, generation);
        Ok(())
    }

    /// Merge undersized tail segments created by row-at-a-time appends.
    fn repack_tail(&mut self) -> Result<()> {
        let generation = self.generation;
        for col in &mut self.columns {
            while col.segments.len() >= 2 {
                let last = col.segments[col.segments.len() - 1];
                let prev = col.segments[col.segments.len() - 2];
                if prev.len + last.len > SEGMENT_ROWS {
                    break;
                }
                let mut vals = Self::load_segment(col, col.segments.len() - 2)?;
                vals.extend(Self::load_segment(col, col.segments.len() - 1)?);
                col.file.delete(last.rid).map_err(DataError::Storage)?;
                if let Some(z) = last.zone {
                    // lint: allow(swallowed-error): the merged segment's zone is rebuilt below — a failed delete leaks a dead page, never a stale map
                    let _ = col.zones.delete(z);
                }
                col.segments.pop();
                let si = col.segments.len() - 1;
                Self::store_segment(col, si, &vals, generation)?;
            }
        }
        Ok(())
    }

    /// Pages holding zone-map records (across all columns), disjoint
    /// from data pages. Exposed so fault-injection tests can corrupt
    /// exactly the advisory statistics and assert scans degrade to
    /// unpruned rather than answer wrongly.
    #[must_use]
    pub fn zone_page_ids(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self.columns.iter().flat_map(|c| c.zones.pages()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// How many segments of one column currently have a readable zone
    /// map (diagnostics and tests).
    pub fn zone_map_count(&self, attribute: &str) -> Result<usize> {
        let ci = self.schema.require(attribute)?;
        let col = &self.columns[ci];
        Ok((0..col.segments.len())
            .filter(|&si| Self::load_zone(col, si, self.generation).is_some())
            .count())
    }
}

impl TableStore for TransposedFile {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn read_column(&self, attribute: &str) -> Result<Vec<Value>> {
        let ci = self.schema.require(attribute)?;
        let col = &self.columns[ci];
        let mut out = Vec::with_capacity(self.rows);
        for si in 0..col.segments.len() {
            let bytes = self.segment_bytes_view(col, si)?;
            let vals = decode_segment(&bytes)?;
            if vals.len() != col.segments[si].len {
                return Err(DataError::Decode("segment directory out of sync"));
            }
            out.extend(vals);
        }
        Ok(out)
    }

    fn read_column_f64(&self, attribute: &str) -> Result<(Vec<f64>, usize)> {
        // The same segment walk as `read_column` — same fetches in the
        // same order, same directory checks — decoded straight into
        // the numeric lane instead of per-row `Value`s.
        let ci = self.schema.require(attribute)?;
        let col = &self.columns[ci];
        let mut out = Vec::with_capacity(self.rows);
        let mut rows = 0usize;
        for si in 0..col.segments.len() {
            let bytes = self.segment_bytes_view(col, si)?;
            let n = decode_segment_f64(&bytes, &mut out)?;
            if n != col.segments[si].len {
                return Err(DataError::Decode("segment directory out of sync"));
            }
            rows += n;
        }
        let skipped = rows - out.len();
        Ok((out, skipped))
    }

    fn read_column_range(&self, attribute: &str, start: usize, len: usize) -> Result<Vec<Value>> {
        let ci = self.schema.require(attribute)?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.rows)
            .ok_or(DataError::NoSuchRow(start.saturating_add(len).max(1) - 1))?;
        if start == end {
            return Ok(Vec::new());
        }
        // Decode only the segments overlapping [start, end) — a morsel
        // aligned to SEGMENT_ROWS touches exactly its own segments, so
        // parallel workers never fetch each other's pages — and within
        // a partially-covered segment, decode only the covered rows.
        let col = &self.columns[ci];
        let first = Self::segment_index_for_row(col, start)
            .ok_or(DataError::Decode("segment directory out of sync"))?;
        let mut out = Vec::with_capacity(len);
        for si in first..col.segments.len() {
            let info = col.segments[si];
            if info.start_row >= end {
                break;
            }
            let bytes = self.segment_bytes_view(col, si)?;
            let lo = start.saturating_sub(info.start_row);
            let hi = (end - info.start_row).min(info.len);
            out.extend(decode_segment_range(&bytes, lo, hi)?);
        }
        Ok(out)
    }

    fn read_column_batch(&self, attribute: &str, start: usize, len: usize) -> Result<ColumnBatch> {
        let ci = self.schema.require(attribute)?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.rows)
            .ok_or(DataError::NoSuchRow(start.saturating_add(len).max(1) - 1))?;
        let mut out = ColumnBatch::new();
        if start == end {
            return Ok(out);
        }
        // Same segment walk as `read_column_range`, but decoded
        // straight into the typed batch: RLE and dictionary segments
        // contribute runs (one `Value` per run), raw segments decode
        // primitive payloads directly into the lane.
        let col = &self.columns[ci];
        let first = Self::segment_index_for_row(col, start)
            .ok_or(DataError::Decode("segment directory out of sync"))?;
        for si in first..col.segments.len() {
            let info = col.segments[si];
            if info.start_row >= end {
                break;
            }
            let bytes = self.segment_bytes_view(col, si)?;
            let lo = start.saturating_sub(info.start_row);
            let hi = (end - info.start_row).min(info.len);
            decode_batch_range(&bytes, lo, hi, &mut out)?;
        }
        Ok(out)
    }

    fn seal_for_scan(&mut self) -> Result<bool> {
        if self.mmap.is_some() {
            return Ok(true);
        }
        let pages = self.data_page_ids();
        // lint: allow(mmap-seam-bypass): the one sanctioned door — map() flushes the pool and CRC-verifies every data page before any zero-copy read is served
        let src = MmapSegmentSource::map(&self.pool, &pages).map_err(DataError::Storage)?;
        self.mmap = Some(src);
        Ok(true)
    }

    fn scan_sealed(&self) -> bool {
        self.mmap.is_some()
    }

    fn range_stats(&self, attribute: &str, start: usize, len: usize) -> Option<ZoneMap> {
        let ci = self.schema.require(attribute).ok()?;
        let end = start.checked_add(len).filter(|&e| e <= self.rows)?;
        if start == end {
            return Some(ZoneMap::default());
        }
        let col = &self.columns[ci];
        let first = Self::segment_index_for_row(col, start)?;
        let mut merged = ZoneMap::default();
        for si in first..col.segments.len() {
            let info = col.segments[si];
            if info.start_row >= end {
                break;
            }
            // Pruning decisions cover whole segments: a map describes
            // its full segment, so partial overlap still merges the
            // whole map (conservative — a superset of the range).
            merged.merge(&Self::load_zone(col, si, self.generation)?);
        }
        Some(merged)
    }

    fn read_column_runs(
        &self,
        attribute: &str,
        start: usize,
        len: usize,
    ) -> Result<Vec<(Value, usize)>> {
        let ci = self.schema.require(attribute)?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.rows)
            .ok_or(DataError::NoSuchRow(start.saturating_add(len).max(1) - 1))?;
        if start == end {
            return Ok(Vec::new());
        }
        let col = &self.columns[ci];
        let first = Self::segment_index_for_row(col, start)
            .ok_or(DataError::Decode("segment directory out of sync"))?;
        let mut out: Vec<(Value, usize)> = Vec::new();
        for si in first..col.segments.len() {
            let info = col.segments[si];
            if info.start_row >= end {
                break;
            }
            let bytes = self.segment_bytes_view(col, si)?;
            let lo = start.saturating_sub(info.start_row);
            let hi = (end - info.start_row).min(info.len);
            if lo == 0 && hi == info.len {
                // Fully-covered segment: runs come straight off the
                // encoded record, no row materialization.
                out.extend(segment_runs(&bytes)?);
            } else {
                for v in decode_segment_range(&bytes, lo, hi)? {
                    match out.last_mut() {
                        Some((rv, n)) if rv.group_eq(&v) => *n += 1,
                        _ => out.push((v, 1)),
                    }
                }
            }
        }
        Ok(out)
    }

    fn read_row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(DataError::NoSuchRow(row));
        }
        // One segment fetch *per column* — the informational-query
        // penalty of transposed files. Only the addressed row is
        // decoded from each record.
        let mut out = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            let si = Self::segment_index_for_row(col, row)
                .ok_or(DataError::Decode("segment directory out of sync"))?;
            let off = row - col.segments[si].start_row;
            let bytes = self.segment_bytes_view(col, si)?;
            let mut vals = decode_segment_range(&bytes, off, off + 1)?;
            out.push(
                vals.pop()
                    .ok_or(DataError::Decode("segment directory out of sync"))?,
            );
        }
        Ok(out)
    }

    fn get_cell(&self, row: usize, attribute: &str) -> Result<Value> {
        let ci = self.schema.require(attribute)?;
        if row >= self.rows {
            return Err(DataError::NoSuchRow(row));
        }
        let col = &self.columns[ci];
        let si = Self::segment_index_for_row(col, row)
            .ok_or(DataError::Decode("segment directory out of sync"))?;
        let off = row - col.segments[si].start_row;
        let bytes = self.segment_bytes_view(col, si)?;
        decode_segment_range(&bytes, off, off + 1)?
            .pop()
            .ok_or(DataError::Decode("segment directory out of sync"))
    }

    fn set_cell(&mut self, row: usize, attribute: &str, value: Value) -> Result<Value> {
        let ci = self.schema.require(attribute)?;
        let attr = self.schema.attribute_at(ci);
        if !value.conforms_to(attr.dtype) {
            return Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "declared attribute type",
                got: value.type_name(),
            });
        }
        if row >= self.rows {
            return Err(DataError::NoSuchRow(row));
        }
        self.mmap = None; // mutation unseals
        let generation = self.generation;
        let col = &mut self.columns[ci];
        let si = Self::segment_index_for_row(col, row)
            .ok_or(DataError::Decode("segment directory out of sync"))?;
        let mut vals = Self::load_segment(col, si)?;
        let off = row - col.segments[si].start_row;
        let old = std::mem::replace(&mut vals[off], value);
        Self::store_segment(col, si, &vals, generation)?;
        Ok(old)
    }

    fn add_column(&mut self, attr: sdbms_data::Attribute, values: Vec<Value>) -> Result<()> {
        if values.len() != self.rows {
            return Err(DataError::ArityMismatch {
                expected: self.rows,
                got: values.len(),
            });
        }
        self.mmap = None; // mutation unseals
        let compression = default_compression(attr.dtype);
        let new_schema = self.schema.with_appended(attr)?;
        // A new column file — no existing data moves (the transposed
        // layout's schema-growth advantage).
        let mut col = Column {
            file: HeapFile::create(self.pool.clone()).map_err(DataError::Storage)?,
            zones: HeapFile::create(self.pool.clone()).map_err(DataError::Storage)?,
            segments: Vec::new(),
            compression,
        };
        let mut start = 0usize;
        for chunk in values.chunks(SEGMENT_ROWS) {
            let bytes = encode_segment(chunk, compression);
            let rid = col.file.insert(&bytes).map_err(DataError::Storage)?;
            let zone = Self::write_zone(&mut col.zones, chunk, self.generation);
            col.segments.push(SegmentInfo {
                rid,
                start_row: start,
                len: chunk.len(),
                zone,
            });
            start += chunk.len();
        }
        self.columns.push(col);
        self.schema = new_schema;
        Ok(())
    }

    fn data_page_ids(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self.columns.iter().flat_map(|c| c.file.pages()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn zone_map_page_ids(&self) -> Vec<PageId> {
        self.zone_page_ids()
    }

    fn rebuild_zone_maps(&mut self) -> Result<usize> {
        self.mmap = None; // mutation unseals
        let pool = self.pool.clone();
        // Move to the next generation before writing anything: even if
        // an abandoned pre-rebuild map page were somehow consulted
        // again, its stamp no longer matches and it cannot prune.
        self.generation += 1;
        let generation = self.generation;
        let mut written = 0usize;
        for col in &mut self.columns {
            // The old zones file may hold damaged pages, and inserting
            // into a damaged heap can itself fail — so rebuilt maps go
            // to a fresh file and the old pages are abandoned. Maps are
            // derived purely from segment data (the rung's authority);
            // an unreadable segment propagates as an error, telling the
            // caller this damage is above the zone-map rung.
            let mut zones = HeapFile::create(pool.clone()).map_err(DataError::Storage)?;
            for si in 0..col.segments.len() {
                let vals = Self::load_segment(col, si)?;
                col.segments[si].zone = Self::write_zone(&mut zones, &vals, generation);
                if col.segments[si].zone.is_some() {
                    written += 1;
                }
            }
            col.zones = zones;
        }
        Ok(written)
    }

    fn boxed_clone(&self) -> Result<Box<dyn TableStore + Send + Sync>> {
        // The clone is the successor version in the making: fresh pages
        // throughout (the original's are never written) and the next
        // generation, so its zone maps can never be confused with the
        // original's.
        let ds = self.to_dataset("shadow")?;
        Ok(Box::new(Self::from_dataset_at(
            self.pool.clone(),
            &ds,
            self.generation + 1,
        )?))
    }

    fn store_generation(&self) -> u64 {
        self.generation
    }

    fn segment_count(&self, attribute: &str) -> usize {
        self.schema
            .require(attribute)
            .map_or(0, |ci| self.columns[ci].segments.len())
    }

    fn encoded_segment(&self, attribute: &str, segment: usize) -> Result<Option<Vec<u8>>> {
        let ci = self.schema.require(attribute)?;
        let col = &self.columns[ci];
        if segment >= col.segments.len() {
            return Ok(None);
        }
        Self::segment_bytes(col, segment).map(Some)
    }

    fn append_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        self.mmap = None; // mutation unseals
        let generation = self.generation;
        for (ci, v) in row.into_iter().enumerate() {
            let col = &mut self.columns[ci];
            match col.segments.last().copied() {
                Some(last) if last.len < SEGMENT_ROWS => {
                    let si = col.segments.len() - 1;
                    let mut vals = Self::load_segment(col, si)?;
                    vals.push(v);
                    Self::store_segment(col, si, &vals, generation)?;
                }
                _ => {
                    let bytes = encode_segment(std::slice::from_ref(&v), col.compression);
                    let rid = col.file.insert(&bytes).map_err(DataError::Storage)?;
                    let zone =
                        Self::write_zone(&mut col.zones, std::slice::from_ref(&v), generation);
                    col.segments.push(SegmentInfo {
                        rid,
                        start_row: self.rows,
                        len: 1,
                        zone,
                    });
                }
            }
        }
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_data::census::{figure1, microdata_census, CensusConfig};
    use sdbms_storage::StorageEnv;

    fn micro(rows: usize) -> DataSet {
        microdata_census(&CensusConfig {
            rows,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn roundtrip_figure1() {
        let env = StorageEnv::new(64);
        let t = TransposedFile::from_dataset(env.pool, &figure1()).unwrap();
        assert_eq!(t.len(), 9);
        let ds = t.to_dataset("check").unwrap();
        assert_eq!(ds.rows(), figure1().rows());
    }

    #[test]
    fn roundtrip_large_multisegment() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert_eq!(t.len(), 1000);
        for attr in ["AGE", "INCOME", "SEX", "REGION"] {
            let col = t.read_column(attr).unwrap();
            let expect: Vec<Value> = ds.column(attr).unwrap().cloned().collect();
            assert_eq!(col, expect, "column {attr}");
        }
        assert_eq!(t.read_row(999).unwrap(), ds.rows()[999]);
        assert!(t.read_row(1000).is_err());
    }

    #[test]
    fn column_read_touches_fewer_pages_than_row_store() {
        use crate::rowstore::RowStore;
        let ds = micro(4000);
        // Tiny pools so I/O actually happens.
        let env_t = StorageEnv::new(4);
        let mut t = TransposedFile::from_dataset(env_t.pool.clone(), &ds).unwrap();
        let env_r = StorageEnv::new(4);
        let r = RowStore::from_dataset(env_r.pool.clone(), &ds).unwrap();

        env_t.tracker.reset();
        let _ = t.read_column("INCOME").unwrap();
        let t_reads = env_t.tracker.snapshot().page_reads;

        env_r.tracker.reset();
        let _ = r.read_column("INCOME").unwrap();
        let r_reads = env_r.tracker.snapshot().page_reads;

        assert!(
            t_reads * 3 < r_reads,
            "transposed {t_reads} pages vs row {r_reads} pages"
        );

        // And the informational query reverses the comparison.
        env_t.tracker.reset();
        let _ = t.read_row(2000).unwrap();
        let t_row = env_t.tracker.snapshot().page_reads;
        env_r.tracker.reset();
        let _ = r.read_row(2000).unwrap();
        let r_row = env_r.tracker.snapshot().page_reads;
        assert!(
            r_row <= t_row,
            "row store row read {r_row} should not exceed transposed {t_row}"
        );
        // Silence unused-mut lint (set_cell exercised elsewhere).
        let _ = t.set_cell(0, "AGE", Value::Int(30)).unwrap();
    }

    #[test]
    fn set_cell_preserves_neighbors() {
        let env = StorageEnv::new(64);
        let ds = micro(600);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let old = t.set_cell(300, "AGE", Value::Int(77)).unwrap();
        assert_eq!(old, ds.rows()[300][4]);
        assert_eq!(t.get_cell(300, "AGE").unwrap(), Value::Int(77));
        assert_eq!(t.get_cell(299, "AGE").unwrap(), ds.rows()[299][4]);
        assert_eq!(t.get_cell(301, "AGE").unwrap(), ds.rows()[301][4]);
        // Invalidation: mark missing.
        t.set_cell(300, "AGE", Value::Missing).unwrap();
        let (nums, skipped) = t.read_column_f64("AGE").unwrap();
        assert_eq!(nums.len(), 599);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn append_rows_one_at_a_time() {
        let env = StorageEnv::new(64);
        let mut t = TransposedFile::create(env.pool, figure1().schema().clone()).unwrap();
        for row in figure1().rows() {
            t.append_row(row.clone()).unwrap();
        }
        assert_eq!(t.len(), 9);
        assert_eq!(t.to_dataset("x").unwrap().rows(), figure1().rows());
    }

    #[test]
    fn bulk_append_after_partial_segment() {
        let env = StorageEnv::new(128);
        let ds = micro(300);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let ds2 = micro(300);
        // Appending again must keep all rows addressable even though the
        // previous tail segment was partial.
        t.bulk_append(&ds2).unwrap();
        assert_eq!(t.len(), 600);
        assert_eq!(t.read_row(0).unwrap(), ds.rows()[0]);
        assert_eq!(t.read_row(300).unwrap(), ds2.rows()[0]);
        assert_eq!(t.read_row(599).unwrap(), ds2.rows()[299]);
        let ages = t.read_column("AGE").unwrap();
        assert_eq!(ages.len(), 600);
    }

    #[test]
    fn range_reads_match_full_column() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let full = t.read_column("INCOME").unwrap();
        // Segment-aligned, straddling, single-row, empty, and tail ranges.
        for (start, len) in [(0, 256), (200, 300), (999, 1), (500, 0), (768, 232)] {
            let got = t.read_column_range("INCOME", start, len).unwrap();
            assert_eq!(got, full[start..start + len], "range ({start}, {len})");
        }
        assert_eq!(t.read_column_range("INCOME", 0, 1000).unwrap(), full);
        assert!(t.read_column_range("INCOME", 900, 101).is_err());
        assert!(t.read_column_range("NOPE", 0, 1).is_err());
    }

    #[test]
    fn range_read_touches_only_its_segments() {
        let env = StorageEnv::new(4);
        let ds = micro(4000);
        let t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        env.tracker.reset();
        let _ = t.read_column("INCOME").unwrap();
        let full_reads = env.tracker.snapshot().page_reads;
        env.tracker.reset();
        let _ = t.read_column_range("INCOME", 0, SEGMENT_ROWS).unwrap();
        let range_reads = env.tracker.snapshot().page_reads;
        assert!(
            range_reads * 4 < full_reads.max(4),
            "one-segment range read {range_reads} pages vs full column {full_reads}"
        );
    }

    #[test]
    fn compression_metadata_exposed() {
        let env = StorageEnv::new(64);
        let t = TransposedFile::from_dataset(env.pool, &figure1()).unwrap();
        assert_eq!(t.column_compression("AGE_GROUP").unwrap(), Compression::Rle);
        assert_eq!(
            t.column_compression("SEX").unwrap(),
            Compression::Dictionary
        );
        assert!(t.column_page_count("SEX").unwrap() >= 1);
        assert!(t.column_compression("NOPE").is_err());
    }

    #[test]
    fn zone_maps_cover_every_segment_after_bulk_load() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        for attr in ["AGE", "INCOME", "SEX", "REGION"] {
            assert_eq!(t.zone_map_count(attr).unwrap(), 4, "{attr}");
            let zm = t.range_stats(attr, 0, 1000).expect("full-column stats");
            assert_eq!(zm.rows, 1000);
            let col = t.read_column(attr).unwrap();
            assert_eq!(zm, crate::zonemap::ZoneMap::build(&col), "{attr}");
        }
        // Per-morsel stats merge exactly too (two segments).
        let zm = t.range_stats("AGE", 256, 512).unwrap();
        let col = t.read_column_range("AGE", 256, 512).unwrap();
        assert_eq!(zm, crate::zonemap::ZoneMap::build(&col));
        // Out-of-bounds range: no stats.
        assert!(t.range_stats("AGE", 900, 200).is_none());
        assert!(t.range_stats("NOPE", 0, 10).is_none());
    }

    #[test]
    fn set_cell_recomputes_zone_map_not_stale() {
        let env = StorageEnv::new(256);
        let ds = micro(600);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let before = t.range_stats("AGE", 256, 256).expect("stats");
        assert!(!before.may_contain(&Value::Int(5000)));
        t.set_cell(300, "AGE", Value::Int(5000)).unwrap();
        let after = t.range_stats("AGE", 256, 256).expect("stats recomputed");
        assert!(
            after.may_contain(&Value::Int(5000)),
            "map must not be stale"
        );
        assert_eq!(after.max, Some(Value::Int(5000)));
    }

    #[test]
    fn corrupt_zone_page_degrades_to_no_stats_reads_still_work() {
        let env = StorageEnv::new(64);
        let ds = micro(700);
        let t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        assert!(t.range_stats("AGE", 0, 700).is_some());
        env.pool.flush_all().unwrap();
        env.pool.discard_frames().unwrap();
        for pid in t.zone_page_ids() {
            env.disk.corrupt_page(pid, 5).unwrap();
        }
        // Stats gone (checksum rejects the pages)…
        assert!(t.range_stats("AGE", 0, 700).is_none());
        // …but data reads are untouched: zone pages are disjoint.
        let col = t.read_column("AGE").unwrap();
        assert_eq!(col.len(), 700);
    }

    #[test]
    fn column_runs_expand_to_column_values() {
        let env = StorageEnv::new(256);
        let ds = micro(900);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        for attr in ["SEX", "INCOME", "REGION"] {
            let full = t.read_column(attr).unwrap();
            for (start, len) in [(0, 900), (0, 256), (100, 400), (899, 1), (450, 0)] {
                let runs = t.read_column_runs(attr, start, len).unwrap();
                let expanded: Vec<Value> = runs
                    .iter()
                    .flat_map(|(v, n)| std::iter::repeat_n(v.clone(), *n))
                    .collect();
                assert_eq!(expanded, full[start..start + len], "{attr} ({start},{len})");
            }
        }
        assert!(t.read_column_runs("SEX", 800, 200).is_err());
    }

    #[test]
    fn append_and_repack_keep_zone_maps_fresh() {
        let env = StorageEnv::new(128);
        let mut t = TransposedFile::create(env.pool, figure1().schema().clone()).unwrap();
        for row in figure1().rows() {
            t.append_row(row.clone()).unwrap();
        }
        let zm = t.range_stats("AGE_GROUP", 0, t.len()).expect("stats");
        let col = t.read_column("AGE_GROUP").unwrap();
        assert_eq!(zm, crate::zonemap::ZoneMap::build(&col));
        // Bulk append triggers repack of the partial tail.
        let ds = micro(300);
        let mut t2 = TransposedFile::from_dataset(StorageEnv::new(128).pool, &ds).unwrap();
        t2.bulk_append(&micro(300)).unwrap();
        let zm = t2.range_stats("AGE", 0, 600).expect("stats after repack");
        assert_eq!(
            zm,
            crate::zonemap::ZoneMap::build(&t2.read_column("AGE").unwrap())
        );
    }

    #[test]
    fn boxed_clone_is_successor_version_on_fresh_pages() {
        let env = StorageEnv::new(256);
        let ds = micro(600);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert_eq!(t.store_generation(), 0);
        let mut shadow = t.boxed_clone().unwrap();
        assert_eq!(shadow.store_generation(), 1);
        assert_eq!(shadow.len(), t.len());
        // Disjoint pages: mutating the clone leaves the original alone.
        let t_pages: std::collections::HashSet<_> = t
            .data_page_ids()
            .into_iter()
            .chain(t.zone_map_page_ids())
            .collect();
        assert!(shadow
            .data_page_ids()
            .iter()
            .chain(shadow.zone_map_page_ids().iter())
            .all(|p| !t_pages.contains(p)));
        let before = t.get_cell(10, "AGE").unwrap();
        shadow.set_cell(10, "AGE", Value::Int(101)).unwrap();
        assert_eq!(t.get_cell(10, "AGE").unwrap(), before);
        // The clone's zone maps are live at its own generation.
        let zm = shadow.range_stats("AGE", 0, 600).expect("clone has maps");
        assert_eq!(zm.rows, 600);
    }

    #[test]
    fn rebuild_bumps_generation_and_old_maps_cannot_prune() {
        let env = StorageEnv::new(256);
        let ds = micro(400);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert_eq!(t.generation(), 0);
        t.rebuild_zone_maps().unwrap();
        assert_eq!(t.generation(), 1);
        // Rebuilt maps serve the new generation exactly.
        let zm = t.range_stats("AGE", 0, 400).expect("rebuilt maps");
        assert_eq!(
            zm,
            crate::zonemap::ZoneMap::build(&t.read_column("AGE").unwrap())
        );
    }

    #[test]
    fn batch_reads_match_range_reads() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        for attr in ["AGE", "INCOME", "SEX", "REGION"] {
            for (start, len) in [
                (0, 1000),
                (0, 256),
                (200, 300),
                (999, 1),
                (500, 0),
                (768, 232),
            ] {
                let batch = t.read_column_batch(attr, start, len).unwrap();
                let want = t.read_column_range(attr, start, len).unwrap();
                assert_eq!(batch.to_values(), want, "{attr} ({start},{len})");
                assert_eq!(batch.rows(), len, "{attr} ({start},{len})");
            }
        }
        assert!(t.read_column_batch("INCOME", 900, 101).is_err());
        assert!(t.read_column_batch("NOPE", 0, 1).is_err());
    }

    #[test]
    fn sealed_reads_byte_identical_to_pool_reads() {
        let env = StorageEnv::new(256);
        let ds = micro(900);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert!(!t.scan_sealed());
        let attrs = ["AGE", "INCOME", "SEX", "REGION"];
        let before: Vec<Vec<Value>> = attrs.iter().map(|a| t.read_column(a).unwrap()).collect();
        assert!(t.seal_for_scan().unwrap());
        assert!(t.scan_sealed());
        // Sealing is idempotent.
        assert!(t.seal_for_scan().unwrap());
        for (a, want) in attrs.iter().zip(&before) {
            assert_eq!(&t.read_column(a).unwrap(), want, "{a}");
            let batch = t.read_column_batch(a, 100, 500).unwrap();
            assert_eq!(batch.to_values(), want[100..600], "{a} batch");
            let runs = t.read_column_runs(a, 0, 900).unwrap();
            let expanded: Vec<Value> = runs
                .iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v.clone(), *n))
                .collect();
            assert_eq!(&expanded, want, "{a} runs");
        }
        assert_eq!(t.read_row(456).unwrap(), ds.rows()[456]);
        // Encoded segments compare byte-for-byte across the two paths.
        let sealed_seg = t.encoded_segment("AGE", 1).unwrap().unwrap();
        let info_bytes = t
            .segment_bytes_view(&t.columns[t.schema.require("AGE").unwrap()], 1)
            .unwrap();
        assert_eq!(&sealed_seg[..], &info_bytes[..]);
    }

    #[test]
    fn sealed_scans_do_no_io_and_mutation_unseals() {
        let env = StorageEnv::new(8); // tiny pool: unsealed scans must fault
        let ds = micro(2000);
        let mut t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        t.seal_for_scan().unwrap();
        env.pool.discard_frames().unwrap();
        env.tracker.reset();
        let sealed_col = t.read_column("INCOME").unwrap();
        assert_eq!(
            env.tracker.snapshot().page_reads,
            0,
            "sealed scan bypasses the pool entirely"
        );
        // Mutation unseals; the same scan now reads through the pool.
        t.set_cell(0, "INCOME", Value::Float(1.5)).unwrap();
        assert!(!t.scan_sealed());
        env.tracker.reset();
        let unsealed_col = t.read_column("INCOME").unwrap();
        assert!(env.tracker.snapshot().page_reads > 0);
        assert_eq!(sealed_col[1..], unsealed_col[1..]);
    }

    #[test]
    fn corrupt_data_page_fails_seal_and_pool_path_still_reports_it() {
        let env = StorageEnv::new(64);
        let ds = micro(700);
        let mut t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        env.pool.flush_all().unwrap();
        env.pool.discard_frames().unwrap();
        let victim = t.data_page_ids()[0];
        env.disk.corrupt_page(victim, 21).unwrap();
        // The seal CRC-verifies at map time: corruption surfaces as an
        // error and the store stays unsealed (degrades to pool path).
        let err = t.seal_for_scan().unwrap_err();
        assert!(
            matches!(
                err,
                DataError::Storage(sdbms_storage::StorageError::ChecksumMismatch { .. })
            ),
            "{err:?}"
        );
        assert!(!t.scan_sealed());
    }

    /// `read_column_f64` against its oracle, `read_column` filtered
    /// through `as_f64`: the same values bit for bit, and the same
    /// count of rows without a numeric view.
    fn assert_f64_read_matches(store: &dyn TableStore, attr: &str) {
        let vals = store.read_column(attr).unwrap();
        let want: Vec<u64> = vals
            .iter()
            .filter_map(Value::as_f64)
            .map(f64::to_bits)
            .collect();
        let (got, skipped) = store.read_column_f64(attr).unwrap();
        let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{attr}");
        assert_eq!(skipped, vals.len() - want.len(), "{attr} skipped");
    }

    #[test]
    fn f64_column_reads_equal_value_reads_on_every_store() {
        use crate::rowstore::RowStore;
        let mut ds = micro(900);
        // Missing cells, NaN payloads and signed zeros in the numeric
        // columns, so both decoders leave their fast path.
        let (age, income) = (
            ds.schema().require("AGE").unwrap(),
            ds.schema().require("INCOME").unwrap(),
        );
        let mut rows = ds.rows().to_vec();
        for (i, row) in rows.iter_mut().enumerate().step_by(37) {
            row[age] = Value::Missing;
            row[income] = [
                Value::Missing,
                Value::Float(-0.0),
                Value::Float(f64::from_bits(0x7FF8_0000_0000_00AB)),
            ][i % 3]
                .clone();
        }
        ds = DataSet::from_rows("micro", ds.schema().clone(), rows).unwrap();
        let attrs: Vec<String> = ds
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let env = StorageEnv::new(256);
        let mut t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        let r = RowStore::from_dataset(env.pool.clone(), &ds).unwrap();
        for a in &attrs {
            assert_f64_read_matches(&t, a);
            assert_f64_read_matches(&r, a);
        }
        assert!(t.seal_for_scan().unwrap());
        for a in &attrs {
            assert_f64_read_matches(&t, a);
        }
        assert!(t.read_column_f64("NOPE").is_err());
        assert!(r.read_column_f64("NOPE").is_err());
    }

    #[test]
    fn mismatched_compressions_rejected() {
        let env = StorageEnv::new(16);
        let r =
            TransposedFile::create_with(env.pool, figure1().schema().clone(), &[Compression::None]);
        assert!(r.is_err());
    }
}
