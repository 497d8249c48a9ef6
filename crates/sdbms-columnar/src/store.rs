//! The common interface of view storage layouts.
//!
//! A concrete view lives on disk in either a row layout
//! ([`crate::rowstore::RowStore`]) or a transposed layout
//! ([`crate::transposed::TransposedFile`]). The DBMS core talks to both
//! through [`TableStore`], which is also what lets the access-pattern
//! tracker swap layouts under a live view (§2.3's "intelligent access
//! methods that … dynamically reorganize the storage structures").

use sdbms_data::{DataError, DataSet, Schema, Value};
use sdbms_storage::PageId;

use crate::batch::ColumnBatch;
use crate::zonemap::ZoneMap;

/// Result alias matching the data-layer error type.
pub type Result<T> = std::result::Result<T, DataError>;

/// On-disk storage of one flat-file view.
pub trait TableStore {
    /// The view's schema.
    fn schema(&self) -> &Schema;

    /// Number of rows.
    fn len(&self) -> usize;

    /// True if the store holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one full column (the *statistical* access pattern: a few
    /// columns, every row).
    fn read_column(&self, attribute: &str) -> Result<Vec<Value>>;

    /// Read `len` values of one column starting at row `start` — the
    /// morsel-sized unit of a parallel scan. The default implementation
    /// reads the whole column and slices it; layouts override this to
    /// touch only the pages that hold the range.
    fn read_column_range(&self, attribute: &str, start: usize, len: usize) -> Result<Vec<Value>> {
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.len())
            .ok_or(DataError::NoSuchRow(start.saturating_add(len).max(1) - 1))?;
        let col = self.read_column(attribute)?;
        Ok(col[start..end].to_vec())
    }

    /// Zone-map statistics covering rows `[start, start + len)` of one
    /// column, if the layout maintains them and every overlapping
    /// segment's map is present and readable. `None` means "no
    /// statistics" — callers must scan unpruned, never guess. The
    /// default layout keeps no maps.
    fn range_stats(&self, _attribute: &str, _start: usize, _len: usize) -> Option<ZoneMap> {
        None
    }

    /// Read rows `[start, start + len)` of one column as `(value,
    /// run-length)` pairs whose expansion equals
    /// [`TableStore::read_column_range`] exactly. Run boundaries are
    /// layout-dependent and carry no meaning; run-aware consumers must
    /// produce identical results for any partition of the sequence
    /// into constant runs. The default coalesces a decoded range.
    fn read_column_runs(
        &self,
        attribute: &str,
        start: usize,
        len: usize,
    ) -> Result<Vec<(Value, usize)>> {
        let vals = self.read_column_range(attribute, start, len)?;
        let mut out: Vec<(Value, usize)> = Vec::new();
        for v in vals {
            match out.last_mut() {
                Some((rv, n)) if rv.group_eq(&v) => *n += 1,
                _ => out.push((v, 1)),
            }
        }
        Ok(out)
    }

    /// Read rows `[start, start + len)` of one column as a typed
    /// [`ColumnBatch`] whose expansion
    /// ([`ColumnBatch::to_values`]) equals
    /// [`TableStore::read_column_range`] exactly, bit for bit. This is
    /// the vectorized scan unit: segmented layouts override it to
    /// decode straight from segment bytes with no per-row `Value`
    /// materialization; the default wraps the scalar range read.
    fn read_column_batch(&self, attribute: &str, start: usize, len: usize) -> Result<ColumnBatch> {
        Ok(ColumnBatch::from_values(
            &self.read_column_range(attribute, start, len)?,
        ))
    }

    /// Seal the store for scanning: capture CRC-verified page images
    /// so subsequent batch reads bypass the buffer pool entirely (the
    /// simulated-mmap read path). Returns `true` if the layout
    /// supports sealing and the seal is now in place; the default
    /// layout does not. Any mutation unseals. Errors (corrupt pages,
    /// injected faults during the capture) leave the store unsealed —
    /// callers degrade to the buffer-pool path.
    fn seal_for_scan(&mut self) -> Result<bool> {
        Ok(false)
    }

    /// True while a scan seal from [`TableStore::seal_for_scan`] is in
    /// place (reads are served from the mapped images).
    fn scan_sealed(&self) -> bool {
        false
    }

    /// Read one full row (the *informational* access pattern: every
    /// column, one row).
    fn read_row(&self, row: usize) -> Result<Vec<Value>>;

    /// Read one cell.
    fn get_cell(&self, row: usize, attribute: &str) -> Result<Value>;

    /// Overwrite one cell, returning the previous value.
    fn set_cell(&mut self, row: usize, attribute: &str, value: Value) -> Result<Value>;

    /// Append one row.
    fn append_row(&mut self, row: Vec<Value>) -> Result<()>;

    /// Append a whole new column (derived attributes, §3.2). `values`
    /// must have exactly `len()` entries.
    fn add_column(&mut self, attr: sdbms_data::Attribute, values: Vec<Value>) -> Result<()>;

    /// Materialize the whole store as an in-memory data set.
    fn to_dataset(&self, name: &str) -> Result<DataSet> {
        let mut ds = DataSet::new(name, self.schema().clone());
        for i in 0..self.len() {
            ds.push_row(self.read_row(i)?)?;
        }
        Ok(ds)
    }

    /// Disk pages holding the view's encoded data records (not zone
    /// maps). Exposed for scrubbing and targeted fault injection;
    /// layouts that don't track their pages report none, and the
    /// scrubber skips page-level verification for them.
    fn data_page_ids(&self) -> Vec<PageId> {
        Vec::new()
    }

    /// Disk pages holding persisted zone-map records, disjoint from
    /// data pages. Layouts without maps report none.
    fn zone_map_page_ids(&self) -> Vec<PageId> {
        Vec::new()
    }

    /// Rebuild every persisted zone map from the (intact) encoded
    /// segment data, abandoning whatever maps were there — the repair
    /// for damaged zone-map pages, whose authority is the segment
    /// data. Returns the number of maps written. Layouts without maps
    /// do nothing.
    fn rebuild_zone_maps(&mut self) -> Result<usize> {
        Ok(0)
    }

    /// Number of encoded segments backing one column (0 when the
    /// layout is not segmented or the attribute is unknown).
    fn segment_count(&self, _attribute: &str) -> usize {
        0
    }

    /// Raw encoded bytes of one segment of one column, or `None` when
    /// the layout is not segmented / the index is out of range.
    /// Segment encoding is deterministic, so two stores bulk-loaded
    /// from equal data and edited identically compare byte-for-byte —
    /// the oracle the differential repair tests rely on.
    fn encoded_segment(&self, _attribute: &str, _segment: usize) -> Result<Option<Vec<u8>>> {
        Ok(None)
    }

    /// Deep-copy this store into freshly allocated pages of the same
    /// buffer pool, carrying the data, layout, and (for layouts that
    /// track one) a *successor* store generation. This is the shadow
    /// half of copy-on-write versioning: a transactional batch clones
    /// the live store, applies its staged operations to the clone, and
    /// installs it atomically — the original's pages are never written,
    /// which is what makes batch commit all-or-nothing under any crash.
    fn boxed_clone(&self) -> Result<Box<dyn TableStore + Send + Sync>>;

    /// The version generation this store's persisted artifacts (zone
    /// maps) are stamped with. Layouts without generation tracking
    /// report 0.
    fn store_generation(&self) -> u64 {
        0
    }

    /// One full column's numeric view as `(values, skipped)`: the
    /// [`Value::as_f64`] of every row that has one, in row order, and
    /// the count of rows that have none (`Missing`, `Code`, `Str`).
    /// Equal, bit for bit, to [`TableStore::read_column`] filtered
    /// through `as_f64`, with the same I/O. This is the read behind
    /// every numeric summary on the serve path: segmented layouts
    /// override it to decode segment bytes straight into the lane with
    /// no per-row `Value`; the default filters a scalar column read.
    fn read_column_f64(&self, attribute: &str) -> Result<(Vec<f64>, usize)> {
        let vals = self.read_column(attribute)?;
        let mut out = Vec::with_capacity(vals.len());
        let mut skipped = 0usize;
        for v in &vals {
            match v.as_f64() {
                Some(x) => out.push(x),
                None => skipped += 1,
            }
        }
        Ok((out, skipped))
    }
}

/// Which layout a store uses (reported by the core for diagnostics and
/// reorganization decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Records hold whole rows (heap file of row images).
    Row,
    /// One file per column (transposed files, §2.6).
    Transposed,
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Layout::Row => "row",
            Layout::Transposed => "transposed",
        })
    }
}
