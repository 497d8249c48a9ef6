//! Multi-analyst sessions: pinned snapshot reads and transactional
//! update batches.
//!
//! The paper's workload is several analysts sharing long-lived cleaned
//! views. This module gives each of them a safe seat:
//!
//! - [`Snapshot`] — a read session pinning one view *version* (the
//!   store generation plus the Summary-DB generation at open time).
//!   Reads never block and never observe a concurrent batch, because a
//!   commit installs a brand-new store on fresh pages and retires the
//!   old one through the epoch registry only after the last pinned
//!   snapshot drains. Each snapshot accounts the I/O *it* incurs on a
//!   private counter set (scoped through [`sdbms_storage::IoScope`]),
//!   so shared-tracker totals stay exact while every analyst sees
//!   their own bill.
//! - [`StatDbms::begin_batch`] / [`StatDbms::commit_batch`] — a writer
//!   session staging [`BatchOp`]s against a view, holding the view's
//!   exclusive lock from begin to commit/abort. Commit is shadowed:
//!   the staged ops apply to a copy-on-write clone, the clone is made
//!   durable, and only then is it installed in memory — one pointer
//!   swap, so readers see the whole batch or none of it. Under
//!   [`crate::DurabilityPolicy::CrashConsistent`] the commit runs
//!   inside a durable `Txn` WAL intent; a crash at any point recovers
//!   to the full pre-batch or full post-batch state, idempotently.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use sdbms_columnar::TableStore;
use sdbms_data::{schema::Schema, value::Value};
use sdbms_management::ChangeRecord;
use sdbms_relational::{Expr, Predicate};
use sdbms_storage::{IoScope, IoSnapshot, IoStats};
use sdbms_summary::{ComputeSource, StatFunction, SummaryValue};
use sdbms_txn::{EpochPin, LockGuard};

use crate::dbms::{coerce, error_is_crash, StatDbms};
use crate::error::{CoreError, Result};
use crate::view::UpdateReport;

/// Identifies one open update batch (also its lock-table session id).
pub type BatchId = u64;

/// One staged operation inside an update batch. Nothing touches the
/// view until [`StatDbms::commit_batch`]; staging is pure bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp {
    /// Assign expressions to every row matching a predicate (the batch
    /// form of [`StatDbms::update_where`]).
    UpdateWhere {
        /// Row filter.
        predicate: Predicate,
        /// `(attribute, expression)` assignments.
        assignments: Vec<(String, Expr)>,
    },
    /// Overwrite one cell.
    SetCell {
        /// Row index.
        row: usize,
        /// Attribute name.
        attribute: String,
        /// The new value.
        value: Value,
    },
    /// Append one row (schema order).
    AppendRow {
        /// The row's values.
        values: Vec<Value>,
    },
}

/// A writer session: staged ops plus the view lock held from begin to
/// commit/abort (the guard's drop releases it).
pub(crate) struct PendingBatch {
    pub(crate) view: String,
    pub(crate) ops: Vec<BatchOp>,
    _guard: LockGuard,
}

/// A pinned, non-blocking read session on one version of one view.
///
/// The snapshot owns an `Arc` to the exact store it opened against and
/// an epoch pin that keeps that version's pages from being reclaimed.
/// Every read goes straight to the pinned store — concurrent batch
/// commits, scrubs, and repairs are invisible until the analyst opens
/// a fresh snapshot. Results are memoized per `(attribute, function)`,
/// mirroring the Summary-DB serve-from-cache behavior at session
/// scope.
pub struct Snapshot {
    view: String,
    version: u64,
    summary_generation: u64,
    store: Arc<dyn TableStore + Send + Sync>,
    stats: Arc<IoStats>,
    memo: Mutex<HashMap<(String, String), SummaryValue>>,
    _pin: EpochPin,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("view", &self.view)
            .field("version", &self.version)
            .field("rows", &self.store.len())
            .finish()
    }
}

impl Snapshot {
    /// The view this snapshot pinned.
    #[must_use]
    pub fn view(&self) -> &str {
        &self.view
    }

    /// The store version pinned at open time.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The Summary-DB generation current at open time.
    #[must_use]
    pub fn summary_generation(&self) -> u64 {
        self.summary_generation
    }

    /// Rows in the pinned version.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the pinned version holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The pinned version's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.store.schema()
    }

    /// One full column of the pinned version. I/O is charged to this
    /// snapshot's private counters as well as the shared tracker.
    pub fn column(&self, attribute: &str) -> Result<Vec<Value>> {
        let _scope = IoScope::enter(Arc::clone(&self.stats));
        Ok(self.store.read_column(attribute)?)
    }

    /// One full column's numeric view as `(values, skipped)` — see
    /// [`TableStore::read_column_f64`]. Equal to [`Snapshot::column`]
    /// filtered through [`Value::as_f64`], with the same I/O charged
    /// the same way, but with no per-row `Value` built.
    pub fn column_f64(&self, attribute: &str) -> Result<(Vec<f64>, usize)> {
        let _scope = IoScope::enter(Arc::clone(&self.stats));
        Ok(self.store.read_column_f64(attribute)?)
    }

    /// Compute `function(attribute)` on the pinned version from the
    /// store, bypassing the memo. Numeric functions read the column's
    /// typed lane ([`Snapshot::column_f64`]); Mode and UniqueCount
    /// read its values. Either way the answer equals
    /// `function.compute(&self.column(attribute)?)`.
    pub fn evaluate(&self, attribute: &str, function: &StatFunction) -> Result<SummaryValue> {
        if function.needs_numeric() {
            let (nums, _skipped) = self.column_f64(attribute)?;
            Ok(function.compute_numeric(&nums)?)
        } else {
            Ok(function.compute(&self.column(attribute)?)?)
        }
    }

    /// One full row of the pinned version.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        let _scope = IoScope::enter(Arc::clone(&self.stats));
        Ok(self.store.read_row(row)?)
    }

    /// Compute `function(attribute)` on the pinned version. The first
    /// call per `(attribute, function)` reads the column
    /// ([`ComputeSource::Computed`]); repeats serve the memoized value
    /// ([`ComputeSource::Cache`]) with no I/O. The memo never outlives
    /// the snapshot, so it can never serve a value from another
    /// version.
    pub fn compute(
        &self,
        attribute: &str,
        function: &StatFunction,
    ) -> Result<(SummaryValue, ComputeSource)> {
        let key = (attribute.to_string(), function.to_string());
        if let Some(v) = self.memo.lock().get(&key) {
            return Ok((v.clone(), ComputeSource::Cache));
        }
        let value = self.evaluate(attribute, function)?;
        self.memo.lock().insert(key, value.clone());
        Ok((value, ComputeSource::Computed))
    }

    /// The I/O this snapshot has incurred: only reads made through
    /// this session, never another analyst's.
    #[must_use]
    pub fn io(&self) -> IoSnapshot {
        self.stats.snapshot()
    }
}

impl StatDbms {
    // ---- snapshots -------------------------------------------------------

    /// Open a read snapshot of a view's current version. Never blocks
    /// and takes no lock: the returned [`Snapshot`] shares the live
    /// store `Arc` and pins the epoch, so concurrent batch commits
    /// neither wait for it nor disturb it.
    pub fn snapshot(&self, view: &str) -> Result<Snapshot> {
        let v = self.view(view)?;
        Ok(Snapshot {
            view: v.name.clone(),
            version: v.version,
            summary_generation: v.summary.generation(),
            store: Arc::clone(&v.store),
            stats: Arc::new(IoStats::default()),
            memo: Mutex::new(HashMap::new()),
            _pin: self.epochs.pin(),
        })
    }

    /// Live snapshot pins across the whole DBMS (diagnostics).
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.epochs.pinned()
    }

    /// The current global epoch and the oldest still-pinned epoch, if
    /// any. Their difference is the *pin lag* — how far behind the
    /// slowest reader sits, and therefore how much superseded store
    /// state reclamation must retain. The serving layer reports this
    /// in its metrics.
    #[must_use]
    pub fn epoch_status(&self) -> (u64, Option<u64>) {
        (self.epochs.epoch(), self.epochs.oldest_pinned())
    }

    /// A view's current store version, without pinning a snapshot.
    /// The serving layer polls this on every request to decide whether
    /// a session's pinned snapshot is still current.
    pub fn view_version(&self, view: &str) -> Result<u64> {
        Ok(self.view(view)?.version)
    }

    /// A view's current Summary-DB generation, without pinning a
    /// snapshot. Together with [`StatDbms::view_version`] this forms
    /// the freshness half of the serving layer's cache key.
    pub fn view_summary_generation(&self, view: &str) -> Result<u64> {
        Ok(self.view(view)?.summary.generation())
    }

    // ---- update batches --------------------------------------------------

    /// Open a transactional update batch on a view, taking its
    /// exclusive lock. The lock is held until [`StatDbms::commit_batch`]
    /// or [`StatDbms::abort_batch`]; a concurrent batch, legacy
    /// update, scrub, or repair on the same view surfaces as
    /// [`CoreError::Lock`] immediately (acquisition never blocks).
    pub fn begin_batch(&mut self, view: &str) -> Result<BatchId> {
        self.view(view)?;
        let session = self.locks.session();
        let guard = self.locks.acquire(session, &[view])?;
        self.batches.insert(
            session,
            PendingBatch {
                view: view.to_string(),
                ops: Vec::new(),
                _guard: guard,
            },
        );
        Ok(session)
    }

    fn batch_mut(&mut self, batch: BatchId) -> Result<&mut PendingBatch> {
        self.batches
            .get_mut(&batch)
            .ok_or(CoreError::NoSuchBatch(batch))
    }

    /// Stage a predicate update in a batch. Nothing is applied yet.
    pub fn batch_update_where(
        &mut self,
        batch: BatchId,
        predicate: &Predicate,
        assignments: &[(&str, Expr)],
    ) -> Result<()> {
        let op = BatchOp::UpdateWhere {
            predicate: predicate.clone(),
            assignments: assignments
                .iter()
                .map(|(a, e)| ((*a).to_string(), e.clone()))
                .collect(),
        };
        self.batch_mut(batch)?.ops.push(op);
        Ok(())
    }

    /// Stage one cell overwrite in a batch.
    pub fn batch_set_cell(
        &mut self,
        batch: BatchId,
        row: usize,
        attribute: &str,
        value: Value,
    ) -> Result<()> {
        let op = BatchOp::SetCell {
            row,
            attribute: attribute.to_string(),
            value,
        };
        self.batch_mut(batch)?.ops.push(op);
        Ok(())
    }

    /// Stage one row append in a batch.
    pub fn batch_append_row(&mut self, batch: BatchId, values: Vec<Value>) -> Result<()> {
        let op = BatchOp::AppendRow { values };
        self.batch_mut(batch)?.ops.push(op);
        Ok(())
    }

    /// Stage an already-constructed [`BatchOp`]. The serving layer's
    /// commit requests carry ops in this form; the typed
    /// `batch_update_where` / `batch_set_cell` / `batch_append_row`
    /// helpers all reduce to it.
    pub fn batch_stage(&mut self, batch: BatchId, op: BatchOp) -> Result<()> {
        self.batch_mut(batch)?.ops.push(op);
        Ok(())
    }

    /// Open batches as `(id, view, staged ops)` (diagnostics).
    #[must_use]
    pub fn open_batches(&self) -> Vec<(BatchId, &str, usize)> {
        let mut out: Vec<(BatchId, &str, usize)> = self
            .batches
            .iter()
            .map(|(id, b)| (*id, b.view.as_str(), b.ops.len()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Discard a batch's staged ops and release its view lock. The
    /// view is untouched — nothing was applied.
    pub fn abort_batch(&mut self, batch: BatchId) -> Result<()> {
        self.batches
            .remove(&batch)
            .map(|_| ())
            .ok_or(CoreError::NoSuchBatch(batch))
    }

    /// Commit a batch atomically. The staged ops apply to a shadow
    /// clone of the view's store (the live version's pages are never
    /// written); the clone is flushed durable, then installed with one
    /// in-memory pointer swap, the Summary-DB generation is bumped
    /// (retiring every cached entry of the old version without I/O),
    /// and the displaced version is epoch-retired for draining
    /// snapshots.
    ///
    /// Under [`crate::DurabilityPolicy::CrashConsistent`] the whole
    /// commit runs inside a durable `Txn` WAL intent: a crash at any
    /// I/O operation leaves either the full pre-batch state (swap not
    /// reached — the shadow pages are orphaned, the live version
    /// untouched) or the full post-batch state (swap done, shadow
    /// already durable). [`StatDbms::recover`] then conservatively
    /// rebuilds the summary cache and retires the intent; running it
    /// again changes nothing.
    ///
    /// On a non-crash failure (bad staged op, unreadable page) the
    /// batch aborts cleanly: the error is returned, the live version
    /// stays as it was, and the lock is released.
    pub fn commit_batch(&mut self, batch: BatchId) -> Result<UpdateReport> {
        let pending = self
            .batches
            .remove(&batch)
            .ok_or(CoreError::NoSuchBatch(batch))?;
        let view = pending.view.clone();
        if let Some(wal) = self.views.get(&view).and_then(|v| v.wal.as_ref()) {
            wal.begin_txn()?;
        }
        let result = self.apply_batch(&view, &pending.ops);
        match &result {
            Ok(_) => match self.commit_intent(&view) {
                Ok(()) => {}
                // A crash while committing must surface: the intent
                // stays pending for recovery.
                Err(e) if error_is_crash(&e) => return Err(e),
                // Non-crash trouble clearing the intent: a pending
                // Txn intent is conservative (recovery rebuilds the
                // cache), so the committed batch still reports success.
                Err(_) => {}
            },
            Err(e) if !error_is_crash(e) => {
                // The shadow apply failed without a crash: the live
                // version was never touched, so just retire the
                // intent. Best-effort — pending is safe.
                // lint: allow(swallowed-error): a pending intent is safe (recovery replays it); the apply error is the one to surface
                let _ = self.commit_intent(&view);
            }
            Err(_) => {} // crash: intent stays pending
        }
        // The lock guard (inside `pending`) drops here.
        result
    }

    /// Apply staged ops to a shadow clone and install it. Only called
    /// with the view lock held.
    fn apply_batch(&mut self, view: &str, ops: &[BatchOp]) -> Result<UpdateReport> {
        let exec = self.exec;
        let mut report = UpdateReport::default();
        let mut records: Vec<ChangeRecord> = Vec::new();
        let mut touched: Vec<String> = Vec::new();
        let mut new_store = {
            let v = self.view(view)?;
            v.store.boxed_clone()?
        };
        for op in ops {
            match op {
                BatchOp::UpdateWhere {
                    predicate,
                    assignments,
                } => {
                    let schema = new_store.schema().clone();
                    let bound: Vec<(String, sdbms_relational::BoundExpr, _)> = assignments
                        .iter()
                        .map(|(attr, expr)| {
                            let a = schema.attribute(attr)?;
                            Ok((a.name.clone(), expr.bind(&schema)?, a.dtype))
                        })
                        .collect::<Result<_>>()?;
                    let matching =
                        sdbms_relational::filter_table_rows(&*new_store, predicate, &exec)?;
                    report.rows_matched += matching.len();
                    for &i in &matching {
                        let row = new_store.read_row(i)?;
                        for (attr, bexpr, dtype) in &bound {
                            let new = coerce(bexpr.eval(&row), *dtype);
                            let old = new_store.set_cell(i, attr, new.clone())?;
                            if old != new {
                                report.cells_changed += 1;
                                touched.push(attr.clone());
                                records.push(ChangeRecord::CellUpdate {
                                    row: i,
                                    attribute: attr.clone(),
                                    old,
                                    new,
                                });
                            }
                        }
                    }
                }
                BatchOp::SetCell {
                    row,
                    attribute,
                    value,
                } => {
                    let old = new_store.set_cell(*row, attribute, value.clone())?;
                    if old != *value {
                        report.cells_changed += 1;
                        touched.push(attribute.clone());
                        records.push(ChangeRecord::CellUpdate {
                            row: *row,
                            attribute: attribute.clone(),
                            old,
                            new: value.clone(),
                        });
                    }
                }
                BatchOp::AppendRow { values } => {
                    new_store.append_row(values.clone())?;
                    records.push(ChangeRecord::RowAppended {
                        values: values.clone(),
                    });
                }
            }
        }
        // Durability point: every shadow page reaches disk before the
        // in-memory swap makes the version reachable.
        self.env.pool.flush_all()?;
        // Last cancellation checkpoint: past this line the install is
        // pure in-memory and must run to completion (a half-installed
        // version would be torn state). A budget trip here aborts the
        // batch cleanly — the shadow pages are orphaned, the live
        // version was never touched, and the typed error takes the
        // non-crash path in `commit_batch` (intent retired, lock
        // released), indistinguishable from any other aborted batch.
        sdbms_storage::budget::charge_ambient_ops(0)?;
        // Derived columns triggered by the touched attributes are not
        // recomputed inside a batch — they are marked stale for
        // on-demand regeneration, the cheapest sound rule.
        touched.sort_unstable();
        touched.dedup();
        let mut stale: Vec<String> = Vec::new();
        for attr in &touched {
            for (d, rule) in self.rules.triggered_by(view, attr) {
                if !stale.contains(&d.to_string()) {
                    report
                        .derived_updates
                        .push((d.to_string(), rule.cost_class()));
                    stale.push(d.to_string());
                }
            }
        }
        // Atomic in-memory install: one pointer swap plus a pure
        // in-memory generation bump. Nothing here performs I/O, so a
        // crash cannot land between "new store visible" and "old
        // summaries retired".
        let v = self.view_mut(view)?;
        v.install_store(Arc::from(new_store));
        report.maintenance.invalidated += v.summary.len();
        v.summary.bump_generation();
        for d in stale {
            v.stale_columns.insert(d);
        }
        let history = &mut self.catalog.view_mut(view)?.history;
        for r in records {
            history.record(r);
        }
        Ok(report)
    }
}
