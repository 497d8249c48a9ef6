//! The traced run's second part: a single-threaded replay of the
//! traced pass's request stream against a twin engine built the same
//! way, with a child span around each public layer call.
//!
//! The replay keeps the serving layer's view of the work: a read whose
//! `(query, version)` it has answered before counts as a front-cache
//! hit, calls no engine layer and records no span. Every other read
//! goes down the
//! served path — `StatDbms::snapshot` when the version moved,
//! `Snapshot::column`, `StatFunction::compute` — and then through the
//! layer probes the served path does not call today:
//! `TableStore::read_column_batch` per morsel, `profile_table_column`
//! and `StatDbms::compute` (the Summary DB). A commit is timed as
//! `TableStore::boxed_clone` (on the first [`CLONE_PROBES`] commits)
//! followed by `begin_batch` + `batch_stage` + `commit_batch`. Each
//! span records the I/O counters it moved.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sdbms_core::{AccuracyPolicy, StatDbms, StatFunction};
use sdbms_data::DataSet;
use sdbms_serve::{CommitRecord, Query};
use sdbms_testkit::CENSUS_VIEW;

use crate::drive::Kind;
use crate::run::Pass;
use crate::setup::{build_engine, Settings};
use crate::spans::Tracer;

/// Commits that also time a separate `TableStore::boxed_clone`; the
/// rest skip it, since it costs as much as the commit itself.
pub const CLONE_PROBES: usize = 5;

/// What the replay did.
pub struct Replay {
    /// The spans it recorded.
    pub tracer: Tracer,
    /// Requests replayed.
    pub replayed: u64,
    /// Reads replayed.
    pub reads: u64,
    /// Replayed reads that went down the engine path.
    pub engine_reads: u64,
    /// Rows `Snapshot::column` returned across the replay.
    pub rows_decoded: u64,
    /// Morsels one scan of the view splits into.
    pub morsels: usize,
    /// Scan workers of the twin's executor.
    pub exec_workers: usize,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("replay {what}: {e}")
}

/// Replay the traced pass `traced` in send order on a fresh twin. The
/// twin first applies the warm-up's commits; each commit event then
/// applies the next record of the pass's commit log. Reads stop being
/// replayed once `budget` has passed since the first one; commits are
/// always replayed.
pub fn replay(
    raw: &DataSet,
    settings: &Settings,
    universe: &[Query],
    traced: &Pass,
    budget: Duration,
    epoch: Instant,
) -> Result<Replay, String> {
    let (warm_commits, commits) = traced.commit_log.split_at(traced.warm_commits());
    let mut twin = build_engine(raw, settings, settings.exec_workers)?;
    for record in warm_commits {
        commit(&mut twin, record)?;
    }
    let exec = twin.exec_config();
    let rows = settings.rows;
    let mut out = Replay {
        tracer: Tracer::new(epoch),
        replayed: 0,
        reads: 0,
        engine_reads: 0,
        rows_decoded: 0,
        morsels: exec.morsel_count(rows),
        exec_workers: exec.workers,
    };
    let mut commits = commits.iter().enumerate();
    let mut seen: HashSet<(u32, u64)> = HashSet::new();
    let mut snap = None;
    let mut reads_started = None;
    for event in traced.spans() {
        let request = event.request();
        let q = match event.kind {
            Kind::Read(q) => {
                let started = *reads_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= budget {
                    continue;
                }
                q
            }
            Kind::Commit => {
                let (n, record) = commits
                    .next()
                    .ok_or("replay: more commit events than commit records")?;
                let t = &mut out.tracer;
                let root = t.open("replay.commit", None, request, twin.io());
                if n < CLONE_PROBES {
                    let store = twin.view(CENSUS_VIEW).map_err(err("view"))?.store.clone();
                    let clone = t.open("columnar.clone", Some(root), request, twin.io());
                    drop(black_box(store.boxed_clone().map_err(err("boxed_clone"))?));
                    t.close(clone, twin.io());
                }
                let span = t.open("core.commit", Some(root), request, twin.io());
                commit(&mut twin, record)?;
                t.close(span, twin.io());
                t.close(root, twin.io());
                t.spans[root].version = twin.view_version(CENSUS_VIEW).map_err(err("version"))?;
                out.replayed += 1;
                continue;
            }
        };
        out.replayed += 1;
        out.reads += 1;
        let version = twin.view_version(CENSUS_VIEW).map_err(err("version"))?;
        if !seen.insert((q, version)) {
            continue;
        }
        out.engine_reads += 1;
        let t = &mut out.tracer;
        let root = t.open("replay.read", None, request, twin.io());
        t.spans[root].version = version;
        let stale = snap
            .as_ref()
            .is_none_or(|s: &sdbms_core::Snapshot| s.version() != version);
        if stale {
            let span = t.open("core.snapshot", Some(root), request, twin.io());
            snap = Some(twin.snapshot(CENSUS_VIEW).map_err(err("snapshot"))?);
            t.close(span, twin.io());
        }
        let snap_ref = snap.as_ref().ok_or("replay: no snapshot")?;
        match &universe[q as usize] {
            Query::Summary {
                attribute,
                function,
            } => {
                let span = t.open("columnar.read_column", Some(root), request, twin.io());
                let col = snap_ref.column(attribute).map_err(err("column"))?;
                t.close(span, twin.io());
                out.rows_decoded += col.len() as u64;
                let span = t.open(stats_span(function), Some(root), request, twin.io());
                black_box(function.compute(&col).map_err(err("compute"))?);
                t.close(span, twin.io());
                let store = twin.view(CENSUS_VIEW).map_err(err("view"))?.store.clone();
                for start in (0..store.len()).step_by(exec.morsel_rows) {
                    let len = exec.morsel_rows.min(store.len() - start);
                    let span = t.open("columnar.read_batch", Some(root), request, twin.io());
                    black_box(
                        store
                            .read_column_batch(attribute, start, len)
                            .map_err(err("read_column_batch"))?,
                    );
                    t.close(span, twin.io());
                }
                let span = t.open("exec.profile", Some(root), request, twin.io());
                black_box(
                    sdbms_exec::profile_table_column(&*store, attribute, &exec)
                        .map_err(err("profile_table_column"))?,
                );
                t.close(span, twin.io());
                drop(store);
                let span = t.open("summary.compute", Some(root), request, twin.io());
                black_box(
                    twin.compute(CENSUS_VIEW, attribute, function, AccuracyPolicy::Exact)
                        .map_err(err("StatDbms::compute"))?,
                );
                t.close(span, twin.io());
            }
            Query::Column { attribute } => {
                let span = t.open("columnar.read_column", Some(root), request, twin.io());
                let col = snap_ref.column(attribute).map_err(err("column"))?;
                t.close(span, twin.io());
                out.rows_decoded += col.len() as u64;
            }
            Query::Row { index } => {
                let span = t.open("columnar.read_row", Some(root), request, twin.io());
                black_box(snap_ref.row(*index).map_err(err("row"))?);
                t.close(span, twin.io());
            }
        }
        t.close(root, twin.io());
    }
    Ok(out)
}

/// The stats-layer span of a function, by family.
fn stats_span(f: &StatFunction) -> &'static str {
    match f {
        StatFunction::Count
        | StatFunction::Sum
        | StatFunction::Mean
        | StatFunction::Variance
        | StatFunction::StdDev => "stats.moments",
        StatFunction::Min
        | StatFunction::Max
        | StatFunction::Median
        | StatFunction::Quartiles
        | StatFunction::Quantile(_)
        | StatFunction::TrimmedMean(_, _) => "stats.order",
        StatFunction::Mode | StatFunction::UniqueCount | StatFunction::Histogram(_) => "stats.freq",
    }
}

fn commit(twin: &mut StatDbms, record: &CommitRecord) -> Result<(), String> {
    let batch = twin.begin_batch(CENSUS_VIEW).map_err(err("begin_batch"))?;
    for op in &record.ops {
        twin.batch_stage(batch, op.clone())
            .map_err(err("batch_stage"))?;
    }
    twin.commit_batch(batch).map_err(err("commit_batch"))?;
    Ok(())
}
