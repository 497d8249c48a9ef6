//! The answer oracle, run after the timed region.
//!
//! A twin engine is built from scratch the same way as the server's,
//! with a serial executor. It is walked through the server's commit
//! log one version at a time. At each version every distinct answer
//! the clients received for that version is compared, by
//! `Response::canonical_bytes`, with a serial recompute: the column
//! read from the twin's snapshot and the statistical function applied
//! to it. Each commit's reply is compared with the twin's own commit
//! report. At version 0 the twin's columns are also compared with the
//! generated data set itself.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sdbms_core::StatDbms;
use sdbms_data::{DataSet, Value};
use sdbms_serve::{CommitRecord, Payload, Query, Response, Served};
use sdbms_storage::IoSnapshot;
use sdbms_testkit::CENSUS_VIEW;

use crate::drive::{Answer, LaneLog};
use crate::setup::{build_engine, Settings};

/// What the oracle found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Distinct answers compared.
    pub answers_checked: u64,
    /// Commit replies compared.
    pub commits_checked: u64,
    /// One line per wrong answer.
    pub wrong: Vec<String>,
}

/// The canonical bytes the server would send for `payload`.
pub fn canonical(payload: &Payload) -> Vec<u8> {
    Response {
        payload: payload.clone(),
        served: Served::Computed,
        view: String::new(),
        version: 0,
        generation: 0,
        io: IoSnapshot::default(),
        cost_milli: 0,
        tick: 0,
    }
    .canonical_bytes()
}

/// Check every answer and commit reply in `logs` against a serial
/// recompute on a twin that replays `commit_log`.
pub fn verify(
    raw: &DataSet,
    settings: &Settings,
    universe: &[Query],
    logs: &[&LaneLog],
    commit_log: &[CommitRecord],
) -> Result<Verdict, String> {
    let mut reads: BTreeMap<u64, Vec<(u32, &Answer)>> = BTreeMap::new();
    let mut commits: BTreeMap<u64, Vec<&Payload>> = BTreeMap::new();
    for log in logs {
        for ((q, version), answer) in log
            .answers
            .iter()
            .chain(log.other_answers.iter().map(|(k, a)| (k, a)))
        {
            reads.entry(*version).or_default().push((*q, answer));
        }
        for (version, p) in &log.commits {
            commits.entry(*version).or_default().push(p);
        }
    }
    let mut twin = build_engine(raw, settings, 1)?;
    let core = |e: sdbms_core::CoreError| format!("oracle twin: {e}");
    let mut version = twin.view_version(CENSUS_VIEW).map_err(core)?;
    let mut verdict = Verdict::default();
    check_against_raw(&twin, raw, universe, &mut verdict)?;
    let last = reads
        .keys()
        .chain(commits.keys())
        .copied()
        .max()
        .unwrap_or(version);
    let mut log = commit_log.iter();
    loop {
        if let Some(items) = reads.get(&version) {
            check_reads(
                &twin,
                universe,
                items,
                settings.nproc,
                version,
                &mut verdict,
            )?;
        }
        if version >= last {
            break;
        }
        let Some(record) = log.next() else {
            verdict.wrong.push(format!(
                "answers at version {last}, but the commit log stops at {version}"
            ));
            break;
        };
        let batch = twin.begin_batch(CENSUS_VIEW).map_err(core)?;
        for op in &record.ops {
            twin.batch_stage(batch, op.clone()).map_err(core)?;
        }
        let report = twin.commit_batch(batch).map_err(core)?;
        version = twin.view_version(CENSUS_VIEW).map_err(core)?;
        if version != record.version_after {
            verdict.wrong.push(format!(
                "commit log says version {}, the twin reached {version}",
                record.version_after
            ));
            break;
        }
        let expected = canonical(&Payload::Committed {
            rows_matched: report.rows_matched,
            cells_changed: report.cells_changed,
        });
        for got in commits.get(&version).into_iter().flatten() {
            verdict.commits_checked += 1;
            if canonical(got) != expected {
                verdict
                    .wrong
                    .push(format!("commit to version {version}: got {got:?}"));
            }
        }
    }
    Ok(verdict)
}

/// At version 0, the twin's columns equal the generated data set's.
fn check_against_raw(
    twin: &StatDbms,
    raw: &DataSet,
    universe: &[Query],
    verdict: &mut Verdict,
) -> Result<(), String> {
    let snap = twin.snapshot(CENSUS_VIEW).map_err(|e| e.to_string())?;
    for attr in attributes(universe) {
        let stored = snap.column(&attr).map_err(|e| e.to_string())?;
        let generated: Vec<Value> = raw
            .column(&attr)
            .map_err(|e| e.to_string())?
            .cloned()
            .collect();
        if stored != generated {
            verdict
                .wrong
                .push(format!("column {attr} differs from the generated data"));
        }
    }
    Ok(())
}

fn attributes(universe: &[Query]) -> BTreeSet<String> {
    universe
        .iter()
        .filter_map(|q| match q {
            Query::Summary { attribute, .. } | Query::Column { attribute } => {
                Some(attribute.clone())
            }
            Query::Row { .. } => None,
        })
        .collect()
}

/// Compare the answers received at `version` with a recompute on the
/// twin, which currently stands at that version.
fn check_reads(
    twin: &StatDbms,
    universe: &[Query],
    items: &[(u32, &Answer)],
    threads: usize,
    version: u64,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let snap = twin.snapshot(CENSUS_VIEW).map_err(|e| e.to_string())?;
    let distinct: BTreeSet<u32> = items.iter().map(|(q, _)| *q).collect();
    let mut columns: HashMap<String, Vec<Value>> = HashMap::new();
    let mut rows: HashMap<usize, Vec<Value>> = HashMap::new();
    for &q in &distinct {
        match &universe[q as usize] {
            Query::Summary { attribute, .. } | Query::Column { attribute } => {
                if !columns.contains_key(attribute) {
                    let col = snap.column(attribute).map_err(|e| e.to_string())?;
                    columns.insert(attribute.clone(), col);
                }
            }
            Query::Row { index } => {
                let row = snap.row(*index).map_err(|e| e.to_string())?;
                rows.insert(*index, row);
            }
        }
    }
    // Each expected answer is one serial computation; the distinct
    // queries are only split between threads.
    let distinct: Vec<u32> = distinct.into_iter().collect();
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    let expected: HashMap<u32, Result<Answer, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|qs| {
                let (columns, rows) = (&columns, &rows);
                scope.spawn(move || {
                    qs.iter()
                        .map(|&q| (q, expect(&universe[q as usize], columns, rows)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an oracle thread panicked"))
            .collect()
    });
    for (q, got) in items {
        verdict.answers_checked += 1;
        let query = universe[*q as usize].canonical();
        match &expected[q] {
            Ok(want) if agrees(got, want) => {}
            Ok(want) => verdict.wrong.push(format!(
                "{query} at version {version}: got {got:?}, want {want:?}"
            )),
            Err(e) => verdict.wrong.push(format!(
                "{query} at version {version}: answered, but the recompute failed: {e}"
            )),
        }
    }
    Ok(())
}

/// Whether a kept answer has the canonical bytes of the expected one.
fn agrees(got: &Answer, want: &Answer) -> bool {
    match (got, want) {
        (Answer::Payload(g), Answer::Payload(w)) => canonical(g) == canonical(w),
        (g, w) => g == w,
    }
}

fn expect(
    query: &Query,
    columns: &HashMap<String, Vec<Value>>,
    rows: &HashMap<usize, Vec<Value>>,
) -> Result<Answer, String> {
    let payload = match query {
        Query::Summary {
            attribute,
            function,
        } => Payload::Summary(
            function
                .compute(&columns[attribute])
                .map_err(|e| e.to_string())?,
        ),
        Query::Column { attribute } => Payload::Column(columns[attribute].clone()),
        Query::Row { index } => Payload::Row(rows[index].clone()),
    };
    Ok(Answer::of(payload))
}
