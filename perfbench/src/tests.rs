//! Tests over small real runs: the traced and untraced passes issue
//! the same streams, replay spans nest, and the oracle catches a wrong
//! answer.

use std::time::{Duration, Instant};

use sdbms_core::SummaryValue;
use sdbms_serve::Payload;

use crate::drive::{Answer, LaneLog, Stop};
use crate::run::{pass, Pass};
use crate::setup::{census, Settings};
use crate::spans::{check_nesting, self_times};
use crate::workload::{digest_op, Lane, Model, Phase, Workload, DIGEST_SEED};

const ROWS: usize = 3_000;

fn small_pass(workload: Workload, trace: bool) -> (Settings, Pass) {
    let mut settings = Settings::new(workload, 11, 2);
    settings.rows = ROWS;
    if let Model::Schedule { .. } = settings.model {
        settings.model = Model::Schedule {
            read_period: Duration::from_millis(1),
            commit_period: Duration::from_millis(25),
        };
    }
    let raw = census(ROWS).expect("census");
    let stop = Stop {
        duration: Duration::from_secs(60),
        max_ops: Some(40),
    };
    let universe = workload.universe();
    let p = pass(&raw, &settings, &universe, stop, trace, Instant::now()).expect("pass");
    for lane in p.lanes() {
        assert!(lane.failures.is_empty(), "{:?}", lane.failures);
    }
    (settings, p)
}

/// Every lane of a pass with the phase and lane index it ran as.
fn streams(p: &Pass) -> Vec<(Phase, usize, &LaneLog)> {
    fn tag(phase: Phase, lanes: &[LaneLog]) -> Vec<(Phase, usize, &LaneLog)> {
        lanes
            .iter()
            .enumerate()
            .map(|(i, l)| (phase, i, l))
            .collect()
    }
    // The probe's lanes: burst 0's one, then burst 1's two.
    let probe = [
        (Phase::Probe { burst: 0 }, 0),
        (Phase::Probe { burst: 1 }, 0),
        (Phase::Probe { burst: 1 }, 1),
    ];
    assert!(p.probe.is_empty() || p.probe.len() == probe.len());
    let mut out = tag(Phase::Warmup, &p.warm);
    out.extend(tag(Phase::Measure, &p.measured));
    out.extend(
        probe
            .into_iter()
            .zip(&p.probe)
            .map(|((ph, i), l)| (ph, i, l)),
    );
    out
}

/// The digest of the first `issued` operations of a lane's seeded
/// stream.
fn seeded_digest(settings: &Settings, phase: Phase, lane: usize, issued: u64) -> u64 {
    let universe_len = settings.workload.universe().len();
    let mut stream = Lane::new(
        settings.workload,
        settings.seed,
        phase,
        lane,
        universe_len,
        settings.rows,
    );
    (0..issued).fold(DIGEST_SEED, |d, _| digest_op(d, &stream.next_op()))
}

#[test]
fn traced_and_untraced_passes_issue_identical_streams() {
    for workload in [Workload::HotCached, Workload::Cleaning] {
        let (settings, untraced) = small_pass(workload, false);
        let (_, traced) = small_pass(workload, true);
        for (phase, lane, l) in streams(&untraced).into_iter().chain(streams(&traced)) {
            assert!(l.issued > 0);
            assert_eq!(
                l.digest,
                seeded_digest(&settings, phase, lane, l.issued),
                "{}",
                workload.name()
            );
        }
        // Every lane but a probe's reader, which stops when the
        // commits do, is bounded by its operation count.
        let bounded = |p: &Pass| -> Vec<(u64, u64)> {
            streams(p)
                .into_iter()
                .filter(|&(phase, lane, _)| !(phase == Phase::Probe { burst: 1 } && lane == 1))
                .map(|(_, _, l)| (l.issued, l.digest))
                .collect()
        };
        assert_eq!(bounded(&untraced), bounded(&traced), "{}", workload.name());
        assert!(untraced.spans().is_empty());
        assert_eq!(
            traced.spans().len() as u64,
            traced
                .measured
                .iter()
                .chain(&traced.probe)
                .map(|l| l.issued)
                .sum::<u64>()
        );
    }
}

#[test]
fn replay_spans_nest_and_self_times_stay_within_their_spans() {
    let (settings, traced) = small_pass(Workload::Cleaning, true);
    let raw = census(ROWS).expect("census");
    let universe = Workload::Cleaning.universe();
    let r = crate::replay::replay(
        &raw,
        &settings,
        &universe,
        &traced,
        Duration::from_secs(60),
        Instant::now(),
    )
    .expect("replay");
    let spans = &r.tracer.spans;
    check_nesting(spans).expect("spans nest");
    for name in [
        "replay.read",
        "replay.commit",
        "core.snapshot",
        "core.commit",
        "columnar.read_column",
        "columnar.read_batch",
        "columnar.clone",
        "exec.profile",
        "summary.compute",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    let selfs = self_times(spans);
    for (s, own) in spans.iter().zip(&selfs) {
        assert!(
            *own <= s.duration(),
            "{} self time exceeds its span",
            s.name
        );
    }
    // Self times of a request's spans add up to its root's duration.
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let total: u64 = spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .filter(|(j, (s, _))| *j == i || descends(spans, *j, i) && s.request == root.request)
            .map(|(_, (_, own))| own)
            .sum();
        assert_eq!(total, root.duration(), "request {}", root.request);
    }
}

fn descends(spans: &[crate::spans::Span], mut j: usize, root: usize) -> bool {
    while let Some(p) = spans[j].parent {
        if p == root {
            return true;
        }
        j = p;
    }
    false
}

#[test]
fn the_oracle_flags_a_wrong_answer() {
    let (settings, mut untraced) = small_pass(Workload::HotCached, false);
    let raw = census(ROWS).expect("census");
    let universe = Workload::HotCached.universe();
    let lanes: Vec<_> = untraced.lanes().collect();
    let clean = crate::oracle::verify(&raw, &settings, &universe, &lanes, &untraced.commit_log)
        .expect("verify");
    assert!(clean.wrong.is_empty(), "{:?}", clean.wrong);
    assert!(clean.answers_checked > 0 && clean.commits_checked > 0);
    let payload = untraced.measured[0]
        .answers
        .values_mut()
        .find(|a| {
            matches!(
                a,
                Answer::Payload(Payload::Summary(SummaryValue::Scalar(_)))
            )
        })
        .expect("a scalar answer");
    if let Answer::Payload(Payload::Summary(SummaryValue::Scalar(x))) = payload {
        *x += 1.0;
    }
    let lanes: Vec<_> = untraced.lanes().collect();
    let tampered = crate::oracle::verify(&raw, &settings, &universe, &lanes, &untraced.commit_log)
        .expect("verify");
    assert_eq!(tampered.wrong.len(), 1, "{:?}", tampered.wrong);
}

#[test]
fn histogram_answers_keep_a_digest_that_tells_them_apart() {
    let values: Vec<sdbms_data::Value> = (0..100).map(sdbms_data::Value::Int).collect();
    let answer = |v: &[sdbms_data::Value]| {
        let h = sdbms_core::StatFunction::Histogram(7)
            .compute(v)
            .expect("histogram");
        Answer::of(Payload::Summary(h))
    };
    assert!(matches!(answer(&values), Answer::Histogram(_)));
    assert_eq!(answer(&values), answer(&values));
    let mut moved = values.clone();
    moved[3] = sdbms_data::Value::Int(40);
    assert_ne!(answer(&values), answer(&moved));
}
