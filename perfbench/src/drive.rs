//! Driving a server with a workload's client threads for one phase.
//!
//! Each lane is one client thread with its own session. Closed-loop
//! lanes send their next request when the last one returns; scheduled
//! lanes send at fixed due times and time each request from its due
//! time, so a stall also counts against the requests queued behind it.
//! Latency is measured around the `Server::query` / `Server::commit`
//! call only. Every answer is kept, one copy per distinct payload of a
//! `(query, version)`, for the oracle to check after the run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sdbms_core::SummaryValue;
use sdbms_serve::{Payload, Query, Served, Server, SessionId};
use sdbms_storage::IoSnapshot;
use sdbms_testkit::splitmix;

use crate::setup::Settings;
use crate::spans::Span;
use crate::workload::{digest_op, Lane, Model, Op, Phase, DIGEST_SEED, PROBE_COMMITS, WINDOW};

/// What a run shares across its phases.
pub struct Ctx<'a> {
    /// The server under test.
    pub server: &'a Server,
    /// The run's settings.
    pub settings: &'a Settings,
    /// The workload's query universe.
    pub universe: &'a [Query],
    /// One session per lane.
    pub sessions: &'a [SessionId],
    /// Time zero of the run; every timestamp is nanoseconds since it.
    pub epoch: Instant,
}

/// When a phase ends: at `duration`, or after `max_ops` operations per
/// lane if set first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Wall-clock length of the phase.
    pub duration: Duration,
    /// Per-lane operation cap.
    pub max_ops: Option<u64>,
}

impl Stop {
    /// Stop after `duration`.
    pub fn after(duration: Duration) -> Self {
        Stop {
            duration,
            max_ops: None,
        }
    }
}

/// One distinct answer, kept for the oracle: the payload itself, or
/// for a histogram (up to 3,501 bins) a digest of every field that its
/// canonical bytes print, so the kept answers stay small.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The payload as received.
    Payload(Payload),
    /// [`histogram_digest`] of a histogram summary.
    Histogram(u64),
}

impl Answer {
    /// The form in which `payload` is kept.
    pub fn of(payload: Payload) -> Answer {
        match &payload {
            Payload::Summary(SummaryValue::Histogram(h)) => Answer::Histogram(histogram_digest(
                h.edges(),
                h.counts(),
                [h.below(), h.above()],
            )),
            _ => Answer::Payload(payload),
        }
    }
}

/// A digest of a histogram's edges, counts and out-of-range counts.
pub fn histogram_digest(edges: &[f64], counts: &[u64], outside: [u64; 2]) -> u64 {
    let mut state = edges.len() as u64;
    edges
        .iter()
        .map(|e| e.to_bits())
        .chain(counts.iter().copied())
        .chain(outside)
        .fold(0, |h, w| {
            state ^= w;
            h ^ splitmix(&mut state)
        })
}

/// What an operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read of this universe index.
    Read(u32),
    /// A commit.
    Commit,
}

/// One request as the traced pass records it: the request span of
/// `Server::query` / `Server::commit` with its tags.
#[derive(Debug, Clone)]
pub struct ReqSpan {
    /// Lane that sent it.
    pub lane: u32,
    /// Position in the lane's stream.
    pub index: u32,
    /// Read or commit.
    pub kind: Kind,
    /// When it was due (equal to `sent` on closed-loop lanes).
    pub due: u64,
    /// When the call was made.
    pub sent: u64,
    /// When the call returned.
    pub end: u64,
    /// The serving tier; `None` when the request failed.
    pub tier: Option<Served>,
    /// Store version of the response.
    pub version: u64,
    /// Pages read from disk for this request.
    pub page_reads: u64,
    /// Buffer-pool hits for this request.
    pub pool_hits: u64,
    /// Pages written for this request.
    pub page_writes: u64,
    /// After a commit: the server's epoch minus its oldest pinned
    /// epoch.
    pub pin_lag: Option<u64>,
}

impl ReqSpan {
    /// The request id, shared with the replay's spans of the same
    /// operation.
    pub fn request(&self) -> u64 {
        (u64::from(self.lane) << 32) | u64::from(self.index)
    }

    /// The request span in the trace file's form.
    pub fn to_span(&self) -> Span {
        Span {
            name: match self.kind {
                Kind::Read(_) => "serve.query",
                Kind::Commit => "serve.commit",
            },
            start: self.sent,
            end: self.end,
            parent: None,
            request: self.request(),
            tier: match self.tier {
                Some(Served::FrontCache) => "front_cache",
                Some(Served::Computed) => "computed",
                Some(Served::Fallback) => "fallback",
                Some(Served::Write) => "write",
                None => "failed",
            },
            version: self.version,
            io: IoSnapshot {
                page_reads: self.page_reads,
                pool_hits: self.pool_hits,
                page_writes: self.page_writes,
                ..IoSnapshot::default()
            },
        }
    }
}

/// Everything one lane did in one phase.
#[derive(Debug, Default)]
pub struct LaneLog {
    /// Operations issued.
    pub issued: u64,
    /// Digest of the issued operation sequence.
    pub digest: u64,
    /// Successful read latencies, ns from the due time, by the
    /// [`WINDOW`] of the phase their due time falls in.
    pub read_ns: Vec<Vec<u64>>,
    /// Successful commit latencies, ns from the due time.
    pub commit_ns: Vec<u64>,
    /// How late each scheduled send was, ns.
    pub send_lag_ns: Vec<u64>,
    /// The first answer seen per `(universe index, version)`.
    pub answers: HashMap<(u32, u64), Answer>,
    /// Later answers that differ from the first for their key.
    pub other_answers: Vec<((u32, u64), Answer)>,
    /// Each successful commit's `(version, payload)`.
    pub commits: Vec<(u64, Payload)>,
    /// Failed or rejected operations, described.
    pub failures: Vec<String>,
    /// Request spans (traced passes only).
    pub spans: Vec<ReqSpan>,
}

/// Run `phase` on every lane of the context's workload and return the
/// lanes' logs with the phase's wall time.
///
/// A probe runs [`PROBE_COMMITS`] commit-then-read pairs on lane 0; in
/// burst 1, lane 1 reads in a closed loop until lane 0 is done.
pub fn run_phase(ctx: &Ctx<'_>, phase: Phase, stop: Stop, trace: bool) -> (Vec<LaneLog>, Duration) {
    let started = Instant::now();
    let paces: Vec<Option<Pace>> = match (phase, ctx.settings.model) {
        (Phase::Probe { burst }, _) => vec![None; 1 + usize::from(burst > 0)],
        (_, Model::Closed { analysts }) => vec![None; analysts],
        (
            _,
            Model::Schedule {
                read_period,
                commit_period,
            },
        ) => {
            // The writer's first commit falls half a period in, so the
            // reader is already running when it lands.
            vec![
                Some(Pace {
                    period: read_period,
                    offset: Duration::ZERO,
                }),
                Some(Pace {
                    period: commit_period,
                    offset: commit_period / 2,
                }),
            ]
        }
    };
    let probe = matches!(phase, Phase::Probe { .. });
    let lane_stop = |lane: usize| match (probe, lane) {
        (true, 0) => Stop {
            duration: Duration::MAX,
            max_ops: Some(2 * PROBE_COMMITS as u64),
        },
        (true, _) => Stop {
            duration: Duration::MAX,
            max_ops: None,
        },
        (false, _) => stop,
    };
    // Set when lane 0 is done; a probe's reader lane stops on it.
    let lane0_done = AtomicBool::new(false);
    let lane0_done = &lane0_done;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = paces
            .into_iter()
            .enumerate()
            .map(|(lane, pace)| {
                let stop = lane_stop(lane);
                let follows = (probe && lane > 0).then_some(lane0_done);
                scope.spawn(move || {
                    let log = run_lane(ctx, phase, lane, pace, started, stop, follows, trace);
                    if lane == 0 {
                        lane0_done.store(true, Ordering::Release);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client lane panicked"))
            .collect()
    });
    (logs, started.elapsed())
}

/// A scheduled lane's timetable: one send every `period`, the first at
/// `offset`.
#[derive(Debug, Clone, Copy)]
struct Pace {
    period: Duration,
    offset: Duration,
}

impl Pace {
    /// When send `k` is due, from the start of the phase.
    fn due(&self, k: u32) -> Duration {
        self.offset + self.period * k
    }
}

/// Run one lane until its `stop`, or until `follows` is set.
#[allow(clippy::too_many_arguments)]
fn run_lane(
    ctx: &Ctx<'_>,
    phase: Phase,
    lane: usize,
    pace: Option<Pace>,
    started: Instant,
    stop: Stop,
    follows: Option<&AtomicBool>,
    trace: bool,
) -> LaneLog {
    let settings = ctx.settings;
    let mut stream = Lane::new(
        settings.workload,
        settings.seed,
        phase,
        lane,
        ctx.universe.len(),
        settings.rows,
    );
    let session = ctx.sessions[lane];
    let ns = |t: Instant| t.saturating_duration_since(ctx.epoch).as_nanos() as u64;
    let mut log = LaneLog {
        digest: DIGEST_SEED,
        ..LaneLog::default()
    };
    for k in 0u64.. {
        if stop.max_ops.is_some_and(|m| k >= m)
            || follows.is_some_and(|d| d.load(Ordering::Acquire))
        {
            break;
        }
        // A scheduled lane's request is due at its slot; a closed-loop
        // lane's is due when it is sent.
        let slot = match pace {
            Some(pace) => {
                let at = pace.due(k as u32);
                if at >= stop.duration {
                    break;
                }
                Some(started + at)
            }
            None if started.elapsed() >= stop.duration => break,
            None => None,
        };
        let op = stream.next_op();
        log.digest = digest_op(log.digest, &op);
        log.issued += 1;
        let (kind, request) = match op {
            Op::Read(i) => (Kind::Read(i as u32), Request::Read(ctx.universe[i].clone())),
            Op::Commit(ops) => (Kind::Commit, Request::Commit(ops)),
        };
        if let Some(slot) = slot {
            wait_until(slot);
        }
        let sent = Instant::now();
        let result = match request {
            Request::Read(q) => ctx.server.query(session, q),
            Request::Commit(ops) => ctx.server.commit(session, ops),
        };
        let end = Instant::now();
        let due = slot.unwrap_or(sent);
        if slot.is_some() {
            log.send_lag_ns.push(ns(sent) - ns(due));
        }
        let mut span = ReqSpan {
            lane: lane as u32,
            index: k as u32,
            kind,
            due: ns(due),
            sent: ns(sent),
            end: ns(end),
            tier: None,
            version: 0,
            page_reads: 0,
            pool_hits: 0,
            page_writes: 0,
            pin_lag: None,
        };
        match result {
            Ok(resp) => {
                span.tier = Some(resp.served);
                span.version = resp.version;
                span.page_reads = resp.io.page_reads;
                span.pool_hits = resp.io.pool_hits;
                span.page_writes = resp.io.page_writes;
                let latency = end.duration_since(due).as_nanos() as u64;
                match kind {
                    Kind::Read(q) => {
                        let window =
                            (due.duration_since(started).as_nanos() / WINDOW.as_nanos()) as usize;
                        if log.read_ns.len() <= window {
                            log.read_ns.resize_with(window + 1, Vec::new);
                        }
                        log.read_ns[window].push(latency);
                        let key = (q, resp.version);
                        let answer = Answer::of(resp.payload);
                        match log.answers.get(&key) {
                            None => {
                                log.answers.insert(key, answer);
                            }
                            Some(first) if *first != answer => {
                                log.other_answers.push((key, answer));
                            }
                            Some(_) => {}
                        }
                    }
                    Kind::Commit => {
                        log.commit_ns.push(latency);
                        log.commits.push((resp.version, resp.payload));
                        if trace {
                            let (epoch, oldest) = ctx.server.epoch_status();
                            span.pin_lag = Some(epoch.saturating_sub(oldest.unwrap_or(epoch)));
                        }
                    }
                }
            }
            Err(e) => log.failures.push(format!(
                "{} lane {lane} op {k} ({kind:?}): {e}",
                phase_name(phase)
            )),
        }
        if trace {
            log.spans.push(span);
        }
    }
    log
}

/// A request ready to send, built before the send so that cloning the
/// query is not timed.
enum Request {
    Read(Query),
    Commit(Vec<sdbms_core::BatchOp>),
}

fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Warmup => "warm-up",
        Phase::Measure => "measured",
        Phase::Probe { .. } => "commit probe",
    }
}

/// Sleep until shortly before `due`, then spin the rest, so a
/// scheduled send is late by the scheduler's wake-up jitter at most.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN * 2 {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
