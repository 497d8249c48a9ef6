//! One pass of a workload on a fresh server, and the metrics derived
//! from passes and replays.

use std::time::{Duration, Instant};

use sdbms_data::DataSet;
use sdbms_serve::{CommitRecord, FrontCacheStats, Query, Served, Server, ServerMetrics};
use sdbms_summary::CacheStats;
use sdbms_testkit::CENSUS_VIEW;

use crate::drive::{run_phase, Ctx, Kind, LaneLog, ReqSpan, Stop};
use crate::replay::Replay;
use crate::setup::{self, Settings, SETUP_REPS};
use crate::stats::{median, median_us, percentile};
use crate::workload::{Phase, Workload, WARMUP, WINDOW};

/// Everything one pass measured, before the oracle runs.
pub struct Pass {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Warm-up lanes.
    pub warm: Vec<LaneLog>,
    /// Measured lanes.
    pub measured: Vec<LaneLog>,
    /// Commit-probe lanes of both bursts (read-only workloads).
    pub probe: Vec<LaneLog>,
    /// Wall time of the measured window.
    pub window: Duration,
    /// Disk pages allocated right after set-up.
    pub pages_after_setup: usize,
    /// Disk pages allocated after the measured window, before the
    /// second probe burst.
    pub pages_at_end: usize,
    /// VmHWM after the measured window, before the second probe burst
    /// and the oracle, MiB.
    pub peak_rss_mb: f64,
    /// Pages one pass over the universe's columns touches, and the
    /// pool's capacity.
    pub column_pages: (u64, usize),
    /// Front-cache counters over the measured window.
    pub front: FrontCacheStats,
    /// The engine's Summary-DB counters over the measured window.
    pub summary: CacheStats,
    /// Server rejections, trips and sheds over the measured window.
    pub rejections: u64,
    /// The server's commit log.
    pub commit_log: Vec<CommitRecord>,
}

impl Pass {
    /// Every lane of every phase.
    pub fn lanes(&self) -> impl Iterator<Item = &LaneLog> {
        self.warm.iter().chain(&self.measured).chain(&self.probe)
    }

    /// Commits the warm-up made. Only cleaning's warm-up commits, and
    /// no probe burst runs on cleaning, so these lead the commit log.
    pub fn warm_commits(&self) -> usize {
        self.warm.iter().map(|l| l.commits.len()).sum()
    }

    /// Successful measured read latencies, ns, sorted.
    pub fn read_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.read_windows().into_iter().flatten().collect();
        v.sort_unstable();
        v
    }

    /// Successful measured read latencies, ns, by [`WINDOW`], each
    /// window sorted. A trailing window shorter than half a
    /// [`WINDOW`] is dropped.
    pub fn read_windows(&self) -> Vec<Vec<u64>> {
        let mut windows: Vec<Vec<u64>> = Vec::new();
        for lane in &self.measured {
            for (i, w) in lane.read_ns.iter().enumerate() {
                if windows.len() <= i {
                    windows.resize_with(i + 1, Vec::new);
                }
                windows[i].extend_from_slice(w);
            }
        }
        let full = (self.window.as_secs_f64() / WINDOW.as_secs_f64() + 0.5).floor() as usize;
        windows.truncate(full.max(1));
        for w in &mut windows {
            w.sort_unstable();
        }
        windows
    }

    /// Median over the windows of the windows' `pct`-th percentile
    /// read latency, ns.
    pub fn read_percentile_ns(&self, pct: f64) -> f64 {
        let per: Vec<f64> = self
            .read_windows()
            .iter()
            .map(|w| percentile(w, pct) as f64)
            .collect();
        median(&per)
    }

    /// Median over the windows of successful reads per second.
    pub fn read_rps(&self) -> f64 {
        let window_s = WINDOW.as_secs_f64().min(self.window.as_secs_f64());
        let per: Vec<f64> = self
            .read_windows()
            .iter()
            .map(|w| w.len() as f64 / window_s)
            .collect();
        median(&per)
    }

    /// Commit latencies: the measured window's, or the probe's on a
    /// read-only workload; ns.
    pub fn commit_ns(&self) -> Vec<u64> {
        self.measured
            .iter()
            .chain(&self.probe)
            .flat_map(|l| l.commit_ns.iter().copied())
            .collect()
    }

    /// Request spans of the measured window and the probe bursts, in
    /// send order.
    pub fn spans(&self) -> Vec<&ReqSpan> {
        let mut v: Vec<&ReqSpan> = self
            .measured
            .iter()
            .chain(&self.probe)
            .flat_map(|l| &l.spans)
            .collect();
        v.sort_by_key(|s| (s.sent, s.lane));
        v
    }
}

/// The shape each workload is meant to have. A change to a default
/// that turns exploratory into a cache-hit workload, or makes the hot
/// workloads spill the pool, stops the run here.
fn check_shape(settings: &Settings, universe: usize, pages: (u64, usize)) -> Result<(), String> {
    let capacity = settings.serve.cache_capacity;
    let (touched, pool) = pages;
    match settings.workload {
        Workload::Exploratory => {
            if universe < 20 * capacity {
                return Err(format!(
                    "exploratory universe of {universe} queries is under 20x the {capacity}-entry front cache"
                ));
            }
            if touched <= pool as u64 {
                return Err(format!(
                    "exploratory columns span {touched} pages and fit the {pool}-page pool"
                ));
            }
        }
        Workload::HotCached | Workload::Cleaning => {
            if universe > capacity {
                return Err(format!(
                    "hot universe of {universe} queries exceeds the {capacity}-entry front cache"
                ));
            }
            if touched > pool as u64 {
                return Err(format!(
                    "hot columns span {touched} pages and spill the {pool}-page pool"
                ));
            }
        }
    }
    Ok(())
}

fn universe_attrs(universe: &[Query]) -> Vec<&str> {
    let mut attrs: Vec<&str> = universe
        .iter()
        .filter_map(|q| match q {
            Query::Summary { attribute, .. } | Query::Column { attribute } => {
                Some(attribute.as_str())
            }
            Query::Row { .. } => None,
        })
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

fn rejections(m: &ServerMetrics) -> u64 {
    m.overload_rejections
        + m.quota_rejections
        + m.deadline_trips
        + m.cancelled
        + m.breaker_fast_fails
        + m.brownout.shed_cold
        + m.brownout.shed_tenant
}

/// Set up a fresh server, warm it, run the measured window (and the
/// commit probe of a read-only workload), and shut it down.
pub fn pass(
    raw: &DataSet,
    settings: &Settings,
    universe: &[Query],
    window: Stop,
    trace: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let (server, setup_s) = setup::timed_setups(raw, settings, SETUP_REPS)?;
    let pages_after_setup = allocated(&server);
    let column_pages = setup::column_pages(&server, &universe_attrs(universe))?;
    check_shape(settings, universe.len(), column_pages)?;
    let open = |tenant: &str| {
        server
            .open_session(tenant, CENSUS_VIEW)
            .map_err(|e| format!("open_session: {e}"))
    };
    // A read-only workload's commit probe runs in two bursts, before
    // the warm-up and after the window, so its median is not taken
    // from a single few seconds of the run.
    let cleaner = open("cleaner")?;
    let probe_ctx = Ctx {
        server: &server,
        settings,
        universe,
        sessions: &[cleaner],
        epoch,
    };
    let read_only = settings.workload.read_only();
    let mut probe = Vec::new();
    if read_only {
        probe.extend(run_phase(&probe_ctx, Phase::Probe { burst: 0 }, window, trace).0);
    }
    let sessions = (0..settings.model.threads())
        .map(|lane| open(&format!("analyst-{lane}")))
        .collect::<Result<Vec<_>, _>>()?;
    let ctx = Ctx {
        sessions: &sessions,
        ..probe_ctx
    };
    let warm_stop = Stop {
        duration: WARMUP.min(window.duration),
        max_ops: window.max_ops,
    };
    let (warm, _) = run_phase(&ctx, Phase::Warmup, warm_stop, false);
    let summary_stats = || server.with_dbms(|d| d.cache_stats(CENSUS_VIEW));
    let front_before = server.cache_stats();
    let summary_before = summary_stats().map_err(|e| e.to_string())?;
    let metrics_before = server.metrics();
    let (measured, measured_wall) = run_phase(&ctx, Phase::Measure, window, trace);
    let front_after = server.cache_stats();
    let summary_after = summary_stats().map_err(|e| e.to_string())?;
    let metrics_after = server.metrics();
    let pages_at_end = allocated(&server);
    let peak_rss_mb = setup::peak_rss_mb();
    if read_only {
        // The first analyst reads beside the second burst's commits;
        // the second stays open and idle, pinning the version it last
        // read, so the pin lag after each commit shows.
        let probe_ctx = Ctx {
            sessions: &[cleaner, sessions[0]],
            ..ctx
        };
        probe.extend(run_phase(&probe_ctx, Phase::Probe { burst: 1 }, window, trace).0);
    }
    let commit_log = server.commit_log();
    let _ = server.shutdown();
    Ok(Pass {
        setup_s,
        warm,
        measured,
        probe,
        window: measured_wall,
        pages_after_setup,
        pages_at_end,
        peak_rss_mb,
        column_pages,
        front: FrontCacheStats {
            hits: front_after.hits - front_before.hits,
            misses: front_after.misses - front_before.misses,
            insertions: front_after.insertions - front_before.insertions,
            lru_evictions: front_after.lru_evictions - front_before.lru_evictions,
            ttl_evictions: front_after.ttl_evictions - front_before.ttl_evictions,
            fallback_rejections: front_after.fallback_rejections - front_before.fallback_rejections,
            purged: front_after.purged - front_before.purged,
        },
        summary: CacheStats {
            hits: summary_after.hits - summary_before.hits,
            misses: summary_after.misses - summary_before.misses,
            stale_hits: summary_after.stale_hits - summary_before.stale_hits,
            incremental_updates: summary_after.incremental_updates
                - summary_before.incremental_updates,
            invalidations: summary_after.invalidations - summary_before.invalidations,
            recomputes: summary_after.recomputes - summary_before.recomputes,
            quarantined: summary_after.quarantined - summary_before.quarantined,
        },
        rejections: rejections(&metrics_after) - rejections(&metrics_before),
        commit_log,
    })
}

fn allocated(server: &Server) -> usize {
    server.with_dbms(|d| d.env().disk.allocated_pages())
}

/// A named metric with its unit.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced pass that `BENCHMARK.json`
/// gates.
pub fn end_to_end(p: &Pass) -> Vec<Metric> {
    vec![
        m("setup_s", "s", median(&p.setup_s)),
        m("read_p50_us", "us", p.read_percentile_ns(50.0) / 1e3),
        m("read_p99_us", "us", p.read_percentile_ns(99.0) / 1e3),
        m("read_rps", "1/s", p.read_rps()),
        m("peak_rss_mb", "MiB", p.peak_rss_mb),
        m(
            "space_amp",
            "ratio",
            p.pages_at_end as f64 / p.pages_after_setup.max(1) as f64,
        ),
    ]
}

/// The end-to-end metrics of an untraced pass that are printed but not
/// gated: `commit_p50_ms` swings between two host speed modes within a
/// run, so its run-to-run spread exceeds any allowed bound.
pub fn ungated(p: &Pass) -> Vec<Metric> {
    let commit_ms: Vec<f64> = p.commit_ns().iter().map(|&n| n as f64 / 1e6).collect();
    vec![m("commit_p50_ms", "ms", median(&commit_ms))]
}

/// The per-layer metric of a traced pass that only a scheduled client
/// has, so `BENCHMARK.json` does not list it: how late the sender ran.
pub fn schedule_lag(b: &Pass) -> Vec<Metric> {
    let mut lag: Vec<u64> = b
        .measured
        .iter()
        .flat_map(|l| l.send_lag_ns.iter().copied())
        .collect();
    if lag.is_empty() {
        return Vec::new();
    }
    lag.sort_unstable();
    vec![m(
        "bench.send_lag_p99_ms",
        "ms",
        percentile(&lag, 99.0) as f64 / 1e6,
    )]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn successful_reads<'a>(spans: impl IntoIterator<Item = &'a ReqSpan>) -> Vec<&'a ReqSpan> {
    spans
        .into_iter()
        .filter(|s| matches!(s.kind, Kind::Read(_)) && s.tier.is_some())
        .collect()
}

/// The per-layer metrics of a traced pass `b` and its replay, with the
/// tracing overhead against the untraced pass `a` of the same run.
///
/// Reads of the measured window give the serving and storage read
/// metrics. Reads beside and after commits, of the window or of the
/// commit probe, give the commit-interference metrics.
pub fn per_layer(a: &Pass, b: &Pass, r: &Replay) -> Vec<Metric> {
    let spans = b.spans();
    let reads = successful_reads(b.measured.iter().flat_map(|l| &l.spans));
    let all_reads = successful_reads(spans.iter().copied());
    let commits: Vec<&ReqSpan> = spans
        .iter()
        .copied()
        .filter(|s| s.kind == Kind::Commit && s.tier.is_some())
        .collect();
    let service = |s: &ReqSpan| s.end - s.sent;
    let hit_ns: Vec<u64> = reads
        .iter()
        .filter(|s| s.tier == Some(Served::FrontCache))
        .map(|s| service(s))
        .collect();
    let during_ns: Vec<u64> = all_reads
        .iter()
        .filter(|s| commits.iter().any(|c| s.due < c.end && c.sent < s.end))
        .map(|s| s.end - s.due)
        .collect();
    let post_commit_ns: Vec<u64> = commits
        .iter()
        .filter_map(|c| {
            all_reads
                .iter()
                .find(|s| s.sent >= c.end && s.tier == Some(Served::Computed))
                .map(|s| service(s))
        })
        .collect();
    let sum = |v: &[&ReqSpan], f: fn(&ReqSpan) -> u64| v.iter().map(|s| f(s)).sum::<u64>();
    let page_reads = sum(&reads, |s| s.page_reads);
    let pool_hits = sum(&reads, |s| s.pool_hits);
    // The largest lag after any commit: on a read-only workload, the
    // idle session pinned through the second probe burst.
    let pin_lag = commits.iter().filter_map(|c| c.pin_lag).max().unwrap_or(0);
    let span_us = |name: &str| {
        let d: Vec<u64> = r
            .tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect();
        median_us(&d)
    };
    let read_p50 = |p: &Pass| p.read_percentile_ns(50.0);
    let summary_lookups = b.summary.hits + b.summary.misses + b.summary.stale_hits;
    vec![
        m("serve.hit_p50_us", "us", median_us(&hit_ns)),
        m(
            "serve.front_hit_ratio",
            "ratio",
            ratio(b.front.hits, b.front.hits + b.front.misses),
        ),
        m(
            "serve.front_lookups",
            "count",
            (b.front.hits + b.front.misses) as f64,
        ),
        m(
            "serve.front_evictions",
            "count",
            b.front.lru_evictions as f64,
        ),
        m("serve.rejections", "count", b.rejections as f64),
        m(
            "serve.read_during_commit_p50_us",
            "us",
            median_us(&during_ns),
        ),
        m(
            "serve.post_commit_read_us",
            "us",
            median_us(&post_commit_ns),
        ),
        m("core.snapshot_us", "us", span_us("core.snapshot")),
        m("core.commit_us", "us", span_us("core.commit")),
        m(
            "columnar.read_column_us",
            "us",
            span_us("columnar.read_column"),
        ),
        m(
            "columnar.read_batch_us",
            "us",
            span_us("columnar.read_batch"),
        ),
        m("columnar.clone_us", "us", span_us("columnar.clone")),
        m(
            "columnar.rows_decoded",
            "rows/read",
            ratio(r.rows_decoded, r.reads),
        ),
        m("stats.moments_us", "us", span_us("stats.moments")),
        m("stats.order_us", "us", span_us("stats.order")),
        m("stats.freq_us", "us", span_us("stats.freq")),
        m("summary.compute_us", "us", span_us("summary.compute")),
        m(
            "summary.hit_ratio",
            "ratio",
            ratio(b.summary.hits, summary_lookups),
        ),
        m("summary.lookups", "count", summary_lookups as f64),
        m(
            "summary.invalidations",
            "count",
            b.summary.invalidations as f64,
        ),
        m("exec.profile_us", "us", span_us("exec.profile")),
        m("exec.morsels", "count", r.morsels as f64),
        m("exec.workers", "count", r.exec_workers as f64),
        m(
            "storage.page_reads_per_read",
            "pages",
            ratio(page_reads, reads.len() as u64),
        ),
        m(
            "storage.pool_hit_ratio",
            "ratio",
            ratio(pool_hits, pool_hits + page_reads),
        ),
        m(
            "storage.page_writes_per_commit",
            "pages",
            ratio(sum(&commits, |s| s.page_writes), commits.len() as u64),
        ),
        m(
            "storage.pool_hits_per_commit",
            "count",
            ratio(sum(&commits, |s| s.pool_hits), commits.len() as u64),
        ),
        m("txn.pin_lag", "epochs", pin_lag as f64),
        m("trace.replayed_requests", "count", r.replayed as f64),
        m(
            "trace.read_p50_overhead_pct",
            "%",
            (read_p50(b) - read_p50(a)) / read_p50(a).max(1.0) * 100.0,
        ),
        m(
            "trace.read_rps_overhead_pct",
            "%",
            (a.read_rps() - b.read_rps()) / a.read_rps().max(1e-9) * 100.0,
        ),
    ]
}
