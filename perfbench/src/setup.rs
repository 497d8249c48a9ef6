//! Building the engine and the server the same way on every run, and
//! the settings each result records.

use std::time::Instant;

use sdbms_core::{DurabilityPolicy, StatDbms, ViewDefinition};
use sdbms_data::census::{microdata_census, CensusConfig};
use sdbms_data::DataSet;
use sdbms_serve::{QuotaConfig, ServeConfig, Server};
use sdbms_storage::StorageEnv;
use sdbms_testkit::{CENSUS_SOURCE, CENSUS_VIEW};

use crate::stats::Json;
use crate::workload::{Model, Workload, ROWS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Everything a run is configured with.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The request-stream seed.
    pub seed: u64,
    /// Rows in the census view.
    pub rows: usize,
    /// Buffer-pool frames.
    pub pool_pages: usize,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// The client model.
    pub model: Model,
    /// Scan workers of the morsel executor.
    pub exec_workers: usize,
    /// Durability policy of the engine.
    pub durability: DurabilityPolicy,
    /// The server configuration.
    pub serve: ServeConfig,
}

impl Settings {
    /// The settings of `workload` on a host with `nproc` cores.
    pub fn new(workload: Workload, seed: u64, nproc: usize) -> Self {
        let serve = ServeConfig {
            workers: nproc,
            quota: QuotaConfig::unlimited(),
            ..ServeConfig::default()
        };
        Settings {
            workload,
            seed,
            rows: ROWS,
            pool_pages: workload.pool_pages(),
            nproc,
            model: workload.model(),
            exec_workers: nproc,
            durability: DurabilityPolicy::Volatile,
            serve,
        }
    }

    /// The settings as recorded in every result.
    pub fn to_json(&self) -> Json {
        let model = match self.model {
            Model::Closed { analysts } => format!("closed loop, {analysts} analysts"),
            Model::Schedule {
                read_period,
                commit_period,
            } => format!(
                "fixed schedule, 1 reader every {} ms, 1 writer every {} ms",
                read_period.as_secs_f64() * 1e3,
                commit_period.as_secs_f64() * 1e3
            ),
        };
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Int(self.seed)),
            ("git_rev", Json::str(git_rev())),
            ("nproc", Json::Int(self.nproc as u64)),
            ("client_threads", Json::Int(self.model.threads() as u64)),
            ("client_model", Json::str(model)),
            ("server_workers", Json::Int(self.serve.workers as u64)),
            ("exec_workers", Json::Int(self.exec_workers as u64)),
            ("rows", Json::Int(self.rows as u64)),
            ("pool_pages", Json::Int(self.pool_pages as u64)),
            ("durability", Json::str(format!("{:?}", self.durability))),
            (
                "front_cache_capacity",
                Json::Int(self.serve.cache_capacity as u64),
            ),
            ("front_cache_ttl_ticks", Json::Int(self.serve.cache_ttl)),
            (
                "queue_capacity",
                Json::Int(self.serve.queue_capacity as u64),
            ),
            ("quota", Json::str("unlimited")),
            ("mmap_scans", Json::Bool(false)),
        ])
    }
}

/// The census microdata the view is materialized from: the
/// generator's fixed seed, no invalid or outlier records.
pub fn census(rows: usize) -> Result<DataSet, String> {
    microdata_census(&CensusConfig {
        rows,
        invalid_fraction: 0.0,
        outlier_fraction: 0.0,
        ..CensusConfig::default()
    })
    .map_err(|e| format!("generating the census: {e}"))
}

/// Load `raw`, materialize the census view and warm its standing
/// summaries — the engine half of set-up.
pub fn build_engine(
    raw: &DataSet,
    settings: &Settings,
    exec_workers: usize,
) -> Result<StatDbms, String> {
    let mut dbms = StatDbms::with_env(StorageEnv::new(settings.pool_pages));
    dbms.set_workers(exec_workers);
    dbms.set_mmap_scans(false);
    dbms.set_durability(settings.durability)
        .map_err(|e| format!("durability: {e}"))?;
    dbms.load_raw(raw).map_err(|e| format!("load_raw: {e}"))?;
    dbms.materialize(
        ViewDefinition::scan(CENSUS_VIEW, CENSUS_SOURCE),
        "perfbench",
    )
    .map_err(|e| format!("materialize: {e}"))?;
    dbms.warm_standing_summaries(CENSUS_VIEW)
        .map_err(|e| format!("warm_standing_summaries: {e}"))?;
    Ok(dbms)
}

/// Set up `reps` times, each from the generated data set to a serving
/// server, and keep the last server. Returns it with every set-up's
/// wall time in seconds.
pub fn timed_setups(
    raw: &DataSet,
    settings: &Settings,
    reps: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let dbms = build_engine(raw, settings, settings.exec_workers)?;
        let server = Server::start(dbms, settings.serve.clone());
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(server) {
            let _ = Server::shutdown(previous);
        }
    }
    let server = kept.ok_or("no set-up ran")?;
    Ok((server, times))
}

/// Pages one pass over `attrs` touches (page reads plus pool hits) on
/// the server's engine, against the pool's capacity.
pub fn column_pages(server: &Server, attrs: &[&str]) -> Result<(u64, usize), String> {
    server.with_dbms(|d| {
        let snap = d
            .snapshot(CENSUS_VIEW)
            .map_err(|e| format!("snapshot: {e}"))?;
        let before = d.io();
        for a in attrs {
            snap.column(a).map_err(|e| format!("column {a}: {e}"))?;
        }
        let io = d.io().since(&before);
        Ok((io.page_reads + io.pool_hits, d.env().pool.capacity()))
    })
}

/// The repository revision, read from `.git` above the working
/// directory; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
                .unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// The process's peak resident set (VmHWM) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
