//! `sdbms-perfbench` — the end-to-end and per-layer benchmark of the
//! sdbms serving stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_cached|exploratory|cleaning> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run drives a `sdbms_serve::Server` over the census view from a
//! single process. `--trace 0` runs one pass and reports the
//! end-to-end metrics; `--trace 1` runs an untraced pass and a traced
//! pass of the same request stream, each on a fresh server and in an
//! order that alternates with the seed, then a single-threaded replay
//! against a twin engine, and reports the per-layer metrics and the
//! tracing overhead. Every answer of every pass is checked against
//! a serial recompute after the timed region. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and metrics.

mod drive;
mod oracle;
mod replay;
mod run;
mod setup;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::drive::Stop;
use crate::run::{Metric, Pass};
use crate::setup::Settings;
use crate::stats::{describe_us, Json};
use crate::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Failures of a set of passes: errors, rejections, wrong answers.
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn tally(
    raw: &sdbms_data::DataSet,
    settings: &Settings,
    universe: &[sdbms_serve::Query],
    passes: &[&Pass],
) -> Result<Tally, String> {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    for p in passes {
        let lanes: Vec<&drive::LaneLog> = p.lanes().collect();
        let verdict = oracle::verify(raw, settings, universe, &lanes, &p.commit_log)?;
        let errors: Vec<&String> = lanes.iter().flat_map(|l| &l.failures).collect();
        t.attempted += lanes.iter().map(|l| l.issued).sum::<u64>();
        t.failed += errors.len() as u64 + verdict.wrong.len() as u64;
        t.notes.push(format!(
            "oracle: {} distinct answers and {} commit replies checked, {} wrong, {} failed",
            verdict.answers_checked,
            verdict.commits_checked,
            verdict.wrong.len(),
            errors.len()
        ));
        t.notes
            .extend(errors.iter().take(5).map(|e| format!("failed: {e}")));
        t.notes
            .extend(verdict.wrong.iter().take(5).map(|w| format!("wrong: {w}")));
    }
    Ok(t)
}

fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
    Json::obj(metrics.into_iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn describe_pass(label: &str, p: &Pass) {
    let reads = p.read_ns();
    let mut commits = p.commit_ns();
    commits.sort_unstable();
    let warm_ops: u64 = p.warm.iter().map(|l| l.issued).sum();
    let mut lag: Vec<u64> = p
        .measured
        .iter()
        .flat_map(|l| l.send_lag_ns.iter().copied())
        .collect();
    lag.sort_unstable();
    if !lag.is_empty() {
        println!("{label}: scheduled sends late by {}", describe_us(&lag));
    }
    println!(
        "{label}: warm-up {warm_ops} requests; window {:.3} s; reads {}; commits {}",
        p.window.as_secs_f64(),
        describe_us(&reads),
        describe_us(&commits)
    );
    println!(
        "{label}: columns span {} pages, pool {} pages; disk pages {} after set-up, {} at end; set-ups {:?} s",
        p.column_pages.0, p.column_pages.1, p.pages_after_setup, p.pages_at_end, p.setup_s
    );
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let settings = Settings::new(args.workload, args.seed, nproc);
    let threads = settings.model.threads();
    if threads > nproc {
        return Err(format!(
            "{} needs {threads} client threads but the host has {nproc} cores",
            args.workload.name()
        ));
    }
    let config = settings.to_json();
    println!("config: {config}");
    let raw = setup::census(settings.rows)?;
    let universe = args.workload.universe();
    let window = Stop::after(Duration::from_secs(args.seconds));
    let epoch = Instant::now();
    let pass = |trace| run::pass(&raw, &settings, &universe, window, trace, epoch);
    // A traced run alternates by seed which pass goes first, so the
    // overhead figures' order effect cancels in a median over seeds.
    let traced_first = args.trace && args.seed % 2 == 1;
    let early = if traced_first {
        Some(pass(true)?)
    } else {
        None
    };
    let a = pass(false)?;
    describe_pass("untraced", &a);
    let e2e = run::end_to_end(&a);
    let ungated = run::ungated(&a);
    let (layers, tally, unlisted) = if args.trace {
        let b = match early {
            Some(b) => b,
            None => pass(true)?,
        };
        println!(
            "traced pass ran {} the untraced one",
            if traced_first { "before" } else { "after" }
        );
        describe_pass("traced", &b);
        // Reads are replayed for half the window, at most 10 s, so a
        // traced run stays well inside its time limit.
        let budget = (window.duration / 2).min(Duration::from_secs(10));
        let r = replay::replay(&raw, &settings, &universe, &b, budget, epoch)?;
        println!(
            "replay: {} requests, {} reads, {} down the engine path",
            r.replayed, r.reads, r.engine_reads
        );
        spans::check_nesting(&r.tracer.spans)?;
        print_self_times(&r.tracer.spans);
        let mut all: Vec<spans::Span> = b.spans().iter().map(|s| s.to_span()).collect();
        let offset = all.len();
        all.extend(r.tracer.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        // Requests answered from the front cache are kept 1 in 64 in
        // the file; the metrics above use every one.
        let kept = spans::retain(&all, |s| s.tier != "front_cache" || s.request % 64 == 0);
        let path = out_dir().join(format!("trace-{}.tsv", args.workload.name()));
        spans::write_tsv(&path, &kept).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} of {} spans written to {}",
            kept.len(),
            all.len(),
            path.display()
        );
        (
            run::per_layer(&a, &b, &r),
            tally(&raw, &settings, &universe, &[&a, &b])?,
            run::schedule_lag(&b),
        )
    } else {
        (
            Vec::new(),
            tally(&raw, &settings, &universe, &[&a])?,
            Vec::new(),
        )
    };
    for note in &tally.notes {
        println!("{note}");
    }
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_ratio {failed_ratio} ({} of {} operations)",
        tally.failed, tally.attempted
    );
    let printed = || e2e.iter().chain(&ungated).chain(&layers).chain(&unlisted);
    for m in printed() {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let correct = tally.failed == 0;
    let result = Json::obj([
        ("config", config),
        ("trace", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        ("failed_ratio", Json::Num(failed_ratio)),
        ("metrics", metrics_json(printed())),
    ]);
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{result}\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted)),
            ("failed", Json::Int(tally.failed)),
            (
                "metrics",
                metrics_json(if args.trace { &layers } else { &e2e }),
            ),
        ])
    );
    Ok(if correct { 0 } else { 1 })
}

/// Total self time per span name of the replay, largest first.
fn print_self_times(spans: &[spans::Span]) {
    let selfs = spans::self_times(spans);
    let mut by_name: Vec<(&str, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(entry) => {
                entry.1 += own;
                entry.2 += 1;
            }
            None => by_name.push((s.name, own, 1)),
        }
    }
    by_name.sort_by_key(|entry| std::cmp::Reverse(entry.1));
    for (name, own, n) in by_name {
        println!(
            "self time {name}: {:.3} ms over {n} spans",
            own as f64 / 1e6
        );
    }
}
