//! The three workloads: their sizes, client models, query universes
//! and the seeded request streams every run draws from.
//!
//! A stream is a pure function of `(workload, seed, phase, lane)`: lane
//! `i` of a phase draws from its own [`SplitMix64`], so two runs with
//! the same seed issue the same operations in the same per-lane order,
//! traced or not. Only the number of operations a timed phase gets
//! through differs between runs.

use std::time::Duration;

use sdbms_core::{BatchOp, StatFunction};
use sdbms_data::Value;
use sdbms_serve::{census_query_universe, Query};
use sdbms_testkit::{splitmix, SplitMix64, Zipfian};

/// Rows in the census view, on every workload.
pub const ROWS: usize = 20_000;

/// Columns the exploratory universe spans.
pub const EXPLORATORY_ATTRS: [&str; 3] = ["AGE", "INCOME", "HOURS_WORKED"];

/// Zipf exponent over the 12-query hot universe.
pub const HOT_ZIPF: f64 = 1.1;

/// Cells one cleaning correction overwrites.
pub const CORRECTION_CELLS: usize = 8;

/// Commits in each of the two bursts a read-only workload runs, one
/// before its warm-up and one after its read window, so the commit
/// path's layers are traced on every workload. The probe lane follows
/// each commit with one read.
pub const PROBE_COMMITS: usize = 5;

/// Untimed warm-up before every measured window.
pub const WARMUP: Duration = Duration::from_millis(1500);

/// Reads are binned by due time into windows of this length; the read
/// metrics are medians over the windows of a run.
pub const WINDOW: Duration = Duration::from_secs(2);

/// Cleaning reader: one hot-universe read every 2 ms (500 reads/s).
pub const CLEANING_READ_PERIOD: Duration = Duration::from_millis(2);

/// Cleaning writer: one correction every second, about four times the
/// commit time of the 20,000-row view on a 2-core host.
pub const CLEANING_COMMIT_PERIOD: Duration = Duration::from_millis(1000);

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Confirmatory re-asking: Zipf reads over a universe that fits the
    /// front cache.
    HotCached,
    /// Ad hoc exploration: uniform reads over a universe 20x the front
    /// cache, on a pool smaller than the columns read.
    Exploratory,
    /// Data cleaning: a scheduled writer beside a scheduled reader.
    Cleaning,
}

/// How a workload's clients send requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Each analyst sends its next read when the previous one returns.
    Closed {
        /// Analyst threads.
        analysts: usize,
    },
    /// Lane 0 reads and lane 1 commits, each on a fixed schedule and
    /// timed from the due time.
    Schedule {
        /// Time between reads.
        read_period: Duration,
        /// Time between commits.
        commit_period: Duration,
    },
}

impl Model {
    /// Client threads the model runs.
    pub fn threads(self) -> usize {
        match self {
            Model::Closed { analysts } => analysts,
            Model::Schedule { .. } => 2,
        }
    }
}

/// The timed phases of a run, each with its own streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fills the caches; untimed.
    Warmup,
    /// The measured window.
    Measure,
    /// Commits of a read-only workload, each followed by one read:
    /// burst 0 before the warm-up, burst 1 after the measured window.
    /// In burst 1 a second lane reads beside the commits.
    Probe {
        /// Which burst.
        burst: u8,
    },
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HotCached,
        Workload::Exploratory,
        Workload::Cleaning,
    ];

    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCached => "hot_cached",
            Workload::Exploratory => "exploratory",
            Workload::Cleaning => "cleaning",
        }
    }

    /// Buffer-pool frames. Exploratory's 128 pages hold about half of
    /// the ~237 pages its three columns span.
    pub fn pool_pages(self) -> usize {
        match self {
            Workload::Exploratory => 128,
            Workload::HotCached | Workload::Cleaning => 8192,
        }
    }

    /// The client model: two closed-loop analysts, or one scheduled
    /// reader beside one scheduled writer.
    pub fn model(self) -> Model {
        match self {
            Workload::HotCached | Workload::Exploratory => Model::Closed { analysts: 2 },
            Workload::Cleaning => Model::Schedule {
                read_period: CLEANING_READ_PERIOD,
                commit_period: CLEANING_COMMIT_PERIOD,
            },
        }
    }

    /// True when the measured window sends no writes.
    pub fn read_only(self) -> bool {
        !matches!(self, Workload::Cleaning)
    }

    /// The queries the workload's reads draw from.
    pub fn universe(self) -> Vec<Query> {
        match self {
            Workload::Exploratory => exploratory_universe(),
            Workload::HotCached | Workload::Cleaning => census_query_universe(),
        }
    }

    fn index(self) -> u64 {
        match self {
            Workload::HotCached => 1,
            Workload::Exploratory => 2,
            Workload::Cleaning => 3,
        }
    }
}

/// The exploratory universe: per column, the two moments (mean,
/// variance), 3,502 order statistics (median, every per-mille
/// quantile, a 50 x 50 grid of trimmed means) and 3,502 frequency
/// summaries (mode, unique count, histograms of 2..=3501 bins) —
/// 21,018 distinct summaries over the three columns.
pub fn exploratory_universe() -> Vec<Query> {
    let mut universe = Vec::new();
    for attr in EXPLORATORY_ATTRS {
        universe.push(Query::summary(attr, StatFunction::Mean));
        universe.push(Query::summary(attr, StatFunction::Variance));
        universe.push(Query::summary(attr, StatFunction::Median));
        for pm in 0..=1000 {
            universe.push(Query::summary(attr, StatFunction::Quantile(pm)));
        }
        for lo in 0..50 {
            for hi in 950..1000 {
                universe.push(Query::summary(attr, StatFunction::TrimmedMean(lo, hi)));
            }
        }
        universe.push(Query::summary(attr, StatFunction::Mode));
        universe.push(Query::summary(attr, StatFunction::UniqueCount));
        for bins in 2..=3501 {
            universe.push(Query::summary(attr, StatFunction::Histogram(bins)));
        }
    }
    universe
}

/// One operation of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A read of `universe[i]`.
    Read(usize),
    /// A commit of these staged operations.
    Commit(Vec<BatchOp>),
}

enum Draw {
    Zipf(Zipfian),
    Uniform(u64),
}

/// Which operations a lane sends.
enum Mix {
    Reads,
    Commits,
    /// A commit, then a read, and so on.
    CommitThenRead,
}

/// One lane's seeded operation stream.
pub struct Lane {
    rng: SplitMix64,
    draw: Draw,
    mix: Mix,
    rows: usize,
    sent: u64,
}

impl Lane {
    /// The stream of `lane` in `phase` of `workload` under `seed`, over
    /// a universe of `universe_len` queries and a view of `rows` rows.
    pub fn new(
        workload: Workload,
        seed: u64,
        phase: Phase,
        lane: usize,
        universe_len: usize,
        rows: usize,
    ) -> Self {
        let phase_tag: u64 = match phase {
            Phase::Warmup => 1,
            Phase::Measure => 2,
            Phase::Probe { burst } => 3 + u64::from(burst),
        };
        let mut state =
            seed ^ (workload.index() << 56) ^ (phase_tag << 48) ^ ((lane as u64 + 1) << 32);
        let rng = SplitMix64::new(splitmix(&mut state));
        let mix = match phase {
            Phase::Probe { .. } if lane == 0 => Mix::CommitThenRead,
            _ if workload == Workload::Cleaning && lane == 1 => Mix::Commits,
            _ => Mix::Reads,
        };
        let draw = if workload == Workload::Exploratory {
            Draw::Uniform(universe_len as u64)
        } else {
            Draw::Zipf(Zipfian::new(universe_len, HOT_ZIPF))
        };
        Lane {
            rng,
            draw,
            mix,
            rows,
            sent: 0,
        }
    }

    /// The lane's next operation.
    pub fn next_op(&mut self) -> Op {
        let commit = match self.mix {
            Mix::Reads => false,
            Mix::Commits => true,
            Mix::CommitThenRead => self.sent.is_multiple_of(2),
        };
        self.sent += 1;
        if commit {
            return Op::Commit(correction(&mut self.rng, self.rows));
        }
        match &self.draw {
            Draw::Zipf(z) => Op::Read(z.sample(&mut self.rng)),
            Draw::Uniform(n) => Op::Read(self.rng.below(*n) as usize),
        }
    }
}

/// An 8-cell INCOME correction at seeded rows, to seeded whole-cent
/// values between 10,000 and 100,000.
fn correction(rng: &mut SplitMix64, rows: usize) -> Vec<BatchOp> {
    (0..CORRECTION_CELLS)
        .map(|_| {
            let row = rng.below(rows as u64) as usize;
            let cents = 1_000_000 + rng.below(9_000_000);
            BatchOp::SetCell {
                row,
                attribute: "INCOME".to_string(),
                value: Value::Float(cents as f64 / 100.0),
            }
        })
        .collect()
}

/// FNV-1a fold of one operation into a stream digest.
pub fn digest_op(digest: u64, op: &Op) -> u64 {
    let text = match op {
        Op::Read(i) => format!("r{i}"),
        Op::Commit(ops) => format!("c{ops:?}"),
    };
    text.bytes().fold(digest, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The digest of an empty stream.
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(workload: Workload, seed: u64, phase: Phase, lane: usize, n: usize) -> Vec<Op> {
        let len = workload.universe().len();
        let mut l = Lane::new(workload, seed, phase, lane, len, ROWS);
        (0..n).map(|_| l.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_stream() {
        for w in Workload::ALL {
            for lane in 0..2 {
                for phase in [
                    Phase::Warmup,
                    Phase::Measure,
                    Phase::Probe { burst: 0 },
                    Phase::Probe { burst: 1 },
                ] {
                    assert_eq!(ops(w, 7, phase, lane, 500), ops(w, 7, phase, lane, 500));
                }
            }
        }
    }

    #[test]
    fn another_seed_gives_a_different_stream() {
        for w in Workload::ALL {
            for lane in 0..2 {
                assert_ne!(
                    ops(w, 7, Phase::Measure, lane, 200),
                    ops(w, 8, Phase::Measure, lane, 200)
                );
            }
        }
    }

    #[test]
    fn lanes_and_phases_draw_different_streams() {
        let w = Workload::Exploratory;
        assert_ne!(
            ops(w, 7, Phase::Measure, 0, 200),
            ops(w, 7, Phase::Measure, 1, 200)
        );
        assert_ne!(
            ops(w, 7, Phase::Measure, 0, 200),
            ops(w, 7, Phase::Warmup, 0, 200)
        );
    }

    #[test]
    fn cleaning_lane_one_commits_and_lane_zero_reads() {
        let reads = ops(Workload::Cleaning, 3, Phase::Measure, 0, 50);
        assert!(reads.iter().all(|o| matches!(o, Op::Read(i) if *i < 12)));
        let commits = ops(Workload::Cleaning, 3, Phase::Measure, 1, 5);
        for op in commits {
            let Op::Commit(batch) = op else {
                panic!("writer lane must commit");
            };
            assert_eq!(batch.len(), CORRECTION_CELLS);
        }
    }

    #[test]
    fn the_probe_lane_follows_each_commit_with_a_read() {
        for w in [Workload::HotCached, Workload::Exploratory] {
            let probe = ops(w, 5, Phase::Probe { burst: 1 }, 0, 2 * PROBE_COMMITS);
            for pair in probe.chunks(2) {
                assert!(matches!(pair, [Op::Commit(_), Op::Read(_)]), "{pair:?}");
            }
            let beside = ops(w, 5, Phase::Probe { burst: 1 }, 1, 50);
            assert!(beside.iter().all(|o| matches!(o, Op::Read(_))));
        }
    }

    #[test]
    fn exploratory_universe_is_distinct_and_twenty_times_the_front_cache() {
        let u = exploratory_universe();
        let mut keys: Vec<String> = u.iter().map(Query::canonical).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), u.len());
        let capacity = sdbms_serve::ServeConfig::default().cache_capacity;
        assert!(u.len() >= 20 * capacity);
    }
}
