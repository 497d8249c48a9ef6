//! In-memory spans, self times, and the trace file.
//!
//! A span is one timed call at a layer boundary: its name, start and
//! end (ns since the run's epoch), the span that caused it, the request
//! it belongs to, and the I/O counters it moved. Spans stay in memory
//! until the run ends and are then written out as one TSV file.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use sdbms_storage::IoSnapshot;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `columnar.read_column`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
    /// Serving tier of a request span, or the replay's model outcome.
    pub tier: &'static str,
    /// Store version the call ran against.
    pub version: u64,
    /// I/O counters the call moved.
    pub io: IoSnapshot,
}

impl Span {
    /// Wall time of the call, ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    open_io: Vec<IoSnapshot>,
}

impl Tracer {
    /// A tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open_io: Vec::new(),
        }
    }

    /// Open a span; `io` is the counter state at its start.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        io: IoSnapshot,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            request,
            tier: "",
            version: 0,
            io: IoSnapshot::default(),
        });
        self.open_io.push(io);
        id
    }

    /// Close span `id`; `io` is the counter state at its end.
    pub fn close(&mut self, id: usize, io: IoSnapshot) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.io = io.since(&self.open_io[id]);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Each span's self time: its duration minus the part of its interval
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Check that every span ends after it starts and lies inside its
/// parent, which was recorded before it.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {i} ({}) runs outside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// The spans `keep` accepts, with parent links renumbered; a span
/// whose parent was dropped becomes a root.
pub fn retain(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<Span> {
    let mut index = vec![None; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if keep(s) {
            index[i] = Some(out.len());
            let mut s = s.clone();
            s.parent = s.parent.and_then(|p| index[p]);
            out.push(s);
        }
    }
    out
}

/// Write `spans` with their self times as TSV.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\ttier\tversion\tpage_reads\tpool_hits\tpage_writes"
    )?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}\t{}\t{}\t{}\t{}\t{}",
            s.request,
            s.name,
            s.start,
            s.end,
            if s.tier.is_empty() { "-" } else { s.tier },
            s.version,
            s.io.page_reads,
            s.io.pool_hits,
            s.io.page_writes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            tier: "",
            version: 0,
            io: IoSnapshot::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("a.x", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50, 30 - 5, 20, 10, 5]);
        check_nesting(&spans).expect("well nested");
    }

    #[test]
    fn retain_renumbers_parents() {
        let spans = vec![
            span("a", 0, 10, None),
            span("b", 0, 10, None),
            span("b.x", 1, 2, Some(1)),
            span("a.x", 3, 4, Some(0)),
        ];
        let kept = retain(&spans, |s| s.name != "a");
        let names: Vec<_> = kept.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("b", None), ("b.x", Some(0)), ("a.x", None)]);
    }

    #[test]
    fn nesting_check_rejects_a_child_outside_its_parent() {
        let spans = vec![span("root", 0, 10, None), span("late", 5, 12, Some(0))];
        assert!(check_nesting(&spans).is_err());
        // Self time still never exceeds the parent's duration.
        assert!(self_times(&spans)[0] <= spans[0].duration());
    }
}
