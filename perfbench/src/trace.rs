//! Spans recorded in the benchmark's own code around calls into the
//! library's public functions. Spans live in memory and are written out
//! when the run ends; per-layer times are span *self* times.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// What was called.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl SpanRec {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; it closes when the guard drops or [`Guard::finish`]es.
    pub fn enter(&self, name: &'static str, op: u64, parent: Option<SpanId>) -> Guard<'_> {
        self.enter_if(true, name, op, parent)
    }

    /// Like [`Self::enter`], but the span is recorded only when `on` (and
    /// the tracer is enabled). The guard still measures its duration.
    pub fn enter_if(
        &self,
        on: bool,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> Guard<'_> {
        let start = Instant::now();
        let id = (on && self.enabled).then(|| {
            let t = self.nanos(start);
            let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
            spans.push(SpanRec {
                name,
                start_ns: t,
                end_ns: t,
                parent,
                op,
            });
            spans.len() - 1
        });
        Guard {
            tracer: self,
            id,
            start,
            done: false,
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn close(&self, id: SpanId, at: Instant) {
        let t = self.nanos(at);
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans[id].end_ns = t;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The span log as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("]\n");
        out
    }
}

/// An open span. Dropping it closes the span.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
    start: Instant,
    done: bool,
}

impl Guard<'_> {
    /// The span's id, for children to name as their parent (`None` when
    /// the span is not recorded).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Close the span now and return how long it was open.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let end = Instant::now();
        if !self.done {
            self.done = true;
            if let Some(id) = self.id {
                self.tracer.close(id, end);
            }
        }
        end.duration_since(self.start)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Self time of every span: its duration minus the time covered by its
/// direct children. Children are clipped to the parent, and overlapping
/// children (e.g. from concurrent threads) are counted once.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns().saturating_sub(covered(kids)))
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        current = match current {
            Some((a, b)) if lo <= b => Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Summed self time, in milliseconds, of the spans named `name`.
pub fn self_ms(spans: &[SpanRec], selfs: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum::<u64>() as f64
        / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only_once() {
        // root [0,100) > a [10,40) > a.inner [15,35); root > b [50,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
        assert_eq!(self_ms(&spans, &self_times(&spans), "root"), 50.0 / 1e6);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        // Two concurrent children overlap on [30,40); a third overhangs
        // the parent's end and is clipped to [90,100).
        let spans = vec![
            span("root", 0, 100, None),
            span("c1", 20, 40, Some(0)),
            span("c2", 30, 60, Some(0)),
            span("c3", 90, 120, Some(0)),
            span("c4", 25, 35, Some(0)),
        ];
        // Union: [20,60) + [90,100) = 50.
        assert_eq!(self_times(&spans)[0], 50);
        // A child identical to its parent leaves no self time.
        let spans = vec![span("root", 5, 9, None), span("c", 5, 9, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 4]);
    }

    #[test]
    fn tracer_records_parents_and_respects_enable() {
        let t = Tracer::new(true);
        {
            let root = t.enter("root", 7, None);
            let child = t.enter("child", 7, root.id());
            child.finish();
            let _skipped = t.enter_if(false, "skipped", 7, root.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.to_json().contains("\"name\":\"child\""));

        let off = Tracer::new(false);
        assert!(off.enter("x", 0, None).id().is_none());
        assert!(off.spans().is_empty());
    }
}
