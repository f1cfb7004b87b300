//! In-memory spans recorded around calls into each layer's public
//! functions, written out when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the layer metric it feeds (`core.decompose`),
/// `item` identifies the input it worked on, `parent` the enclosing span.
struct Span {
    name: &'static str,
    item: usize,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Records spans and counters when on; when off, [`Tracer::span`] only
/// runs its closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Counters keyed by (metric, item): the last value recorded for an
    /// item wins, so a count taken on every traced pass is counted once.
    counts: BTreeMap<(&'static str, usize), f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` for `item`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, item, start, end: start, parent: self.stack.last().copied() });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records a count for `item` (only when tracing).
    pub fn count(&mut self, name: &'static str, item: usize, value: f64) {
        if self.on {
            self.counts.insert((name, item), value);
        }
    }

    /// Sum over items of a counter.
    pub fn total(&self, name: &str) -> f64 {
        // A fold from +0 (an empty `sum` of floats is -0).
        self.counts.iter().filter(|((n, _), _)| *n == name).fold(0.0, |sum, (_, v)| sum + v)
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children are nested and sequential, so their durations add).
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end - span.start;
            }
        }
        own
    }

    /// Per layer: the sum over items of the item's median self time
    /// across the passes that traced it.
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut per_item: BTreeMap<(&'static str, usize), Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            per_item.entry((span.name, span.item)).or_default().push(own);
        }
        let mut layers = BTreeMap::new();
        for ((name, _), samples) in per_item {
            *layers.entry(name).or_insert(0.0) += crate::stats::median(&samples);
        }
        layers
    }

    /// Share of the self time spent under `root` spans that falls in each
    /// layer (the root's own self time included under its name).
    pub fn shares_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let under_root = |mut i: usize| loop {
            if self.spans[i].name == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if under_root(i) {
                *shares.entry(span.name).or_insert(0.0) += own[i];
            }
        }
        let total: f64 = shares.values().sum();
        for value in shares.values_mut() {
            *value /= total.max(1e-12);
        }
        shares
    }

    /// All spans and counters as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.item, s.start, s.end
            );
        }
        out.push_str("\n],\"counts\":[");
        for (i, ((name, item), value)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{{\"name\":\"{name}\",\"item\":{item},\"value\":{value}}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", 0, |t| {
            t.span("child", 0, |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let layers = t.layer_seconds();
        assert!(layers["child"] >= 0.02);
        assert!(layers["root"] < 0.01, "root self time {}", layers["root"]);
        assert!(t.shares_under("root")["child"] > 0.6);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        t.count("c", 0, 1.0);
        assert!(t.layer_seconds().is_empty());
        assert_eq!(t.total("c"), 0.0);
    }
}
