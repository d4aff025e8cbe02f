//! Benchmark-side spans: one per call into a layer's public function,
//! held in memory and written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One span. A leaf is named `<layer>:<op>`; `parent` is the index of the
/// span that caused it (the replay of that layer over one input).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Index of the input (pool member) the span belongs to.
    pub iter: u32,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Call statistics of one layer's leaf spans.
#[derive(Debug, Default, Clone)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

fn is_leaf_of(name: &str, layer: &str) -> bool {
    name.strip_prefix(layer)
        .is_some_and(|rest| rest.starts_with(':'))
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open across other spans; close it with
    /// [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, iter: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let iter = self.spans[parent as usize].iter;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            iter,
        });
        out
    }

    /// Statistics over the leaf spans named `<layer>:…`.
    pub fn layer(&self, layer: &str) -> LayerStat {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| is_leaf_of(s.name, layer))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if durations.is_empty() {
            return LayerStat::default();
        }
        durations.sort_by(f64::total_cmp);
        LayerStat {
            calls: durations.len() as u64,
            total_ns: durations.iter().sum::<f64>() as u64,
            p50_ns: crate::stats::percentile_sorted(&durations, 0.50),
            p99_ns: crate::stats::percentile_sorted(&durations, 0.99),
        }
    }

    /// Total nanoseconds of the layer's leaf spans, per input.
    pub fn layer_ns_by_iter(&self, layer: &str, inputs: usize) -> Vec<f64> {
        let mut out = vec![0.0; inputs];
        for s in self.spans.iter().filter(|s| is_leaf_of(s.name, layer)) {
            out[s.iter as usize] += (s.end_ns - s.start_ns) as f64;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\",\"iter\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, workload, s.iter
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spans_aggregate_by_layer_and_keep_their_parent() {
        let mut spans = Spans::new();
        let root = spans.open("replay:certify", None, 3);
        spans.time("certify:plan", root, || std::hint::black_box(1 + 1));
        spans.time("certify:record", root, || ());
        spans.time("certifyx:other", root, || ());
        spans.close(root);
        let stat = spans.layer("certify");
        assert_eq!(stat.calls, 2);
        assert!(spans.spans[1].parent == Some(root) && spans.spans[1].iter == 3);
        assert!(spans.spans[0].end_ns >= spans.spans[2].end_ns);
        assert_eq!(spans.layer("tpc").calls, 0);
    }
}
