//! Spans recorded by the benchmark around its own calls into the layers.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), a parent and a frame id. Spans stay in memory — one buffer per
//! thread, merged at the end — and are written out once when the run
//! ends. Nothing inside the program is instrumented.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same buffer.
    pub parent: Option<usize>,
    pub frame: u64,
}

/// One thread's span buffer. A disabled tracer records nothing and costs
/// one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle (`usize::MAX` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, frame: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            frame,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (children of one span never overlap here, since
/// each thread records its own spans sequentially).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self times (in nanoseconds) of the spans called `name`.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<f64> {
    self_times_ns(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t as f64)
        .collect()
}

/// Write spans as tab-separated rows: name, start, end, parent, frame.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\tframe\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{parent}\t{}\n",
            s.name, s.start_ns, s.end_ns, s.frame
        ));
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame: 0,
        };
        let spans = vec![
            span("frame", 0, 100, None),
            span("send", 0, 10, Some(0)),
            span("wait", 10, 90, Some(0)),
            span("decode", 90, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 10, 80, 5]);
        assert_eq!(self_times_of(&spans, "wait"), vec![80.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("frame", None, 1);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
