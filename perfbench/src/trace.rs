//! In-memory spans recorded around calls into the program's public
//! functions; written out once the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    job: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Per-name totals over the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span times are reported relative to `epoch`,
    /// which must not be later than any span it records.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<usize>,
    ) -> SpanId {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            job,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Instant::now();
    }

    /// Records an already-finished interval.
    pub fn interval(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            job,
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn duration_s(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end.duration_since(s.start).as_secs_f64()
    }

    /// Self time of every span: its duration minus the part of it that
    /// the union of its children's intervals covers.
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut iv: Vec<(Instant, Instant)> = children[id]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = 0.0;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb.duration_since(ca).as_secs_f64();
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb.duration_since(ca).as_secs_f64();
                }
                s.end.duration_since(s.start).as_secs_f64() - covered
            })
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.end.duration_since(s.start).as_secs_f64();
            t.self_s += self_s;
        }
        out
    }

    /// Writes one JSON line per span (times in ns since the recorder
    /// started) followed by per-name totals.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos();
        let mut text = String::new();
        for (id, (s, self_s)) in self.spans.iter().zip(&selfs).enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{id},\"name\":\"{}\",\"parent\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                opt(s.parent),
                opt(s.job),
                ns(s.start),
                ns(s.end),
                (self_s * 1e9).round() as i64
            );
        }
        for (name, t) in self.totals() {
            let _ = writeln!(
                text,
                "{{\"totals\":\"{name}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                t.count, t.total_s, t.self_s
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
