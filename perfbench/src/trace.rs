//! In-memory span recorder for traced runs.
//!
//! The benchmark brackets each call it makes into a library layer with a
//! span: nested spans record their depth, spans of one operation share
//! its id (see [`Tracer::new_op`]), and a span's *self time* is its
//! duration minus that of its direct children. Self times and op counts
//! are folded per span name as spans complete; the first [`KEEP`] spans of
//! each thread are also kept verbatim and written out at the end of the
//! run. A disabled tracer never reads the clock.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim per thread for the written trace.
pub const KEEP: usize = 1 << 13;

const MAX_DEPTH: usize = 8;

/// One completed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Recording thread.
    pub thread: u8,
    /// Operation the span belongs to (per thread).
    pub op: u64,
    /// Interned name.
    pub name: u16,
    /// Nesting depth (0 = outermost).
    pub depth: u8,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Duration minus the direct children's durations.
    pub self_ns: u64,
    /// Operations the span covers (a batch span covers many).
    pub ops: u32,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed operation count.
    pub ops: u64,
    /// Spans folded in.
    pub spans: u64,
}

/// Span recorder owned by one thread (see the module docs).
pub struct Tracer {
    enabled: bool,
    thread: u8,
    epoch: Instant,
    names: Vec<String>,
    index: HashMap<String, u16>,
    op: u64,
    depth: usize,
    child_ns: [u64; MAX_DEPTH + 1],
    agg: Vec<Agg>,
    kept: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread`; `enabled = false` records nothing.
    pub fn new(enabled: bool, thread: u8, epoch: Instant) -> Self {
        Tracer {
            enabled,
            thread,
            epoch,
            names: Vec::new(),
            index: HashMap::new(),
            op: 0,
            depth: 0,
            child_ns: [0; MAX_DEPTH + 1],
            agg: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Interns `name`, returning its id.
    pub fn id(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("too many span names");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        self.agg.push(Agg::default());
        id
    }

    /// Starts a new operation: spans recorded from here on carry its id.
    #[inline]
    pub fn new_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span (a no-op returning `None` when disabled).
    #[inline]
    pub fn begin(&mut self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        assert!(self.depth < MAX_DEPTH, "spans nested too deep");
        self.depth += 1;
        Some(Instant::now())
    }

    /// Closes the span `begin` opened.
    #[inline]
    pub fn end(&mut self, name: u16, start: Option<Instant>, ops: u32) {
        if let Some(start) = start {
            let now = Instant::now();
            self.depth -= 1;
            self.complete(name, start, now, ops, true);
        }
    }

    /// Records a leaf span whose bounds the caller already timed.
    #[inline]
    pub fn record(&mut self, name: u16, start: Instant, end: Instant, ops: u32) {
        if self.enabled {
            self.complete(name, start, end, ops, false);
        }
    }

    fn complete(&mut self, name: u16, start: Instant, end: Instant, ops: u32, nested: bool) {
        let d = self.depth;
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        let children = if nested {
            std::mem::take(&mut self.child_ns[d + 1])
        } else {
            0
        };
        let self_ns = dur.saturating_sub(children);
        self.child_ns[d] += dur;
        let a = &mut self.agg[name as usize];
        a.self_ns += self_ns;
        a.ops += ops as u64;
        a.spans += 1;
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                thread: self.thread,
                op: self.op,
                name,
                depth: d as u8,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur,
                self_ns,
                ops,
            });
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let map: Vec<u16> = other.names.iter().map(|n| self.id(n)).collect();
        for (i, a) in other.agg.iter().enumerate() {
            let mine = &mut self.agg[map[i] as usize];
            mine.self_ns += a.self_ns;
            mine.ops += a.ops;
            mine.spans += a.spans;
        }
        self.kept.extend(other.kept.into_iter().map(|mut s| {
            s.name = map[s.name as usize];
            s
        }));
    }

    /// Totals for `name` (zeroes if it never completed).
    pub fn agg(&self, name: &str) -> Agg {
        self.index
            .get(name)
            .map(|&i| self.agg[i as usize])
            .unwrap_or_default()
    }

    /// Mean self time per op for `name`, if any op was recorded.
    pub fn self_ns_per_op(&self, name: &str) -> Option<f64> {
        let a = self.agg(name);
        (a.ops > 0).then(|| a.self_ns as f64 / a.ops as f64)
    }

    /// Writes the kept spans as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "thread\top\tdepth\tname\tstart_ns\tdur_ns\tself_ns\tops"
        )?;
        for s in &self.kept {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread,
                s.op,
                s.depth,
                self.names[s.name as usize],
                s.start_ns,
                s.dur_ns,
                s.self_ns,
                s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut t = Tracer::new(true, 0, t0);
        let (op, wait, hold, store) = (t.id("op"), t.id("wait"), t.id("hold"), t.id("store"));
        // op [0,100) { wait [0,30) ; hold [30,90) { store [40,70) } }
        t.depth = 1; // inside op
        t.record(wait, at(0), at(30), 1);
        t.depth = 2; // inside op > hold
        t.record(store, at(40), at(70), 1);
        t.depth = 1;
        t.complete(hold, at(30), at(90), 1, true);
        t.depth = 0;
        t.complete(op, at(0), at(100), 1, true);
        assert_eq!(t.agg("store").self_ns, 30);
        assert_eq!(t.agg("hold").self_ns, 30);
        assert_eq!(t.agg("wait").self_ns, 30);
        assert_eq!(t.agg("op").self_ns, 10);
        assert_eq!(t.self_ns_per_op("op"), Some(10.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let id = t.id("x");
        let s = t.begin();
        assert!(s.is_none());
        t.end(id, s, 1);
        assert_eq!(t.agg("x").spans, 0);
    }

    #[test]
    fn absorb_merges_by_name() {
        let t0 = Instant::now();
        let mut a = Tracer::new(true, 0, t0);
        let mut b = Tracer::new(true, 1, t0);
        let _ = a.id("only_a");
        let xa = a.id("x");
        let xb = b.id("x");
        a.record(xa, t0, t0 + Duration::from_nanos(5), 1);
        b.record(xb, t0, t0 + Duration::from_nanos(7), 2);
        a.absorb(b);
        let x = a.agg("x");
        assert_eq!((x.self_ns, x.ops, x.spans), (12, 3, 2));
        assert_eq!(a.kept.len(), 2);
        assert_eq!(a.kept[1].thread, 1);
    }
}
