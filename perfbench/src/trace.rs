//! The benchmark's own tracing: wall-clock timing of every call it makes
//! into the program, plus — in a traced run only — in-memory spans (name,
//! start, end, parent, op id) and the program's `defined-obs` snapshot
//! taken around each verb call. Nothing here reaches inside the program:
//! spans wrap the public calls from the outside, and the obs counters are
//! the ones the program already keeps.

use defined_obs::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The verb call this span belongs to.
    pub op: u64,
}

/// Times calls; records spans and obs snapshots when tracing is on.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Obs snapshots taken around each verb call, merged per verb. Each
    /// covers exactly one call: the registry is reset before it.
    obs: BTreeMap<&'static str, Snapshot>,
    /// Calls merged into each entry of `obs`.
    obs_calls: BTreeMap<&'static str, u64>,
    /// Seconds spent on tracing bookkeeping (span records, obs resets and
    /// snapshots) — the traced run's own overhead.
    pub overhead_s: f64,
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl Tracer {
    /// A tracer; `on` selects the traced run.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            obs: BTreeMap::new(),
            obs_calls: BTreeMap::new(),
            overhead_s: 0.0,
        }
    }

    /// Whether this is the traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` and returns its result with its wall time in seconds,
    /// recording a span named `name` under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let slot = if self.on {
            let t = Instant::now();
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(slot);
            self.overhead_s += t.elapsed().as_secs_f64();
            Some(slot)
        } else {
            None
        };
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        if let Some(slot) = slot {
            let t = Instant::now();
            self.stack.pop();
            let s = &mut self.spans[slot];
            s.start_ns = ns(start - self.epoch);
            s.end_ns = ns(end - self.epoch);
            self.overhead_s += t.elapsed().as_secs_f64();
        }
        (r, (end - start).as_secs_f64())
    }

    /// A top-level verb call: a fresh op id and a span, and in a traced
    /// run the obs registry reset before the call and snapshotted after
    /// it, merged under `name`.
    pub fn verb<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        self.op += 1;
        if self.on {
            let t = Instant::now();
            defined_obs::global().reset();
            self.overhead_s += t.elapsed().as_secs_f64();
        }
        let out = self.span(name, f);
        if self.on {
            let t = Instant::now();
            let snap = defined_obs::global().snapshot();
            self.obs.entry(name).or_default().merge(&snap);
            *self.obs_calls.entry(name).or_default() += 1;
            self.overhead_s += t.elapsed().as_secs_f64();
        }
        out
    }

    /// The merged obs snapshot of every `verb` call named `name`, and how
    /// many calls it covers.
    pub fn obs_of(&self, name: &str) -> (Snapshot, u64) {
        (
            self.obs.get(name).cloned().unwrap_or_default(),
            self.obs_calls.get(name).copied().unwrap_or(0),
        )
    }

    /// Renders the spans and the per-verb obs snapshots as JSON.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("],\"obs\":{");
        for (i, (verb, snap)) in self.obs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{verb}\":{}", snap.to_json().trim_end());
        }
        out.push_str("}}\n");
        out
    }
}
