//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, and the two `SlotRecorder`s that take them.
//!
//! A span is a name, a start, an end and the span that caused it; spans
//! of one rep share `rep`. They are kept in memory and written to
//! `benchmark/out/<workload>.spans.jsonl` when the run ends.

use crate::alloc::allocations;
use crate::metrics::Outcome;
use crate::stats::percentile;
use jmso_sim::{AdmissionDecision, SlotRecorder};
use std::io::Write;
use std::time::Instant;

/// `slot` value of a span that is not tied to one slot.
pub const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span plus one; 0 for a root.
    pub parent: u32,
    pub rep: u32,
    pub slot: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store with a hard cap: per-slot spans of a long run
/// would otherwise grow without bound. Spans past the cap are counted,
/// not kept; the aggregates in [`SlotTotals`] still cover them.
pub struct SpanStore {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanStore {
    pub fn new(cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Store a span and return its id (index + 1), or 0 when full.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Reserve a span whose interval only the callee's recorder will
    /// see; [`SpanStore::set_times`] fills it in. Its children can name
    /// it as their parent meanwhile.
    pub fn open(&mut self, name: &'static str, parent: u32, rep: u32) -> u32 {
        let now = Instant::now();
        self.add(name, parent, rep, now, now)
    }

    /// Store a span whose interval is already known.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        rep: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            parent,
            rep,
            slot: NO_SLOT,
            start_ns,
            end_ns,
        })
    }

    /// Set a reserved span's interval.
    pub fn set_times(&mut self, id: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if let Some(s) = self.spans.get_mut((id as usize).wrapping_sub(1)) {
            s.start_ns = start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Write the header object and one line per span.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rep\":{},",
                i + 1,
                s.parent,
                s.name,
                s.rep
            )?;
            if s.slot != NO_SLOT {
                write!(w, "\"slot\":{},", s.slot)?;
            }
            writeln!(w, "\"start_ns\":{},\"end_ns\":{}}}", s.start_ns, s.end_ns)?;
        }
        w.flush()
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }
}

/// The end-to-end recorder: `enabled()` stays false and only
/// `begin_run` / `end_run` are overridden, so the slot loop is the
/// un-instrumented one. It splits a call into set-up (call →
/// `begin_run`), steady state (`begin_run` → `end_run`) and finish.
#[derive(Default)]
pub struct SetupClock {
    pub begin: Option<Instant>,
    pub end: Option<Instant>,
    pub allocs_at_begin: u64,
    pub allocs_at_end: u64,
}

impl SlotRecorder for SetupClock {
    fn begin_run(&mut self, _n_users: usize, _tau: f64) {
        self.allocs_at_begin = allocations();
        self.begin = Some(Instant::now());
    }

    fn end_run(&mut self) {
        self.end = Some(Instant::now());
        self.allocs_at_end = allocations();
    }
}

/// Sums over every slot a [`SpanRecorder`] saw, kept whether or not the
/// span store had room.
#[derive(Default, Clone)]
pub struct SlotTotals {
    pub slots: u64,
    pub pre_ns: u64,
    pub sample_collect_ns: u64,
    pub allocate_ns: u64,
    pub transmit_account_ns: u64,
    pub live_user_slots: u64,
    pub units_granted: u64,
    pub admitted: u64,
    pub deferred: u64,
    pub rejected: u64,
    /// End of one slot to the end of the next, ns (capped in length).
    pub step_ns: Vec<u32>,
}

impl SlotTotals {
    /// Set the metrics every traced workload derives from its slots:
    /// the scheduler's share, the four phase means and the step
    /// percentiles.
    pub fn report(&self, out: &mut Outcome) {
        let slot_time =
            (self.pre_ns + self.sample_collect_ns + self.allocate_ns + self.transmit_account_ns)
                as f64;
        let slots = self.slots as usize;
        let per_slot = |ns: u64| ns as f64 / self.slots.max(1) as f64;
        out.set("sched.share", self.allocate_ns as f64 / slot_time, slots);
        out.set("sim.phase.pre_ns", per_slot(self.pre_ns), slots);
        out.set(
            "sim.phase.sample_collect_ns",
            per_slot(self.sample_collect_ns),
            slots,
        );
        out.set("sim.phase.allocate_ns", per_slot(self.allocate_ns), slots);
        out.set(
            "sim.phase.transmit_account_ns",
            per_slot(self.transmit_account_ns),
            slots,
        );
        let steps: Vec<f64> = self.step_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
        out.set("sim.step_p50_us", percentile(&steps, 0.50), steps.len());
        out.set("sim.step_p99_us", percentile(&steps, 0.99), steps.len());
    }
}

/// Longest step list kept: 4M samples is 16 MB and ample for a p99.
const STEP_SAMPLES_CAP: usize = 4_000_000;

/// The traced-pass recorder (`enabled()` true). It timestamps
/// `begin_slot`, `record_sched_latency_ns`, `record_alloc` and
/// `end_slot`, which cut a slot into four phases:
///
/// * `pre` — previous `end_slot` (or `begin_run`) → `begin_slot`;
/// * `sample_collect` — `begin_slot` → the scheduler call;
/// * `allocate` — the scheduler call, as the engine itself timed it;
/// * `transmit_account` — `record_alloc` → `end_slot`.
pub struct SpanRecorder<'a> {
    store: &'a mut SpanStore,
    rep: u32,
    /// Span the slots hang under (the rep's loop span).
    pub parent: u32,
    pub totals: SlotTotals,
    pub begin: Option<Instant>,
    pub end: Option<Instant>,
    slot: u32,
    last_end: Instant,
    t_begin_slot: Instant,
    t_alloc_done: Instant,
    alloc_ns: u64,
}

impl<'a> SpanRecorder<'a> {
    pub fn new(store: &'a mut SpanStore, rep: u32, parent: u32) -> Self {
        let now = Instant::now();
        Self {
            store,
            rep,
            parent,
            totals: SlotTotals::default(),
            begin: None,
            end: None,
            slot: 0,
            last_end: now,
            t_begin_slot: now,
            t_alloc_done: now,
            alloc_ns: 0,
        }
    }
}

impl SlotRecorder for SpanRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_run(&mut self, _n_users: usize, _tau: f64) {
        let now = Instant::now();
        self.begin = Some(now);
        self.last_end = now;
    }

    fn begin_slot(&mut self, slot: u64, _bs_cap_units: u64) {
        self.slot = slot as u32;
        self.alloc_ns = 0;
        self.t_begin_slot = Instant::now();
        self.t_alloc_done = self.t_begin_slot;
    }

    fn record_sched_latency_ns(&mut self, ns: u64) {
        self.t_alloc_done = Instant::now();
        self.alloc_ns = ns;
    }

    fn record_alloc(&mut self, alloc: &[u64]) {
        self.totals.units_granted += alloc.iter().sum::<u64>();
    }

    fn record_user(&mut self, _id: usize, _energy_mj: f64, _total_rebuffer_s: f64) {
        self.totals.live_user_slots += 1;
    }

    fn record_admission(&mut self, _id: usize, decision: AdmissionDecision) {
        match decision {
            AdmissionDecision::Admit => self.totals.admitted += 1,
            AdmissionDecision::Defer => self.totals.deferred += 1,
            AdmissionDecision::Reject => self.totals.rejected += 1,
        }
    }

    fn end_slot(&mut self) {
        let now = Instant::now();
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        let pre = ns(self.last_end, self.t_begin_slot);
        let to_alloc_done = ns(self.t_begin_slot, self.t_alloc_done);
        let sample_collect = to_alloc_done.saturating_sub(self.alloc_ns);
        let tail = ns(self.t_alloc_done, now);
        let t = &mut self.totals;
        t.slots += 1;
        t.pre_ns += pre;
        t.sample_collect_ns += sample_collect;
        t.allocate_ns += self.alloc_ns;
        t.transmit_account_ns += tail;
        if t.step_ns.len() < STEP_SAMPLES_CAP {
            t.step_ns
                .push(ns(self.last_end, now).min(u64::from(u32::MAX)) as u32);
        }

        let s0 = self.store.ns(self.last_end);
        let s1 = self.store.ns(self.t_begin_slot);
        let s3 = self.store.ns(self.t_alloc_done);
        let s2 = s3.saturating_sub(self.alloc_ns).max(s1);
        let s4 = self.store.ns(now);
        let (rep, slot) = (self.rep, self.slot);
        let mut push = |name, parent, start_ns, end_ns| {
            self.store.push(Span {
                name,
                parent,
                rep,
                slot,
                start_ns,
                end_ns,
            })
        };
        let step = push("sim.step", self.parent, s0, s4);
        if step != 0 {
            push("sim.phase.pre", step, s0, s1);
            push("sim.phase.sample_collect", step, s1, s2);
            push("sched.allocate", step, s2, s3);
            push("sim.phase.transmit_account", step, s3, s4);
        }
        self.last_end = now;
    }

    fn end_run(&mut self) {
        self.end = Some(Instant::now());
    }
}
