//! Timing probes placed around the public calls into each layer.
//!
//! The benchmark drives the simulator through its own copy of the staged
//! runner loop ([`crate::mirror`]), generic over a [`Probe`]. With [`Off`]
//! every probe call compiles away, which is how the untraced loop runs; with
//! a [`Tracer`] each call is timed from the benchmark's side of the API:
//!
//! * coarse operations (a cell, a warmup, a drain, a snapshot save, a cache
//!   lookup, ...) become [`Span`]s with a parent, a start and an end;
//! * per-cycle calls (`tick`, `enqueue_*`, `step`) are too frequent for one
//!   span each and accumulate into per-[`Call`] counters instead, charged to
//!   the innermost open span as child time.
//!
//! Lap timing: a per-cycle call is charged the time since the previous
//! probe point, so one clock read serves both ends of adjacent calls. Work
//! between probe points that no call should absorb is dropped with
//! [`Probe::mark`] and stays in its span's self time, which is what
//! `harness.unattributed_frac` reports.

use std::time::Instant;

use anoc_harness::Mechanism;

/// The mechanisms a [`Call`] can be keyed by, in report order.
pub const MECHS: [Mechanism; 6] = [
    Mechanism::Baseline,
    Mechanism::DiComp,
    Mechanism::DiVaxx,
    Mechanism::FpComp,
    Mechanism::FpVaxx,
    Mechanism::LzVaxx,
];

/// Position of `m` in [`MECHS`].
///
/// # Panics
///
/// Panics for a mechanism outside [`MECHS`].
pub fn mech_index(m: Mechanism) -> usize {
    MECHS
        .iter()
        .position(|x| *x == m)
        .expect("benchmarked mechanisms are listed in MECHS")
}

/// Metric-name form of a mechanism (`di-vaxx`).
pub fn mech_slug(m: Mechanism) -> String {
    m.name().to_ascii_lowercase()
}

/// A layer of the system, for the per-layer time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Traffic generation (`TrafficSource::tick`, `DataModel`).
    Traffic,
    /// NI enqueue, which runs the source encoder.
    NocEnqueue,
    /// The cycle kernel (`step`, delivery-log upkeep).
    NocStep,
    /// Post-measurement drain.
    NocDrain,
    /// Simulator snapshot save and restore.
    NocSnapshot,
    /// Direct codec calls (encode, decode, notifications, retargets).
    Compression,
    /// Result-cache and snapshot-store I/O.
    Exec,
    /// Result serialization.
    Persist,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Traffic,
        Layer::NocEnqueue,
        Layer::NocStep,
        Layer::NocDrain,
        Layer::NocSnapshot,
        Layer::Compression,
        Layer::Exec,
        Layer::Persist,
    ];

    /// The per-layer metric reporting this layer's share of traced time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Traffic => "traffic.share",
            Layer::NocEnqueue => "noc.enqueue.share",
            Layer::NocStep => "noc.step.share",
            Layer::NocDrain => "noc.drain.share",
            Layer::NocSnapshot => "noc.snapshot.share",
            Layer::Compression => "compression.share",
            Layer::Exec => "exec.share",
            Layer::Persist => "harness.persist.share",
        }
    }
}

/// A per-call accumulator key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `TrafficSource::tick`.
    Tick,
    /// `NocSim::enqueue_data` for the mechanism at this [`MECHS`] index.
    EnqueueData(usize),
    /// `NocSim::enqueue_control`.
    EnqueueControl,
    /// `NocSim::step` plus `take_fatal_error` and `discard_delivered`.
    Step,
    /// `BlockEncoder::encode` for a [`MECHS`] index.
    Encode(usize),
    /// `BlockDecoder::decode` for a [`MECHS`] index.
    Decode(usize),
    /// `BlockEncoder::apply_notification` for a [`MECHS`] index.
    Notify(usize),
    /// `BlockEncoder::set_error_threshold`.
    Retarget,
}

const M: usize = MECHS.len();
/// Number of distinct [`Call`] slots.
pub const CALL_SLOTS: usize = 4 + 4 * M;

impl Call {
    fn slot(self) -> usize {
        match self {
            Call::Tick => 0,
            Call::EnqueueControl => 1,
            Call::Step => 2,
            Call::Retarget => 3,
            Call::EnqueueData(m) => 4 + m,
            Call::Encode(m) => 4 + M + m,
            Call::Decode(m) => 4 + 2 * M + m,
            Call::Notify(m) => 4 + 3 * M + m,
        }
    }

    fn from_slot(slot: usize) -> Call {
        match slot {
            0 => Call::Tick,
            1 => Call::EnqueueControl,
            2 => Call::Step,
            3 => Call::Retarget,
            s if s < 4 + M => Call::EnqueueData(s - 4),
            s if s < 4 + 2 * M => Call::Encode(s - 4 - M),
            s if s < 4 + 3 * M => Call::Decode(s - 4 - 2 * M),
            s => Call::Notify(s - 4 - 3 * M),
        }
    }

    /// The layer this call's time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Call::Tick => Layer::Traffic,
            Call::EnqueueData(_) | Call::EnqueueControl => Layer::NocEnqueue,
            Call::Step => Layer::NocStep,
            Call::Encode(_) | Call::Decode(_) | Call::Notify(_) | Call::Retarget => {
                Layer::Compression
            }
        }
    }

    /// Stable name in trace output.
    pub fn name(self) -> String {
        match self {
            Call::Tick => "traffic.tick".into(),
            Call::EnqueueControl => "noc.enqueue_control".into(),
            Call::Step => "noc.step".into(),
            Call::Retarget => "compression.retarget".into(),
            Call::EnqueueData(m) => format!("noc.enqueue_data.{}", mech_slug(MECHS[m])),
            Call::Encode(m) => format!("compression.{}.encode", mech_slug(MECHS[m])),
            Call::Decode(m) => format!("compression.{}.decode", mech_slug(MECHS[m])),
            Call::Notify(m) => format!("compression.{}.notify", mech_slug(MECHS[m])),
        }
    }
}

/// What a span covers. Structural spans (no layer) only group work; their
/// self time is time no probe attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One campaign cell, start to result.
    Cell,
    /// A warmup window (or a shared warmup stage).
    Warmup,
    /// A measurement window.
    Measure,
    /// One pass over a campaign or corpus.
    Pass,
    /// `try_drain`.
    Drain,
    /// `save_snapshot` plus the traffic-source state.
    SnapshotSave,
    /// `restore_snapshot` plus the traffic-source state.
    SnapshotRestore,
    /// `SnapshotStore::get`.
    StoreGet,
    /// `SnapshotStore::put`.
    StorePut,
    /// `ResultCache::get`.
    CacheGet,
    /// `ResultCache::put`.
    CachePut,
    /// `persist::encode_run_result`.
    PersistEncode,
    /// `persist::decode_run_result`.
    PersistDecode,
}

impl SpanKind {
    /// Stable name in trace output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Cell => "cell",
            SpanKind::Warmup => "warmup",
            SpanKind::Measure => "measure",
            SpanKind::Pass => "pass",
            SpanKind::Drain => "drain",
            SpanKind::SnapshotSave => "snapshot.save",
            SpanKind::SnapshotRestore => "snapshot.restore",
            SpanKind::StoreGet => "store.get",
            SpanKind::StorePut => "store.put",
            SpanKind::CacheGet => "cache.get",
            SpanKind::CachePut => "cache.put",
            SpanKind::PersistEncode => "persist.encode",
            SpanKind::PersistDecode => "persist.decode",
        }
    }

    /// The layer the span's self time belongs to, `None` for structure.
    pub fn layer(self) -> Option<Layer> {
        match self {
            SpanKind::Cell | SpanKind::Warmup | SpanKind::Measure | SpanKind::Pass => None,
            SpanKind::Drain => Some(Layer::NocDrain),
            SpanKind::SnapshotSave | SpanKind::SnapshotRestore => Some(Layer::NocSnapshot),
            SpanKind::StoreGet | SpanKind::StorePut | SpanKind::CacheGet | SpanKind::CachePut => {
                Some(Layer::Exec)
            }
            SpanKind::PersistEncode | SpanKind::PersistDecode => Some(Layer::Persist),
        }
    }
}

/// Probe points of the mirrored runner loop.
pub trait Probe {
    /// Charges the time since the previous probe point to `call`.
    fn lap(&mut self, call: Call);
    /// Restarts the lap clock; the time since the previous probe point stays
    /// in the enclosing span's self time.
    fn mark(&mut self);
    /// Opens a span nested in the innermost open one.
    fn open(&mut self, kind: SpanKind);
    /// Closes the innermost open span.
    fn close(&mut self);
}

/// The probe of untraced runs: no clock reads at all.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn lap(&mut self, _call: Call) {}
    #[inline(always)]
    fn mark(&mut self) {}
    #[inline(always)]
    fn open(&mut self, _kind: SpanKind) {}
    #[inline(always)]
    fn close(&mut self) {}
}

/// One recorded span. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// The campaign cell the span belongs to.
    pub cell: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Time covered by child spans and per-call laps.
    pub child_ns: u64,
}

impl Span {
    /// Duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration not covered by children.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// The recording probe. One per thread; merge with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    cell: u32,
    last: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
    calls: [(u64, u64); CALL_SLOTS],
}

impl Tracer {
    /// A tracer whose span times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            cell: 0,
            last: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            calls: [(0, 0); CALL_SLOTS],
        }
    }

    /// The instant span times count from; tracers merged with
    /// [`absorb`](Self::absorb) must share it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Tags subsequently opened spans with campaign cell `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Appends another tracer's spans and call counters.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, total ns)` of one call.
    pub fn call(&self, call: Call) -> (u64, u64) {
        self.calls[call.slot()]
    }

    /// Every call with a nonzero count, as `(call, count, total ns)`.
    pub fn calls(&self) -> impl Iterator<Item = (Call, u64, u64)> + '_ {
        self.calls
            .iter()
            .enumerate()
            .filter(|(_, (count, _))| *count > 0)
            .map(|(slot, (count, ns))| (Call::from_slot(slot), *count, *ns))
    }

    /// Durations of every span of `kind`, in ns.
    pub fn durations(&self, kind: SpanKind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration of the spans of `kind`, in ns.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::dur_ns)
            .sum()
    }

    /// Splits the traced time by layer.
    pub fn split(&self) -> Split {
        let mut layer_ns = [0u64; Layer::ALL.len()];
        let mut unattributed_ns = 0;
        let mut root_ns = 0;
        for s in &self.spans {
            if s.parent.is_none() {
                root_ns += s.dur_ns();
            }
            match s.kind.layer() {
                Some(l) => layer_ns[layer_pos(l)] += s.self_ns(),
                None => unattributed_ns += s.self_ns(),
            }
        }
        for (call, _, ns) in self.calls() {
            layer_ns[layer_pos(call.layer())] += ns;
        }
        Split {
            layer_ns,
            unattributed_ns,
            root_ns,
        }
    }
}

fn layer_pos(l: Layer) -> usize {
    Layer::ALL
        .iter()
        .position(|x| *x == l)
        .expect("every layer is listed in Layer::ALL")
}

/// Traced time split into layers.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// Self time per layer, in [`Layer::ALL`] order.
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Self time of structural spans: time no probe attributed.
    pub unattributed_ns: u64,
    /// Summed duration of the root spans (thread time, not wall time).
    pub root_ns: u64,
}

impl Split {
    /// `layer`'s share of the root-span time.
    pub fn share(&self, layer: Layer) -> f64 {
        ratio(self.layer_ns[layer_pos(layer)] as f64, self.root_ns as f64)
    }

    /// The unattributed share of the root-span time.
    pub fn unattributed_frac(&self) -> f64 {
        ratio(self.unattributed_ns as f64, self.root_ns as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Probe for Tracer {
    #[inline]
    fn lap(&mut self, call: Call) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let slot = &mut self.calls[call.slot()];
        slot.0 += 1;
        slot.1 += ns;
        if let Some(&top) = self.stack.last() {
            self.spans[top].child_ns += ns;
        }
    }

    #[inline]
    fn mark(&mut self) {
        self.last = Instant::now();
    }

    fn open(&mut self, kind: SpanKind) {
        let now = Instant::now();
        self.spans.push(Span {
            kind,
            cell: self.cell,
            start_ns: self.since_origin(now),
            end_ns: 0,
            parent: self.stack.last().copied(),
            child_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
        self.last = now;
    }

    fn close(&mut self) {
        let now = Instant::now();
        let Some(idx) = self.stack.pop() else {
            return;
        };
        let end = self.since_origin(now);
        self.spans[idx].end_ns = end;
        let dur = self.spans[idx].dur_ns();
        if let Some(&parent) = self.stack.last() {
            self.spans[parent].child_ns += dur;
        }
        self.last = now;
    }
}
