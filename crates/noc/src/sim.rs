//! The cycle-accurate network simulation kernel.
//!
//! [`NocSim`] ties together the mesh, routers, NIs and codecs. Each call to
//! [`NocSim::step`] advances one router cycle:
//!
//! 1. every router runs VC + switch allocation and the granted flits start
//!    their switch/link traversal (arriving two cycles later);
//! 2. link arrivals scheduled for this cycle are written into input buffers
//!    (BW stage) or handed to ejection NIs — after allocation, which could
//!    not have granted them anyway (they become eligible next cycle);
//! 3. freed buffer slots are credited back to the upstream hop;
//! 4. every NI injects at most one flit of its head-of-queue packet.
//!
//! A flit written at cycle `a` is allocation-eligible at `a+1` and lands
//! downstream at `g+2` after a grant at `g` — the three-stage router of
//! Table 1.
//!
//! The kernel is allocation-free at steady state: packets live in a slab
//! indexed by the dense slot carried on every flit, the event ring and the
//! allocation scratch vectors are reused across cycles, and only routers
//! with buffered flits are visited (see DESIGN.md).
//!
//! The routers, NIs, event ring and packet slab live in one `Network`.
//! Steps 1 and 2 are its phase A, step 4 its phase B2, and the cycle edge
//! between them (ejections, then link traversals, then credits) is this
//! module's; see `network.rs` and DESIGN.md §7.

use anoc_core::avcl::Avcl;
use anoc_core::codec::Notification;
use anoc_core::control::{FlowControllerBank, QosSpec};
use anoc_core::data::{CacheBlock, NodeId};
use anoc_core::rng::{Pcg32, Stream};
use anoc_core::threshold::ErrorThreshold;

use crate::config::NocConfig;
use crate::faults::{
    BoundViolation, DeadlockDump, FaultPlan, LossPlan, RouterDiag, SimError, StuckPacket, PPM,
};
use crate::network::Network;
use crate::ni::NodeCodec;
use crate::packet::{Delivered, Flit, PacketId, PacketKind, PacketState};
use crate::router::{Arrival, Hop, RouterActivity};
use crate::snapshot::{load_link_dest, LinkDest, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::stats::{ActivityReport, NetStats};
use crate::topology::Mesh;

use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// The capability to write current-edge state: moving flits into the ring
/// or returning a credit ([`Network::schedule`], [`Network::land`],
/// [`Network::return_credit`] and `RouterTable::return_credit` each take
/// one). Only this module can make one, and [`NocSim::step`] hands it to
/// the cycle edge and to phase B2, never to phase A, which may read only
/// last-edge state (DESIGN.md §7): a credit returned during allocation
/// would let a later router in the sweep use it a cycle early. A phase-A
/// call to any of them therefore does not compile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge(());

#[cfg(test)]
impl Edge {
    /// An edge for unit tests that drive a router table directly.
    pub(crate) fn for_tests() -> Edge {
        Edge(())
    }
}

/// The cycle-accurate NoC simulator.
pub struct NocSim {
    config: NocConfig,
    mesh: Mesh,
    /// Routers, NIs, event ring and packet slab.
    net: Network,
    codecs: Vec<NodeCodec>,
    live_packets: usize,
    next_pid: PacketId,
    cycle: u64,
    delivered: Vec<Delivered>,
    stats: NetStats,
    measuring: bool,
    /// Active fault-injection plan (inert by default).
    faults: FaultPlan,
    /// Fault RNG ([`Stream::FAULT`]), seeded from the plan. It is not a
    /// traffic RNG, so enabling faults never perturbs offered load.
    fault_rng: Pcg32,
    /// Active lossy-link plan (inert by default).
    loss: LossPlan,
    /// Loss RNG ([`Stream::LOSS`]), seeded from the loss plan. It is not a
    /// traffic RNG; it shares its stream id with the fault RNG, so it is
    /// independent of the fault draws only when the two plans' seeds
    /// differ (equal seeds draw the same sequence).
    loss_rng: Pcg32,
    /// Per-flow QoS control plane (armed via [`NocSim::set_qos`]).
    qos: Option<FlowControllerBank>,
    /// The threshold percentage currently programmed into each node's
    /// encoder — what the per-flow lazy-install path compares against
    /// before rewriting TCAM mask planes, and the approximation level the
    /// loss model scales with. 0 until a threshold is installed.
    installed_percent: Vec<u32>,
    /// End-to-end bound checker: every delivered data word is compared to
    /// its golden copy against this threshold when set.
    bound_check: Option<ErrorThreshold>,
    /// Watchdog horizon: abort with [`SimError::Deadlock`] after this many
    /// cycles without forward progress while packets are outstanding.
    watchdog: Option<u64>,
    /// Last cycle on which any flit moved, injected, or ejected.
    last_progress: u64,
    /// A fatal condition detected mid-step, surfaced by [`NocSim::try_run`]
    /// and [`NocSim::try_drain`].
    fatal: Option<SimError>,
}

impl std::fmt::Debug for NocSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NocSim")
            .field("cycle", &self.cycle)
            .field("outstanding", &self.live_packets)
            .field("nodes", &self.mesh.num_nodes())
            .finish()
    }
}

/// Most packets a snapshot may restore; a larger count is corrupt.
const MAX_SNAPSHOT_PACKETS: usize = (1 << 24) - 1;

impl NocSim {
    /// Builds a network. `codecs` must supply one encoder/decoder pair per
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `codecs` has the wrong
    /// length.
    #[expect(
        clippy::expect_used,
        reason = "documented constructor contract (# Panics)"
    )]
    pub fn new(config: NocConfig, codecs: Vec<NodeCodec>) -> Self {
        config.validate().expect("invalid NoC configuration");
        let mesh = Mesh::new(&config);
        assert_eq!(
            codecs.len(),
            mesh.num_nodes(),
            "one codec pair per node required"
        );
        let net = Network::new(&config, &mesh);
        let num_nodes = mesh.num_nodes();
        NocSim {
            config,
            mesh,
            net,
            codecs,
            live_packets: 0,
            next_pid: 0,
            cycle: 0,
            delivered: Vec::new(),
            stats: NetStats::default(),
            measuring: true,
            faults: FaultPlan::none(),
            // Both RNGs are re-seeded by their plan's setter before any draw.
            fault_rng: Pcg32::on(0, Stream::FAULT),
            loss: LossPlan::none(),
            loss_rng: Pcg32::on(0, Stream::LOSS),
            qos: None,
            installed_percent: vec![0; num_nodes],
            bound_check: None,
            watchdog: None,
            last_progress: 0,
            fatal: None,
        }
    }

    /// Does nothing: the kernel always steps one network serially. Kept
    /// only because the benchmark crate (`benchmark/`) still calls it.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Installs a fault-injection plan and seeds the fault RNG from it. An
    /// inert plan ([`FaultPlan::none`]) draws no random numbers, so the run
    /// stays bit-identical to one without any plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_rng = Pcg32::on(plan.seed, Stream::FAULT);
        self.faults = plan;
    }

    /// Installs a lossy-link plan and seeds the loss RNG from it. An inert
    /// plan ([`LossPlan::none`]) draws no random numbers, so the run stays
    /// bit-identical to one without any plan. The loss RNG is not a traffic
    /// RNG, so losses never perturb offered load. It shares its stream id
    /// with the fault RNG ([`Stream`]): a loss plan and a fault plan compose
    /// as independent draws only when their seeds differ.
    pub fn set_loss_plan(&mut self, plan: LossPlan) {
        self.loss_rng = Pcg32::on(plan.seed, Stream::LOSS);
        self.loss = plan;
    }

    /// Arms (or disarms) the per-flow QoS control plane. An active spec
    /// builds one AIMD controller per (source node, destination class) flow;
    /// each control epoch the realized delivered quality of that flow
    /// tightens or relaxes the flow's error threshold, lazily reprogrammed
    /// into the source encoder on the next enqueue. An inert spec
    /// ([`QosSpec::off`]) disarms the plane entirely.
    ///
    /// The controllers observe *every* delivered data packet (not only
    /// measured ones): the control plane is runtime machinery, not a
    /// statistics consumer, so warmup traffic trains it exactly as the
    /// measurement window does.
    pub fn set_qos(&mut self, spec: QosSpec) {
        self.qos = spec
            .is_active()
            .then(|| FlowControllerBank::new(self.mesh.num_nodes(), spec));
        for slot in &mut self.installed_percent {
            *slot = 0;
        }
    }

    /// Current per-flow threshold percentages of the armed QoS plane
    /// (row-major: `node * classes + class`), or `None` when disarmed.
    pub fn qos_percents(&self) -> Option<Vec<u32>> {
        self.qos
            .as_ref()
            .map(|bank| bank.percents().map(|(_, p)| p).collect())
    }

    /// Enables the end-to-end bound checker: every delivered data word is
    /// compared against its golden (pre-approximation) copy. A word outside
    /// `threshold` counts in `NetStats::faults.bound_violations`; without an
    /// active fault plan it is also fatal ([`SimError::BoundViolation`]).
    pub fn set_bound_check(&mut self, threshold: ErrorThreshold) {
        self.bound_check = Some(threshold);
    }

    /// Arms the no-forward-progress watchdog: if `horizon` cycles pass with
    /// outstanding packets and no flit movement, the run aborts with a
    /// [`SimError::Deadlock`] carrying a diagnostic dump. `0` disarms it.
    pub fn set_watchdog(&mut self, horizon: u64) {
        self.watchdog = if horizon == 0 { None } else { Some(horizon) };
        self.last_progress = self.cycle;
    }

    /// Takes the fatal error detected by the bound checker or watchdog, if
    /// any. [`NocSim::try_run`] and [`NocSim::try_drain`] consume it
    /// automatically; this accessor serves callers driving [`NocSim::step`]
    /// directly.
    pub fn take_fatal_error(&mut self) -> Option<SimError> {
        self.fatal.take()
    }

    /// The simulator configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.mesh.num_nodes()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics of the current measurement window.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Packets created but not yet fully delivered.
    pub fn outstanding_packets(&self) -> usize {
        self.live_packets
    }

    /// Measured packets still undelivered (reported as `unfinished` so a
    /// saturated run never silently drops them from the statistics).
    pub fn record_unfinished(&mut self) {
        self.stats.unfinished = self
            .net
            .packets
            .iter()
            .flatten()
            .filter(|p| p.measured)
            .count() as u64;
    }

    /// Number of packets waiting in `node`'s injection queue.
    pub fn injection_backlog(&self, node: NodeId) -> usize {
        self.net.nis[node.index()].queue.len()
    }

    /// Starts (or restarts) the measurement window: statistics reset, in-
    /// flight warmup packets are excluded, and subsequently created packets
    /// are measured. Call after warmup.
    pub fn begin_measurement(&mut self) {
        self.stats = NetStats::default();
        self.measuring = true;
        for p in self.net.packets.iter_mut().flatten() {
            p.measured = false;
        }
    }

    /// Stops measuring newly created packets (drain phase).
    pub fn end_measurement(&mut self) {
        self.measuring = false;
    }

    /// Enqueues a single-flit control packet.
    pub fn enqueue_control(&mut self, src: NodeId, dest: NodeId) -> PacketId {
        self.enqueue_control_with(src, dest, None)
    }

    /// Enqueues a data packet carrying `block`. The block is encoded by the
    /// source NI's encoder immediately (the compression latency is accounted
    /// on the injection path per §4.3).
    pub fn enqueue_data(&mut self, src: NodeId, dest: NodeId, block: CacheBlock) -> PacketId {
        // Per-flow QoS: lazily reprogram the source encoder when this flow's
        // controller has moved away from what the encoder currently carries.
        // The compare-before-install keeps TCAM mask-plane rewrites off the
        // common path (thresholds move only at epoch boundaries).
        if let Some(bank) = &self.qos {
            let desired = bank.percent_for(src.index(), dest.index());
            if self.installed_percent[src.index()] != desired {
                self.codecs[src.index()]
                    .encoder
                    .set_error_threshold(bank.threshold_for(src.index(), dest.index()));
                self.installed_percent[src.index()] = desired;
            }
        }
        let approx_level = self.installed_percent[src.index()];
        let encoder = &mut self.codecs[src.index()].encoder;
        if self.faults.dict_corrupt_ppm > 0
            && self.fault_rng.below(PPM) < self.faults.dict_corrupt_ppm
        {
            let entropy =
                ((self.fault_rng.next_u32() as u64) << 32) | self.fault_rng.next_u32() as u64;
            if encoder.inject_table_fault(entropy) {
                self.stats.faults.dict_corruptions += 1;
            }
        }
        let encoded = encoder.encode(&block, dest);
        let comp_latency = encoder.compression_latency();
        let payload_bits = encoded.payload_bits();
        let num_flits = self.config.data_packet_flits(payload_bits);
        let baseline_flits = self.config.data_packet_flits(block.size_bits() as u32);
        if self.measuring {
            self.stats.encode.absorb_block(&encoded);
        }
        let va_credit = u64::from(self.config.va_overlap);
        let comp_exposed = comp_latency.saturating_sub(va_credit);
        // With latency hiding, compression starts at creation and overlaps
        // the queue wait — but the residual cycles past the VA-overlap
        // credit gate injectability regardless of queue depth: a short
        // queue cannot absorb latency that has not elapsed yet (§4.3).
        // Without hiding, the latency is paid at the queue head, serialized
        // with injection.
        let (exposed, head_gate) = if self.config.hide_compression {
            (comp_exposed, 0)
        } else {
            (0, comp_exposed)
        };
        self.push_packet(PacketState {
            id: 0, // assigned by push_packet
            src,
            dest,
            kind: PacketKind::Data,
            created: self.cycle,
            ready_at: self.cycle + exposed,
            head_gate,
            inject_start: None,
            num_flits,
            baseline_flits,
            ejected_flits: 0,
            payload: Some(encoded),
            precise: Some(block),
            notification: None,
            corrupt: Vec::new(),
            approx_level,
            lost: Vec::new(),
            measured: self.measuring,
        })
    }

    fn enqueue_control_with(
        &mut self,
        src: NodeId,
        dest: NodeId,
        notification: Option<Notification>,
    ) -> PacketId {
        self.push_packet(PacketState {
            id: 0,
            src,
            dest,
            kind: PacketKind::Control,
            created: self.cycle,
            ready_at: self.cycle,
            head_gate: 0,
            inject_start: None,
            num_flits: 1,
            baseline_flits: 0,
            ejected_flits: 0,
            payload: None,
            precise: None,
            notification,
            corrupt: Vec::new(),
            approx_level: 0,
            lost: Vec::new(),
            measured: self.measuring,
        })
    }

    fn push_packet(&mut self, mut p: PacketState) -> PacketId {
        let id = self.next_pid;
        self.next_pid += 1;
        p.id = id;
        let src = p.src.index();
        let net = &mut self.net;
        let slot = match net.free_slots.pop() {
            Some(s) => {
                net.packets[s as usize] = Some(p);
                s
            }
            None => {
                net.packets.push(Some(p));
                (net.packets.len() - 1) as u32
            }
        };
        self.live_packets += 1;
        net.nis[src].queue.push_back(slot);
        net.mark_busy(src);
        id
    }

    /// Advances the simulation by one cycle.
    ///
    /// Phase A runs allocation and then drains this cycle's ring slot; the
    /// cycle edge applies ejections, link traversals and credits in
    /// router-ascending grant order; phase B2 injects from the NIs; the
    /// epilogue runs the QoS epoch and the watchdog.
    pub fn step(&mut self) {
        let now = self.cycle;
        let edge = Edge(());
        let (landed, unrouted) = self
            .net
            .phase_a(&self.mesh, now, &self.faults, &mut self.stats);
        if let Some(u) = unrouted {
            let slab = &self.net.packets;
            let packet = slab.get(u.slot as usize).and_then(Option::as_ref);
            self.fatal.get_or_insert(SimError::BodyBeforeHead {
                packet: packet.map(|p| p.id),
                router: u.router,
                port: u.port,
                cycle: now,
            });
        }
        let mut progressed = landed | self.cycle_edge(now, edge);
        progressed |= self.net.phase_b2(&self.mesh, now, &mut self.stats, edge);
        self.cycle = now + 1;
        // QoS control epoch: runs in the epilogue, after injection, so every
        // controller observes the cycle's delivered quality. Flows are walked
        // in ascending index order — fully deterministic.
        if let Some(bank) = &mut self.qos {
            if bank.epoch_due(self.cycle) {
                bank.run_epoch();
            }
        }
        if self.measuring {
            self.stats.cycles += 1;
        }
        // Watchdog — forward progress is any arrival, grant or injection.
        // An idle network (no outstanding packets) is trivially live.
        if progressed || self.live_packets == 0 {
            self.last_progress = now;
        } else if let Some(horizon) = self.watchdog {
            if now.saturating_sub(self.last_progress) >= horizon && self.fatal.is_none() {
                self.fatal = Some(SimError::Deadlock(self.deadlock_dump(now)));
            }
        }
    }

    /// The cycle edge between phases A and B2: applies phase A's deferred
    /// outputs. Returns whether any flit was granted.
    fn cycle_edge(&mut self, now: u64, edge: Edge) -> bool {
        // Ejections, in ring order.
        let mut ejects = std::mem::take(&mut self.net.ejects);
        for &(node, flit) in &ejects {
            self.eject_flit(node, flit, now);
        }
        ejects.clear();
        self.net.ejects = ejects;
        // Grants, in two passes: the first draws link-fault flips and moves
        // every arrival into the ring, the second returns credits (drawing
        // drop/duplicate faults) — so allocation never observes same-cycle
        // credits, and the sequential fault-RNG draws follow the
        // router-ascending grant order.
        //
        // Lossy links: one draw from the loss RNG per arrival whenever a
        // plan is active, in the same order as the fault RNG's. The two RNGs
        // share a stream id (`Stream`), so with equal plan seeds they draw
        // one sequence and the flip and erase decisions read the same values
        // until one of them fires.
        let flips = self.faults.link_bit_flip_ppm > 0;
        let lossy = self.loss.is_active();
        let mut arrivals = std::mem::take(&mut self.net.arrivals);
        let granted = !arrivals.is_empty();
        if flips || lossy {
            for a in &arrivals {
                if flips && self.fault_rng.below(PPM) < self.faults.link_bit_flip_ppm {
                    self.flip_payload_bit(a.flit.slot);
                }
                if lossy {
                    let rate = self.loss.effective_ppm(self.approx_level_of(a.flit.slot));
                    if self.loss_rng.below(PPM) < rate {
                        self.erase_payload_word(a.flit.slot);
                    }
                }
            }
        }
        self.net.land(now, now + 2, &mut arrivals, edge);
        self.net.arrivals = arrivals;
        // With credit faults inert every freed slot is credited exactly once
        // and no draw is made, so the per-credit copy count is skipped.
        let credit_faults = self.faults.credit_drop_ppm > 0 || self.faults.credit_dup_ppm > 0;
        let mut credits = std::mem::take(&mut self.net.credits);
        for &c in &credits {
            if !credit_faults {
                self.net.return_credit(c, edge);
                continue;
            }
            for _ in 0..self.credit_copies() {
                self.net.return_credit(c, edge);
            }
        }
        credits.clear();
        self.net.credits = credits;
        granted
    }

    /// Records one link-fault bit flip against the packet in `slot`: a
    /// random (word, bit) of its payload, applied to the decoded block at
    /// delivery so the golden copy stays intact for the bound checker.
    fn flip_payload_bit(&mut self, slot: u32) {
        let Some(p) = self.net.packets[slot as usize].as_mut() else {
            return;
        };
        let Some(block) = &p.precise else {
            return; // control packets carry no payload to corrupt
        };
        let words = block.len() as u32;
        if words == 0 {
            return;
        }
        let word = self.fault_rng.below(words);
        let bit = self.fault_rng.below(u32::BITS);
        p.corrupt.push((word, bit));
        self.stats.faults.bit_flips += 1;
    }

    /// The approximation level the packet in `slot` was encoded under (0
    /// for control packets and freed slots) — what an active [`LossPlan`]
    /// scales its per-hop loss rate with.
    fn approx_level_of(&self, slot: u32) -> u32 {
        self.net.packets[slot as usize]
            .as_ref()
            .map_or(0, |p| p.approx_level)
    }

    /// Records one lossy-link word erasure against the packet in `slot`: a
    /// random payload word, zeroed in the decoded block at delivery so the
    /// golden copy stays intact for the bound checker and quality audit.
    fn erase_payload_word(&mut self, slot: u32) {
        let Some(p) = self.net.packets[slot as usize].as_mut() else {
            return;
        };
        let Some(block) = &p.precise else {
            return; // control packets carry no payload to lose
        };
        let words = block.len() as u32;
        if words == 0 {
            return;
        }
        let word = self.loss_rng.below(words);
        p.lost.push(word);
        self.stats.faults.words_lost += 1;
    }

    /// How many times to return one freed credit under the active plan:
    /// 1 normally, 0 when dropped, 2 when duplicated.
    fn credit_copies(&mut self) -> u32 {
        if self.faults.credit_drop_ppm > 0
            && self.fault_rng.below(PPM) < self.faults.credit_drop_ppm
        {
            self.stats.faults.credits_dropped += 1;
            return 0;
        }
        if self.faults.credit_dup_ppm > 0 && self.fault_rng.below(PPM) < self.faults.credit_dup_ppm
        {
            self.stats.faults.credits_duplicated += 1;
            return 2;
        }
        1
    }

    /// Builds the diagnostic dump for a watchdog abort: the oldest stuck
    /// packets, each non-idle router's credit/VC occupancy, and NI backlogs.
    fn deadlock_dump(&self, now: u64) -> DeadlockDump {
        const MAX_ITEMS: usize = 8;
        let mut stuck: Vec<StuckPacket> = self
            .net
            .packets
            .iter()
            .flatten()
            .map(|p| StuckPacket {
                id: p.id,
                src: p.src,
                dest: p.dest,
                kind: p.kind,
                created: p.created,
                age: now.saturating_sub(p.created),
                ejected_flits: p.ejected_flits,
                num_flits: p.num_flits,
            })
            .collect();
        stuck.sort_by_key(|s| (s.created, s.id));
        stuck.truncate(MAX_ITEMS);
        let table = &self.net.routers;
        let routers = (0..table.len())
            .filter(|&r| table.is_busy(r))
            .take(MAX_ITEMS)
            .map(|r| RouterDiag {
                id: r,
                buffered: table.occupancy(r),
                ports: table.flow_snapshot(r),
            })
            .collect();
        let ni_backlogs = self
            .net
            .nis
            .iter()
            .enumerate()
            .filter(|(_, ni)| !ni.queue.is_empty())
            .take(MAX_ITEMS)
            .map(|(node, ni)| (node, ni.queue.len()))
            .collect();
        DeadlockDump {
            cycle: now,
            last_progress: self.last_progress,
            live_packets: self.live_packets,
            stuck,
            routers,
            ni_backlogs,
        }
    }

    /// Runs `cycles` steps, stopping early with the error if the watchdog
    /// trips or the bound checker records a fatal violation.
    pub fn try_run(&mut self, cycles: u64) -> Result<(), SimError> {
        for _ in 0..cycles {
            self.step();
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Runs until every outstanding packet is delivered, or `max_cycles`
    /// elapse, stopping early with the error if the watchdog trips or the
    /// bound checker records a fatal violation. Returns `Ok(true)` if the
    /// network drained.
    pub fn try_drain(&mut self, max_cycles: u64) -> Result<bool, SimError> {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline {
            if self.live_packets == 0 {
                return Ok(true);
            }
            self.step();
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        Ok(self.live_packets == 0)
    }

    /// Takes the packets delivered since the last call.
    pub fn drain_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Discards the delivered-packet log accumulated since the last drain,
    /// keeping its capacity. Hot loops that never inspect deliveries call
    /// this instead of [`NocSim::drain_delivered`] so the log does not
    /// reallocate every cycle.
    pub fn discard_delivered(&mut self) {
        self.delivered.clear();
    }

    /// Aggregate hardware activity (routers + codecs) for the power model.
    pub fn activity_report(&self) -> ActivityReport {
        let mut routers = RouterActivity::default();
        for r in 0..self.net.routers.len() {
            routers.merge(&self.net.routers.activity(r));
        }
        let mut encoders = anoc_core::codec::CodecActivity::default();
        let mut decoders = anoc_core::codec::CodecActivity::default();
        for c in &self.codecs {
            encoders.merge(&c.encoder.activity());
            decoders.merge(&c.decoder.activity());
        }
        ActivityReport {
            routers,
            encoders,
            decoders,
            cycles: self.cycle,
        }
    }

    /// Immutable access to a node's codec pair.
    pub fn codec(&self, node: NodeId) -> &NodeCodec {
        &self.codecs[node.index()]
    }

    /// Retargets every node encoder's approximation threshold (VAXX control
    /// logic reconfiguration). Encoders whose mechanism carries no threshold
    /// ignore the call. Dictionary (TCAM) mask planes are reprogrammed:
    /// every stored key's don't-care mask is recomputed from its
    /// install-time pattern under the new threshold, as a ternary CAM whose
    /// masks derive from a global threshold register behaves when that
    /// register is rewritten — so a staged run measures with the same
    /// tolerance over warmup-learned and window-learned entries alike.
    pub fn set_error_threshold(&mut self, threshold: ErrorThreshold) {
        for c in &mut self.codecs {
            c.encoder.set_error_threshold(threshold);
        }
        for slot in &mut self.installed_percent {
            *slot = threshold.percent();
        }
    }

    /// Serializes the complete simulator state into a versioned, endian-
    /// stable blob (DESIGN.md §11): routers, NIs, the packet slab, the event
    /// ring, the fault- and loss-RNG cursors, the QoS control plane,
    /// progress bookkeeping, statistics and the codec tables. `fingerprint` should digest every configuration input
    /// that shapes the simulation; [`NocSim::restore_snapshot`] refuses a
    /// blob saved under a different fingerprint.
    ///
    /// Saving refuses (with [`SnapshotError::Unclean`]) if a fatal error is
    /// pending or the delivered-packet log has not been drained — those are
    /// driver-facing states a restored simulation could not reproduce
    /// faithfully.
    pub fn save_snapshot(&self, fingerprint: u64) -> Result<Vec<u8>, SnapshotError> {
        if self.fatal.is_some() {
            return Err(SnapshotError::Unclean("a fatal error is pending"));
        }
        if !self.delivered.is_empty() {
            return Err(SnapshotError::Unclean("undrained delivered packets"));
        }
        let mut w = SnapWriter::new();
        w.bytes(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(fingerprint);
        // Structural echo: cheap self-description so a geometry mismatch is
        // caught even under a colliding or sloppy fingerprint.
        w.u64(self.mesh.num_routers() as u64);
        w.u64(self.mesh.num_nodes() as u64);
        w.u64(self.config.vcs as u64);
        w.u64(self.config.vc_buffer as u64);
        w.u32(self.config.flit_bits);
        w.u64(self.cycle);
        w.u64(self.next_pid);
        w.bool(self.measuring);
        w.u64(self.last_progress);
        self.fault_rng.save(&mut w);
        self.loss_rng.save(&mut w);
        // Packet slab, in slab order. Slots have free-list holes, so flits
        // serialize the packet's *rank* in this sequence instead of its
        // slot: the blob names packets by nothing but the simulated state.
        let rank_of: Vec<Option<u32>> = {
            let mut next = 0u32;
            self.net
                .packets
                .iter()
                .map(|p| {
                    p.as_ref().map(|_| {
                        let c = next;
                        next += 1;
                        c
                    })
                })
                .collect()
        };
        let count = rank_of.iter().flatten().count();
        if count != self.live_packets {
            return Err(SnapshotError::Unclean("live packet count out of sync"));
        }
        w.usize(count);
        for p in self.net.packets.iter().flatten() {
            p.save(&mut w);
        }
        let rank = |slot: u32| -> Option<u32> { rank_of.get(slot as usize).copied().flatten() };
        let remap = |f: Flit| -> Result<Flit, SnapError> {
            let slot = rank(f.slot).ok_or(SnapError::Invalid("flit references a dead slot"))?;
            Ok(Flit { slot, ..f })
        };
        // NI states, in node order.
        for ni in &self.net.nis {
            w.usize(ni.queue.len());
            for &slot in &ni.queue {
                match rank(slot) {
                    Some(c) => w.u32(c),
                    None => return Err(SnapshotError::Structure("queued slot holds no packet")),
                }
            }
            for &c in &ni.vc_credits {
                w.u32(c);
            }
            ni.cur_vc.save(&mut w);
            w.u32(ni.next_seq);
            w.usize(ni.vc_rr);
        }
        // Routers, in router order.
        let routers = &self.net.routers;
        for r in 0..routers.len() {
            routers.save_router(r, &mut w, &remap)?;
        }
        // Event ring, per ring slot, in ring order: the order the cycle
        // edge processes ejections in. Within a slot, router-target
        // arrivals commute (at most one flit lands per input port per cycle
        // and the port-stall draw is stateless).
        for ring in &self.net.events {
            w.usize(ring.len());
            for a in ring {
                let target = if a.port == Hop::NI {
                    LinkDest::Eject {
                        node: a.index as usize,
                    }
                } else {
                    LinkDest::Router {
                        router: a.index as usize,
                        port: a.port.into(),
                    }
                };
                target.save(&mut w);
                w.usize(a.vc.into());
                remap(a.flit)?.save(&mut w);
            }
        }
        // Router activity flags, in router order: whether some input VC of
        // the router holds a flit.
        for r in 0..routers.len() {
            w.bool(routers.is_busy(r));
        }
        self.stats.save(&mut w);
        for c in &self.codecs {
            c.encoder.save_state(&mut w);
            c.decoder.save_state(&mut w);
        }
        // Installed-threshold tracking, in global node order: what the
        // per-flow lazy-install path compares against. Serialized so a
        // restored run reprograms encoders at exactly the same enqueues an
        // uninterrupted run would.
        for &pct in &self.installed_percent {
            w.u32(pct);
        }
        // QoS control plane: the restoring simulator must have armed the
        // same spec (restore refuses an armament mismatch), and the
        // serialized controller/accumulator state then overwrites arming.
        w.bool(self.qos.is_some());
        if let Some(bank) = &self.qos {
            bank.save_state(&mut w);
        }
        Ok(w.into_bytes())
    }

    /// Restores state saved by [`NocSim::save_snapshot`] into a simulator
    /// built from the same configuration. The caller
    /// must re-arm everything the snapshot deliberately excludes — fault
    /// plan, loss plan, QoS spec, watchdog, bound checker — *before*
    /// restoring: the restored fault- and loss-RNG cursors, controller
    /// state and progress clock then overwrite what arming reset, resuming
    /// the degraded run mid-stream instead of reseeding it. Restoring a
    /// blob saved with an armed QoS plane into a simulator without one (or
    /// vice versa) is refused as a [`SnapshotError::Structure`] mismatch.
    ///
    /// A stale, foreign or corrupt blob is rejected with a typed
    /// [`SnapshotError`]. Header checks (magic, version, fingerprint,
    /// geometry) fail before any state is touched; a body error detected
    /// after that leaves the simulator in a memory-safe but unspecified
    /// state — discard it and rebuild.
    pub fn restore_snapshot(&mut self, blob: &[u8], fingerprint: u64) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(blob);
        let magic = r.bytes(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        if r.u64()? != fingerprint {
            return Err(SnapshotError::FingerprintMismatch);
        }
        if r.u64()? != self.mesh.num_routers() as u64
            || r.u64()? != self.mesh.num_nodes() as u64
            || r.u64()? != self.config.vcs as u64
            || r.u64()? != self.config.vc_buffer as u64
            || r.u32()? != self.config.flit_bits
        {
            return Err(SnapshotError::Structure("network geometry"));
        }
        let cycle = r.u64()?;
        let next_pid = r.u64()?;
        let measuring = r.bool()?;
        let last_progress = r.u64()?;
        let fault_rng = Pcg32::load(&mut r)?;
        let loss_rng = Pcg32::load(&mut r)?;
        let count = r.usize()?;
        if count > MAX_SNAPSHOT_PACKETS {
            return Err(SnapshotError::Structure("packet count"));
        }
        // Packets fill the slab compacted, in rank order, so a flit's
        // serialized rank is its slot; the free list restarts empty.
        let net = &mut self.net;
        net.packets.clear();
        net.free_slots.clear();
        let num_nodes = self.mesh.num_nodes();
        for _ in 0..count {
            let p = PacketState::load(&mut r)?;
            if p.src.index() >= num_nodes || p.dest.index() >= num_nodes {
                return Err(SnapshotError::Structure("packet node id"));
            }
            net.packets.push(Some(p));
        }
        let remap = |f: Flit| -> Result<Flit, SnapError> {
            if f.slot as usize >= count {
                return Err(SnapError::Invalid("flit references an unknown packet"));
            }
            if f.dest.index() >= num_nodes {
                return Err(SnapError::Invalid("flit destination"));
            }
            Ok(f)
        };
        let vcs = self.config.vcs;
        for ni in &mut net.nis {
            let qn = r.usize()?;
            if qn > count {
                return Err(SnapshotError::Structure("NI queue length"));
            }
            ni.queue.clear();
            for _ in 0..qn {
                let slot = r.u32()?;
                if slot as usize >= count {
                    return Err(SnapshotError::Structure("queued packet reference"));
                }
                ni.queue.push_back(slot);
            }
            for c in ni.vc_credits.iter_mut() {
                *c = r.u32()?;
            }
            ni.cur_vc = Option::load(&mut r)?;
            if ni.cur_vc.is_some_and(|vc| vc >= vcs) {
                return Err(SnapshotError::Structure("NI current vc"));
            }
            ni.next_seq = r.u32()?;
            let vc_rr = r.usize()?;
            if vc_rr >= vcs {
                return Err(SnapshotError::Structure("NI vc round-robin"));
            }
            ni.vc_rr = vc_rr;
        }
        net.rebuild_busy_nis();
        net.routers.clear_buffers();
        for router in 0..net.routers.len() {
            net.routers.load_router(router, &mut r, &remap)?;
        }
        let num_routers = self.mesh.num_routers();
        let ports = self.mesh.ports_per_router();
        for ring in &mut net.events {
            ring.clear();
            let total = r.usize()?;
            if total > 1 << 28 {
                return Err(SnapshotError::Structure("arrival count"));
            }
            for _ in 0..total {
                let target = load_link_dest(&mut r, num_routers, num_nodes)?;
                if let LinkDest::Router { router, port } = target {
                    if port >= ports {
                        return Err(SnapshotError::Structure("arrival port"));
                    }
                    if !net.routers.is_fed(router, port) {
                        return Err(SnapshotError::Structure("arrival at an unwired input port"));
                    }
                }
                let vc = r.usize()?;
                if vc >= vcs {
                    return Err(SnapshotError::Structure("arrival vc"));
                }
                let flit = remap(Flit::load(&mut r)?)?;
                let to = match target {
                    LinkDest::Router { router, port } => Hop::router(router as u32, port as u8),
                    LinkDest::Eject { node } => Hop::ni(node as u32),
                };
                ring.push(Arrival::at(to, vc as u8, flit));
            }
        }
        // A router is active exactly when one of its input VCs holds a
        // flit; the flag is derived, so a blob that disagrees is corrupt.
        for router in 0..net.routers.len() {
            if r.bool()? != net.routers.is_busy(router) {
                return Err(SnapshotError::Structure("router activity flag"));
            }
        }
        let stats = NetStats::load(&mut r)?;
        for c in &mut self.codecs {
            c.encoder.load_state(&mut r)?;
            c.decoder.load_state(&mut r)?;
        }
        let mut installed = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            installed.push(r.u32()?);
        }
        let qos_armed = r.bool()?;
        if qos_armed != self.qos.is_some() {
            return Err(SnapshotError::Structure("QoS armament mismatch"));
        }
        if let Some(bank) = &mut self.qos {
            bank.load_state(&mut r)?;
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Structure("trailing bytes"));
        }
        self.cycle = cycle;
        self.next_pid = next_pid;
        self.measuring = measuring;
        self.last_progress = last_progress;
        self.live_packets = count;
        self.fault_rng = fault_rng;
        self.loss_rng = loss_rng;
        self.installed_percent = installed;
        // The snapshot format deliberately excludes encoder threshold
        // machinery: statically-thresholded runs re-arm it globally after
        // restore. Under QoS the controllers own the thresholds and the lazy
        // per-enqueue install compares against `installed_percent`, so the
        // restored record must be made true of the encoders again — without
        // this, an encoder keeps whatever threshold the fresh sim was built
        // with for as long as its flow's percent does not change.
        if self.qos.is_some() {
            for node in 0..num_nodes {
                let pct = self.installed_percent[node];
                if pct > 0 {
                    let threshold = ErrorThreshold::from_percent(pct)
                        .map_err(|_| SnapshotError::Structure("installed threshold percent"))?;
                    self.codecs[node].encoder.set_error_threshold(threshold);
                }
            }
        }
        self.stats = stats;
        self.delivered.clear();
        self.fatal = None;
        Ok(())
    }

    fn eject_flit(&mut self, node: usize, flit: Flit, now: u64) {
        let slot = flit.slot as usize;
        // A slab slot is live until its tail ejects; ignore an orphan flit
        // rather than crash if that invariant ever breaks.
        let Some(p) = self.net.packets[slot].as_mut() else {
            debug_assert!(false, "ejected flit references dead slot {slot}");
            return;
        };
        p.ejected_flits += 1;
        // A packet created inside the measurement window keeps counting
        // after `end_measurement()`: the drain phase delivers the window's
        // tail, and gating on the window still being open would undercount
        // exactly those flits.
        if p.measured {
            self.stats.flits_delivered += 1;
        }
        if !flit.is_tail {
            return;
        }
        if p.ejected_flits != p.num_flits {
            let error = SimError::TailBeforeBody {
                packet: p.id,
                node: NodeId::from(node),
                ejected: p.ejected_flits,
                flits: p.num_flits,
                cycle: now,
            };
            self.fatal.get_or_insert(error);
            return;
        }
        let Some(p) = self.net.packets[slot].take() else {
            debug_assert!(false, "slot {slot} vanished between borrow and take");
            return;
        };
        self.net.free_slots.push(flit.slot);
        self.live_packets -= 1;
        self.complete_packet(p, node, now);
    }

    fn complete_packet(&mut self, p: PacketState, node: usize, now: u64) {
        debug_assert_eq!(p.dest.index(), node, "packet ejected at wrong node");
        let mut decode_latency = 0;
        let mut block = None;
        let mut notes: Vec<(NodeId, Notification)> = Vec::new();
        if let Some(encoded) = &p.payload {
            let decoder = &mut self.codecs[node].decoder;
            decode_latency = decoder.decompression_latency();
            let result = decoder.decode(encoded, p.src);
            notes = result.notifications;
            block = Some(result.block);
        }
        // Link-fault corruption lands on the *decoded* data — what the
        // consumer would read — while `p.precise` keeps the golden copy for
        // the bound checker and quality accounting.
        if !p.corrupt.is_empty() {
            if let Some(b) = &mut block {
                let words = b.words_mut();
                for &(w, bit) in &p.corrupt {
                    if let Some(word) = words.get_mut(w as usize) {
                        *word ^= 1 << bit;
                    }
                }
            }
        }
        // Lossy-link erasures likewise land on the decoded data: the erased
        // words arrive zeroed, as a link-level CRC-and-drop would deliver.
        if !p.lost.is_empty() {
            if let Some(b) = &mut block {
                let words = b.words_mut();
                for &w in &p.lost {
                    if let Some(word) = words.get_mut(w as usize) {
                        *word = 0;
                    }
                }
            }
        }
        // QoS audit tap: every delivered data packet (measured or not) feeds
        // its flow's accumulator with the realized application-level quality
        // of what the consumer actually reads — corruption and loss included.
        if let Some(bank) = &mut self.qos {
            if let (Some(precise), Some(decoded)) = (&p.precise, &block) {
                bank.observe_block(p.src.index(), p.dest.index(), precise, decoded);
            }
        }
        self.check_bound(&p, block.as_ref(), now);
        if let Some(note) = p.notification {
            // An in-band dictionary notification reaching its encoder.
            self.codecs[node].encoder.apply_notification(p.src, note);
        }
        let done_at = now + decode_latency;
        if p.measured {
            // Delivery implies the head flit was injected; fall back to the
            // creation cycle (zero queueing) if that invariant ever breaks.
            debug_assert!(p.inject_start.is_some(), "delivered but never injected");
            let inject = p.inject_start.unwrap_or(p.created);
            self.stats.packets += 1;
            match p.kind {
                PacketKind::Data => self.stats.data_packets += 1,
                PacketKind::Control => self.stats.control_packets += 1,
            }
            self.stats.queue_lat_sum += inject - p.created;
            self.stats.net_lat_sum += now - inject;
            self.stats.decode_lat_sum += decode_latency;
            self.stats.latency_histogram.record(done_at - p.created);
            if let (Some(precise), Some(decoded)) = (&p.precise, &block) {
                self.stats.quality.record_block(precise, decoded);
            }
        }
        // Dictionary notifications: instantaneous side channel by default,
        // or real control packets with `notify_in_band`.
        for (to, note) in notes {
            if self.config.notify_in_band {
                self.enqueue_control_with(p.dest, to, Some(note));
            } else {
                self.codecs[to.index()]
                    .encoder
                    .apply_notification(p.dest, note);
            }
        }
        self.delivered.push(Delivered {
            id: p.id,
            src: p.src,
            dest: p.dest,
            kind: p.kind,
            done_at,
            block,
        });
    }

    /// End-to-end bound check: every delivered word must be within the
    /// active threshold of its golden counterpart. Violations are always
    /// counted; they are fatal only when neither faults nor link loss are
    /// being injected, because then they can only mean a codec bug.
    fn check_bound(&mut self, p: &PacketState, block: Option<&CacheBlock>, now: u64) {
        let Some(threshold) = self.bound_check else {
            return;
        };
        let (Some(precise), Some(decoded)) = (&p.precise, block) else {
            return;
        };
        let limit = threshold.percent() as f64 / 100.0 + 1e-9;
        let dtype = precise.dtype();
        let words = precise.words().iter().zip(decoded.words());
        self.stats.faults.bound_checked_words += words.len() as u64;
        for (i, (&pw, &aw)) in words.enumerate() {
            // A bit-identical word has relative error 0 (or is a non-finite
            // float delivered exactly), so it is always within the bound.
            if pw == aw {
                continue;
            }
            let err = Avcl::relative_error(pw, aw, dtype);
            // Non-finite floats have no meaningful relative error; the
            // codecs must deliver them bit-exactly, and this one differs.
            if err.is_none_or(|e| e > limit) {
                self.stats.faults.bound_violations += 1;
                if self.fatal.is_none() && !self.faults.is_active() && !self.loss.is_active() {
                    self.fatal = Some(SimError::BoundViolation(BoundViolation {
                        cycle: now,
                        packet: p.id,
                        src: p.src,
                        dest: p.dest,
                        word_index: i,
                        precise: pw,
                        approx: aw,
                        relative_error: err.unwrap_or(f64::INFINITY),
                        threshold_percent: threshold.percent(),
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterTable;

    fn baseline_sim(config: NocConfig) -> NocSim {
        let n = config.num_nodes();
        NocSim::new(config, (0..n).map(|_| NodeCodec::baseline()).collect())
    }

    /// A 3x3 Baseline mesh after `cycles` cycles of data packets (five
    /// flits each), many of them still in flight.
    fn busy_mesh(cycles: u64) -> NocSim {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        for c in 0..cycles {
            busy_step(&mut sim, c);
        }
        sim
    }

    /// Cycle `c` of [`busy_mesh`]: its packet, a step, and the deliveries
    /// drained.
    fn busy_step(sim: &mut NocSim, c: u64) {
        let (src, dest) = ((c % 9) as u16, ((c * 5 + 4) % 9) as u16);
        if c.is_multiple_of(2) && src != dest {
            let block = CacheBlock::from_i32(&[c as i32; 16]);
            sim.enqueue_data(NodeId(src), NodeId(dest), block);
        }
        sim.step();
        sim.drain_delivered();
    }

    /// Restores `blob` into a fresh 3x3 mesh; the error it is refused with.
    /// A blob that restores is run for 100 cycles first.
    fn refusal(blob: &[u8]) -> SnapshotError {
        let mut fresh = baseline_sim(NocConfig::mesh_3x3());
        match fresh.restore_snapshot(blob, 0) {
            Err(e) => e,
            Ok(()) => panic!(
                "a corrupt blob restored; the run gave {:?}",
                fresh.try_run(100)
            ),
        }
    }

    /// The ring slot and index of the first in-flight head flit arriving at
    /// a router that has a port of the kind `unwired` finds, and that port.
    fn arrival_at_edge_router(
        sim: &NocSim,
        unwired: impl Fn(&RouterTable, usize) -> Option<usize>,
    ) -> Option<(usize, usize, usize)> {
        for (slot, ring) in sim.net.events.iter().enumerate() {
            for (k, a) in ring.iter().enumerate() {
                if a.port == Hop::NI || !a.flit.is_head() {
                    continue;
                }
                if let Some(port) = unwired(&sim.net.routers, a.index as usize) {
                    return Some((slot, k, port));
                }
            }
        }
        None
    }

    /// [`busy_mesh`] run on until a head flit is on its way to an edge
    /// router; that mesh and [`arrival_at_edge_router`]'s answer.
    fn mesh_with_edge_arrival() -> (NocSim, (usize, usize, usize)) {
        let mut sim = busy_mesh(120);
        for _ in 0..500 {
            if let Some(found) = arrival_at_edge_router(&sim, RouterTable::unwired_input) {
                return (sim, found);
            }
            sim.step();
            sim.drain_delivered();
        }
        panic!("no head flit reached an edge router");
    }

    #[test]
    fn restore_refuses_an_arrival_at_an_unwired_input_port() {
        let (mut sim, (slot, k, port)) = mesh_with_edge_arrival();
        sim.net.events[slot][k].port = port as u8;
        let blob = sim.save_snapshot(0).unwrap();
        let err = refusal(&blob);
        assert!(
            matches!(
                err,
                SnapshotError::Structure("arrival at an unwired input port")
            ),
            "{err}"
        );
    }

    #[test]
    fn restore_refuses_flits_buffered_at_an_unwired_input_port() {
        let (mut sim, (slot, k, _)) = mesh_with_edge_arrival();
        let a = sim.net.events[slot][k];
        let (routers, lr) = (&mut sim.net.routers, a.index as usize);
        let port = routers.unwired_input(lr).unwrap();
        routers.plant_flit(lr, port, 0, a.flit);
        let blob = sim.save_snapshot(0).unwrap();
        let err = refusal(&blob);
        assert!(
            matches!(
                err,
                SnapshotError::Structure("flits at an unwired input port")
            ),
            "{err}"
        );
    }

    #[test]
    fn restore_refuses_a_route_to_an_unwired_output_port() {
        let mut sim = busy_mesh(120);
        let routers = &mut sim.net.routers;
        let planted = (0..routers.len()).any(|lr| {
            let Some(port) = routers.unwired_output(lr) else {
                return false;
            };
            routers.plant_route(lr, port)
        });
        assert!(planted, "no edge router holds a routed flit");
        let blob = sim.save_snapshot(0).unwrap();
        let err = refusal(&blob);
        assert!(
            matches!(
                err,
                SnapshotError::Structure("route to an unwired output port")
            ),
            "{err}"
        );
    }

    #[test]
    fn restore_refuses_an_activity_flag_its_buffers_contradict() {
        let sim = busy_mesh(120);
        let blob = sim.save_snapshot(0).unwrap();
        // The nine flags sit just before the statistics, the codec tables,
        // the installed thresholds and the QoS flag.
        let mut tail = SnapWriter::new();
        sim.stats.save(&mut tail);
        for c in &sim.codecs {
            c.encoder.save_state(&mut tail);
            c.decoder.save_state(&mut tail);
        }
        for &pct in &sim.installed_percent {
            tail.u32(pct);
        }
        tail.bool(false);
        let flags = blob.len() - tail.into_bytes().len() - 9;
        let busy: Vec<bool> = (0..9).map(|r| sim.net.routers.is_busy(r)).collect();
        assert_eq!(
            blob[flags..flags + 9]
                .iter()
                .map(|&b| b == 1)
                .collect::<Vec<_>>(),
            busy
        );
        assert!(busy.contains(&true) && busy.contains(&false), "{busy:?}");
        for r in [busy.iter().position(|&b| b), busy.iter().position(|&b| !b)] {
            let mut bad = blob.clone();
            bad[flags + r.unwrap()] ^= 1;
            let err = refusal(&bad);
            assert!(
                matches!(err, SnapshotError::Structure("router activity flag")),
                "{err}"
            );
        }
    }

    /// Offset of the cycle field in a snapshot blob.
    const CYCLE_AT: usize = SNAPSHOT_MAGIC.len() + 4 + 8 + 4 * 8 + 4;

    /// `sim`'s blob with its cycle moved on by one. That moves every
    /// event-ring slot one cycle nearer, except the current one, which goes
    /// to the back.
    fn shifted_blob(sim: &NocSim) -> Vec<u8> {
        let mut blob = sim.save_snapshot(0).unwrap();
        let cycle = u64::from_le_bytes(blob[CYCLE_AT..CYCLE_AT + 8].try_into().unwrap());
        assert_eq!(cycle, sim.cycle());
        blob[CYCLE_AT..CYCLE_AT + 8].copy_from_slice(&(cycle + 1).to_le_bytes());
        blob
    }

    #[test]
    fn a_reordered_tail_is_a_typed_error() {
        // A packet whose body flit arrives in the slot that went to the back
        // ejects its tail first.
        let blob = shifted_blob(&busy_mesh(SHIFTED_SAVE));
        let mut fresh = baseline_sim(NocConfig::mesh_3x3());
        fresh.restore_snapshot(&blob, 0).unwrap();
        let err = fresh.try_run(100).unwrap_err();
        assert!(matches!(err, SimError::TailBeforeBody { .. }), "{err}");
    }

    #[test]
    fn every_shifted_restore_ends_clean_or_typed() {
        // Each save of cycles 60 to 399, its cycle moved on by one, restored
        // and run for 100 cycles. A body flit that the shift puts ahead of
        // its head reaches a VC front without a route; that is a typed
        // error, never a panic.
        let mut sim = busy_mesh(SHIFTED_SAVE);
        let (mut clean, mut unrouted, mut other) = (0, 0, 0);
        for c in SHIFTED_SAVE..400 {
            let blob = shifted_blob(&sim);
            let mut fresh = baseline_sim(NocConfig::mesh_3x3());
            fresh.restore_snapshot(&blob, 0).unwrap();
            match fresh.try_run(100).map_err(|e| e.to_string()) {
                Ok(()) => clean += 1,
                Err(e) if e.contains("without a route") => unrouted += 1,
                Err(_) => other += 1,
            }
            busy_step(&mut sim, c);
        }
        assert_eq!(clean + unrouted + other, 340);
        assert!(
            unrouted > 0,
            "clean {clean}, unrouted {unrouted}, other {other}"
        );
    }

    /// A save cycle of [`busy_mesh`] at which a one-cycle shift reorders a
    /// packet's tail.
    const SHIFTED_SAVE: u64 = 60;

    #[test]
    fn control_packet_crosses_the_mesh() {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        sim.enqueue_control(NodeId(0), NodeId(8));
        assert!(sim.try_drain(200).unwrap());
        let d = sim.drain_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dest, NodeId(8));
        // 4 hops: inject(+1) + 4 routers × 3 cycles + BW... sanity bound.
        assert!(d[0].done_at >= 12 && d[0].done_at <= 40, "{}", d[0].done_at);
        let s = sim.stats();
        assert_eq!(s.packets, 1);
        assert_eq!(s.control_packets, 1);
        assert_eq!(s.flits_injected, 1);
        assert_eq!(s.flits_delivered, 1);
    }

    #[test]
    fn data_packet_delivers_block_bit_exactly() {
        let mut sim = baseline_sim(NocConfig::paper_4x4_cmesh());
        let block =
            CacheBlock::from_i32(&[1, -2, 3, -4, 5, -6, 7, -8, 9, 10, 11, 12, 13, 14, 15, 16]);
        sim.enqueue_data(NodeId(0), NodeId(31), block.clone());
        assert!(sim.try_drain(500).unwrap());
        let d = sim.drain_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].block.as_ref().unwrap(), &block);
        let s = sim.stats();
        assert_eq!(s.data_packets, 1);
        // Uncompressed 64 B block on 64-bit flits: 9 flits.
        assert_eq!(s.data_flits_injected, 9);
        assert_eq!(s.baseline_data_flits, 9);
        assert_eq!(s.quality.quality(), 1.0);
    }

    #[test]
    fn every_pair_delivers() {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        let n = sim.num_nodes();
        let mut expected = 0;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    sim.enqueue_control(NodeId::from(s), NodeId::from(d));
                    expected += 1;
                }
            }
        }
        assert!(sim.try_drain(5_000).unwrap());
        let delivered = sim.drain_delivered();
        assert_eq!(delivered.len(), expected);
        for p in &delivered {
            assert_ne!(p.src, p.dest);
        }
    }

    #[test]
    fn serialization_latency_scales_with_flits() {
        // A long packet's tail trails its head by (flits - 1) cycles min.
        let mut sim = baseline_sim(NocConfig::paper_4x4_cmesh());
        let block = CacheBlock::from_i32(&[0x12345678; 16]); // 9 flits uncompressed
        sim.enqueue_data(NodeId(0), NodeId(2), block);
        assert!(sim.try_drain(300).unwrap());
        let s = sim.stats();
        // Head: ~1 + 2 routers * 3 + eject; +8 serialization.
        assert!(s.avg_net_latency() >= 14.0, "{}", s.avg_net_latency());
    }

    #[test]
    fn queueing_latency_appears_under_burst() {
        let mut sim = baseline_sim(NocConfig::paper_4x4_cmesh());
        for _ in 0..10 {
            let block = CacheBlock::from_i32(&[7; 16]);
            sim.enqueue_data(NodeId(0), NodeId(31), block);
        }
        assert!(sim.try_drain(2_000).unwrap());
        let s = sim.stats();
        assert_eq!(s.data_packets, 10);
        // 10 packets × 9 flits serialised out of one NI: queueing dominates.
        assert!(s.avg_queue_latency() > 20.0, "{}", s.avg_queue_latency());
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        sim.enqueue_control(NodeId(0), NodeId(4));
        sim.try_run(5).unwrap();
        sim.begin_measurement(); // warmup packet still in flight
        sim.enqueue_control(NodeId(1), NodeId(5));
        assert!(sim.try_drain(300).unwrap());
        let s = sim.stats();
        assert_eq!(s.packets, 1, "only the measured packet counts");
    }

    #[test]
    fn hop_count_affects_latency() {
        let mut near = baseline_sim(NocConfig::mesh_3x3());
        near.enqueue_control(NodeId(0), NodeId(1));
        assert!(near.try_drain(200).unwrap());
        let near_lat = near.stats().avg_packet_latency();

        let mut far = baseline_sim(NocConfig::mesh_3x3());
        far.enqueue_control(NodeId(0), NodeId(8));
        assert!(far.try_drain(200).unwrap());
        let far_lat = far.stats().avg_packet_latency();
        assert!(
            far_lat >= near_lat + 6.0,
            "4 hops ({far_lat}) vs 1 hop ({near_lat})"
        );
    }

    #[test]
    fn backlog_and_outstanding_reporting() {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        for _ in 0..3 {
            sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[1; 16]));
        }
        assert_eq!(sim.injection_backlog(NodeId(0)), 3);
        assert_eq!(sim.outstanding_packets(), 3);
        assert!(sim.try_drain(2_000).unwrap());
        assert_eq!(sim.injection_backlog(NodeId(0)), 0);
        assert_eq!(sim.outstanding_packets(), 0);
    }

    /// A delivered data packet carrying `precise`, for driving the bound
    /// checker directly.
    fn data_packet(precise: CacheBlock) -> PacketState {
        PacketState {
            id: 7,
            src: NodeId(0),
            dest: NodeId(1),
            kind: PacketKind::Data,
            created: 0,
            ready_at: 0,
            head_gate: 0,
            inject_start: Some(0),
            num_flits: 1,
            baseline_flits: 1,
            ejected_flits: 1,
            payload: None,
            precise: Some(precise),
            notification: None,
            corrupt: Vec::new(),
            approx_level: 0,
            lost: Vec::new(),
            measured: true,
        }
    }

    #[test]
    fn bound_check_fast_path_matches_the_f64_formula() {
        use anoc_core::data::DataType;
        let f32_words = [
            0x7fc0_0000,
            0x7fc0_0001,
            0xffc0_0000,
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            1.0f32.to_bits(),
            1.05f32.to_bits(),
            (-2.0f32).to_bits(),
            1,
            f32::MAX.to_bits(),
        ];
        let int_words = [0i32, 1, -1, 100, 105, 120, i32::MIN, i32::MAX].map(|v| v as u32);
        let threshold = ErrorThreshold::from_percent(10).expect("valid percent");
        for (dtype, specials) in [(DataType::F32, &f32_words[..]), (DataType::Int, &int_words)] {
            let pairs: Vec<(u32, u32)> = specials
                .iter()
                .flat_map(|&p| specials.iter().map(move |&a| (p, a)))
                .collect();
            let mut sim = baseline_sim(NocConfig::mesh_3x3());
            sim.set_bound_check(threshold);
            // The formula as it stood before bit-identical words skipped it.
            let limit = threshold.percent() as f64 / 100.0 + 1e-9;
            let (mut checked, mut violations, mut first) = (0u64, 0u64, None);
            for chunk in pairs.chunks(16) {
                let precise = CacheBlock::new(chunk.iter().map(|p| p.0).collect(), dtype, true);
                let decoded = CacheBlock::new(chunk.iter().map(|p| p.1).collect(), dtype, true);
                sim.check_bound(&data_packet(precise), Some(&decoded), 3);
                for (i, &(pw, aw)) in chunk.iter().enumerate() {
                    checked += 1;
                    let err = Avcl::relative_error(pw, aw, dtype);
                    let violated = match err {
                        Some(e) => e > limit,
                        None => pw != aw,
                    };
                    if violated {
                        violations += 1;
                        first.get_or_insert((i, pw, aw, err.unwrap_or(f64::INFINITY)));
                    }
                }
            }
            let f = &sim.stats().faults;
            assert_eq!(f.bound_checked_words, checked, "{dtype:?}");
            assert_eq!(f.bound_violations, violations, "{dtype:?}");
            // Without faults the first violation is fatal, and it names the
            // same word with the same error.
            let Some(SimError::BoundViolation(v)) = sim.take_fatal_error() else {
                panic!("{dtype:?}: a violation is fatal without faults");
            };
            let (i, pw, aw, err) = first.expect("some pair violates");
            assert_eq!(
                (
                    v.word_index,
                    v.precise,
                    v.approx,
                    v.relative_error.to_bits()
                ),
                (i, pw, aw, err.to_bits()),
                "{dtype:?}"
            );
        }
    }

    #[test]
    fn activity_report_counts_events() {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        sim.enqueue_control(NodeId(0), NodeId(8));
        sim.try_drain(200).unwrap();
        let a = sim.activity_report();
        assert!(a.routers.buffer_writes >= 5, "{a:?}");
        assert!(a.routers.crossbar_traversals >= 5);
        assert!(a.cycles > 0);
    }
}
