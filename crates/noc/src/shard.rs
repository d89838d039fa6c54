//! Spatial sharding of the cycle kernel (DESIGN.md §10).
//!
//! A [`Shard`] owns a contiguous range of routers and the NIs attached to
//! them: their input buffers, its own slice of the event ring, and the slab
//! of packets *sourced* by its nodes. [`NocSim::step`](crate::NocSim::step)
//! drives shards through a deterministic two-phase barrier:
//!
//! * **Phase A** (parallel): each shard runs VC + switch allocation over its
//!   routers, then drains its own ring slot into local router buffers,
//!   reading only last-cycle-edge state and writing only shard-local state.
//!   Ejections, which may touch another shard's slab, are deferred into
//!   per-shard output queues.
//! * **Cycle edge** (serial): the simulator walks shards in index order,
//!   processing deferred ejections and applying link traversals — flit
//!   scheduling into the *target* shard's ring and credit returns to the
//!   *upstream* shard's routers/NIs, both named by the [`Hop`]s resolved
//!   when [`build_shards`] wired the routers. Because shards own contiguous
//!   ascending router ranges and phase A emits grants in local
//!   router-ascending order, the shard-concatenated traversal sequence is
//!   globally router-ascending: exactly the order the single-shard kernel
//!   produces, so sequential fault-RNG draws are shard-count-independent.
//! * **Phase B2** (parallel): each shard injects at most one flit per local
//!   NI into its *own* ring (a node's router is always in its own shard),
//!   tallying injection statistics into order-independent integer counters
//!   merged serially afterwards.
//!
//! The only per-site randomness inside phase A is the port-stall fault
//! draw; it uses a stateless oracle keyed on `(plan seed, cycle, router,
//! port)` instead of the shared sequential fault RNG, so its outcomes do not
//! depend on arrival processing order (the same thread-count-independence
//! discipline `FaultPlan` follows elsewhere).

use anoc_core::data::NodeId;
use anoc_core::rng::Pcg32;

use crate::config::NocConfig;
use crate::faults::{FaultPlan, PPM};
use crate::ni::NiState;
use crate::packet::{Flit, PacketKind, PacketState};
use crate::router::{Hop, Router, Traversal};
use crate::topology::{Direction, Mesh};

/// Ring-buffer horizon for scheduled arrivals (link events land at +1/+2).
pub(crate) const EVENT_HORIZON: usize = 4;

/// Low bits of a flit slot addressing the packet within its owning shard's
/// slab; the remaining high bits carry the shard index.
pub(crate) const SLOT_BITS: u32 = 24;
pub(crate) const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Maximum shard count representable in the slot encoding.
pub(crate) const MAX_SHARDS: usize = 1 << (32 - SLOT_BITS);

/// The shard owning a slot.
pub(crate) fn shard_of_slot(slot: u32) -> usize {
    (slot >> SLOT_BITS) as usize
}

/// The slab index of a slot within its owning shard.
pub(crate) fn local_of_slot(slot: u32) -> usize {
    (slot & SLOT_MASK) as usize
}

/// Encodes a shard index and local slab index into a flit slot.
pub(crate) fn encode_slot(shard: usize, local: usize) -> u32 {
    debug_assert!(shard < MAX_SHARDS && local <= SLOT_MASK as usize);
    ((shard as u32) << SLOT_BITS) | local as u32
}

/// A flit in flight on a link, due at a scheduled cycle, in the ring of the
/// shard it lands in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub flit: Flit,
    /// Shard-local router index, or the node id when `port` is [`Hop::NI`].
    pub index: u32,
    /// Input port at the router, or [`Hop::NI`] for an ejection.
    pub port: u8,
    /// The VC the flit occupies.
    pub vc: u8,
}

/// The phase a worker runs on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// VC/switch allocation + ring drain.
    A,
    /// NI injection.
    B2,
}

/// Per-cycle context broadcast to every shard; immutable during a phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepCtx {
    pub now: u64,
    pub faults: FaultPlan,
}

/// Injection statistics tallied shard-locally during phase B2. All plain
/// integer sums, so the serial merge order cannot affect the totals.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InjectTally {
    pub flits: u64,
    pub data_flits: u64,
    pub control_flits: u64,
    pub baseline_flits: u64,
}

/// One spatial partition of the network: a contiguous router range, the NIs
/// attached to it, and the packets its nodes source.
#[derive(Debug)]
pub(crate) struct Shard {
    /// This shard's index (the high bits of every slot it owns).
    pub index: usize,
    /// First global router id owned by this shard.
    pub router_lo: usize,
    /// First global node id owned by this shard.
    pub node_lo: usize,
    /// Private copy of the (tiny, immutable) mesh geometry, so phase A
    /// shares nothing across threads.
    pub mesh: Mesh,
    pub routers: Vec<Router>,
    pub nis: Vec<NiState>,
    /// Bit `r % 64` of word `r / 64` is set while local router `r` may hold
    /// buffered flits; phase A visits only those.
    pub active: Vec<u64>,
    /// This shard's slice of the event ring: arrivals targeting its routers
    /// and ejection paths.
    pub events: Vec<Vec<Arrival>>,
    /// Slab store for packets sourced by this shard's nodes; flits carry
    /// `encode_slot(index, slab_index)`.
    pub packets: Vec<Option<PacketState>>,
    pub free_slots: Vec<u32>,
    /// Bit `n % 64` of word `n / 64` is set while local NI `n` has a queued
    /// packet, so phase B2 visits only NIs that may inject.
    pub busy_nis: Vec<u64>,
    /// Phase A output: granted traversals in local router-ascending order.
    pub outgoing: Vec<Traversal>,
    /// Phase A output: ejection arrivals deferred to the serial cycle edge,
    /// in ring order (which is traversal push order, i.e. router-ascending).
    pub ejects: Vec<(usize, Flit)>,
    /// Phase B2 output: injection statistics.
    pub inject_tally: InjectTally,
    /// Phase A output: injected port stalls this cycle.
    pub stall_hits: u64,
    /// Whether any arrival or injection happened this cycle (watchdog).
    pub progressed: bool,
}

impl Default for Shard {
    /// A placeholder used only while a shard is checked out to a worker
    /// (`std::mem::take`); never stepped.
    fn default() -> Self {
        Shard {
            index: 0,
            router_lo: 0,
            node_lo: 0,
            mesh: Mesh::empty(),
            routers: Vec::new(),
            nis: Vec::new(),
            active: Vec::new(),
            events: Vec::new(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            busy_nis: Vec::new(),
            outgoing: Vec::new(),
            ejects: Vec::new(),
            inject_tally: InjectTally::default(),
            stall_hits: 0,
            progressed: false,
        }
    }
}

/// Stateless per-site port-stall draw, keyed on the plan seed and the
/// arrival's unique `(cycle, router, port)` site — at most one flit arrives
/// per input port per cycle, so each site is drawn exactly once, in any
/// order, on any shard count.
pub(crate) fn port_stall(plan: &FaultPlan, now: u64, router: usize, port: usize) -> bool {
    if plan.port_stall_ppm == 0 {
        return false;
    }
    let site = mix64(plan.seed ^ now ^ ((router as u64) << 40) ^ ((port as u64) << 56));
    // anoc-lint: rng-site: stateless per-(cycle,router,port) draw; same result on any shard count
    Pcg32::seed_from_u64(site).below(PPM) < plan.port_stall_ppm
}

/// SplitMix64 finalizer: decorrelates nearby `(cycle, router, port)` sites.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `num_routers` into `shards` contiguous ascending ranges and
/// builds each shard's routers, NIs and ring. Shard `i` owns routers
/// `[i*R/n, (i+1)*R/n)`.
pub(crate) fn build_shards(config: &NocConfig, shards: usize) -> Vec<Shard> {
    let mesh = Mesh::new(config);
    let num_routers = mesh.num_routers();
    let n = shards.clamp(1, num_routers.min(MAX_SHARDS));
    let bounds: Vec<usize> = (0..=n).map(|i| i * num_routers / n).collect();
    (0..n)
        .map(|i| Shard::build(config, &mesh, &bounds, i))
        .collect()
}

impl Shard {
    /// Builds shard `index` of the partition whose shard `i` starts at router
    /// `bounds[i]` (the last entry is the router count), with mesh wiring
    /// identical to the single-shard kernel. Every link is resolved here to
    /// a [`Hop`] naming the shard that owns its far end, so the cycle edge
    /// needs no lookup to cross a shard boundary.
    fn build(config: &NocConfig, mesh: &Mesh, bounds: &[usize], index: usize) -> Shard {
        let (router_lo, router_hi) = (bounds[index], bounds[index + 1]);
        // The far end of a link to router `r`, at port `port`.
        let hop = |r: usize, port: Direction| {
            let owner = bounds.partition_point(|&lo| lo <= r) - 1;
            Hop::router(owner as u16, (r - bounds[owner]) as u32, port as u8)
        };
        let ports = mesh.ports_per_router();
        let mut routers: Vec<Router> = (router_lo..router_hi)
            .map(|id| Router::new(id, ports, config.vcs, config.vc_buffer))
            .collect();
        for (lr, r) in (router_lo..router_hi).enumerate() {
            for dir in Direction::ALL {
                if let Some(n) = mesh.neighbor(r, dir) {
                    // The link r→n lands on n's opposite port, and r's own
                    // `dir` input port is fed by n's opposite output port:
                    // one hop names both.
                    let far = hop(n, dir.opposite());
                    routers[lr].wire_output(dir as usize, far);
                    routers[lr].wire_input(dir as usize, far);
                }
            }
            // A node's NI lives in its router's shard.
            for slot in 0..mesh.concentration() {
                let port = 4 + slot;
                let ni = Hop::ni(index as u16, mesh.node_at(r, port).index() as u32);
                routers[lr].wire_output(port, ni);
                routers[lr].wire_input(port, ni);
            }
        }
        let node_lo = router_lo * mesh.concentration();
        let node_hi = router_hi * mesh.concentration();
        let num_routers = routers.len();
        Shard {
            index,
            router_lo,
            node_lo,
            mesh: mesh.clone(),
            routers,
            nis: (node_lo..node_hi)
                .map(|_| NiState::new(config.vcs, config.vc_buffer))
                .collect(),
            active: vec![0; num_routers.div_ceil(64)],
            events: (0..EVENT_HORIZON).map(|_| Vec::new()).collect(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            busy_nis: vec![0; (node_hi - node_lo).div_ceil(64)],
            outgoing: Vec::new(),
            ejects: Vec::new(),
            inject_tally: InjectTally::default(),
            stall_hits: 0,
            progressed: false,
        }
    }

    fn ring_index(now: u64) -> usize {
        (now % EVENT_HORIZON as u64) as usize
    }

    /// Whether running `phase` on this shard this cycle could do anything.
    /// Skipping a workless shard is exact: its phase would produce no
    /// outputs and leave every field as the cycle edge reset it.
    pub fn has_work(&self, now: u64, phase: Phase) -> bool {
        match phase {
            Phase::A => {
                !self.events[Self::ring_index(now)].is_empty()
                    || self.active.iter().any(|&w| w != 0)
            }
            Phase::B2 => self.busy_nis.iter().any(|&w| w != 0),
        }
    }

    /// Runs one phase.
    pub fn run(&mut self, ctx: &StepCtx, phase: Phase) {
        match phase {
            Phase::A => self.phase_a(ctx),
            Phase::B2 => self.phase_b2(ctx),
        }
    }

    /// Phase A: VC + switch allocation over the shard's active routers,
    /// then drain this cycle's ring slot into local input buffers
    /// (deferring ejections to the serial cycle edge). Allocating first
    /// is exact: every flit drained here gets `ready_at >= now + 1`, so
    /// allocation at `now` would skip it anyway, and it lands behind the
    /// flits already queued in its VC. Reads only last-cycle-edge state;
    /// writes only shard-local state.
    // anoc-lint: phase(A)
    fn phase_a(&mut self, ctx: &StepCtx) {
        for w in 0..self.active.len() {
            let mut bits = self.active[w];
            while bits != 0 {
                let lr = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mesh = &self.mesh;
                let router = &mut self.routers[lr];
                let rid = router.id();
                router.allocate(
                    ctx.now,
                    |flit| mesh.route_xy(rid, flit.dest),
                    &mut self.outgoing,
                );
                self.active[w] &= !(u64::from(router.is_idle()) << (lr % 64));
            }
        }
        let ring = Self::ring_index(ctx.now);
        // The due slot is swapped out and restored so its capacity is
        // reused; safe because schedules only ever target future slots.
        let mut due = std::mem::take(&mut self.events[ring]);
        for arrival in due.drain(..) {
            self.progressed = true;
            if arrival.port == Hop::NI {
                self.ejects.push((arrival.index as usize, arrival.flit));
                continue;
            }
            let (lr, port) = (arrival.index as usize, arrival.port as usize);
            let router = self.router_lo + lr;
            let mut flit = arrival.flit;
            flit.ready_at = ctx.now + 1;
            if port_stall(&ctx.faults, ctx.now, router, port) {
                flit.ready_at += ctx.faults.stall_cycles as u64;
                self.stall_hits += 1;
            }
            self.routers[lr].accept_flit(port, arrival.vc.into(), flit);
            self.mark_active(lr);
        }
        self.events[ring] = due;
    }

    /// Records that local router `lr` may hold buffered flits.
    pub fn mark_active(&mut self, lr: usize) {
        self.active[lr / 64] |= 1 << (lr % 64);
    }

    /// Whether local router `lr` is marked active.
    pub fn is_active(&self, lr: usize) -> bool {
        self.active[lr / 64] & (1 << (lr % 64)) != 0
    }

    /// Phase B2: at most one flit injection per local NI, into this shard's
    /// own ring (a node's router lives in the node's shard by construction).
    /// Only NIs with a queued packet are visited, in ascending node order.
    fn phase_b2(&mut self, ctx: &StepCtx) {
        for w in 0..self.busy_nis.len() {
            let mut bits = self.busy_nis[w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.inject_from(node, ctx) {
                    self.progressed = true;
                }
            }
        }
    }

    /// Records that local NI `local_node` has a queued packet.
    pub fn mark_busy(&mut self, local_node: usize) {
        self.busy_nis[local_node / 64] |= 1 << (local_node % 64);
    }

    /// Pops local NI `local_node`'s head packet, marking the NI idle when its
    /// queue empties.
    fn dequeue(&mut self, local_node: usize) {
        let queue = &mut self.nis[local_node].queue;
        queue.pop_front();
        if queue.is_empty() {
            self.busy_nis[local_node / 64] &= !(1 << (local_node % 64));
        }
    }

    /// Recomputes `busy_nis` from the NI queues (after a restore).
    pub fn rebuild_busy_nis(&mut self) {
        self.busy_nis.iter_mut().for_each(|w| *w = 0);
        for local in 0..self.nis.len() {
            if !self.nis[local].queue.is_empty() {
                self.mark_busy(local);
            }
        }
    }

    /// Attempts one flit injection from local node index `local_node`;
    /// returns whether a flit entered the network.
    fn inject_from(&mut self, local_node: usize, ctx: &StepCtx) -> bool {
        let now = ctx.now;
        let ni = &mut self.nis[local_node];
        let Some(&slot) = ni.queue.front() else {
            return false;
        };
        // The NI queue only holds live local slab slots; drop a stale one
        // rather than crash if that invariant ever breaks.
        let Some(p) = self.packets[local_of_slot(slot)].as_mut() else {
            debug_assert!(false, "queued slot {slot} holds no packet");
            self.dequeue(local_node);
            return false;
        };
        // Unhidden compression: pay the remaining latency now that the
        // packet has reached the queue head.
        if ni.next_seq == 0 && p.head_gate > 0 {
            p.ready_at = p.ready_at.max(now + p.head_gate);
            p.head_gate = 0;
            return false;
        }
        if p.ready_at > now {
            return false;
        }
        // Head flit needs a VC with a credit; body flits continue on the
        // packet's VC and just need a credit.
        let vc = match ni.cur_vc {
            Some(v) => {
                if ni.vc_credits[v] == 0 {
                    return false;
                }
                v
            }
            None => match ni.pick_vc() {
                Some(v) => v,
                None => return false,
            },
        };
        let seq = ni.next_seq;
        if seq == 0 {
            p.inject_start = Some(now);
        }
        let is_tail = seq + 1 == p.num_flits;
        let flit = Flit {
            slot,
            seq,
            is_tail,
            dest: p.dest,
            ready_at: 0, // set at arrival
        };
        let measured = p.measured;
        let kind = p.kind;
        let num_flits = p.num_flits;
        let baseline_flits = p.baseline_flits;
        ni.vc_credits[vc] -= 1;
        ni.cur_vc = Some(vc);
        ni.next_seq += 1;
        if is_tail {
            ni.cur_vc = None;
            ni.next_seq = 0;
            self.dequeue(local_node);
        }
        // A node's router is in its own shard.
        let node = NodeId::from(self.node_lo + local_node);
        let to = Hop::router(
            self.index as u16,
            (self.mesh.router_of(node) - self.router_lo) as u32,
            self.mesh.local_port_of(node) as u8,
        );
        self.schedule(now, now + 1, to, vc as u8, flit);
        // Injection statistics. Per-packet counters are committed at tail
        // injection so a drain cutoff can never split a packet across the
        // two sides of the Figure 11 normalization.
        if measured {
            self.inject_tally.flits += 1;
            if is_tail {
                match kind {
                    PacketKind::Data => {
                        self.inject_tally.data_flits += num_flits as u64;
                        self.inject_tally.baseline_flits += baseline_flits as u64;
                    }
                    PacketKind::Control => self.inject_tally.control_flits += 1,
                }
            }
        }
        true
    }

    /// Schedules `flit` to land on VC `vc` at `to`, a router input or NI
    /// owned by this shard, at cycle `at`.
    pub fn schedule(&mut self, now: u64, at: u64, to: Hop, vc: u8, flit: Flit) {
        debug_assert!(at > now && at < now + EVENT_HORIZON as u64);
        debug_assert_eq!(
            usize::from(to.shard),
            self.index,
            "hop lands in another shard"
        );
        self.events[Self::ring_index(at)].push(Arrival {
            flit,
            index: to.index,
            port: to.port,
            vc,
        });
    }

    /// Returns one credit for VC `vc` to `to`, a router output or NI owned
    /// by this shard.
    pub fn return_credit(&mut self, to: Hop, vc: usize) {
        if to.is_ni() {
            self.nis[to.index as usize - self.node_lo].vc_credits[vc] += 1;
        } else {
            self.routers[to.index as usize].return_credit(to.port.into(), vc);
        }
    }
}
