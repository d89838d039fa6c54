//! The network's state and the two phases of a cycle that touch only it
//! (DESIGN.md §7).
//!
//! A [`Network`] holds every router, NI, the event ring and the slab of
//! packets in flight. [`NocSim::step`](crate::NocSim::step) runs a cycle in
//! three steps:
//!
//! * **Phase A**: VC + switch allocation over the router table, then the
//!   drain of this cycle's ring slot into router input buffers. It reads
//!   only state the last cycle edge left, and it defers ejections to the
//!   cycle edge, which owns the packet bookkeeping they touch.
//! * **Cycle edge** (in `sim.rs`): the deferred ejections, then each
//!   grant's ring [`Arrival`], moved into the ring two cycles ahead, then
//!   each grant's [`Credit`], returned to the router output or NI named by
//!   the [`Hop`]s resolved when [`Network::new`] wired the routers.
//! * **Phase B2**: each NI injects at most one flit into the ring.
//!
//! Phase A holds no [`Edge`], the capability that scheduling a flit and
//! returning a credit take, so it cannot write current-edge state: a credit
//! returned during allocation would let a later router in the sweep use it
//! a cycle early.
//!
//! The only per-site randomness inside phase A is the port-stall fault
//! draw; it uses a stateless oracle keyed on `(plan seed, cycle, router,
//! port)` instead of the sequential fault RNG, so its outcomes do not
//! depend on the order arrivals are processed in.

use anoc_core::data::NodeId;
use anoc_core::rng::{Pcg32, Stream};

use crate::config::NocConfig;
use crate::faults::{FaultPlan, PPM};
use crate::ni::NiState;
use crate::packet::{Flit, PacketKind, PacketState};
use crate::router::{Arrival, Credit, Hop, RouterTable, Unrouted};
use crate::sim::Edge;
use crate::stats::NetStats;
use crate::topology::{Direction, Mesh};

/// Ring-buffer horizon for scheduled arrivals (link events land at +1/+2).
const EVENT_HORIZON: usize = 4;

/// Every router and NI of the network, its event ring, and the packets in
/// flight.
#[derive(Debug)]
pub(crate) struct Network {
    /// Every router, in router-id order.
    pub routers: RouterTable,
    /// Every NI, in node-id order.
    pub nis: Vec<NiState>,
    /// The event ring: arrivals at router inputs and ejection paths, one
    /// list per cycle slot.
    pub events: Vec<Vec<Arrival>>,
    /// Slab store of packets in flight; a flit's `slot` is its packet's
    /// index here.
    pub packets: Vec<Option<PacketState>>,
    pub free_slots: Vec<u32>,
    /// Bit `n % 64` of word `n / 64` is set while NI `n` has a queued
    /// packet, so phase B2 visits only NIs that may inject.
    pub busy_nis: Vec<u64>,
    /// Phase A output: each grant's ring arrival, in router-ascending grant
    /// order.
    pub arrivals: Vec<Arrival>,
    /// Phase A output: the credit each grant owes, in the same order.
    pub credits: Vec<Credit>,
    /// Phase A output: ejection arrivals deferred to the cycle edge, in ring
    /// order (which is grant order, i.e. router-ascending).
    pub ejects: Vec<(usize, Flit)>,
}

/// Stateless per-site port-stall draw, keyed on the plan seed and the
/// arrival's unique `(cycle, router, port)` site — at most one flit arrives
/// per input port per cycle, so each site is drawn exactly once, in any
/// order.
fn port_stall(plan: &FaultPlan, now: u64, router: usize, port: usize) -> bool {
    if plan.port_stall_ppm == 0 {
        return false;
    }
    let site = mix64(plan.seed ^ now ^ ((router as u64) << 40) ^ ((port as u64) << 56));
    Pcg32::on(site, Stream::PORT_STALL).below(PPM) < plan.port_stall_ppm
}

/// SplitMix64 finalizer: decorrelates nearby `(cycle, router, port)` sites.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Network {
    /// Builds the routers, NIs and ring of `mesh`, and resolves every link
    /// to a [`Hop`], so the cycle edge needs no lookup to follow one.
    pub fn new(config: &NocConfig, mesh: &Mesh) -> Network {
        let num_routers = mesh.num_routers();
        let mut routers = RouterTable::new(
            num_routers,
            mesh.ports_per_router(),
            config.vcs,
            config.vc_buffer,
        );
        for r in 0..num_routers {
            for dir in Direction::ALL {
                if let Some(n) = mesh.neighbor(r, dir) {
                    // The link r→n lands on n's opposite port, and r's own
                    // `dir` input port is fed by n's opposite output port:
                    // one hop names both.
                    let far = Hop::router(n as u32, dir.opposite() as u8);
                    routers.wire_output(r, dir as usize, far);
                    routers.wire_input(r, dir as usize, far);
                }
            }
            for slot in 0..mesh.concentration() {
                let port = 4 + slot;
                let ni = Hop::ni(mesh.node_at(r, port).index() as u32);
                routers.wire_output(r, port, ni);
                routers.wire_input(r, port, ni);
            }
        }
        let num_nodes = mesh.num_nodes();
        Network {
            routers,
            nis: (0..num_nodes)
                .map(|_| NiState::new(config.vcs, config.vc_buffer))
                .collect(),
            events: (0..EVENT_HORIZON).map(|_| Vec::new()).collect(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            busy_nis: vec![0; num_nodes.div_ceil(64)],
            arrivals: Vec::new(),
            credits: Vec::new(),
            ejects: Vec::new(),
        }
    }

    fn ring_index(now: u64) -> usize {
        (now % EVENT_HORIZON as u64) as usize
    }

    /// Phase A: VC + switch allocation over the router table, then drain
    /// this cycle's ring slot into input buffers (deferring ejections to the
    /// cycle edge). Allocating first is exact: every flit drained here gets
    /// `ready_at >= now + 1`, so allocation at `now` would skip it anyway,
    /// and it lands behind the flits already queued in its VC. Reads only
    /// last-cycle-edge state: it holds no [`Edge`]. Injected port stalls
    /// count into `stats`. Returns whether any arrival landed, and the first
    /// body flit found at the front of a VC without a route.
    pub fn phase_a(
        &mut self,
        mesh: &Mesh,
        now: u64,
        faults: &FaultPlan,
        stats: &mut NetStats,
    ) -> (bool, Option<Unrouted>) {
        let ring = Self::ring_index(now);
        // An idle network skips the phase: it would grant and land nothing.
        if self.events[ring].is_empty() && !self.routers.any_busy() {
            return (false, None);
        }
        let unrouted = self.routers.allocate(
            now,
            |r, flit| mesh.route_xy(r, flit.dest),
            &mut self.arrivals,
            &mut self.credits,
        );
        // The due slot is swapped out and restored so its capacity is
        // reused; safe because schedules only ever target future slots.
        let mut due = std::mem::take(&mut self.events[ring]);
        let landed = !due.is_empty();
        for arrival in due.drain(..) {
            if arrival.port == Hop::NI {
                self.ejects.push((arrival.index as usize, arrival.flit));
                continue;
            }
            let (router, port) = (arrival.index as usize, arrival.port as usize);
            let mut flit = arrival.flit;
            flit.ready_at = now + 1;
            if port_stall(faults, now, router, port) {
                flit.ready_at += faults.stall_cycles as u64;
                stats.faults.port_stalls += 1;
            }
            self.routers
                .accept_flit(router, port, arrival.vc.into(), flit);
        }
        self.events[ring] = due;
        (landed, unrouted)
    }

    /// Phase B2: at most one flit injection per NI, visiting only NIs with
    /// a queued packet, in ascending node order. Measured injections count
    /// into `stats`. Returns whether any flit entered the network.
    pub fn phase_b2(&mut self, mesh: &Mesh, now: u64, stats: &mut NetStats, edge: Edge) -> bool {
        let mut injected = false;
        for w in 0..self.busy_nis.len() {
            let mut bits = self.busy_nis[w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                injected |= self.inject_from(node, mesh, now, stats, edge);
            }
        }
        injected
    }

    /// Records that NI `node` has a queued packet.
    pub fn mark_busy(&mut self, node: usize) {
        self.busy_nis[node / 64] |= 1 << (node % 64);
    }

    /// Pops NI `node`'s head packet, marking the NI idle when its queue
    /// empties.
    fn dequeue(&mut self, node: usize) {
        let queue = &mut self.nis[node].queue;
        queue.pop_front();
        if queue.is_empty() {
            self.busy_nis[node / 64] &= !(1 << (node % 64));
        }
    }

    /// Recomputes `busy_nis` from the NI queues (after a restore).
    pub fn rebuild_busy_nis(&mut self) {
        self.busy_nis.iter_mut().for_each(|w| *w = 0);
        for node in 0..self.nis.len() {
            if !self.nis[node].queue.is_empty() {
                self.mark_busy(node);
            }
        }
    }

    /// Attempts one flit injection from NI `node`; returns whether a flit
    /// entered the network.
    fn inject_from(
        &mut self,
        node: usize,
        mesh: &Mesh,
        now: u64,
        stats: &mut NetStats,
        edge: Edge,
    ) -> bool {
        let ni = &mut self.nis[node];
        let Some(&slot) = ni.queue.front() else {
            return false;
        };
        // The NI queue only holds live slab slots; drop a stale one rather
        // than crash if that invariant ever breaks.
        let Some(p) = self.packets[slot as usize].as_mut() else {
            debug_assert!(false, "queued slot {slot} holds no packet");
            self.dequeue(node);
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
            self.dequeue(node);
        }
        let id = NodeId::from(node);
        let to = Hop::router(mesh.router_of(id) as u32, mesh.local_port_of(id) as u8);
        self.schedule(now, now + 1, Arrival::at(to, vc as u8, flit), edge);
        // Injection statistics. Per-packet counters are committed at tail
        // injection so a drain cutoff can never split a packet across the
        // two sides of the Figure 11 normalization.
        if measured {
            stats.flits_injected += 1;
            if is_tail {
                match kind {
                    PacketKind::Data => {
                        stats.data_flits_injected += num_flits as u64;
                        stats.baseline_data_flits += baseline_flits as u64;
                    }
                    PacketKind::Control => stats.control_flits_injected += 1,
                }
            }
        }
        true
    }

    /// Schedules `arrival` to land at cycle `at`.
    pub fn schedule(&mut self, now: u64, at: u64, arrival: Arrival, _edge: Edge) {
        debug_assert!(at > now && at < now + EVENT_HORIZON as u64);
        self.events[Self::ring_index(at)].push(arrival);
    }

    /// Moves `arrivals` into the ring slot for cycle `at` in one piece. The
    /// slot is empty at a cycle edge, so the lists swap and `arrivals` takes
    /// the slot's empty buffer; only a restored ring holding arrivals past
    /// the link horizon leaves something there, and the new ones then go
    /// behind it.
    pub fn land(&mut self, now: u64, at: u64, arrivals: &mut Vec<Arrival>, _edge: Edge) {
        debug_assert!(at > now && at < now + EVENT_HORIZON as u64);
        let slot = &mut self.events[Self::ring_index(at)];
        if slot.is_empty() {
            std::mem::swap(slot, arrivals);
        } else {
            slot.append(arrivals);
        }
    }

    /// Returns `credit` to the router output or NI it names.
    pub fn return_credit(&mut self, credit: Credit, edge: Edge) {
        let (index, vc) = (credit.index as usize, usize::from(credit.vc));
        if credit.port == Hop::NI {
            self.nis[index].vc_credits[vc] += 1;
        } else {
            self.routers
                .return_credit(index, credit.port.into(), vc, edge);
        }
    }
}
