//! The three-stage virtual-channel wormhole router.
//!
//! Pipeline model (Table 1: "2 GHz three stage router"): a flit written into
//! an input VC buffer at cycle `a` (BW + RC) becomes eligible for allocation
//! at `a+1` (VA + SA) and, once granted, traverses the switch and link to be
//! written downstream at `g+2` (ST + LT) — three cycles per hop when
//! uncontended. Credit-based flow control backpressures the VC buffers;
//! virtual-channel allocation holds an output VC from a packet's head grant
//! to its tail traversal (wormhole).
//!
//! Layout (DESIGN.md §7): the network's routers share one `RouterTable` of
//! flat arrays. Input and output VC state sit in one array each, indexed
//! `(router << port_shift | port) << vc_shift | vc`, with power-of-two
//! strides so no index is ever divided. Each port's allocator state and
//! link hops sit in one small record, with `u8` route, VC and round-robin
//! indices and a bitmask of free output VCs. Every input VC buffer is a
//! power-of-two ring inside one table-wide flit array. Credit-duplication
//! faults can push a VC past its credited depth; the ring then moves to a
//! region twice its size at the array's end (a cold path) rather than
//! dropping or overwriting a flit. Allocation runs as two sweeps over the
//! whole table, and each grant appends the ring `Arrival` and the `Credit`
//! the cycle edge applies as they are.

use anoc_core::data::NodeId;
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::packet::Flit;
use crate::sim::Edge;

/// `x mod m` for `x < 2m`: one compare instead of a hardware divide, which
/// dominated the allocation loop's round-robin index arithmetic.
#[inline(always)]
pub(crate) fn wrap(x: usize, m: usize) -> usize {
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Rotates the low `width` bits of `mask` right by `start < width`, so bit
/// position encodes round-robin priority from `start`; `full` masks the low
/// `width` bits. Branch-free: at `start == 0` the wrapping shift by `width`
/// either lands above `full` or, at `width == 32`, shifts by zero.
#[inline(always)]
fn rotate(mask: u32, start: usize, width: usize, full: u32) -> u32 {
    ((mask >> start) | mask.wrapping_shl((width - start) as u32)) & full
}

/// The unset value of a narrow route or output-VC index.
const NONE: u8 = u8::MAX;

/// What an empty ring slot holds.
const NO_FLIT: Flit = Flit {
    slot: 0,
    seq: 0,
    is_tail: false,
    dest: NodeId(0),
    ready_at: 0,
};

/// Longest VC buffer a snapshot may restore; a larger count is corrupt.
const MAX_SNAPSHOT_VC_LEN: usize = 1 << 20;

/// One end of a link, resolved when the network is wired: where an output
/// port's flits land, or whom an input port credits for a freed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Router id, or the node id when `port` is [`Hop::NI`].
    pub index: u32,
    /// Port at the router, or [`Hop::NI`] for a node's NI.
    pub port: u8,
}

impl Hop {
    /// The `port` value naming a node's NI: its ejection path on an output,
    /// its injection credits on an input.
    pub const NI: u8 = u8::MAX;

    /// What an unwired port holds. No route or link reaches one.
    const UNWIRED: Hop = Hop::ni(u32::MAX);

    /// Port `port` of router `index`.
    pub const fn router(index: u32, port: u8) -> Hop {
        Hop { index, port }
    }

    /// The NI of node `node`.
    pub const fn ni(node: u32) -> Hop {
        Hop {
            index: node,
            port: Hop::NI,
        }
    }

    /// Whether this end is an NI rather than a router port.
    #[inline(always)]
    pub fn is_ni(self) -> bool {
        self.port == Hop::NI
    }
}

/// A flit in flight on a link, due at a scheduled cycle, in the event ring.
/// A grant makes one, so the cycle edge moves it into the ring as it is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub flit: Flit,
    /// Router id, or the node id when `port` is [`Hop::NI`].
    pub index: u32,
    /// Input port at the router, or [`Hop::NI`] for an ejection.
    pub port: u8,
    /// The VC the flit occupies.
    pub vc: u8,
}

impl Arrival {
    /// `flit` landing on VC `vc` at `to`.
    pub fn at(to: Hop, vc: u8, flit: Flit) -> Arrival {
        Arrival {
            flit,
            index: to.index,
            port: to.port,
            vc,
        }
    }
}

/// The credit a grant owes for the input-VC slot it freed: the router
/// output or NI upstream of that input, and the VC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Credit {
    /// Router id, or the node id when `port` is [`Hop::NI`].
    pub index: u32,
    /// Output port at the router, or [`Hop::NI`] for a node's NI.
    pub port: u8,
    /// The VC credited.
    pub vc: u8,
}

/// A body flit found at the front of an input VC that holds no route: the
/// per-VC order of its packet is broken (only a corrupt snapshot can do
/// that). Allocation skips the VC and reports the first one it meets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unrouted {
    /// The flit's packet slot.
    pub slot: u32,
    /// Router id.
    pub router: usize,
    /// Input port.
    pub port: usize,
}

/// One input VC: a FIFO ring in the table's flit array, plus the route and
/// output VC held by the packet at its front.
#[derive(Debug, Clone, Copy)]
struct InVc {
    /// First slot of the ring in the flit array.
    base: u32,
    /// Ring capacity minus one; the capacity is a power of two.
    mask: u32,
    /// Ring offset of the front flit.
    head: u32,
    /// Buffered flits.
    len: u32,
    /// Allocated output port, or [`NONE`].
    route: u8,
    /// Allocated output VC, or [`NONE`].
    out_vc: u8,
}

impl InVc {
    /// A VC with no flit, no ring and no route.
    const EMPTY: InVc = InVc {
        base: 0,
        mask: 0,
        head: 0,
        len: 0,
        route: NONE,
        out_vc: NONE,
    };

    /// Flit-array index of the `k`-th buffered flit.
    #[inline(always)]
    fn at(&self, k: u32) -> usize {
        (self.base + ((self.head + k) & self.mask)) as usize
    }
}

/// One port's allocator state and links. Input port `i` and output port
/// `i` of a router share a record.
#[derive(Debug, Clone, Copy)]
struct Port {
    /// Output side, sweep scratch: bitmask of the input ports requesting
    /// this output, so the grant costs one rotate + trailing-zeros. Zero
    /// between calls.
    requests: u64,
    /// Input side: bitmask of VCs holding at least one flit, so allocation
    /// walks only occupied VCs.
    occupied: u32,
    /// Output side: bitmask of output VCs no wormhole holds, so VC
    /// allocation costs one rotate + trailing-zeros. Derived from the
    /// holders; unused on ejection ports, which hold no VC.
    free_vcs: u32,
    /// Input side: the VC round-robin pointer.
    vc_rr: u8,
    /// Input side, sweep scratch: the VC nominated this call. Read only
    /// where this port's bit is set in some `requests`.
    nominated: u8,
    /// Output side: the output-VC round-robin pointer.
    out_vc_rr: u8,
    /// Output side: the input-port round-robin pointer.
    out_rr: u8,
    /// Output side: where its link lands.
    dest: Hop,
    /// Input side: who to credit for a freed slot.
    credit_to: Hop,
}

/// One downstream VC's flow-control state: remaining credits and, while a
/// wormhole holds the VC, the (input port, input VC) holding it.
#[derive(Debug, Clone, Copy)]
struct OutVc {
    credits: u32,
    /// The holding input port, or [`NONE`] while the VC is free, so a tail
    /// releases it with an OR instead of a branch.
    holder_port: u8,
    /// The holding input VC; meaningful only while `holder_port` is set.
    holder_vc: u8,
}

impl OutVc {
    /// The `(input port, input VC)` holding this VC, if any.
    fn holder(&self) -> Option<(u8, u8)> {
        (self.holder_port != NONE).then_some((self.holder_port, self.holder_vc))
    }
}

anoc_core::stats_record! {
    /// Microarchitectural event counters of one router (drive the power model).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RouterActivity {
        /// Flits written into input buffers.
        pub buffer_writes: u64,
        /// Flits read out of input buffers (switch traversals).
        pub buffer_reads: u64,
        /// Output VC allocations performed.
        pub vc_allocs: u64,
        /// Switch allocation grants (crossbar traversals).
        pub crossbar_traversals: u64,
        /// Router-to-router link traversals.
        pub link_traversals: u64,
    }
}

/// Every router of the network, in flat arrays. A port's index is
/// `router << port_shift | port`, an input or output VC's is
/// `port_index << vc_shift | vc`; the strides are the port and VC counts
/// rounded up to powers of two, and the padding entries are never touched.
#[derive(Debug)]
pub(crate) struct RouterTable {
    /// Routers in the table.
    routers: usize,
    /// Ports per router; input and output ports pair up by index.
    ports: usize,
    /// VCs per port.
    vcs: usize,
    /// log2 of the port stride.
    port_shift: u32,
    /// log2 of the VC stride.
    vc_shift: u32,
    /// The ring capacity every VC starts with: `vc_buffer` rounded up to a
    /// power of two.
    base_cap: u32,
    /// Every input VC's ring, laid out by [`RouterTable::clear_buffers`];
    /// a grown ring moves to the end.
    flits: Vec<Flit>,
    /// Input VCs, by VC index.
    in_vcs: Vec<InVc>,
    /// Output VCs, by VC index.
    out_vcs: Vec<OutVc>,
    /// Per-port allocator state and links, by port index.
    port: Vec<Port>,
    /// Per router: bitmask of ejecting output ports. An unwired port keeps
    /// the ejection default, as its `dest` does.
    eject: Vec<u64>,
    /// Per router: event counters.
    activity: Vec<RouterActivity>,
    /// Bit `i % 64` of word `i / 64` is set while input port index `i` has
    /// a non-zero `occupied` mask. Sweep 1 visits only those ports. The
    /// port stride is a power of two of at most 64, so each word covers
    /// whole routers.
    busy: Vec<u64>,
}

impl RouterTable {
    /// Builds `routers` routers of `ports` ports and `vcs` VCs of
    /// `vc_buffer` flits each. Links and credit targets are wired
    /// afterwards by the network.
    pub fn new(routers: usize, ports: usize, vcs: usize, vc_buffer: usize) -> Self {
        assert!(ports <= 64, "request bitmasks hold at most 64 input ports");
        assert!(vcs <= 32, "occupancy bitmasks hold at most 32 VCs");
        let port_shift = ports.next_power_of_two().trailing_zeros();
        let vc_shift = vcs.next_power_of_two().trailing_zeros();
        let port_slots = routers << port_shift;
        let mut t = RouterTable {
            routers,
            ports,
            vcs,
            port_shift,
            vc_shift,
            base_cap: vc_buffer.max(1).next_power_of_two() as u32,
            flits: Vec::new(),
            in_vcs: vec![InVc::EMPTY; port_slots << vc_shift],
            out_vcs: vec![
                OutVc {
                    credits: vc_buffer as u32,
                    holder_port: NONE,
                    holder_vc: 0,
                };
                port_slots << vc_shift
            ],
            port: vec![
                Port {
                    requests: 0,
                    occupied: 0,
                    free_vcs: u32::MAX >> (32 - vcs as u32),
                    vc_rr: 0,
                    nominated: 0,
                    out_vc_rr: 0,
                    out_rr: 0,
                    dest: Hop::UNWIRED,
                    credit_to: Hop::UNWIRED,
                };
                port_slots
            ],
            eject: vec![u64::MAX; routers],
            activity: vec![RouterActivity::default(); routers],
            busy: vec![0; port_slots.div_ceil(64)],
        };
        t.clear_buffers();
        t
    }

    /// Routers in the table.
    pub fn len(&self) -> usize {
        self.routers
    }

    /// Port index of `port` of router `lr`.
    #[inline(always)]
    fn port_index(&self, lr: usize, port: usize) -> usize {
        lr << self.port_shift | port
    }

    /// Wires output port `port` of router `lr` to `dest`. Ejection ports
    /// (an NI `dest`) are not credit flow-controlled at all (the NI sinks
    /// one flit per cycle regardless): allocation skips the credit check and
    /// decrement for them, so no finite counter can drain over a long-lived
    /// simulation.
    pub fn wire_output(&mut self, lr: usize, port: usize, dest: Hop) {
        let pi = self.port_index(lr, port);
        self.port[pi].dest = dest;
        if dest.is_ni() {
            self.eject[lr] |= 1 << port;
        } else {
            self.eject[lr] &= !(1 << port);
        }
    }

    /// Declares who feeds input port `port` of router `lr`: the router
    /// output or NI that a slot freed at this port credits.
    pub fn wire_input(&mut self, lr: usize, port: usize, upstream: Hop) {
        let pi = self.port_index(lr, port);
        self.port[pi].credit_to = upstream;
    }

    /// Whether a link or an NI feeds input port `port` of router `lr`.
    pub fn is_fed(&self, lr: usize, port: usize) -> bool {
        self.port[self.port_index(lr, port)].credit_to != Hop::UNWIRED
    }

    /// Accepts a flit into an input VC buffer of router `lr` (BW stage). A
    /// VC that already holds as many flits as its ring has slots — possible
    /// only after a duplicated credit — grows its ring instead of refusing
    /// the flit.
    pub fn accept_flit(&mut self, lr: usize, port: usize, vc: usize, flit: Flit) {
        self.activity[lr].buffer_writes += 1;
        self.push(self.port_index(lr, port), vc, flit);
    }

    /// Appends `flit` to VC `vc` of input port index `pi`, growing its ring
    /// if full.
    #[inline]
    fn push(&mut self, pi: usize, vc: usize, flit: Flit) {
        let qi = pi << self.vc_shift | vc;
        if self.in_vcs[qi].len > self.in_vcs[qi].mask {
            self.grow_ring(qi);
        }
        let q = &mut self.in_vcs[qi];
        self.flits[q.at(q.len)] = flit;
        q.len += 1;
        self.port[pi].occupied |= 1 << vc;
        self.busy[pi / 64] |= 1 << (pi % 64);
    }

    /// Moves input VC `qi`'s ring to a new region of twice its size at the
    /// end of the flit array, unrolled to offset 0. Beyond the vector's
    /// amortized growth, the cost is the ring's, not the table's; the old
    /// region stays unused until the buffers are next cleared. Indices stay within `u32`: a ring grows only when its
    /// VC holds more flits than it has slots, and the regions a ring has
    /// left add up to less than its current one.
    #[cold]
    #[inline(never)]
    fn grow_ring(&mut self, qi: usize) {
        let q = self.in_vcs[qi];
        let cap = (q.mask + 1) * 2;
        let base = self.flits.len();
        self.flits.reserve(cap as usize);
        for k in 0..q.len {
            let flit = self.flits[q.at(k)];
            self.flits.push(flit);
        }
        self.flits.resize(base + cap as usize, NO_FLIT);
        self.in_vcs[qi] = InVc {
            base: base as u32,
            mask: cap - 1,
            head: 0,
            ..q
        };
    }

    /// Empties every input VC and lays the rings out back to back at the
    /// base capacity, in one pass. Routes and output VCs are left as they
    /// are.
    pub fn clear_buffers(&mut self) {
        let cap = self.base_cap;
        let mut next = 0u32;
        for lr in 0..self.routers {
            for port in 0..self.ports {
                let pi = self.port_index(lr, port);
                self.port[pi].occupied = 0;
                for q in &mut self.in_vcs[pi << self.vc_shift..][..self.vcs] {
                    (q.base, q.mask, q.head, q.len) = (next, cap - 1, 0, 0);
                    next += cap;
                }
            }
        }
        self.flits.clear();
        self.flits.resize(next as usize, NO_FLIT);
        self.busy.iter_mut().for_each(|w| *w = 0);
    }

    /// Whether any input VC of any router holds a flit.
    pub fn any_busy(&self) -> bool {
        self.busy.iter().any(|&w| w != 0)
    }

    /// Whether some input VC of router `lr` holds a flit. Its ports' busy
    /// bits are one aligned run of at most 64 bits in one word.
    pub fn is_busy(&self, lr: usize) -> bool {
        let first = lr << self.port_shift;
        let run = u64::MAX >> (64 - (1u32 << self.port_shift));
        (self.busy[first / 64] >> (first % 64)) & run != 0
    }

    /// Returns one credit for output port `port`, VC `vc` of router `lr`.
    /// Only the serial cycle edge may, hence the [`Edge`].
    pub fn return_credit(&mut self, lr: usize, port: usize, vc: usize, _edge: Edge) {
        if self.eject[lr] & (1 << port) == 0 {
            let qi = self.port_index(lr, port) << self.vc_shift | vc;
            self.out_vcs[qi].credits += 1;
        }
    }

    /// The input or output VC indices of router `lr`'s port `port`.
    fn vcs_of(&self, lr: usize, port: usize) -> std::ops::Range<usize> {
        let first = self.port_index(lr, port) << self.vc_shift;
        first..first + self.vcs
    }

    /// Buffered flit count across router `lr`'s input VCs.
    pub fn occupancy(&self, lr: usize) -> usize {
        (0..self.ports)
            .flat_map(|port| self.in_vcs[self.vcs_of(lr, port)].iter())
            .map(|q| q.len as usize)
            .sum()
    }

    /// Router `lr`'s accumulated event counters.
    pub fn activity(&self, lr: usize) -> RouterActivity {
        self.activity[lr]
    }

    /// Flow-control snapshot of router `lr` for deadlock diagnostics: per
    /// output port, each VC's `(remaining credits, wormhole holder)` where
    /// the holder is the `(input port, input VC)` currently owning the VC.
    pub fn flow_snapshot(&self, lr: usize) -> crate::faults::PortFlows {
        (0..self.ports)
            .map(|port| {
                self.out_vcs[self.vcs_of(lr, port)]
                    .iter()
                    .map(|v| (v.credits, v.holder().map(|(p, c)| (p.into(), c.into()))))
                    .collect()
            })
            .collect()
    }

    /// Serializes router `lr`'s mutable state for a snapshot: per input VC
    /// the buffered flits in FIFO order (each passed through `remap`, which
    /// translates its slot to a canonical packet index) and held route/VC,
    /// per output VC the credits and wormhole holder, the round-robin
    /// pointers and the activity counters.
    /// Wiring (`dest`/`credit_to`) is configuration, not state, and is
    /// skipped; ring placement and the occupancy, busy and free-VC masks
    /// are derived and rebuilt on load.
    pub fn save_router(
        &self,
        lr: usize,
        w: &mut SnapWriter,
        remap: &impl Fn(Flit) -> Result<Flit, SnapError>,
    ) -> Result<(), SnapError> {
        let opt = |x: u8| (x != NONE).then_some(usize::from(x));
        for port in 0..self.ports {
            w.usize(self.port[self.port_index(lr, port)].vc_rr.into());
            for q in &self.in_vcs[self.vcs_of(lr, port)] {
                w.usize(q.len as usize);
                for k in 0..q.len {
                    remap(self.flits[q.at(k)])?.save(w);
                }
                opt(q.route).save(w);
                opt(q.out_vc).save(w);
            }
        }
        for port in 0..self.ports {
            let p = &self.port[self.port_index(lr, port)];
            w.usize(p.out_vc_rr.into());
            w.usize(p.out_rr.into());
            for vc in &self.out_vcs[self.vcs_of(lr, port)] {
                w.u32(vc.credits);
                vc.holder()
                    .map(|(ip, v)| (u32::from(ip), u32::from(v)))
                    .save(w);
            }
        }
        self.activity[lr].save(w);
        Ok(())
    }

    /// Restores state written by [`RouterTable::save_router`] into router
    /// `lr`, whose buffers [`RouterTable::clear_buffers`] emptied, passing
    /// each flit read through `remap`, which translates its canonical packet
    /// index back to a slot. Every index that later feeds the allocator's
    /// rotate arithmetic is range-checked here so a corrupt blob fails as a
    /// typed error, never as a shift overflow mid-campaign. A VC length is
    /// checked before any flit is read, and rings grow only as flits are
    /// actually read, so a corrupt length cannot trigger a huge allocation.
    /// The free-VC masks are rebuilt from the restored holders.
    pub fn load_router(
        &mut self,
        lr: usize,
        r: &mut SnapReader<'_>,
        remap: &impl Fn(Flit) -> Result<Flit, SnapError>,
    ) -> Result<(), SnapError> {
        let (num_in, num_vcs) = (self.ports, self.vcs);
        // An allocated index below `limit`, narrowed to its `u8` slot.
        let below = |r: &mut SnapReader<'_>, limit: usize, what| match Option::<usize>::load(r)? {
            Some(x) if x >= limit => Err(SnapError::Invalid(what)),
            x => Ok(x.map_or(NONE, |x| x as u8)),
        };
        for port in 0..num_in {
            let pi = self.port_index(lr, port);
            let rr = r.usize()?;
            if rr >= num_vcs {
                return Err(SnapError::Invalid("input round-robin index"));
            }
            self.port[pi].vc_rr = rr as u8;
            for v in 0..num_vcs {
                let n = r.usize()?;
                if n > MAX_SNAPSHOT_VC_LEN {
                    return Err(SnapError::Invalid("vc buffer length"));
                }
                // Nothing but a link or an NI fills an input port.
                if n > 0 && !self.is_fed(lr, port) {
                    return Err(SnapError::Invalid("flits at an unwired input port"));
                }
                for _ in 0..n {
                    let flit = remap(Flit::load(r)?)?;
                    self.push(pi, v, flit);
                }
                let route = below(r, num_in, "allocated output port")?;
                if route != NONE
                    && self.port[self.port_index(lr, route.into())].dest == Hop::UNWIRED
                {
                    return Err(SnapError::Invalid("route to an unwired output port"));
                }
                let out_vc = below(r, num_vcs, "allocated output vc")?;
                let q = &mut self.in_vcs[pi << self.vc_shift | v];
                (q.route, q.out_vc) = (route, out_vc);
            }
        }
        for port in 0..num_in {
            let pi = self.port_index(lr, port);
            let vc_rr = r.usize()?;
            let rr = r.usize()?;
            if vc_rr >= num_vcs || rr >= num_in {
                return Err(SnapError::Invalid("output round-robin index"));
            }
            self.port[pi].out_vc_rr = vc_rr as u8;
            self.port[pi].out_rr = rr as u8;
            let mut free = 0;
            for (ov, vc) in self.out_vcs[pi << self.vc_shift..][..num_vcs]
                .iter_mut()
                .enumerate()
            {
                vc.credits = r.u32()?;
                (vc.holder_port, vc.holder_vc) = match Option::<(u32, u32)>::load(r)? {
                    Some((ip, v)) if ip as usize >= num_in || v as usize >= num_vcs => {
                        return Err(SnapError::Invalid("wormhole holder"));
                    }
                    Some((ip, v)) => (ip as u8, v as u8),
                    None => {
                        free |= 1 << ov;
                        (NONE, 0)
                    }
                };
            }
            self.port[pi].free_vcs = free;
        }
        self.activity[lr] = RouterActivity::load(r)?;
        Ok(())
    }

    /// One allocation cycle of every router: VA + SA, appending each
    /// granted flit's ring [`Arrival`] to `arrivals` and the [`Credit`] it
    /// owes to `credits`, in grant order (caller-owned buffers, so the
    /// steady-state loop never allocates). `route_of` maps a head flit at
    /// local router `lr` to an output port (RC). At most one grant per input
    /// port and per output port of each router (a single-crossbar, separable
    /// allocator with round-robin priorities).
    ///
    /// Sweep 1 lets every busy input port nominate, in ascending (router,
    /// port) order; sweep 2 lets every requested output port grant, in the
    /// same order. A request never leaves its router and a word of the busy
    /// mask covers whole routers, so the two sweeps run word by word, while
    /// those routers' state is still in cache. Routers share no state here,
    /// so this is the order and the outcome of allocating one router at a
    /// time. Returns the first body flit met at the front of a VC without a
    /// route, if any; that VC is skipped.
    pub fn allocate(
        &mut self,
        now: u64,
        route_of: impl Fn(usize, &Flit) -> usize,
        arrivals: &mut Vec<Arrival>,
        credits: &mut Vec<Credit>,
    ) -> Option<Unrouted> {
        // Destructure for split borrows: the nomination sweep walks input
        // VCs while probing output-VC credits and holders.
        let RouterTable {
            ports,
            vcs,
            port_shift,
            vc_shift,
            flits,
            in_vcs,
            out_vcs,
            port,
            eject,
            activity,
            busy,
            ..
        } = self;
        let (num_in, num_vcs, ps, vs) = (*ports, *vcs, *port_shift, *vc_shift);
        let local = (1usize << ps) - 1;
        let vc_mask = u32::MAX >> (32 - num_vcs as u32);
        let mut unrouted = None;
        for (w, word) in busy.iter_mut().enumerate() {
            let first = w * 64;
            // Output ports of this word's routers that received a request.
            let mut requested = 0u64;
            // Sweep 1 — each busy input port nominates one (vc, out_port)
            // request, in round-robin VC order from its pointer.
            let mut bits = *word;
            while bits != 0 {
                let pi = first + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (lr, ip) = (pi >> ps, pi & local);
                let start = port[pi].vc_rr as usize;
                // Walk only the occupied VCs, peeling set bits of the
                // rotated occupancy mask lowest-first.
                let mut rot = rotate(port[pi].occupied, start, num_vcs, vc_mask);
                while rot != 0 {
                    let v = wrap(start + rot.trailing_zeros() as usize, num_vcs);
                    rot &= rot - 1;
                    let q = &mut in_vcs[pi << vs | v];
                    debug_assert!(q.len > 0, "occupied VC {v} of port {pi} has no flit");
                    let flit = &flits[q.at(0)];
                    if flit.ready_at > now {
                        continue;
                    }
                    // RC: resolve the output port of a new packet. Only a
                    // head opens one; a body flit here has lost its head.
                    if q.route == NONE {
                        if !flit.is_head() {
                            unrouted.get_or_insert(Unrouted {
                                slot: flit.slot,
                                router: lr,
                                port: ip,
                            });
                            continue;
                        }
                        q.route = route_of(lr, flit) as u8;
                    }
                    let op = q.route as usize;
                    let opi = lr << ps | op;
                    let ejects = eject[lr] & (1 << op) != 0;
                    // VA: obtain an output VC if the packet does not hold
                    // one. Ejection ports never serialise packets onto a
                    // single VC — the NI reassembles per packet — so they
                    // grant the input's own VC unconditionally. Elsewhere
                    // the first free VC in round-robin order from the
                    // port's pointer wins.
                    if q.out_vc == NONE {
                        let granted = if ejects {
                            v
                        } else {
                            let free = port[opi].free_vcs;
                            if free == 0 {
                                continue; // no free downstream VC; try another input VC
                            }
                            let vstart = port[opi].out_vc_rr as usize;
                            let ov = wrap(
                                vstart
                                    + rotate(free, vstart, num_vcs, vc_mask).trailing_zeros()
                                        as usize,
                                num_vcs,
                            );
                            let out = &mut out_vcs[opi << vs | ov];
                            (out.holder_port, out.holder_vc) = (ip as u8, v as u8);
                            port[opi].free_vcs = free & !(1 << ov);
                            port[opi].out_vc_rr = wrap(ov + 1, num_vcs) as u8;
                            ov
                        };
                        q.out_vc = granted as u8;
                        activity[lr].vc_allocs += 1;
                    }
                    // Credit check (ST needs a downstream buffer slot).
                    // Ejection is not credit flow-controlled: the NI sinks a
                    // flit per cycle, so eject grants neither check nor
                    // spend credits.
                    if !ejects && out_vcs[opi << vs | q.out_vc as usize].credits == 0 {
                        continue;
                    }
                    port[pi].nominated = v as u8;
                    port[opi].requests |= 1 << ip;
                    requested |= 1 << (opi - first);
                    break;
                }
            }
            // Sweep 2 — each requested output port grants one requesting
            // input port: the round-robin winner is the first set bit of
            // the request mask rotated to start at the port's priority
            // pointer. The grant's bookkeeping is applied as selects on its
            // flags (tail, emptied VC, link port) rather than branches.
            let mut live = *word;
            while requested != 0 {
                let opi = first + requested.trailing_zeros() as usize;
                requested &= requested - 1;
                let (lr, op) = (opi >> ps, opi & local);
                let mask = std::mem::take(&mut port[opi].requests);
                let start = port[opi].out_rr as usize;
                // As in `rotate`; only the lowest set bit is read, so bits
                // shifted past `num_in` need no masking.
                let rot = (mask >> start) | mask.wrapping_shl((num_in - start) as u32);
                let ip = wrap(start + rot.trailing_zeros() as usize, num_in);
                let pi = lr << ps | ip;
                let v = port[pi].nominated as usize;
                let q = &mut in_vcs[pi << vs | v];
                let flit = flits[q.at(0)];
                q.head = (q.head + 1) & q.mask;
                q.len -= 1;
                debug_assert!(q.out_vc != NONE, "granted packet holds no output VC");
                let out_vc = q.out_vc;
                let tail = flit.is_tail;
                let link = eject[lr] & (1 << op) == 0;
                // The tail releases the wormhole: ORing in all ones sets the
                // route, output VC and holder to NONE, and the VC's free bit
                // is set.
                let release = u8::from(tail).wrapping_neg();
                q.route |= release;
                q.out_vc |= release;
                let out = &mut out_vcs[opi << vs | out_vc as usize];
                out.holder_port |= release;
                port[opi].free_vcs |= u32::from(tail) << out_vc;
                port[pi].occupied &= !(u32::from(q.len == 0) << v);
                live &= !(u64::from(port[pi].occupied == 0) << (pi - first));
                out.credits -= u32::from(link);
                let a = &mut activity[lr];
                a.link_traversals += u64::from(link);
                a.buffer_reads += 1;
                a.crossbar_traversals += 1;
                port[pi].vc_rr = wrap(v + 1, num_vcs) as u8;
                port[opi].out_rr = wrap(ip + 1, num_in) as u8;
                arrivals.push(Arrival::at(port[opi].dest, out_vc, flit));
                let up = port[pi].credit_to;
                credits.push(Credit {
                    index: up.index,
                    port: up.port,
                    vc: v as u8,
                });
            }
            *word = live;
        }
        unrouted
    }
}

/// Hooks for the simulator's tests to plant states only a corrupt snapshot
/// holds.
#[cfg(test)]
impl RouterTable {
    /// Buffers `flit` in input VC `vc` of router `lr`'s `port`, wired or
    /// not.
    pub(crate) fn plant_flit(&mut self, lr: usize, port: usize, vc: usize, flit: Flit) {
        self.push(self.port_index(lr, port), vc, flit);
    }

    /// Points the route of router `lr`'s first input VC holding flits at
    /// `port`; false if no VC holds any.
    pub(crate) fn plant_route(&mut self, lr: usize, port: usize) -> bool {
        let first = self.port_index(lr, 0) << self.vc_shift;
        let last = self.port_index(lr + 1, 0) << self.vc_shift;
        let Some(q) = self.in_vcs[first..last].iter_mut().find(|q| q.len > 0) else {
            return false;
        };
        q.route = port as u8;
        true
    }

    /// An output port of router `lr` that leads nowhere, if it has one.
    pub(crate) fn unwired_output(&self, lr: usize) -> Option<usize> {
        (0..self.ports).find(|&p| self.port[self.port_index(lr, p)].dest == Hop::UNWIRED)
    }

    /// An input port of router `lr` no link feeds, if it has one.
    pub(crate) fn unwired_input(&self, lr: usize) -> Option<usize> {
        (0..self.ports).find(|&p| !self.is_fed(lr, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::data::NodeId;
    use proptest::prelude::*;

    fn flit(pid: u32, seq: u32, tail: bool, ready: u64) -> Flit {
        Flit {
            slot: pid,
            seq,
            is_tail: tail,
            dest: NodeId(0),
            ready_at: ready,
        }
    }

    /// Wires router `lr` of `t` as the one-router tests expect: fed on
    /// every input port (a restore refuses flits at an input no link
    /// feeds), output 1 a link, output 2 an ejection and output 0 leading
    /// nowhere.
    fn wire(t: &mut RouterTable, lr: usize) {
        t.wire_output(lr, 1, Hop::router(1, 3));
        t.wire_output(lr, 2, Hop::ni(0));
        t.wire_input(lr, 0, Hop::ni(0));
        t.wire_input(lr, 1, Hop::router(1, 3));
        t.wire_input(lr, 2, Hop::router(2, 1));
    }

    /// A one-router table of 3 ports and 2 VCs of 4 flits, wired by
    /// [`wire`].
    fn test_router() -> RouterTable {
        let mut t = RouterTable::new(1, 3, 2, 4);
        wire(&mut t, 0);
        t
    }

    /// One granted flit: the arrival it lands as and the credit it owes.
    type Grant = (Arrival, Credit);

    /// Collects one allocation cycle's grants into a fresh vector.
    fn allocate(t: &mut RouterTable, now: u64, route_of: impl Fn(&Flit) -> usize) -> Vec<Grant> {
        let (mut arrivals, mut credits) = (Vec::new(), Vec::new());
        let unrouted = t.allocate(now, |_, f| route_of(f), &mut arrivals, &mut credits);
        assert!(unrouted.is_none());
        assert_eq!(arrivals.len(), credits.len(), "one credit per grant");
        arrivals.into_iter().zip(credits).collect()
    }

    /// Where an arrival lands.
    fn dest(a: &Arrival) -> Hop {
        Hop {
            index: a.index,
            port: a.port,
        }
    }

    /// Whom a credit goes to.
    fn credit_to(c: &Credit) -> Hop {
        Hop {
            index: c.index,
            port: c.port,
        }
    }

    #[test]
    fn single_flit_traverses_after_pipeline_delay() {
        let mut r = test_router();
        r.accept_flit(0, 0, 0, flit(1, 0, true, 1));
        // Not ready at cycle 0.
        assert!(allocate(&mut r, 0, |_| 1).is_empty());
        let grants = allocate(&mut r, 1, |_| 1);
        assert_eq!(grants.len(), 1);
        let (a, c) = grants[0];
        assert_eq!(a.flit.slot, 1);
        assert_eq!(dest(&a), Hop::router(1, 3));
        assert_eq!((credit_to(&c), c.vc), (Hop::ni(0), 0));
        assert_eq!(r.occupancy(0), 0);
    }

    #[test]
    fn credits_backpressure() {
        let mut r = test_router();
        // Exhaust the 4 credits of out port 1, vc 0 — a 5-flit packet stalls
        // on the fifth flit until credits return.
        for seq in 0..5 {
            r.accept_flit(0, 0, 0, flit(1, seq, seq == 4, 0));
        }
        let mut sent = 0;
        for now in 1..=4 {
            sent += allocate(&mut r, now, |_| 1).len();
        }
        assert_eq!(sent, 4);
        assert!(allocate(&mut r, 5, |_| 1).is_empty(), "no credit left");
        r.return_credit(0, 1, 0, Edge::for_tests());
        assert_eq!(allocate(&mut r, 6, |_| 1).len(), 1);
    }

    #[test]
    fn wormhole_holds_output_vc_until_tail() {
        let mut r = test_router();
        // Packet A (head, not tail) on vc 0 grabs an output VC and keeps it.
        r.accept_flit(0, 0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 0, 1, flit(2, 0, true, 0));
        let g1 = allocate(&mut r, 1, |_| 1);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].0.flit.slot, 1);
        let vc_a = g1[0].0.vc;
        // Packet B must get a *different* output VC.
        let g2 = allocate(&mut r, 2, |_| 1);
        assert_eq!(g2.len(), 1);
        assert_eq!(g2[0].0.flit.slot, 2);
        assert_ne!(g2[0].0.vc, vc_a);
        // A's tail arrives and releases the VC.
        r.accept_flit(0, 0, 0, flit(1, 1, true, 2));
        let g3 = allocate(&mut r, 3, |_| 1);
        assert_eq!(g3.len(), 1);
        assert_eq!(g3[0].0.vc, vc_a);
        // Now both output VCs are free again.
        r.accept_flit(0, 0, 0, flit(3, 0, true, 3));
        let g4 = allocate(&mut r, 4, |_| 1);
        assert_eq!(g4.len(), 1);
    }

    #[test]
    fn output_port_grants_one_flit_per_cycle() {
        let mut r = test_router();
        // Two inputs contending for out port 1.
        r.accept_flit(0, 0, 0, flit(1, 0, true, 0));
        r.accept_flit(0, 1, 0, flit(2, 0, true, 0));
        let g1 = allocate(&mut r, 1, |_| 1);
        assert_eq!(g1.len(), 1);
        let g2 = allocate(&mut r, 2, |_| 1);
        assert_eq!(g2.len(), 1);
        assert_ne!(g1[0].0.flit.slot, g2[0].0.flit.slot, "round-robin rotates");
    }

    #[test]
    fn ejection_needs_no_credits() {
        // Ejection ports have no downstream buffer to run out of — the NI
        // consumes flits as they arrive — so far more flits than any VC
        // buffer must flow out without a single credit ever returning.
        let mut r = test_router();
        for seq in 0..20 {
            r.accept_flit(0, 0, 0, flit(1, seq, seq == 19, seq as u64));
        }
        let mut sent = 0;
        for now in 1..=30 {
            sent += allocate(&mut r, now, |_| 2).len();
        }
        assert_eq!(sent, 20);
        assert_eq!(r.occupancy(0), 0);
        assert_eq!(r.activity(0).crossbar_traversals, 20);
        assert_eq!(r.activity(0).link_traversals, 0, "ejection is not a link");
    }

    #[test]
    fn vc_exhaustion_blocks_new_packets() {
        let mut r = test_router();
        // Two in-progress packets hold both output VCs of port 1.
        r.accept_flit(0, 0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 0, 1, flit(2, 0, false, 0));
        assert_eq!(allocate(&mut r, 1, |_| 1).len(), 1);
        assert_eq!(allocate(&mut r, 2, |_| 1).len(), 1);
        // A third packet from another input port finds no free VC.
        r.accept_flit(0, 1, 0, flit(3, 0, false, 0));
        assert!(allocate(&mut r, 3, |_| 1).is_empty());
        assert_eq!(r.activity(0).vc_allocs, 2);
    }

    #[test]
    fn ejection_bypasses_vc_limits() {
        let mut r = test_router();
        r.accept_flit(0, 0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 0, 1, flit(2, 0, false, 0));
        r.accept_flit(0, 1, 0, flit(3, 0, false, 0));
        let mut got = 0;
        for now in 1..=4 {
            got += allocate(&mut r, now, |_| 2).len();
        }
        assert_eq!(got, 3, "eject port never runs out of VCs or credits");
    }

    /// Drains every buffered flit of the table through the ejection port,
    /// returning `(slot, seq)` in grant order.
    fn eject_all(r: &mut RouterTable, now: &mut u64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        while r.any_busy() {
            *now += 1;
            out.extend(
                allocate(r, *now, |_| 2)
                    .iter()
                    .map(|(a, _)| (a.flit.slot, a.flit.seq)),
            );
        }
        out
    }

    #[test]
    fn over_capacity_accepts_keep_fifo_order_across_ring_growth() {
        // A 2-flit VC: move its ring head off slot 0 first, then overfill
        // it past capacity twice (two doublings), as duplicated credits
        // would.
        let mut r = RouterTable::new(1, 3, 2, 2);
        r.wire_output(0, 2, Hop::ni(0));
        let mut now = 0;
        r.accept_flit(0, 0, 0, flit(1, 0, true, 0));
        assert_eq!(eject_all(&mut r, &mut now), vec![(1, 0)]);
        // Another VC holds flits that must survive the growth untouched.
        r.accept_flit(0, 1, 1, flit(9, 0, false, 0));
        r.accept_flit(0, 1, 1, flit(9, 1, true, 0));
        let mut want = Vec::new();
        for seq in 0..7 {
            r.accept_flit(0, 0, 0, flit(2, seq, seq == 6, 0));
            want.push((2, seq));
        }
        assert_eq!(r.occupancy(0), 9);
        // Six 2-slot rings, then the 4- and 8-slot regions VC (0, 0) moved
        // to as it doubled twice: only the overfilled ring grew.
        assert_eq!(
            r.flits.len(),
            6 * 2 + 4 + 8,
            "only the overfilled ring grew"
        );
        let got = eject_all(&mut r, &mut now);
        let vc0: Vec<_> = got.iter().copied().filter(|&(s, _)| s == 2).collect();
        let vc1: Vec<_> = got.iter().copied().filter(|&(s, _)| s == 9).collect();
        assert_eq!(vc0, want);
        assert_eq!(vc1, vec![(9, 0), (9, 1)]);
        // The grown ring keeps accepting and wrapping in order.
        for round in 0..3u32 {
            for seq in 0..5 {
                r.accept_flit(0, 0, 0, flit(3 + round, seq, seq == 4, 0));
            }
            let got = eject_all(&mut r, &mut now);
            let seqs: Vec<_> = got.iter().map(|&(_, q)| q).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
    }

    /// Serializes router 0 of a table with the identity slot map.
    fn save(r: &RouterTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        r.save_router(0, &mut w, &Ok).expect("save");
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trip_of_an_overfilled_vc_is_byte_identical() {
        let mut r = test_router();
        // Wrap the ring of input VC (0, 0) and overfill it past its four
        // credits; leave the head of input VC (1, 1) holding a route and an
        // output VC.
        r.accept_flit(0, 0, 0, flit(1, 0, true, 0));
        r.accept_flit(0, 0, 0, flit(4, 0, true, 0));
        assert_eq!(allocate(&mut r, 1, |_| 2).len(), 1);
        for seq in 0..7 {
            r.accept_flit(0, 0, 0, flit(2, seq, seq == 6, 0));
        }
        r.accept_flit(0, 1, 1, flit(3, 0, false, 0));
        assert_eq!(allocate(&mut r, 2, |_| 1).len(), 1);
        assert!(r.occupancy(0) > 4, "a VC holds more flits than vc_buffer");
        let blob = save(&r);
        let mut restored = test_router();
        let mut reader = SnapReader::new(&blob);
        restored.clear_buffers();
        restored.load_router(0, &mut reader, &Ok).expect("load");
        assert!(reader.is_exhausted());
        assert_eq!(save(&restored), blob);
        // The restored router grants exactly what the original grants.
        for now in 3..20 {
            let a: Vec<_> = allocate(&mut r, now, |_| 1)
                .iter()
                .map(|(a, _)| a.flit)
                .collect();
            let b: Vec<_> = allocate(&mut restored, now, |_| 1)
                .iter()
                .map(|(a, _)| a.flit)
                .collect();
            assert_eq!(a, b, "cycle {now}");
            for t in [&mut r, &mut restored] {
                t.return_credit(0, 1, 0, Edge::for_tests());
                t.return_credit(0, 1, 1, Edge::for_tests());
            }
        }
        assert_eq!(save(&restored), save(&r));
    }

    #[test]
    fn oversized_snapshot_vc_length_fails_before_allocating() {
        let slots = test_router().flits.len();
        // Input port 0: round-robin pointer 0, then VC 0's flit count.
        let blob = |len: usize| {
            let mut w = SnapWriter::new();
            w.usize(0);
            w.usize(len);
            w.into_bytes()
        };
        let mut r = test_router();
        let over = blob(MAX_SNAPSHOT_VC_LEN + 1);
        let err = r.load_router(0, &mut SnapReader::new(&over), &Ok);
        assert_eq!(err, Err(SnapError::Invalid("vc buffer length")));
        assert_eq!(r.flits.len(), slots, "nothing was allocated");
        // A length at the cap is read flit by flit; a blob that stops short
        // fails as truncated without growing the ring to the claimed size.
        let mut r = test_router();
        let at_cap = blob(MAX_SNAPSHOT_VC_LEN);
        let err = r.load_router(0, &mut SnapReader::new(&at_cap), &Ok);
        assert_eq!(err, Err(SnapError::Truncated));
        assert_eq!(r.flits.len(), slots);
    }

    #[test]
    fn per_hop_records_stay_compact() {
        // Every grant appends an arrival and a credit, and the arrival moves
        // on into a ring slot; these sizes are what that costs per flit.
        assert_eq!(std::mem::size_of::<Hop>(), 8);
        assert_eq!(std::mem::size_of::<Credit>(), 8);
        assert_eq!(std::mem::size_of::<Arrival>(), 32);
    }

    #[test]
    fn activity_counters() {
        let mut r = test_router();
        r.accept_flit(0, 0, 0, flit(1, 0, true, 0));
        allocate(&mut r, 1, |_| 1);
        let a = r.activity(0);
        assert_eq!(a.buffer_writes, 1);
        assert_eq!(a.buffer_reads, 1);
        assert_eq!(a.crossbar_traversals, 1);
        assert_eq!(a.link_traversals, 1);
        let mut b = RouterActivity::default();
        b.merge(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn grants_come_out_router_then_port_ascending() {
        // Routers wired alike, each granting on its link (1) and its
        // ejection port (2) in the same cycle. With a port stride of 4, a
        // busy word covers 16 routers, so routers 16 and 17 sit in the
        // second word. Flits are accepted in descending order, so only the
        // sweeps can put them in order.
        let mut t = RouterTable::new(18, 3, 2, 4);
        for lr in 0..18 {
            wire(&mut t, lr);
        }
        let granting = [0, 1, 16, 17];
        for &lr in granting.iter().rev() {
            let out = |port: u32| lr as u32 * 10 + port;
            t.accept_flit(lr, 2, 0, flit(out(2), 0, true, 0));
            t.accept_flit(lr, 0, 0, flit(out(1), 0, true, 0));
        }
        let grants = allocate(&mut t, 1, |f| (f.slot % 10) as usize);
        let order: Vec<_> = grants.iter().map(|(a, _)| a.flit.slot).collect();
        assert_eq!(order, vec![1, 2, 11, 12, 161, 162, 171, 172]);
        let links: Vec<_> = grants.iter().map(|(a, _)| dest(a).is_ni()).collect();
        assert_eq!(links, [false, true].repeat(4));
        // Each credit goes upstream of the input its flit left, in the same
        // order: the link's flit left port 0, fed by the NI, and the
        // ejected one port 2, fed by router 2's port 1.
        let ups: Vec<_> = grants.iter().map(|(_, c)| credit_to(c)).collect();
        assert_eq!(ups, [Hop::ni(0), Hop::router(2, 1)].repeat(4));
        for lr in 0..18 {
            let want = if granting.contains(&lr) { 2 } else { 0 };
            assert_eq!(t.activity(lr).crossbar_traversals, want);
        }
    }

    #[test]
    fn a_body_flit_without_a_route_is_reported_and_skipped() {
        let mut r = test_router();
        r.accept_flit(0, 1, 1, flit(5, 2, false, 0));
        r.accept_flit(0, 2, 0, flit(6, 0, true, 0));
        let (mut arrivals, mut credits) = (Vec::new(), Vec::new());
        let unrouted = r.allocate(1, |_, _| 2, &mut arrivals, &mut credits);
        let u = unrouted.expect("the body flit is reported");
        assert_eq!((u.slot, u.router, u.port), (5, 0, 1));
        // The other port's head still ejects; the body flit stays put.
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].flit.slot, 6);
        assert_eq!(r.occupancy(0), 1);
    }

    /// One step of [`table_masks_and_counters_track_a_model`].
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Accept a flit at (router, port, vc), stalled for `u8` cycles.
        Accept(usize, usize, usize, u8),
        /// Run one allocation cycle.
        Allocate,
        /// Return a credit to (router, output port, vc), `u8` times: zero
        /// drops it and two duplicate it.
        Credit(usize, usize, usize, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..2, 0usize..3, 0usize..2, 0u8..3)
                .prop_map(|(r, p, v, s)| Op::Accept(r, p, v, s)),
            Just(Op::Allocate),
            (0usize..2, 0usize..3, 0usize..2, 0u8..3)
                .prop_map(|(r, p, v, n)| Op::Credit(r, p, v, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under random accepts (some stalled), allocations and credit
        /// returns (some dropped, some duplicated), the busy-port mask is
        /// always "some VC of this port holds a flit", and each router's
        /// counters equal the ones this test keeps from the accepts and
        /// grants.
        #[test]
        fn table_masks_and_counters_track_a_model(ops in prop::collection::vec(op(), 1..200)) {
            let mut t = RouterTable::new(2, 3, 2, 2);
            for lr in 0..2 {
                wire(&mut t, lr);
            }
            let mut want = [RouterActivity::default(); 2];
            // Per (router, input port, vc): the next sequence number of a
            // three-flit packet, so every flit follows its packet's head.
            let mut seq = [[[0u32; 2]; 3]; 2];
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::Accept(lr, port, vc, stall) => {
                        let s = &mut seq[lr][port][vc];
                        let tail = *s == 2;
                        let ready = now + 1 + u64::from(stall);
                        t.accept_flit(lr, port, vc, flit(lr as u32, *s, tail, ready));
                        *s = if tail { 0 } else { *s + 1 };
                        want[lr].buffer_writes += 1;
                    }
                    Op::Allocate => {
                        now += 1;
                        let (mut arrivals, mut credits) = (Vec::new(), Vec::new());
                        // Router 0 routes to its link (1), router 1 ejects (2).
                        let unrouted = t.allocate(now, |lr, _| 1 + lr, &mut arrivals, &mut credits);
                        prop_assert!(unrouted.is_none());
                        prop_assert_eq!(arrivals.len(), credits.len());
                        for a in &arrivals {
                            let lr = a.flit.slot as usize;
                            let link = u64::from(lr == 0);
                            want[lr].buffer_reads += 1;
                            want[lr].crossbar_traversals += 1;
                            want[lr].link_traversals += link;
                            // A head takes its output VC once, at its first
                            // VA; a granted head has done so.
                            want[lr].vc_allocs += u64::from(a.flit.is_head());
                        }
                    }
                    Op::Credit(lr, port, vc, copies) => {
                        for _ in 0..copies {
                            t.return_credit(lr, port, vc, Edge::for_tests());
                        }
                    }
                }
                for lr in 0..2 {
                    for port in 0..3 {
                        let pi = t.port_index(lr, port);
                        let busy = (t.busy[pi / 64] >> (pi % 64)) & 1 == 1;
                        let holds = t.in_vcs[t.vcs_of(lr, port)].iter().any(|q| q.len > 0);
                        prop_assert_eq!(busy, holds, "router {} port {}", lr, port);
                    }
                    prop_assert_eq!(t.is_busy(lr), t.occupancy(lr) > 0);
                }
            }
            for (lr, want) in want.iter().enumerate() {
                // Heads still waiting at the front of a VC may already hold
                // their output VC.
                let waiting = (0..3)
                    .flat_map(|port| t.in_vcs[t.vcs_of(lr, port)].iter())
                    .filter(|q| q.len > 0 && t.flits[q.at(0)].is_head() && q.out_vc != NONE)
                    .count() as u64;
                let want = RouterActivity {
                    vc_allocs: want.vc_allocs + waiting,
                    ..*want
                };
                prop_assert_eq!(t.activity(lr), want, "router {}", lr);
            }
        }
    }
}
