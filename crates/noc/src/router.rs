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
//! Layout (DESIGN.md §7): a router is a handful of flat arrays. Input and
//! output VC state sit in one array each, indexed `port * vcs + vc`, and
//! each port's allocator state in one small record, with `u8` route, VC and
//! round-robin indices and a bitmask of free output VCs. Every input VC
//! buffer is a power-of-two ring inside one shared flit array. Credit-
//! duplication faults can push a VC past its credited depth; the ring then
//! doubles (a cold path) rather than dropping or overwriting a flit. Each
//! port's link is resolved to a [`Hop`] when the network is wired, so a
//! grant carries its destination and its credit target ready to apply.

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
/// port's flits land, or whom an input port credits for a freed slot. A
/// router end names its owning shard and its index within that shard, so
/// the cycle edge indexes straight into the shard without a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Shard-local router index, or the node id when `port` is [`Hop::NI`].
    pub index: u32,
    /// Index of the shard owning the router or NI.
    pub shard: u16,
    /// Port at the router, or [`Hop::NI`] for a node's NI.
    pub port: u8,
}

impl Hop {
    /// The `port` value naming a node's NI: its ejection path on an output,
    /// its injection credits on an input.
    pub const NI: u8 = u8::MAX;

    /// What an unwired port holds. No route or link reaches one.
    const UNWIRED: Hop = Hop::ni(0, u32::MAX);

    /// Port `port` of router `index` of shard `shard`.
    pub const fn router(shard: u16, index: u32, port: u8) -> Hop {
        Hop { index, shard, port }
    }

    /// The NI of node `node`, owned by shard `shard`.
    pub const fn ni(shard: u16, node: u32) -> Hop {
        Hop {
            index: node,
            shard,
            port: Hop::NI,
        }
    }

    /// Whether this end is an NI rather than a router port.
    #[inline(always)]
    pub fn is_ni(self) -> bool {
        self.port == Hop::NI
    }
}

/// One input VC: a FIFO ring in the router's flit array, plus the route
/// and output VC held by the packet at its front.
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
    /// Flit-array index of the `k`-th buffered flit.
    #[inline(always)]
    fn at(&self, k: u32) -> usize {
        (self.base + ((self.head + k) & self.mask)) as usize
    }
}

/// One port's allocator state. Input port `i` and output port `i` share a
/// record, so a router's per-port state fits in a cache line or two.
#[derive(Debug, Clone, Copy, Default)]
struct Port {
    /// Output side, [`Router::allocate`] scratch: bitmask of the input
    /// ports requesting this output, so the grant phase costs one rotate +
    /// trailing-zeros. Zero between calls.
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
    /// Input side, [`Router::allocate`] scratch: the VC nominated this
    /// call. Read only where this port's bit is set in some `requests`.
    nominated: u8,
    /// Output side: the output-VC round-robin pointer.
    out_vc_rr: u8,
    /// Output side: the input-port round-robin pointer.
    out_rr: u8,
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

/// A switch traversal granted this cycle, to be applied by the network.
#[derive(Debug, Clone, Copy)]
pub struct Traversal {
    /// The moving flit.
    pub flit: Flit,
    /// Where it goes.
    pub dest: Hop,
    /// Who to credit for the freed buffer slot.
    pub credit_to: Hop,
    /// Downstream VC it occupies.
    pub out_vc: u8,
    /// The input VC whose slot it freed, credited at `credit_to`.
    pub in_vc: u8,
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

/// One mesh router.
#[derive(Debug, Clone)]
pub struct Router {
    id: usize,
    /// Port count; input and output ports pair up by index.
    ports: usize,
    /// VCs per port.
    vcs: usize,
    /// The ring capacity every VC starts with: `vc_buffer` rounded up to a
    /// power of two.
    base_cap: u32,
    /// Every input VC's ring, back to back in `in_vcs` order.
    flits: Vec<Flit>,
    /// Input VCs, indexed `port * vcs + vc`.
    in_vcs: Vec<InVc>,
    /// Per-port allocator state.
    port: Vec<Port>,
    /// Bitmask of input ports with a non-zero `occupied` mask.
    busy_ports: u64,
    /// Per input port: who to credit for a freed slot.
    credit_to: Vec<Hop>,
    /// Per output port: where its link lands.
    dest: Vec<Hop>,
    /// Bitmask of ejecting output ports. An unwired port keeps the
    /// ejection default, as its `dest` does.
    eject: u64,
    /// Output VCs, indexed `port * vcs + vc`.
    out_vcs: Vec<OutVc>,
    /// Flits currently held across all input VC buffers. Maintained so the
    /// network can skip allocation for idle routers in O(1).
    buffered: usize,
    activity: RouterActivity,
}

impl Router {
    /// Builds a router with `ports` ports, `vcs` VCs of `vc_buffer` flits.
    /// Links and credit targets are wired afterwards by the network.
    pub fn new(id: usize, ports: usize, vcs: usize, vc_buffer: usize) -> Self {
        assert!(ports <= 64, "request bitmasks hold at most 64 input ports");
        assert!(vcs <= 32, "occupancy bitmasks hold at most 32 VCs");
        let base_cap = vc_buffer.max(1).next_power_of_two() as u32;
        let all_free = Port {
            free_vcs: u32::MAX >> (32 - vcs as u32),
            ..Port::default()
        };
        let mut r = Router {
            id,
            ports,
            vcs,
            base_cap,
            flits: Vec::new(),
            in_vcs: vec![
                InVc {
                    base: 0,
                    mask: 0,
                    head: 0,
                    len: 0,
                    route: NONE,
                    out_vc: NONE,
                };
                ports * vcs
            ],
            port: vec![all_free; ports],
            busy_ports: 0,
            credit_to: vec![Hop::UNWIRED; ports],
            dest: vec![Hop::UNWIRED; ports],
            eject: u64::MAX,
            out_vcs: vec![
                OutVc {
                    credits: vc_buffer as u32,
                    holder_port: NONE,
                    holder_vc: 0,
                };
                ports * vcs
            ],
            buffered: 0,
            activity: RouterActivity::default(),
        };
        r.clear_buffers();
        r
    }

    /// Router id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Wires output port `port` to `dest`. Ejection ports (an NI `dest`) are
    /// not credit flow-controlled at all (the NI sinks one flit per cycle
    /// regardless): [`Router::allocate`] skips the credit check and
    /// decrement for them, so no finite counter can drain over a long-lived
    /// simulation.
    pub fn wire_output(&mut self, port: usize, dest: Hop) {
        self.dest[port] = dest;
        if dest.is_ni() {
            self.eject |= 1 << port;
        } else {
            self.eject &= !(1 << port);
        }
    }

    /// Declares who feeds input port `port`: the router output or NI that a
    /// slot freed at this port credits.
    pub fn wire_input(&mut self, port: usize, upstream: Hop) {
        self.credit_to[port] = upstream;
    }

    /// Whether a link or an NI feeds input port `port`.
    pub(crate) fn is_fed(&self, port: usize) -> bool {
        self.credit_to[port] != Hop::UNWIRED
    }

    /// Accepts a flit into an input VC buffer (BW stage). A VC that already
    /// holds as many flits as its ring has slots — possible only after a
    /// duplicated credit — grows its ring instead of refusing the flit.
    pub fn accept_flit(&mut self, port: usize, vc: usize, flit: Flit) {
        self.activity.buffer_writes += 1;
        self.push(port, vc, flit);
    }

    /// Appends `flit` to input VC (`port`, `vc`), growing its ring if full.
    #[inline]
    fn push(&mut self, port: usize, vc: usize, flit: Flit) {
        let idx = port * self.vcs + vc;
        if self.in_vcs[idx].len > self.in_vcs[idx].mask {
            self.grow_ring(idx);
        }
        let q = &mut self.in_vcs[idx];
        self.flits[q.at(q.len)] = flit;
        q.len += 1;
        self.buffered += 1;
        self.port[port].occupied |= 1 << vc;
        self.busy_ports |= 1 << port;
    }

    /// Doubles input VC `idx`'s ring. The flit array is rebuilt with every
    /// ring unrolled to offset 0, so no slot is ever abandoned. Indices stay
    /// within `u32`: a ring grows only when its VC holds more flits than it
    /// has slots, so it is at most twice the most flits that VC ever held.
    #[cold]
    #[inline(never)]
    fn grow_ring(&mut self, idx: usize) {
        let grown = self.flits.len() + self.in_vcs[idx].mask as usize + 1;
        let mut flits = Vec::with_capacity(grown);
        for (i, q) in self.in_vcs.iter_mut().enumerate() {
            let cap = (q.mask + 1) << u32::from(i == idx);
            let base = flits.len();
            flits.extend((0..q.len).map(|k| self.flits[q.at(k)]));
            flits.resize(base + cap as usize, NO_FLIT);
            *q = InVc {
                base: base as u32,
                mask: cap - 1,
                head: 0,
                ..*q
            };
        }
        self.flits = flits;
    }

    /// Empties every input VC and shrinks its ring back to the base
    /// capacity. Routes and output VCs are left as they are.
    fn clear_buffers(&mut self) {
        let cap = self.base_cap;
        self.flits = vec![NO_FLIT; self.in_vcs.len() * cap as usize];
        for (i, q) in self.in_vcs.iter_mut().enumerate() {
            q.base = i as u32 * cap;
            q.mask = cap - 1;
            q.head = 0;
            q.len = 0;
        }
        self.port.iter_mut().for_each(|p| p.occupied = 0);
        self.busy_ports = 0;
        self.buffered = 0;
    }

    /// Whether every input VC buffer is empty — an idle router's allocation
    /// cycle is a guaranteed no-op, so the network skips it entirely.
    pub fn is_idle(&self) -> bool {
        self.buffered == 0
    }

    /// Returns one credit for output port `port`, VC `vc`. Only the serial
    /// cycle edge may, hence the [`Edge`].
    pub(crate) fn return_credit(&mut self, port: usize, vc: usize, _edge: Edge) {
        if self.eject & (1 << port) == 0 {
            self.out_vcs[port * self.vcs + vc].credits += 1;
        }
    }

    /// Buffered flit count across all input VCs (for drain detection).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.in_vcs.iter().map(|q| q.len as usize).sum::<usize>(),
            "buffered counter out of sync with the VC buffers"
        );
        self.buffered
    }

    /// Accumulated event counters.
    pub fn activity(&self) -> RouterActivity {
        self.activity
    }

    /// Flow-control snapshot for deadlock diagnostics: per output port, each
    /// VC's `(remaining credits, wormhole holder)` where the holder is the
    /// `(input port, input VC)` currently owning the VC.
    pub fn flow_snapshot(&self) -> crate::faults::PortFlows {
        self.out_vcs
            .chunks(self.vcs)
            .map(|port| {
                port.iter()
                    .map(|v| (v.credits, v.holder().map(|(p, c)| (p.into(), c.into()))))
                    .collect()
            })
            .collect()
    }

    /// Serializes the router's mutable state for a snapshot: per input VC the
    /// buffered flits in FIFO order (each passed through `remap`, which
    /// translates its slot to a canonical packet index) and held route/VC,
    /// per output VC the credits and wormhole holder, the round-robin
    /// pointers and the activity counters.
    /// Wiring (`dest`/`credit_to`) is configuration, not state, and is
    /// skipped; ring placement, the occupancy and free-VC masks and the
    /// `buffered` count are derived and rebuilt on load.
    pub(crate) fn save_state(
        &self,
        w: &mut SnapWriter,
        remap: &impl Fn(Flit) -> Result<Flit, SnapError>,
    ) -> Result<(), SnapError> {
        let opt = |x: u8| (x != NONE).then_some(usize::from(x));
        for (port, vcs) in self.in_vcs.chunks(self.vcs).enumerate() {
            w.usize(self.port[port].vc_rr.into());
            for q in vcs {
                w.usize(q.len as usize);
                for k in 0..q.len {
                    remap(self.flits[q.at(k)])?.save(w);
                }
                opt(q.route).save(w);
                opt(q.out_vc).save(w);
            }
        }
        for (port, vcs) in self.out_vcs.chunks(self.vcs).enumerate() {
            w.usize(self.port[port].out_vc_rr.into());
            w.usize(self.port[port].out_rr.into());
            for vc in vcs {
                w.u32(vc.credits);
                vc.holder()
                    .map(|(ip, v)| (u32::from(ip), u32::from(v)))
                    .save(w);
            }
        }
        self.activity.save(w);
        Ok(())
    }

    /// Restores state written by [`Router::save_state`] into a router built
    /// with the same geometry, passing each flit read through `remap`, which
    /// translates its canonical packet index back to a slot. Every index that
    /// later feeds the allocator's rotate arithmetic is range-checked here so a
    /// corrupt blob fails as a typed error, never as a shift overflow
    /// mid-campaign. A VC length is checked before any flit is read, and rings
    /// grow only as flits are actually read, so a corrupt length cannot trigger
    /// a huge allocation. The free-VC masks are rebuilt from the restored
    /// holders.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        remap: &impl Fn(Flit) -> Result<Flit, SnapError>,
    ) -> Result<(), SnapError> {
        let (num_in, num_vcs) = (self.ports, self.vcs);
        // An allocated index below `limit`, narrowed to its `u8` slot.
        let below = |r: &mut SnapReader<'_>, limit: usize, what| match Option::<usize>::load(r)? {
            Some(x) if x >= limit => Err(SnapError::Invalid(what)),
            x => Ok(x.map_or(NONE, |x| x as u8)),
        };
        self.clear_buffers();
        for port in 0..num_in {
            let rr = r.usize()?;
            if rr >= num_vcs {
                return Err(SnapError::Invalid("input round-robin index"));
            }
            self.port[port].vc_rr = rr as u8;
            for v in 0..num_vcs {
                let n = r.usize()?;
                if n > MAX_SNAPSHOT_VC_LEN {
                    return Err(SnapError::Invalid("vc buffer length"));
                }
                // Nothing but a link or an NI fills an input port.
                if n > 0 && !self.is_fed(port) {
                    return Err(SnapError::Invalid("flits at an unwired input port"));
                }
                for _ in 0..n {
                    let flit = remap(Flit::load(r)?)?;
                    self.push(port, v, flit);
                }
                let route = below(r, num_in, "allocated output port")?;
                if route != NONE && self.dest[usize::from(route)] == Hop::UNWIRED {
                    return Err(SnapError::Invalid("route to an unwired output port"));
                }
                let out_vc = below(r, num_vcs, "allocated output vc")?;
                let q = &mut self.in_vcs[port * num_vcs + v];
                (q.route, q.out_vc) = (route, out_vc);
            }
        }
        for port in 0..num_in {
            let vc_rr = r.usize()?;
            let rr = r.usize()?;
            if vc_rr >= num_vcs || rr >= num_in {
                return Err(SnapError::Invalid("output round-robin index"));
            }
            self.port[port].out_vc_rr = vc_rr as u8;
            self.port[port].out_rr = rr as u8;
            let mut free = 0;
            for (ov, vc) in self.out_vcs[port * num_vcs..(port + 1) * num_vcs]
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
            self.port[port].free_vcs = free;
        }
        self.activity = RouterActivity::load(r)?;
        Ok(())
    }

    /// One allocation cycle: VA + SA over all ports, appending the granted
    /// switch traversals to `grants` (a caller-owned scratch buffer, so the
    /// steady-state loop never allocates). `route_of` maps a head flit's
    /// destination to an output port (RC). At most one grant per input port
    /// and per output port (a single-crossbar, separable allocator with
    /// round-robin priorities).
    pub fn allocate(
        &mut self,
        now: u64,
        route_of: impl Fn(&Flit) -> usize,
        grants: &mut Vec<Traversal>,
    ) {
        if self.buffered == 0 {
            return;
        }
        // Destructure for split borrows: the nomination loop walks input
        // VCs while probing output-VC credits and holders.
        let Router {
            ports,
            vcs,
            flits,
            in_vcs,
            port,
            busy_ports,
            credit_to,
            dest,
            eject,
            out_vcs,
            buffered,
            activity,
            ..
        } = self;
        let (num_in, num_vcs, eject) = (*ports, *vcs, *eject);
        let vc_mask = u32::MAX >> (32 - num_vcs as u32);
        // Phase 1 — each busy input port, in ascending order, nominates one
        // (vc, out_port) request. `requested` collects the output ports
        // that received one.
        let mut requested = 0u64;
        let mut busy = *busy_ports;
        while busy != 0 {
            let ip = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            let start = port[ip].vc_rr as usize;
            // Walk only the occupied VCs, in round-robin order from `start`,
            // peeling set bits of the rotated occupancy mask lowest-first.
            let mut rot = rotate(port[ip].occupied, start, num_vcs, vc_mask);
            while rot != 0 {
                let v = wrap(start + rot.trailing_zeros() as usize, num_vcs);
                rot &= rot - 1;
                let q = &mut in_vcs[ip * num_vcs + v];
                debug_assert!(q.len > 0, "occupied VC {v} of port {ip} has no flit");
                let flit = &flits[q.at(0)];
                if flit.ready_at > now {
                    continue;
                }
                // RC: resolve output port for a new packet.
                if q.route == NONE {
                    debug_assert!(flit.is_head(), "body flit without an allocated route");
                    q.route = route_of(flit) as u8;
                }
                let op = q.route as usize;
                let ejects = eject & (1 << op) != 0;
                // VA: obtain an output VC if the packet does not hold one.
                // Ejection ports never serialise packets onto a single VC —
                // the NI reassembles per packet — so they grant the input's
                // own VC unconditionally. Elsewhere the first free VC in
                // round-robin order from the port's pointer wins.
                if q.out_vc == NONE {
                    let granted = if ejects {
                        v
                    } else {
                        let free = port[op].free_vcs;
                        if free == 0 {
                            continue; // no free downstream VC; try another input VC
                        }
                        let vstart = port[op].out_vc_rr as usize;
                        let ov = wrap(
                            vstart
                                + rotate(free, vstart, num_vcs, vc_mask).trailing_zeros() as usize,
                            num_vcs,
                        );
                        let out = &mut out_vcs[op * num_vcs + ov];
                        (out.holder_port, out.holder_vc) = (ip as u8, v as u8);
                        port[op].free_vcs = free & !(1 << ov);
                        port[op].out_vc_rr = wrap(ov + 1, num_vcs) as u8;
                        ov
                    };
                    q.out_vc = granted as u8;
                    activity.vc_allocs += 1;
                }
                // Credit check (ST needs a downstream buffer slot). Ejection
                // is not credit flow-controlled: the NI sinks a flit per
                // cycle, so eject grants neither check nor spend credits.
                if !ejects && out_vcs[op * num_vcs + q.out_vc as usize].credits == 0 {
                    continue;
                }
                port[ip].nominated = v as u8;
                port[op].requests |= 1 << ip;
                requested |= 1 << op;
                break;
            }
        }
        // Phase 2 — each requested output port, in ascending order, grants
        // one requesting input port: the round-robin winner is the first
        // set bit of the request mask rotated to start at the port's
        // priority pointer. The grant's bookkeeping is applied as selects
        // on its flags (tail, emptied VC, link port) rather than branches.
        while requested != 0 {
            let op = requested.trailing_zeros() as usize;
            requested &= requested - 1;
            let mask = std::mem::take(&mut port[op].requests);
            let start = port[op].out_rr as usize;
            // As in `rotate`; only the lowest set bit is read, so bits
            // shifted past `num_in` need no masking.
            let rot = (mask >> start) | mask.wrapping_shl((num_in - start) as u32);
            let ip = wrap(start + rot.trailing_zeros() as usize, num_in);
            let v = port[ip].nominated as usize;
            let q = &mut in_vcs[ip * num_vcs + v];
            let flit = flits[q.at(0)];
            q.head = (q.head + 1) & q.mask;
            q.len -= 1;
            *buffered -= 1;
            debug_assert!(q.out_vc != NONE, "granted packet holds no output VC");
            let out_vc = q.out_vc;
            let tail = flit.is_tail;
            let link = eject & (1 << op) == 0;
            // The tail releases the wormhole: ORing in all ones sets the
            // route, output VC and holder to NONE, and the VC's free bit is
            // set.
            let release = u8::from(tail).wrapping_neg();
            q.route |= release;
            q.out_vc |= release;
            let out = &mut out_vcs[op * num_vcs + out_vc as usize];
            out.holder_port |= release;
            port[op].free_vcs |= u32::from(tail) << out_vc;
            port[ip].occupied &= !(u32::from(q.len == 0) << v);
            *busy_ports &= !(u64::from(port[ip].occupied == 0) << ip);
            out.credits -= u32::from(link);
            activity.link_traversals += u64::from(link);
            activity.buffer_reads += 1;
            activity.crossbar_traversals += 1;
            port[ip].vc_rr = wrap(v + 1, num_vcs) as u8;
            port[op].out_rr = wrap(ip + 1, num_in) as u8;
            grants.push(Traversal {
                flit,
                dest: dest[op],
                credit_to: credit_to[ip],
                out_vc,
                in_vc: v as u8,
            });
        }
    }
}

/// Hooks for the simulator's tests to plant states only a corrupt snapshot
/// holds.
#[cfg(test)]
impl Router {
    /// Buffers `flit` in input VC `vc` of `port`, wired or not.
    pub(crate) fn plant_flit(&mut self, port: usize, vc: usize, flit: Flit) {
        self.push(port, vc, flit);
    }

    /// Points the route of the first input VC holding flits at `port`;
    /// false if no VC holds any.
    pub(crate) fn plant_route(&mut self, port: usize) -> bool {
        let Some(q) = self.in_vcs.iter_mut().find(|q| q.len > 0) else {
            return false;
        };
        q.route = port as u8;
        true
    }

    /// An output port that leads nowhere, if the router has one.
    pub(crate) fn unwired_output(&self) -> Option<usize> {
        self.dest.iter().position(|&d| d == Hop::UNWIRED)
    }

    /// An input port no link feeds, if the router has one.
    pub(crate) fn unwired_input(&self) -> Option<usize> {
        (0..self.ports).find(|&p| !self.is_fed(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::data::NodeId;

    fn flit(pid: u32, seq: u32, tail: bool, ready: u64) -> Flit {
        Flit {
            slot: pid,
            seq,
            is_tail: tail,
            dest: NodeId(0),
            ready_at: ready,
        }
    }

    /// A router fed on every input port (a restore refuses flits at an
    /// input no link feeds), with output 0 leading nowhere.
    fn test_router() -> Router {
        let mut r = Router::new(0, 3, 2, 4);
        r.wire_output(1, Hop::router(0, 1, 3));
        r.wire_output(2, Hop::ni(0, 0));
        r.wire_input(0, Hop::ni(0, 0));
        r.wire_input(1, Hop::router(0, 1, 3));
        r.wire_input(2, Hop::router(0, 2, 1));
        r
    }

    /// Collects one allocation cycle's grants into a fresh vector.
    fn allocate(r: &mut Router, now: u64, route_of: impl Fn(&Flit) -> usize) -> Vec<Traversal> {
        let mut grants = Vec::new();
        r.allocate(now, route_of, &mut grants);
        grants
    }

    #[test]
    fn single_flit_traverses_after_pipeline_delay() {
        let mut r = test_router();
        r.accept_flit(0, 0, flit(1, 0, true, 1));
        // Not ready at cycle 0.
        assert!(allocate(&mut r, 0, |_| 1).is_empty());
        let grants = allocate(&mut r, 1, |_| 1);
        assert_eq!(grants.len(), 1);
        let t = grants[0];
        assert_eq!(t.flit.slot, 1);
        assert_eq!(t.dest, Hop::router(0, 1, 3));
        assert_eq!((t.credit_to, t.in_vc), (Hop::ni(0, 0), 0));
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn credits_backpressure() {
        let mut r = test_router();
        // Exhaust the 4 credits of out port 1, vc 0 — a 5-flit packet stalls
        // on the fifth flit until credits return.
        for seq in 0..5 {
            r.accept_flit(0, 0, flit(1, seq, seq == 4, 0));
        }
        let mut sent = 0;
        for now in 1..=4 {
            sent += allocate(&mut r, now, |_| 1).len();
        }
        assert_eq!(sent, 4);
        assert!(allocate(&mut r, 5, |_| 1).is_empty(), "no credit left");
        r.return_credit(1, 0, Edge::for_tests());
        assert_eq!(allocate(&mut r, 6, |_| 1).len(), 1);
    }

    #[test]
    fn wormhole_holds_output_vc_until_tail() {
        let mut r = test_router();
        // Packet A (head, not tail) on vc 0 grabs an output VC and keeps it.
        r.accept_flit(0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 1, flit(2, 0, true, 0));
        let g1 = allocate(&mut r, 1, |_| 1);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].flit.slot, 1);
        let vc_a = g1[0].out_vc;
        // Packet B must get a *different* output VC.
        let g2 = allocate(&mut r, 2, |_| 1);
        assert_eq!(g2.len(), 1);
        assert_eq!(g2[0].flit.slot, 2);
        assert_ne!(g2[0].out_vc, vc_a);
        // A's tail arrives and releases the VC.
        r.accept_flit(0, 0, flit(1, 1, true, 2));
        let g3 = allocate(&mut r, 3, |_| 1);
        assert_eq!(g3.len(), 1);
        assert_eq!(g3[0].out_vc, vc_a);
        // Now both output VCs are free again.
        r.accept_flit(0, 0, flit(3, 0, true, 3));
        let g4 = allocate(&mut r, 4, |_| 1);
        assert_eq!(g4.len(), 1);
    }

    #[test]
    fn output_port_grants_one_flit_per_cycle() {
        let mut r = test_router();
        // Two inputs contending for out port 1.
        r.accept_flit(0, 0, flit(1, 0, true, 0));
        r.accept_flit(1, 0, flit(2, 0, true, 0));
        let g1 = allocate(&mut r, 1, |_| 1);
        assert_eq!(g1.len(), 1);
        let g2 = allocate(&mut r, 2, |_| 1);
        assert_eq!(g2.len(), 1);
        assert_ne!(g1[0].flit.slot, g2[0].flit.slot, "round-robin rotates");
    }

    #[test]
    fn ejection_needs_no_credits() {
        // Ejection ports have no downstream buffer to run out of — the NI
        // consumes flits as they arrive — so far more flits than any VC
        // buffer must flow out without a single credit ever returning.
        let mut r = test_router();
        for seq in 0..20 {
            r.accept_flit(0, 0, flit(1, seq, seq == 19, seq as u64));
        }
        let mut sent = 0;
        for now in 1..=30 {
            sent += allocate(&mut r, now, |_| 2).len();
        }
        assert_eq!(sent, 20);
        assert_eq!(r.occupancy(), 0);
        assert_eq!(r.activity().crossbar_traversals, 20);
        assert_eq!(r.activity().link_traversals, 0, "ejection is not a link");
    }

    #[test]
    fn vc_exhaustion_blocks_new_packets() {
        let mut r = test_router();
        // Two in-progress packets hold both output VCs of port 1.
        r.accept_flit(0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 1, flit(2, 0, false, 0));
        assert_eq!(allocate(&mut r, 1, |_| 1).len(), 1);
        assert_eq!(allocate(&mut r, 2, |_| 1).len(), 1);
        // A third packet from another input port finds no free VC.
        r.accept_flit(1, 0, flit(3, 0, false, 0));
        assert!(allocate(&mut r, 3, |_| 1).is_empty());
        assert_eq!(r.activity().vc_allocs, 2);
    }

    #[test]
    fn ejection_bypasses_vc_limits() {
        let mut r = test_router();
        r.accept_flit(0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 1, flit(2, 0, false, 0));
        r.accept_flit(1, 0, flit(3, 0, false, 0));
        let mut got = 0;
        for now in 1..=4 {
            got += allocate(&mut r, now, |_| 2).len();
        }
        assert_eq!(got, 3, "eject port never runs out of VCs or credits");
    }

    /// Drains every buffered flit of input VC (`port`, `vc`) through the
    /// ejection port, returning `(slot, seq)` in grant order.
    fn eject_all(r: &mut Router, now: &mut u64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        while !r.is_idle() {
            *now += 1;
            out.extend(
                allocate(r, *now, |_| 2)
                    .iter()
                    .map(|t| (t.flit.slot, t.flit.seq)),
            );
        }
        out
    }

    #[test]
    fn over_capacity_accepts_keep_fifo_order_across_ring_growth() {
        // A 2-flit VC: move its ring head off slot 0 first, then overfill
        // it past capacity twice (two doublings), as duplicated credits
        // would.
        let mut r = Router::new(0, 3, 2, 2);
        r.wire_output(2, Hop::ni(0, 0));
        let mut now = 0;
        r.accept_flit(0, 0, flit(1, 0, true, 0));
        assert_eq!(eject_all(&mut r, &mut now), vec![(1, 0)]);
        // Another VC holds flits that must survive the rebuild untouched.
        r.accept_flit(1, 1, flit(9, 0, false, 0));
        r.accept_flit(1, 1, flit(9, 1, true, 0));
        let mut want = Vec::new();
        for seq in 0..7 {
            r.accept_flit(0, 0, flit(2, seq, seq == 6, 0));
            want.push((2, seq));
        }
        assert_eq!(r.occupancy(), 9);
        // Six 2-slot rings, of which VC (0, 0) doubled twice, to 8 slots.
        assert_eq!(r.flits.len(), 5 * 2 + 8, "only the overfilled ring grew");
        let got = eject_all(&mut r, &mut now);
        let vc0: Vec<_> = got.iter().copied().filter(|&(s, _)| s == 2).collect();
        let vc1: Vec<_> = got.iter().copied().filter(|&(s, _)| s == 9).collect();
        assert_eq!(vc0, want);
        assert_eq!(vc1, vec![(9, 0), (9, 1)]);
        // The grown ring keeps accepting and wrapping in order.
        for round in 0..3u32 {
            for seq in 0..5 {
                r.accept_flit(0, 0, flit(3 + round, seq, seq == 4, 0));
            }
            let got = eject_all(&mut r, &mut now);
            let seqs: Vec<_> = got.iter().map(|&(_, q)| q).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
    }

    /// Serializes a router with the identity slot map.
    fn save(r: &Router) -> Vec<u8> {
        let mut w = SnapWriter::new();
        r.save_state(&mut w, &Ok).expect("save");
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trip_of_an_overfilled_vc_is_byte_identical() {
        let mut r = test_router();
        // Wrap the ring of input VC (0, 0) and overfill it past its four
        // credits; leave the head of input VC (1, 1) holding a route and an
        // output VC.
        r.accept_flit(0, 0, flit(1, 0, true, 0));
        r.accept_flit(0, 0, flit(4, 0, true, 0));
        assert_eq!(allocate(&mut r, 1, |_| 2).len(), 1);
        for seq in 0..7 {
            r.accept_flit(0, 0, flit(2, seq, seq == 6, 0));
        }
        r.accept_flit(1, 1, flit(3, 0, false, 0));
        assert_eq!(allocate(&mut r, 2, |_| 1).len(), 1);
        assert!(r.occupancy() > 4, "a VC holds more flits than vc_buffer");
        let blob = save(&r);
        let mut restored = test_router();
        let mut reader = SnapReader::new(&blob);
        restored.load_state(&mut reader, &Ok).expect("load");
        assert!(reader.is_exhausted());
        assert_eq!(save(&restored), blob);
        // The restored router grants exactly what the original grants.
        for now in 3..20 {
            let a: Vec<_> = allocate(&mut r, now, |_| 1)
                .iter()
                .map(|t| t.flit)
                .collect();
            let b: Vec<_> = allocate(&mut restored, now, |_| 1)
                .iter()
                .map(|t| t.flit)
                .collect();
            assert_eq!(a, b, "cycle {now}");
            r.return_credit(1, 0, Edge::for_tests());
            r.return_credit(1, 1, Edge::for_tests());
            restored.return_credit(1, 0, Edge::for_tests());
            restored.return_credit(1, 1, Edge::for_tests());
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
        let err = r.load_state(&mut SnapReader::new(&over), &Ok);
        assert_eq!(err, Err(SnapError::Invalid("vc buffer length")));
        assert_eq!(r.flits.len(), slots, "nothing was allocated");
        // A length at the cap is read flit by flit; a blob that stops short
        // fails as truncated without growing the ring to the claimed size.
        let mut r = test_router();
        let at_cap = blob(MAX_SNAPSHOT_VC_LEN);
        let err = r.load_state(&mut SnapReader::new(&at_cap), &Ok);
        assert_eq!(err, Err(SnapError::Truncated));
        assert_eq!(r.flits.len(), slots);
    }

    #[test]
    fn per_hop_records_stay_compact() {
        // Every grant is copied into the shard's outgoing list and on into
        // a ring slot; these sizes are what that costs per flit.
        assert_eq!(std::mem::size_of::<Hop>(), 8);
        assert_eq!(std::mem::size_of::<Traversal>(), 48);
        assert_eq!(std::mem::size_of::<crate::shard::Arrival>(), 32);
    }

    #[test]
    fn activity_counters() {
        let mut r = test_router();
        r.accept_flit(0, 0, flit(1, 0, true, 0));
        allocate(&mut r, 1, |_| 1);
        let a = r.activity();
        assert_eq!(a.buffer_writes, 1);
        assert_eq!(a.buffer_reads, 1);
        assert_eq!(a.crossbar_traversals, 1);
        assert_eq!(a.link_traversals, 1);
        let mut b = RouterActivity::default();
        b.merge(&a);
        assert_eq!(b, a);
    }
}
