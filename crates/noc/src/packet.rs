//! Packets and flits.
//!
//! NoC traffic consists of single-flit control packets (coherence requests,
//! acknowledgements, dictionary notifications) and multi-flit data packets
//! carrying one (possibly compressed) cache block. The header flit is never
//! compressed — it carries the route and is what the VA-overlap optimization
//! arbitrates with (§4.3).

use anoc_core::codec::{EncodedBlock, Notification};
use anoc_core::data::{CacheBlock, NodeId};

/// Unique packet identifier within one simulation.
pub type PacketId = u64;

anoc_core::snap_record! {
    /// Packet class (Table 1 distinguishes control and data traffic).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PacketKind {
        /// Single-flit control packet.
        Control,
        /// Multi-flit data packet (header + compressed payload).
        Data,
    }
}

anoc_core::snap_record! {
    /// One flit in flight. Flits reference their packet by its dense slot in
    /// the simulator's slab packet store — not by the external [`PacketId`] —
    /// so the per-flit hot paths (injection, ejection) are plain array
    /// indexing. The payload itself travels in the packet table (the wire size
    /// is fully accounted by the packet's flit count).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Flit {
        /// Slab slot of the owning packet in the simulator's packet store.
        pub slot: u32,
        /// Sequence number within the packet (0 = head).
        pub seq: u32,
        /// Whether this is the last flit of the packet.
        pub is_tail: bool,
        /// Destination node (replicated from the header for routing).
        pub dest: NodeId,
        /// Cycle at which the flit finished buffer write and becomes eligible
        /// for allocation (models the BW/RC pipeline stage).
        pub ready_at: u64,
    }
}

impl Flit {
    /// Whether this is the head flit.
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }
}

anoc_core::snap_record! {
    /// Full simulator-side state of one packet.
    #[derive(Debug, Clone)]
    pub struct PacketState {
        /// Packet id.
        pub id: PacketId,
        /// Source node.
        pub src: NodeId,
        /// Destination node.
        pub dest: NodeId,
        /// Control or data.
        pub kind: PacketKind,
        /// Cycle the packet was handed to the source NI.
        pub created: u64,
        /// Cycle the packet becomes injectable (compression accounted).
        pub ready_at: u64,
        /// Compression cycles still to be paid when the packet reaches the head
        /// of the injection queue (non-zero only when the §4.3 latency-hiding
        /// optimizations are disabled: compression then serializes with
        /// injection instead of overlapping the queue wait).
        pub head_gate: u64,
        /// Cycle the head flit entered the router (None until injection).
        pub inject_start: Option<u64>,
        /// Total flits.
        pub num_flits: u32,
        /// Flits an uncompressed baseline would need for the same payload
        /// (0 for control packets); accounted at injection for Figure 11.
        pub baseline_flits: u32,
        /// Flits received at the destination NI so far.
        pub ejected_flits: u32,
        /// Encoded payload (data packets).
        pub payload: Option<EncodedBlock>,
        /// The precise, pre-approximation block (simulation metadata for the
        /// data-quality accounting of Figure 9).
        pub precise: Option<CacheBlock>,
        /// In-band dictionary notification (control packets in `notify_in_band`
        /// mode).
        pub notification: Option<Notification>,
        /// Link-fault corruption events recorded while the packet's flits were
        /// in flight: `(word index, bit index)` pairs applied to the decoded
        /// block at delivery. Empty (and allocation-free) without faults.
        pub corrupt: Vec<(u32, u32)>,
        /// The error-threshold percentage the payload was encoded under (0 for
        /// exact encodes and control packets) — the approximation level an
        /// active `LossPlan` scales its per-hop loss rate with.
        pub approx_level: u32,
        /// Payload word indices erased by lossy links while the packet's flits
        /// were in flight; zeroed in the decoded block at delivery. Empty (and
        /// allocation-free) without an active loss plan.
        pub lost: Vec<u32>,
        /// Whether this packet belongs to the measurement window.
        pub measured: bool,
    }
}

/// A delivered packet, as reported to the simulation driver.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Packet id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Control or data.
    pub kind: PacketKind,
    /// Cycle the packet completed (tail ejected + decode latency).
    pub done_at: u64,
    /// The decoded cache block (data packets).
    pub block: Option<CacheBlock>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_flit_detection() {
        let f = Flit {
            slot: 1,
            seq: 0,
            is_tail: false,
            dest: NodeId(3),
            ready_at: 0,
        };
        assert!(f.is_head());
        let t = Flit {
            seq: 5,
            is_tail: true,
            ..f
        };
        assert!(!t.is_head());
        assert!(t.is_tail);
    }
}
