//! The network interface: packetization, injection queue, codec hosting.
//!
//! The NI packetizes cache blocks, runs them through the node's encoder
//! (APPROX-NoC places the VAXX engine and the compression encoder/decoder
//! pair here — Figure 1), fragments the network representation into flits and
//! feeds the router's local input port under credit flow control. On the
//! ejection side it reassembles flits, decodes, and completes packets after
//! the decompression latency.

use std::collections::VecDeque;

use anoc_core::codec::{BlockDecoder, BlockEncoder};

use crate::router::wrap;

/// The encoder/decoder pair hosted by one NI.
pub struct NodeCodec {
    /// The block encoder used for every data packet this node sends.
    pub encoder: Box<dyn BlockEncoder>,
    /// The block decoder used for every data packet this node receives.
    pub decoder: Box<dyn BlockDecoder>,
}

impl NodeCodec {
    /// Creates a codec pair.
    pub fn new(encoder: Box<dyn BlockEncoder>, decoder: Box<dyn BlockDecoder>) -> Self {
        NodeCodec { encoder, decoder }
    }

    /// A baseline (uncompressed) codec pair.
    pub fn baseline() -> Self {
        use anoc_core::codec::NullCodec;
        NodeCodec {
            encoder: Box::new(NullCodec::new()),
            decoder: Box::new(NullCodec::new()),
        }
    }
}

impl std::fmt::Debug for NodeCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCodec")
            .field("encoder", &self.encoder.name())
            .field("decoder", &self.decoder.name())
            .finish()
    }
}

/// Injection-side state of one NI.
#[derive(Debug)]
pub(crate) struct NiState {
    /// FIFO of packets awaiting injection, by slab slot in the simulator's
    /// packet store.
    pub queue: VecDeque<u32>,
    /// Credits for each VC of the router's local input port.
    pub vc_credits: Vec<u32>,
    /// VC carrying the packet currently being injected.
    pub cur_vc: Option<usize>,
    /// Next flit sequence number of the packet in progress.
    pub next_seq: u32,
    /// Round-robin start for VC choice.
    pub vc_rr: usize,
}

impl NiState {
    pub(crate) fn new(vcs: usize, vc_buffer: usize) -> Self {
        NiState {
            queue: VecDeque::new(),
            vc_credits: vec![vc_buffer as u32; vcs],
            cur_vc: None,
            next_seq: 0,
            vc_rr: 0,
        }
    }

    /// Picks an injection VC with at least one credit, in round-robin order
    /// from `vc_rr` (always below the VC count).
    pub(crate) fn pick_vc(&mut self) -> Option<usize> {
        let n = self.vc_credits.len();
        let mut v = self.vc_rr;
        for _ in 0..n {
            let next = wrap(v + 1, n);
            if self.vc_credits[v] > 0 {
                self.vc_rr = next;
                return Some(v);
            }
            v = next;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_codec_names() {
        let c = NodeCodec::baseline();
        assert_eq!(c.encoder.name(), "Baseline");
        assert_eq!(c.decoder.name(), "Baseline");
        assert!(format!("{c:?}").contains("Baseline"));
    }

    #[test]
    fn vc_choice_round_robins_and_respects_credits() {
        let mut ni = NiState::new(2, 1);
        assert_eq!(ni.pick_vc(), Some(0));
        assert_eq!(ni.pick_vc(), Some(1));
        ni.vc_credits = vec![0, 0];
        assert_eq!(ni.pick_vc(), None);
        ni.vc_credits[1] = 1;
        assert_eq!(ni.pick_vc(), Some(1));
    }
}
