//! Deterministic fault injection and structured simulation failures.
//!
//! APPROX-NoC's contract is a bounded-error guarantee (§3): every word a
//! VAXX codec approximates must stay within the programmer's `e%`
//! threshold. Nothing in a healthy run exercises that guarantee
//! adversarially, so this module provides a seeded [`FaultPlan`] that can
//! flip payload bits on link traversals, stall router input ports, drop or
//! duplicate flow-control credits, and corrupt encoder dictionary entries —
//! each at an independent parts-per-million rate — plus the structured
//! [`SimError`] the simulator raises when its end-to-end bound checker or
//! no-forward-progress watchdog fires.
//!
//! All rates are integers (parts per million) and the plan carries its own
//! RNG seed, so a plan renders exactly into a campaign cell's content key
//! and the same plan + seed reproduces bit-identically on any thread count.

use std::fmt;

use anoc_core::data::NodeId;

use crate::packet::{PacketId, PacketKind};

/// Denominator of every fault rate: rates are parts per million.
pub const PPM: u32 = 1_000_000;

/// A deterministic, seeded fault-injection plan.
///
/// All rates are parts-per-million probabilities evaluated once per
/// opportunity site (per link traversal, per router arrival, per credit
/// return, per encoded block). A plan with every rate at zero draws no
/// random numbers at all, so it is bit-identical to running without a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the fault RNG ([`Stream::FAULT`](anoc_core::rng::Stream::FAULT)).
    /// It is not a traffic RNG, so enabling faults never perturbs offered
    /// traffic. Its draws are independent of a [`LossPlan`]'s only when
    /// the two seeds differ: both plans draw on the default stream id.
    pub seed: u64,
    /// Per-link-traversal probability (ppm) of flipping one random payload
    /// bit of the traversing data packet.
    pub link_bit_flip_ppm: u32,
    /// Per-router-arrival probability (ppm) of stalling the arriving flit
    /// for [`FaultPlan::stall_cycles`] extra cycles.
    pub port_stall_ppm: u32,
    /// Extra cycles a stalled flit waits before allocation eligibility.
    pub stall_cycles: u32,
    /// Per-credit-return probability (ppm) of losing the credit forever
    /// (drives the network toward credit starvation and deadlock).
    pub credit_drop_ppm: u32,
    /// Per-credit-return probability (ppm) of returning the credit twice.
    pub credit_dup_ppm: u32,
    /// Per-encoded-block probability (ppm) of corrupting one stored entry
    /// of the source NI encoder's dictionary table.
    pub dict_corrupt_ppm: u32,
}

impl FaultPlan {
    /// The inert plan: every rate zero, nothing is ever injected.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            link_bit_flip_ppm: 0,
            port_stall_ppm: 0,
            stall_cycles: 0,
            credit_drop_ppm: 0,
            credit_dup_ppm: 0,
            dict_corrupt_ppm: 0,
        }
    }

    /// A plan that only flips link bits, at `ppm` per traversal.
    pub fn bit_flips(seed: u64, ppm: u32) -> Self {
        FaultPlan {
            seed,
            link_bit_flip_ppm: ppm,
            ..FaultPlan::none()
        }
    }

    /// Whether any fault site has a nonzero rate. Inactive plans draw no
    /// random numbers and perturb nothing.
    pub fn is_active(&self) -> bool {
        self.link_bit_flip_ppm > 0
            || self.port_stall_ppm > 0
            || self.credit_drop_ppm > 0
            || self.credit_dup_ppm > 0
            || self.dict_corrupt_ppm > 0
    }

    /// Canonical single-line rendering for campaign content keys: equal
    /// plans render equally, distinct plans distinctly.
    pub fn key_fragment(&self) -> String {
        format!(
            "fseed={} flip={} stall={}x{} cdrop={} cdup={} dict={}",
            self.seed,
            self.link_bit_flip_ppm,
            self.port_stall_ppm,
            self.stall_cycles,
            self.credit_drop_ppm,
            self.credit_dup_ppm,
            self.dict_corrupt_ppm
        )
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// A deterministic, seeded lossy-link plan — the LORAX-style degradation
/// scenario family: every data-flit link traversal may lose one payload
/// word, at a rate that *scales with how aggressively the payload was
/// approximated* (a lower-swing, further-compressed signal is easier to
/// lose). Lost words arrive zeroed; the delivered-word auditor and bound
/// checker then account the damage like any other degradation.
///
/// Same discipline as [`FaultPlan`]: integer ppm rates, a dedicated RNG
/// seed carried by the plan, and an inert plan draws no random numbers, so
/// it is bit-identical to running without one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LossPlan {
    /// Seed of the loss RNG ([`Stream::LOSS`](anoc_core::rng::Stream::LOSS)).
    /// It is not a traffic RNG. It shares its stream id with the fault
    /// RNG, so its draws are independent of a [`FaultPlan`]'s only when the
    /// two seeds differ; equal seeds draw the same sequence.
    pub seed: u64,
    /// Base per-link-traversal probability (ppm) of erasing one payload
    /// word of the traversing data packet.
    pub loss_ppm: u32,
    /// Additional loss probability (ppm) per percentage point of the
    /// packet's approximation level at encode time: the effective rate of a
    /// packet encoded under an `a%` threshold is
    /// `loss_ppm + approx_scale_ppm * a`, saturating at [`PPM`].
    pub approx_scale_ppm: u32,
}

impl LossPlan {
    /// The inert plan: nothing is ever lost.
    pub fn none() -> Self {
        LossPlan {
            seed: 0,
            loss_ppm: 0,
            approx_scale_ppm: 0,
        }
    }

    /// A plan with a flat per-traversal rate, independent of approximation.
    pub fn uniform(seed: u64, loss_ppm: u32) -> Self {
        LossPlan {
            seed,
            loss_ppm,
            approx_scale_ppm: 0,
        }
    }

    /// A plan whose rate grows with the approximation level.
    pub fn scaled(seed: u64, loss_ppm: u32, approx_scale_ppm: u32) -> Self {
        LossPlan {
            seed,
            loss_ppm,
            approx_scale_ppm,
        }
    }

    /// Whether any traversal can lose anything. Inactive plans draw no
    /// random numbers and perturb nothing.
    pub fn is_active(&self) -> bool {
        self.loss_ppm > 0 || self.approx_scale_ppm > 0
    }

    /// The effective loss rate (ppm) for a packet approximated under an
    /// `approx_percent`% threshold, saturating at [`PPM`].
    pub fn effective_ppm(&self, approx_percent: u32) -> u32 {
        self.loss_ppm
            .saturating_add(self.approx_scale_ppm.saturating_mul(approx_percent))
            .min(PPM)
    }

    /// Canonical single-line rendering for campaign content keys.
    pub fn key_fragment(&self) -> String {
        format!(
            "lseed={} loss={} lscale={}",
            self.seed, self.loss_ppm, self.approx_scale_ppm
        )
    }
}

impl Default for LossPlan {
    fn default() -> Self {
        LossPlan::none()
    }
}

anoc_core::stats_record! {
    /// Counters of injected faults and bound-checker outcomes, carried inside
    /// `NetStats` (reset with the measurement window like every other counter).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultStats {
        /// Payload bits flipped on link traversals.
        pub bit_flips: u64,
        /// Router arrivals delayed by an injected port stall.
        pub port_stalls: u64,
        /// Flow-control credits dropped (lost forever).
        pub credits_dropped: u64,
        /// Flow-control credits returned twice.
        pub credits_duplicated: u64,
        /// Encoder dictionary entries corrupted.
        pub dict_corruptions: u64,
        /// Delivered data words compared against the golden payload.
        pub bound_checked_words: u64,
        /// Delivered words whose relative error exceeded the active threshold.
        pub bound_violations: u64,
        /// Payload words erased by an active [`LossPlan`] (delivered as zero).
        pub words_lost: u64,
    }
}

/// A structured, diagnosable simulation failure.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The watchdog saw no forward progress for its whole horizon while
    /// packets were still outstanding.
    Deadlock(DeadlockDump),
    /// The end-to-end bound checker caught a delivered word outside the
    /// active error threshold while no faults were being injected.
    BoundViolation(BoundViolation),
    /// A packet's tail flit ejected before all of its body flits, so the
    /// per-VC FIFO order was broken (a corrupt snapshot can do that). The
    /// packet is neither delivered nor freed.
    TailBeforeBody {
        /// The packet.
        packet: PacketId,
        /// The node it ejected at.
        node: NodeId,
        /// Flits ejected, the tail included.
        ejected: u32,
        /// Flits the packet has.
        flits: u32,
        /// Cycle of the tail's ejection.
        cycle: u64,
    },
    /// The traffic source injects between another number of nodes than the
    /// NoC has, so the run could not start.
    NodeCountMismatch {
        /// Nodes of the traffic source.
        source: usize,
        /// Nodes of the NoC.
        noc: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(dump) => write!(f, "network deadlock: {dump}"),
            SimError::BoundViolation(v) => write!(f, "error-bound violation: {v}"),
            SimError::TailBeforeBody {
                packet,
                node,
                ejected,
                flits,
                cycle,
            } => write!(
                f,
                "packet {packet} ejected its tail at node {} after {ejected} of {flits} flits \
                 at cycle {cycle} (per-VC FIFO order broken)",
                node.index()
            ),
            SimError::NodeCountMismatch { source, noc } => write!(
                f,
                "traffic source has {source} nodes, but the NoC has {noc} nodes"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One delivered word that broke the threshold guarantee.
#[derive(Debug, Clone)]
pub struct BoundViolation {
    /// Cycle of delivery.
    pub cycle: u64,
    /// The offending packet.
    pub packet: PacketId,
    /// Its source node.
    pub src: NodeId,
    /// Its destination node.
    pub dest: NodeId,
    /// Index of the word inside the block.
    pub word_index: usize,
    /// The golden (pre-approximation) word.
    pub precise: u32,
    /// The delivered word.
    pub approx: u32,
    /// Measured relative error (`f64::INFINITY` for corrupted zeros).
    pub relative_error: f64,
    /// The threshold the word had to respect, in percent.
    pub threshold_percent: u32,
}

impl fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packet {} ({}->{}) word {} delivered {:#010x} for golden {:#010x} \
             (relative error {:.4} > {}%) at cycle {}",
            self.packet,
            self.src.index(),
            self.dest.index(),
            self.word_index,
            self.approx,
            self.precise,
            self.relative_error,
            self.threshold_percent,
            self.cycle
        )
    }
}

/// One packet stuck in a deadlocked network, oldest first in the dump.
#[derive(Debug, Clone)]
pub struct StuckPacket {
    /// Packet id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Control or data.
    pub kind: PacketKind,
    /// Creation cycle.
    pub created: u64,
    /// Cycles since creation at dump time.
    pub age: u64,
    /// Flits already received at the destination.
    pub ejected_flits: u32,
    /// Total flits of the packet.
    pub num_flits: u32,
}

/// Per-output-port flow-control state: for each port, each VC's
/// `(remaining credits, wormhole holder)` where the holder is the
/// `(input port, input VC)` currently owning the wormhole.
pub type PortFlows = Vec<Vec<(u32, Option<(u32, u32)>)>>;

/// Per-router flow-control snapshot: buffered flit count and, for each
/// output port, each VC's remaining credits and current wormhole holder.
#[derive(Debug, Clone)]
pub struct RouterDiag {
    /// Router id.
    pub id: usize,
    /// Flits buffered across all input VCs.
    pub buffered: usize,
    /// Per output port: see [`PortFlows`].
    pub ports: PortFlows,
}

/// The diagnostic dump carried by [`SimError::Deadlock`].
#[derive(Debug, Clone)]
pub struct DeadlockDump {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Last cycle with any forward progress.
    pub last_progress: u64,
    /// Packets still outstanding.
    pub live_packets: usize,
    /// Oldest stuck packets (capped for readability).
    pub stuck: Vec<StuckPacket>,
    /// Non-idle routers with their credit/VC occupancy (capped).
    pub routers: Vec<RouterDiag>,
    /// Nodes with a non-empty injection backlog: `(node, queued packets)`.
    pub ni_backlogs: Vec<(usize, usize)>,
}

impl fmt::Display for DeadlockDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no forward progress since cycle {} (now {}), {} packets outstanding",
            self.last_progress, self.cycle, self.live_packets
        )?;
        for p in &self.stuck {
            writeln!(
                f,
                "  stuck packet {} {:?} {}->{} age={} flits={}/{}",
                p.id,
                p.kind,
                p.src.index(),
                p.dest.index(),
                p.age,
                p.ejected_flits,
                p.num_flits
            )?;
        }
        for r in &self.routers {
            write!(f, "  router {} buffered={} credits=", r.id, r.buffered)?;
            for (port, vcs) in r.ports.iter().enumerate() {
                if port > 0 {
                    write!(f, "|")?;
                }
                write!(f, "p{port}:")?;
                for (vc, (credits, holder)) in vcs.iter().enumerate() {
                    if vc > 0 {
                        write!(f, ",")?;
                    }
                    match holder {
                        Some((ip, iv)) => write!(f, "{credits}(held {ip}.{iv})")?,
                        None => write!(f, "{credits}")?,
                    }
                }
            }
            writeln!(f)?;
        }
        for (node, depth) in &self.ni_backlogs {
            writeln!(f, "  ni {node} backlog={depth}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::bit_flips(1, 100).is_active());
        assert!(FaultPlan {
            credit_drop_ppm: 1,
            ..FaultPlan::none()
        }
        .is_active());
    }

    #[test]
    fn key_fragment_distinguishes_plans() {
        let a = FaultPlan::bit_flips(7, 100);
        let b = FaultPlan::bit_flips(7, 200);
        let c = FaultPlan::bit_flips(8, 100);
        assert_ne!(a.key_fragment(), b.key_fragment());
        assert_ne!(a.key_fragment(), c.key_fragment());
        assert_eq!(
            a.key_fragment(),
            FaultPlan::bit_flips(7, 100).key_fragment()
        );
    }

    #[test]
    fn inert_loss_plan_is_inactive() {
        assert!(!LossPlan::none().is_active());
        assert!(!LossPlan::default().is_active());
        assert!(LossPlan::uniform(1, 100).is_active());
        assert!(LossPlan::scaled(1, 0, 10).is_active());
    }

    #[test]
    fn loss_rate_scales_with_approximation_level() {
        let p = LossPlan::scaled(3, 1_000, 500);
        assert_eq!(p.effective_ppm(0), 1_000);
        assert_eq!(p.effective_ppm(10), 6_000);
        assert_eq!(p.effective_ppm(20), 11_000);
        // Saturates at certainty, never overflows.
        let extreme = LossPlan::scaled(3, PPM, u32::MAX);
        assert_eq!(extreme.effective_ppm(100), PPM);
        let flat = LossPlan::uniform(3, 2_000);
        assert_eq!(flat.effective_ppm(20), 2_000);
    }

    #[test]
    fn loss_key_fragment_distinguishes_plans() {
        let a = LossPlan::uniform(7, 100);
        let b = LossPlan::uniform(7, 200);
        let c = LossPlan::uniform(8, 100);
        let d = LossPlan::scaled(7, 100, 5);
        assert_ne!(a.key_fragment(), b.key_fragment());
        assert_ne!(a.key_fragment(), c.key_fragment());
        assert_ne!(a.key_fragment(), d.key_fragment());
        assert_eq!(a.key_fragment(), LossPlan::uniform(7, 100).key_fragment());
    }

    #[test]
    fn errors_render_diagnostics() {
        let v = SimError::BoundViolation(BoundViolation {
            cycle: 42,
            packet: 3,
            src: NodeId(0),
            dest: NodeId(5),
            word_index: 2,
            precise: 1000,
            approx: 2000,
            relative_error: 1.0,
            threshold_percent: 10,
        });
        let s = v.to_string();
        assert!(s.contains("bound violation"), "{s}");
        assert!(s.contains("word 2"), "{s}");

        let m = SimError::NodeCountMismatch {
            source: 16,
            noc: 32,
        }
        .to_string();
        assert!(m.contains("16 nodes") && m.contains("32 nodes"), "{m}");

        let d = SimError::Deadlock(DeadlockDump {
            cycle: 100,
            last_progress: 40,
            live_packets: 2,
            stuck: vec![StuckPacket {
                id: 9,
                src: NodeId(1),
                dest: NodeId(2),
                kind: PacketKind::Data,
                created: 10,
                age: 90,
                ejected_flits: 3,
                num_flits: 9,
            }],
            routers: vec![RouterDiag {
                id: 4,
                buffered: 6,
                ports: vec![vec![(0, Some((1, 0))), (4, None)]],
            }],
            ni_backlogs: vec![(1, 3)],
        });
        let s = d.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("stuck packet 9"), "{s}");
        assert!(s.contains("router 4"), "{s}");
        assert!(s.contains("ni 1 backlog=3"), "{s}");
    }
}
