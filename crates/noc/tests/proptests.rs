//! Property-based tests of the network's delivery guarantees: every offered
//! packet arrives, in full, bit-exact (baseline), at the right node, and the
//! flit books balance.

use anoc_core::data::{CacheBlock, NodeId};
use anoc_noc::{NocConfig, NocSim, NodeCodec, PacketKind};
use proptest::prelude::*;

fn baseline_sim(config: NocConfig) -> NocSim {
    let n = config.num_nodes();
    NocSim::new(config, (0..n).map(|_| NodeCodec::baseline()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every offered packet is delivered exactly once at its destination,
    /// regardless of the (src, dest, payload-size) mix.
    #[test]
    fn all_packets_delivered(
        packets in prop::collection::vec((0usize..9, 0usize..9, 0usize..3), 1..60),
    ) {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        let mut expected = Vec::new();
        for (s, d, kind) in packets {
            if s == d {
                continue;
            }
            let (src, dest) = (NodeId::from(s), NodeId::from(d));
            match kind {
                0 => {
                    sim.enqueue_control(src, dest);
                    expected.push((dest, None));
                }
                1 => {
                    let block = CacheBlock::from_i32(&[s as i32; 16]);
                    sim.enqueue_data(src, dest, block.clone());
                    expected.push((dest, Some(block)));
                }
                _ => {
                    let block = CacheBlock::from_i32(&[d as i32; 4]);
                    sim.enqueue_data(src, dest, block.clone());
                    expected.push((dest, Some(block)));
                }
            }
        }
        prop_assert!(sim.drain(50_000), "network failed to drain");
        let mut delivered = sim.drain_delivered();
        prop_assert_eq!(delivered.len(), expected.len());
        delivered.sort_by_key(|p| p.id);
        for (got, (dest, block)) in delivered.iter().zip(&expected) {
            prop_assert_eq!(got.dest, *dest);
            prop_assert_eq!(got.block.as_ref(), block.as_ref());
            match (&got.kind, block) {
                (PacketKind::Control, None) | (PacketKind::Data, Some(_)) => {}
                other => prop_assert!(false, "kind mismatch {other:?}"),
            }
        }
    }

    /// Flit conservation: after draining, delivered flits equal injected
    /// flits and no packet is left outstanding.
    #[test]
    fn flit_conservation(
        packets in prop::collection::vec((0usize..32, 0usize..32), 1..80),
    ) {
        let mut sim = baseline_sim(NocConfig::paper_4x4_cmesh());
        for (s, d) in packets {
            if s == d {
                continue;
            }
            sim.enqueue_data(
                NodeId::from(s),
                NodeId::from(d),
                CacheBlock::from_i32(&[7; 16]),
            );
        }
        prop_assert!(sim.drain(100_000));
        let stats = sim.stats();
        prop_assert_eq!(stats.flits_injected, stats.flits_delivered);
        prop_assert_eq!(sim.outstanding_packets(), 0);
        prop_assert_eq!(stats.unfinished, 0);
    }

    /// [`NetStats`] invariants hold at every measure/drain boundary under
    /// random burst traffic: the measured flit books never over-count
    /// deliveries, the latency histogram carries exactly one sample per
    /// completed measured packet, and once the network drains the measured
    /// books balance exactly — packets injected inside the window are
    /// counted on delivery even when that delivery lands during drain.
    #[test]
    fn stats_invariants_across_measurement_boundaries(
        warmup in prop::collection::vec((0usize..9, 0usize..9), 0..20),
        bursts in prop::collection::vec(
            (prop::collection::vec((0usize..9, 0usize..9, 0usize..2), 1..8), 1u64..30),
            1..10,
        ),
        tail_cycles in 0u64..40,
    ) {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        // Warmup traffic that is still in flight when measurement starts.
        for (s, d) in warmup {
            if s != d {
                sim.enqueue_control(NodeId::from(s), NodeId::from(d));
            }
        }
        sim.run(25);
        sim.begin_measurement();
        for (packets, gap) in bursts {
            for (s, d, kind) in packets {
                if s == d {
                    continue;
                }
                let (src, dest) = (NodeId::from(s), NodeId::from(d));
                if kind == 0 {
                    sim.enqueue_control(src, dest);
                } else {
                    sim.enqueue_data(src, dest, CacheBlock::from_i32(&[s as i32; 8]));
                }
            }
            sim.run(gap);
            let st = sim.stats();
            prop_assert!(
                st.flits_delivered <= st.flits_injected,
                "mid-window over-count: delivered {} > injected {}",
                st.flits_delivered,
                st.flits_injected,
            );
            prop_assert_eq!(st.latency_histogram.samples(), st.packets);
            prop_assert_eq!(st.packets, st.data_packets + st.control_packets);
        }
        sim.run(tail_cycles);
        // Close the window with measured packets still in flight, then drain.
        sim.end_measurement();
        prop_assert!(sim.drain(100_000), "network failed to drain");
        sim.record_unfinished();
        let st = sim.stats();
        prop_assert_eq!(st.flits_injected, st.flits_delivered);
        prop_assert_eq!(st.latency_histogram.samples(), st.packets);
        prop_assert_eq!(st.packets, st.data_packets + st.control_packets);
        prop_assert_eq!(st.unfinished, 0);
    }

    /// Latency decomposition is internally consistent: queue + net + decode
    /// sums to the reported average, and net latency covers at least the
    /// hop-count pipeline depth.
    #[test]
    fn latency_decomposition_consistent(s in 0usize..9, d in 0usize..9) {
        prop_assume!(s != d);
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        sim.enqueue_control(NodeId::from(s), NodeId::from(d));
        prop_assert!(sim.drain(10_000));
        let st = sim.stats();
        let total = st.avg_queue_latency() + st.avg_net_latency() + st.avg_decode_latency();
        prop_assert!((total - st.avg_packet_latency()).abs() < 1e-9);
        let hops = sim.mesh().hops(NodeId::from(s), NodeId::from(d)) as f64;
        prop_assert!(st.avg_net_latency() >= 3.0 * hops, "net {} hops {hops}", st.avg_net_latency());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No configuration deadlock: any mesh geometry down to single-VC,
    /// single-flit buffers drains arbitrary traffic (XY + credit flow
    /// control is deadlock-free; this hunts for flow-control bugs).
    #[test]
    fn no_deadlock_under_minimal_resources(
        width in 2usize..=4,
        height in 2usize..=4,
        concentration in 1usize..=2,
        vcs in 1usize..=4,
        vc_buffer in 1usize..=4,
        packets in prop::collection::vec((any::<u16>(), any::<u16>(), 1u32..=20), 1..50),
    ) {
        let config = NocConfig {
            width,
            height,
            concentration,
            vcs,
            vc_buffer,
            ..NocConfig::paper_4x4_cmesh()
        };
        let nodes = config.num_nodes();
        let mut sim = baseline_sim(config);
        let mut offered = 0;
        for (s, d, words) in packets {
            let src = NodeId((s as usize % nodes) as u16);
            let dest = NodeId((d as usize % nodes) as u16);
            if src == dest {
                continue;
            }
            sim.enqueue_data(src, dest, CacheBlock::from_i32(&vec![7; words as usize]));
            offered += 1;
        }
        prop_assert!(sim.drain(500_000), "network deadlocked or livelocked");
        prop_assert_eq!(sim.drain_delivered().len(), offered);
        prop_assert_eq!(sim.stats().flits_injected, sim.stats().flits_delivered);
    }
}
