//! Snapshot integration tests: save/restore must be bit-exact (byte-stable
//! blobs, identical resumed behaviour), stale or corrupt
//! blobs must fail as typed errors, and a fault-injection campaign forked
//! from a snapshot must reproduce the uninterrupted run's violation curve
//! exactly.

use anoc_compression::{
    DiConfig, DiDecoder, DiEncoder, FpDecoder, FpEncoder, LzDecoder, LzEncoder,
};
use anoc_core::avcl::Avcl;
use anoc_core::control::QosSpec;
use anoc_core::data::{CacheBlock, DataType, NodeId};
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_exec::hash::fnv1a64;
use anoc_noc::{FaultPlan, LossPlan, NocConfig, NocSim, NodeCodec, SnapshotError};
use proptest::prelude::*;

fn baseline_sim(config: NocConfig) -> NocSim {
    let n = config.num_nodes();
    NocSim::new(config, (0..n).map(|_| NodeCodec::baseline()).collect())
}

/// A DI-VAXX network: the codecs carry learned dictionary state, so a round
/// trip exercises the codec save/load hooks, not just the kernel.
fn di_vaxx_sim(config: NocConfig, threshold: ErrorThreshold) -> NocSim {
    let n = config.num_nodes();
    let codecs = (0..n)
        .map(|_| {
            let c = DiConfig::for_nodes(n);
            NodeCodec::new(
                Box::new(DiEncoder::di_vaxx(c, Avcl::new(threshold))),
                Box::new(DiDecoder::new(c)),
            )
        })
        .collect();
    NocSim::new(config, codecs)
}

/// Offers one cycle's deterministic traffic, keyed only on `(salt, cycle)`
/// so the original and a restored simulation can be driven identically.
fn offer_traffic(sim: &mut NocSim, salt: u64, cycle: u64) {
    let nodes = sim.num_nodes();
    let mut rng = Pcg32::seed_from_u64(salt ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for node in 0..nodes {
        if rng.below(100) >= 6 {
            continue;
        }
        let mut d = rng.below(nodes as u32) as usize;
        if d == node {
            d = (d + 1) % nodes;
        }
        let base = rng.next_u32() as i32 & 0x00FF_FFF0;
        let words: Vec<i32> = (0..16)
            .map(|i| base + (rng.below(8) as i32) + i % 2)
            .collect();
        sim.enqueue_data(
            NodeId(node as u16),
            NodeId(d as u16),
            CacheBlock::from_i32(&words),
        );
    }
}

/// Runs `cycles` steps of deterministic traffic, discarding deliveries.
fn run_traffic(sim: &mut NocSim, salt: u64, from: u64, cycles: u64) {
    for c in from..from + cycles {
        offer_traffic(sim, salt, c);
        sim.step();
        sim.discard_delivered();
    }
}

/// Renders everything a sweep cell reports, so equality here is equality of
/// the experiment's observable output.
fn fingerprint(sim: &NocSim) -> String {
    let s = sim.stats();
    let f = &s.faults;
    format!(
        "cyc={} pk={} dp={} fi={} fd={} ql={} nl={} bf={} enc={}/{}/{} bits={}/{} q={:.12} hist_p99={} max={} flips={} stalls={} checked={} viol={} lost={}",
        s.cycles,
        s.packets,
        s.data_packets,
        s.flits_injected,
        s.flits_delivered,
        s.queue_lat_sum,
        s.net_lat_sum,
        s.baseline_data_flits,
        s.encode.exact_encoded,
        s.encode.approx_encoded,
        s.encode.raw,
        s.encode.bits_in,
        s.encode.bits_out,
        s.quality.quality(),
        s.latency_histogram.percentile(99.0),
        s.latency_histogram.max(),
        f.bit_flips,
        f.port_stalls,
        f.bound_checked_words,
        f.bound_violations,
        f.words_lost,
    )
}

const FP: u64 = 0xA55A_1234_5678_9ABC;

#[test]
fn round_trip_is_byte_identical_and_resumes_exactly() {
    let threshold = ErrorThreshold::from_percent(10).expect("valid");
    let mut sim = di_vaxx_sim(NocConfig::paper_4x4_cmesh(), threshold);
    sim.begin_measurement();
    run_traffic(&mut sim, 1, 0, 400);
    assert!(sim.outstanding_packets() > 0, "want packets mid-flight");

    let blob = sim.save_snapshot(FP).expect("save");

    // Restored state re-serializes to the identical byte sequence.
    let mut restored = di_vaxx_sim(NocConfig::paper_4x4_cmesh(), threshold);
    restored.restore_snapshot(&blob, FP).expect("restore");
    let blob2 = restored.save_snapshot(FP).expect("re-save");
    assert_eq!(
        blob, blob2,
        "serialize → restore → serialize must be stable"
    );

    // The restored simulation is indistinguishable from the original.
    run_traffic(&mut sim, 1, 400, 400);
    run_traffic(&mut restored, 1, 400, 400);
    assert!(sim.try_drain(100_000).expect("drain original"));
    assert!(restored.try_drain(100_000).expect("drain restored"));
    sim.record_unfinished();
    restored.record_unfinished();
    assert_eq!(fingerprint(&sim), fingerprint(&restored));
}

#[test]
fn restore_resumes_bit_identically() {
    // A 3x3 mesh, and the 8x8 concentrated mesh of the `cmesh8-ur` shape
    // (two nodes per router), each saved mid-flight, restored into a fresh
    // simulator and resumed.
    for config in [NocConfig::mesh_3x3(), NocConfig::cmesh(8, 8, 2)] {
        let mut source = baseline_sim(config.clone());
        source.begin_measurement();
        run_traffic(&mut source, 2, 0, 300);
        assert!(source.outstanding_packets() > 0, "save mid-flight");
        let blob = source.save_snapshot(FP).expect("save");
        run_traffic(&mut source, 2, 300, 300);
        assert!(source.try_drain(100_000).expect("drain"));
        let want = fingerprint(&source);

        let mut sim = baseline_sim(config);
        sim.restore_snapshot(&blob, FP).expect("restore");
        run_traffic(&mut sim, 2, 300, 300);
        assert!(sim.try_drain(100_000).expect("drain"));
        assert_eq!(fingerprint(&sim), want, "{} nodes", sim.num_nodes());
    }
}

/// Satellite: a fault campaign forked from a snapshot must re-arm
/// `set_fault_plan` / `set_watchdog` / `set_bound_check` *before* restoring,
/// and then reproduce the uninterrupted run bit-exactly — including the
/// monotonic bound-violation curve over the bit-flip rate.
#[test]
fn fault_active_fork_preserves_the_violation_curve() {
    let threshold = ErrorThreshold::from_percent(10).expect("valid");
    let watchdog = 50_000;
    let curve: Vec<(String, String)> = [2_000u32, 50_000, 400_000]
        .iter()
        .map(|&ppm| {
            let plan = FaultPlan::bit_flips(11, ppm);
            // Uninterrupted run: warmup + measurement in one life.
            let mut cold = baseline_sim(NocConfig::mesh_3x3());
            cold.set_fault_plan(plan);
            cold.set_watchdog(watchdog);
            cold.set_bound_check(threshold);
            cold.begin_measurement();
            run_traffic(&mut cold, 3, 0, 250);
            let blob = cold.save_snapshot(FP).expect("save mid-campaign");
            run_traffic(&mut cold, 3, 250, 250);
            cold.try_drain(100_000).expect("drain cold");

            // Forked run: fresh sim, re-arm, then restore (the restored
            // fault-RNG cursor and progress clock overwrite what arming
            // reset — the documented ordering contract).
            let mut warm = baseline_sim(NocConfig::mesh_3x3());
            warm.set_fault_plan(plan);
            warm.set_watchdog(watchdog);
            warm.set_bound_check(threshold);
            warm.restore_snapshot(&blob, FP).expect("restore");
            run_traffic(&mut warm, 3, 250, 250);
            warm.try_drain(100_000).expect("drain warm");
            (fingerprint(&cold), fingerprint(&warm))
        })
        .collect();
    for (cold, warm) in &curve {
        assert_eq!(cold, warm);
    }
    // The violation curve itself is still monotone in the flip rate.
    let viol: Vec<u64> = curve
        .iter()
        .map(|(c, _)| {
            c.split_whitespace()
                .find_map(|kv| kv.strip_prefix("viol="))
                .and_then(|v| v.parse().ok())
                .expect("viol field")
        })
        .collect();
    assert!(viol.windows(2).all(|w| w[0] <= w[1]), "{viol:?}");
    assert!(*viol.last().expect("nonempty") > 0, "{viol:?}");
}

/// Tentpole regression: a run with an *armed per-flow QoS controller* and an
/// *active lossy-link plan* saved mid-run must restore bit-identically —
/// controller percents, cooldowns, lazily installed
/// encoder thresholds and the loss-RNG cursor all resume exactly. The
/// arming calls come *before* `restore_snapshot` (the fault-campaign
/// ordering contract); the restored state overwrites what arming reset.
#[test]
fn qos_and_loss_active_fork_restores_exactly() {
    use anoc_core::control::QosSpec;
    use anoc_noc::LossPlan;

    let threshold = ErrorThreshold::from_percent(20).expect("valid");
    let spec = QosSpec::paper(970_000);
    let plan = LossPlan::scaled(17, 5_000, 100);
    let arm = |sim: &mut NocSim| {
        sim.set_qos(spec);
        sim.set_loss_plan(plan);
        sim.set_bound_check(threshold);
    };

    // Uninterrupted run: enough cycles that at least two control epochs
    // fire (epoch is 500 cycles) and the lossy links erase words, so the
    // snapshot carries genuinely adapted controller state.
    let mut cold = di_vaxx_sim(NocConfig::mesh_3x3(), threshold);
    arm(&mut cold);
    cold.begin_measurement();
    run_traffic(&mut cold, 5, 0, 1_100);
    assert!(
        cold.stats().faults.words_lost > 0,
        "lossy plan should have erased words before the save"
    );
    let percents_at_save = cold.qos_percents().expect("armed bank");
    assert!(
        percents_at_save.iter().any(|&p| p != spec.initial_percent),
        "controllers should have adapted before the save: {percents_at_save:?}"
    );
    let blob = cold.save_snapshot(FP).expect("save mid-campaign");
    run_traffic(&mut cold, 5, 1_100, 600);
    assert!(cold.try_drain(100_000).expect("drain cold"));
    let want = fingerprint(&cold);

    // The restoring sim is built with *exact-threshold* codecs — the shape
    // of the harness's staged path — so this also proves restore reprograms
    // the encoders from the serialized per-node installed percents rather
    // than trusting construction state.
    let mut warm = di_vaxx_sim(NocConfig::mesh_3x3(), ErrorThreshold::exact());
    arm(&mut warm);
    warm.restore_snapshot(&blob, FP).expect("restore");
    assert_eq!(
        warm.qos_percents().expect("armed bank"),
        percents_at_save,
        "controller state must resume exactly"
    );
    run_traffic(&mut warm, 5, 1_100, 600);
    assert!(warm.try_drain(100_000).expect("drain warm"));
    assert_eq!(fingerprint(&warm), want);

    // Armament mismatch is a typed structural error, not silent divergence:
    // the blob says a QoS bank exists, the target sim has none.
    let mut unarmed = di_vaxx_sim(NocConfig::mesh_3x3(), threshold);
    unarmed.set_loss_plan(plan);
    unarmed.set_bound_check(threshold);
    let err = unarmed
        .restore_snapshot(&blob, FP)
        .expect_err("unarmed target accepted a QoS-armed blob");
    assert_eq!(err, SnapshotError::Structure("QoS armament mismatch"));
}

#[test]
fn stale_or_corrupt_blobs_fail_as_typed_errors() {
    let mut sim = baseline_sim(NocConfig::mesh_3x3());
    run_traffic(&mut sim, 4, 0, 100);
    let blob = sim.save_snapshot(FP).expect("save");

    // Truncations at every prefix of the header and a mid-body cut: all
    // must surface as an error, never a panic or a half-restored sim.
    for cut in [0, 4, 7, 8, 11, 12, 19, 20, blob.len() / 2, blob.len() - 1] {
        let mut target = baseline_sim(NocConfig::mesh_3x3());
        let err = target
            .restore_snapshot(&blob[..cut], FP)
            .expect_err("truncated blob accepted");
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
            "cut at {cut}: {err}"
        );
    }

    // Foreign file: wrong magic.
    let mut bad = blob.clone();
    bad[0] ^= 0xFF;
    let err = baseline_sim(NocConfig::mesh_3x3())
        .restore_snapshot(&bad, FP)
        .expect_err("bad magic accepted");
    assert_eq!(err, SnapshotError::BadMagic);

    // Stale format: wrong version word (bytes 8..12, little-endian). The
    // earlier on-disk generations (v1, before the QoS/loss planes; v2, with
    // the old word-code tags) must be rejected the same way as an unknown
    // future version.
    for stale_version in [1u32, 2, 99] {
        let mut stale = blob.clone();
        stale[8..12].copy_from_slice(&stale_version.to_le_bytes());
        let err = baseline_sim(NocConfig::mesh_3x3())
            .restore_snapshot(&stale, FP)
            .expect_err("wrong version accepted");
        assert_eq!(err, SnapshotError::BadVersion(stale_version));
    }

    // Different configuration: fingerprint mismatch.
    let err = baseline_sim(NocConfig::mesh_3x3())
        .restore_snapshot(&blob, FP ^ 1)
        .expect_err("wrong fingerprint accepted");
    assert_eq!(err, SnapshotError::FingerprintMismatch);

    // A geometry mismatch is caught by the structural echo even when the
    // fingerprint (wrongly) matches.
    let err = baseline_sim(NocConfig::paper_4x4_cmesh())
        .restore_snapshot(&blob, FP)
        .expect_err("wrong geometry accepted");
    assert_eq!(err, SnapshotError::Structure("network geometry"));

    // A packet whose source or destination lies outside the mesh. The first
    // packet follows 56 header bytes, 57 bytes of scalars and the packet
    // count; its id is a u64, then its source and destination are u32s.
    let count = u64::from_le_bytes(blob[113..121].try_into().expect("8 bytes"));
    assert!(count > 0, "want a packet in the blob");
    for at in [129, 133] {
        let mut bad = blob.clone();
        bad[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
        let err = baseline_sim(NocConfig::mesh_3x3())
            .restore_snapshot(&bad, FP)
            .expect_err("out-of-range node id accepted");
        assert_eq!(err, SnapshotError::Structure("packet node id"));
    }

    // Trailing garbage means the blob is not what was saved.
    let mut padded = blob.clone();
    padded.push(0);
    let err = baseline_sim(NocConfig::mesh_3x3())
        .restore_snapshot(&padded, FP)
        .expect_err("trailing bytes accepted");
    assert_eq!(err, SnapshotError::Structure("trailing bytes"));
}

/// Offers one cycle of traffic whose blocks between them draw every word
/// code: zero runs and small integers (FP patterns), integers clustered
/// around a base, a few recurring words (LZ matches, DI dictionary hits),
/// floats, and control packets.
fn offer_mixed(sim: &mut NocSim, salt: u64, cycle: u64) {
    offer_mixed_at(sim, salt, cycle, 8);
}

/// [`offer_mixed`] with each node offering a packet with probability
/// `percent` / 100 per cycle.
fn offer_mixed_at(sim: &mut NocSim, salt: u64, cycle: u64, percent: u32) {
    let nodes = sim.num_nodes();
    let mut rng = Pcg32::seed_from_u64(salt ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for node in 0..nodes {
        if rng.below(100) >= percent {
            continue;
        }
        let src = NodeId(node as u16);
        let dest = NodeId(((node + 1 + rng.below(nodes as u32 - 1) as usize) % nodes) as u16);
        let (words, dtype): (Vec<u32>, _) = match rng.below(5) {
            0 => {
                sim.enqueue_control(src, dest);
                continue;
            }
            1 => (
                (0..16)
                    .map(|i| if i % 3 == 0 { 0 } else { rng.below(200) })
                    .collect(),
                DataType::Int,
            ),
            2 => {
                let base = rng.next_u32() & 0x00FF_FF00;
                (
                    (0..16).map(|_| base + rng.below(64)).collect(),
                    DataType::Int,
                )
            }
            3 => {
                let hot = [0x1234_5678, 0x0BAD_F00D, 0x00C0_FFEE];
                (
                    (0..16)
                        .map(|_| hot[rng.below(3) as usize] ^ rng.below(4))
                        .collect(),
                    DataType::Int,
                )
            }
            _ => (
                (0..16)
                    .map(|_| (1.0 + rng.below(1000) as f32 / 997.0).to_bits())
                    .collect(),
                DataType::F32,
            ),
        };
        sim.enqueue_data(src, dest, CacheBlock::new(words, dtype, true));
    }
}

/// A network whose every node runs the codec pair `pair` builds.
fn codec_sim(config: NocConfig, pair: impl Fn() -> NodeCodec) -> NocSim {
    let n = config.num_nodes();
    NocSim::new(config, (0..n).map(|_| pair()).collect())
}

/// FNV-1a of the blob each simulator saves mid-run. Between them the blobs
/// hold every record kind: data and control packets in flight, every
/// `WordCode` variant (FP, LZ and DI codecs), learned DI-VAXX tables,
/// in-band dictionary notifications, non-empty corruption and loss lists
/// and an armed QoS bank. Recorded before the serializers were derived from
/// one field list per record, and re-recorded at snapshot v3, when deleting
/// the base-delta word code renumbered the `Match` and `Dict` tags. A blob
/// format change moves them.
const BLOB_GOLDEN: [(&str, u64); 3] = [
    ("fp-vaxx", 0x1aae_4be2_c211_3b2b),
    ("lz-vaxx", 0x2d2b_c263_b862_f8dc),
    ("di-vaxx+in-band+qos+flips+loss", 0xfd53_7df8_4ebe_0447),
];

#[test]
fn saved_blob_bytes_match_golden() {
    let t = ErrorThreshold::from_percent(10).expect("valid");
    let avcl = Avcl::new(t);
    let mesh = NocConfig::mesh_3x3();
    let build = |name: &str| -> NocSim {
        match name {
            "fp-vaxx" => codec_sim(mesh.clone(), || {
                NodeCodec::new(
                    Box::new(FpEncoder::fp_vaxx(avcl)),
                    Box::new(FpDecoder::new()),
                )
            }),
            "lz-vaxx" => codec_sim(mesh.clone(), || {
                NodeCodec::new(
                    Box::new(LzEncoder::lz_vaxx(avcl)),
                    Box::new(LzDecoder::new()),
                )
            }),
            _ => {
                let config = NocConfig {
                    notify_in_band: true,
                    ..mesh.clone()
                };
                let mut sim = di_vaxx_sim(config, t);
                sim.set_qos(QosSpec::paper(970_000));
                sim.set_fault_plan(FaultPlan::bit_flips(11, 20_000));
                sim.set_loss_plan(LossPlan::uniform(17, 20_000));
                sim.set_bound_check(t);
                sim
            }
        }
    };
    let got: Vec<_> = BLOB_GOLDEN
        .iter()
        .map(|&(name, _)| {
            let mut sim = build(name);
            sim.begin_measurement();
            for c in 0..700 {
                offer_mixed(&mut sim, 9, c);
                sim.step();
                sim.discard_delivered();
            }
            assert!(sim.outstanding_packets() > 0, "{name}: nothing in flight");
            let blob = sim.save_snapshot(FP).expect("save");
            (name, format!("{:016x}", fnv1a64(&blob)))
        })
        .collect();
    let want: Vec<_> = BLOB_GOLDEN
        .iter()
        .map(|&(name, h)| (name, format!("{h:016x}")))
        .collect();
    assert_eq!(got, want);
}

/// FNV-1a of the blob [`kernel_trajectory_matches_golden`] saves every 250
/// cycles, at cycles 250 to 2,000. Recorded before the per-router
/// allocation loop became table-wide sweeps; a kernel change that moves a
/// simulated bit at any of these points moves one of them.
const TRAJECTORY_GOLDEN: [u64; 8] = [
    0x4ae1_b0d2_db0c_c8c3,
    0xd72d_9f1b_8507_c51e,
    0x4076_ca00_d5fe_737c,
    0x9da0_41f7_3f93_2abd,
    0x588c_b1d3_8592_9d89,
    0x76a9_f6c5_fbbd_0599,
    0xa46a_7b26_2aa8_d641,
    0x754e_7317_2695_89cb,
];

/// The `cmesh8-ur` geometry (8x8 routers, two nodes each, so six ports)
/// under mixed control and data traffic, with port stalls, credit drops,
/// duplicated credits (which overfill and grow VC rings), link bit flips
/// and lossy links all active. The blob saved every 250 cycles pins the
/// kernel's whole trajectory.
#[test]
fn kernel_trajectory_matches_golden() {
    let faults = FaultPlan {
        seed: 21,
        link_bit_flip_ppm: 5_000,
        port_stall_ppm: 20_000,
        stall_cycles: 3,
        credit_drop_ppm: 200,
        credit_dup_ppm: 20_000,
        dict_corrupt_ppm: 0,
    };
    let mut sim = baseline_sim(NocConfig::cmesh(8, 8, 2));
    sim.set_fault_plan(faults);
    sim.set_loss_plan(LossPlan::uniform(23, 5_000));
    sim.begin_measurement();
    let mut got = Vec::new();
    for c in 0..2_000 {
        offer_mixed_at(&mut sim, 13, c, 2);
        sim.step();
        sim.discard_delivered();
        if (c + 1) % 250 == 0 {
            got.push(fnv1a64(&sim.save_snapshot(FP).expect("save")));
        }
    }
    let f = sim.stats().faults;
    assert!(
        f.port_stalls > 0
            && f.credits_dropped > 0
            && f.credits_duplicated > 0
            && f.bit_flips > 0
            && f.words_lost > 0,
        "every fault site should fire: {f:?}"
    );
    let hex = |h: &[u64]| h.iter().map(|h| format!("{h:016x}")).collect::<Vec<_>>();
    assert_eq!(
        hex(&got),
        hex(&TRAJECTORY_GOLDEN),
        "the kernel left the pinned trajectory"
    );
}

#[test]
fn unclean_states_refuse_to_save() {
    // Undrained deliveries: the log is driver-facing state a restored run
    // could not reproduce.
    let mut sim = baseline_sim(NocConfig::mesh_3x3());
    sim.enqueue_control(NodeId(0), NodeId(8));
    assert!(sim.try_drain(500).unwrap());
    let err = sim.save_snapshot(FP).expect_err("undrained deliveries");
    assert!(matches!(err, SnapshotError::Unclean(_)), "{err}");
    sim.drain_delivered();
    sim.save_snapshot(FP).expect("clean after draining");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// serialize → restore → serialize is byte-identical for arbitrary
    /// mid-flight states, and the resumed run matches.
    #[test]
    fn round_trip_byte_identity(
        salt in 0u64..1_000_000,
        warm in 1u64..300,
    ) {
        let mut sim = baseline_sim(NocConfig::mesh_3x3());
        sim.begin_measurement();
        run_traffic(&mut sim, salt, 0, warm);
        let blob = sim.save_snapshot(salt).expect("save");
        let mut restored = baseline_sim(NocConfig::mesh_3x3());
        restored.restore_snapshot(&blob, salt).expect("restore");
        let blob2 = restored.save_snapshot(salt).expect("re-save");
        prop_assert_eq!(&blob, &blob2);
        run_traffic(&mut sim, salt, warm, 100);
        run_traffic(&mut restored, salt, warm, 100);
        prop_assert!(sim.try_drain(100_000).expect("drain"));
        prop_assert!(restored.try_drain(100_000).expect("drain"));
        prop_assert_eq!(fingerprint(&sim), fingerprint(&restored));
    }
}
