//! NoC integration tests exercising codec-coupled behaviour that the unit
//! tests (baseline codecs only) cannot reach: in-band dictionary
//! notifications, the §4.3 latency-hiding optimizations, and allocation
//! fairness under sustained contention.

use anoc_compression::di::{DiConfig, DiDecoder, DiEncoder};
use anoc_core::avcl::Avcl;
use anoc_core::data::{CacheBlock, NodeId};
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_noc::{NocConfig, NocSim, NodeCodec, PacketKind};

fn di_codecs(nodes: usize, in_band: bool) -> Vec<NodeCodec> {
    let _ = in_band;
    let cfg = DiConfig::for_nodes(nodes);
    let t = ErrorThreshold::from_percent(10).expect("valid");
    (0..nodes)
        .map(|_| {
            NodeCodec::new(
                Box::new(DiEncoder::di_vaxx(cfg, Avcl::new(t))),
                Box::new(DiDecoder::new(cfg)),
            )
        })
        .collect()
}

#[test]
fn in_band_notifications_travel_as_control_packets() {
    let mut config = NocConfig::mesh_3x3();
    config.notify_in_band = true;
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, di_codecs(nodes, true));
    // Repeated data from node 0 to node 8, spaced out so earlier blocks are
    // decoded (and the dictionary learned) before later ones are encoded:
    // the decoder must send install notifications back as real single-flit
    // control packets.
    for round in 0..8 {
        sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[0xBEEF; 16]));
        let _ = round;
        sim.run(200);
    }
    assert!(sim.drain(20_000));
    let delivered = sim.drain_delivered();
    let controls = delivered
        .iter()
        .filter(|d| d.kind == PacketKind::Control)
        .count();
    let datas = delivered
        .iter()
        .filter(|d| d.kind == PacketKind::Data)
        .count();
    assert_eq!(datas, 8);
    assert!(
        controls >= 1,
        "dictionary installs should appear as control packets"
    );
    // All notification packets flow decoder -> encoder (node 8 -> node 0).
    for d in delivered.iter().filter(|d| d.kind == PacketKind::Control) {
        assert_eq!(d.src, NodeId(8));
        assert_eq!(d.dest, NodeId(0));
    }
    // And the dictionary did its job: later blocks compress.
    assert!(
        sim.stats().encode.encoded_fraction() > 0.3,
        "{:?}",
        sim.stats().encode
    );
}

#[test]
fn latency_hiding_reduces_exposed_compression_latency() {
    // A single packet into an empty NI pays the exposed compression latency;
    // with both optimizations it pays comp - 1, without them the full comp.
    let run = |hide: bool, overlap: bool| {
        let mut config = NocConfig::mesh_3x3();
        config.hide_compression = hide;
        config.va_overlap = overlap;
        let nodes = config.num_nodes();
        let t = ErrorThreshold::from_percent(10).expect("valid");
        let codecs = (0..nodes)
            .map(|_| {
                NodeCodec::new(
                    Box::new(anoc_compression::fp::FpEncoder::fp_vaxx(Avcl::new(t))),
                    Box::new(anoc_compression::fp::FpDecoder::new()),
                )
            })
            .collect();
        let mut sim = NocSim::new(config, codecs);
        sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[7; 16]));
        assert!(sim.drain(10_000));
        sim.stats().avg_queue_latency()
    };
    let with_overlap = run(true, true);
    let without_overlap = run(true, false);
    // The VA overlap shaves exactly one exposed cycle for a lone packet.
    assert!(
        (without_overlap - with_overlap - 1.0).abs() < 1e-9,
        "with {with_overlap} vs without {without_overlap}"
    );
    // With an empty queue hide_compression alone changes nothing (nothing to
    // amortize against) — the exposed latency is the same.
    let no_hiding = run(false, false);
    assert!((no_hiding - without_overlap).abs() < 1e-9);
}

#[test]
fn queue_overlap_hides_compression_under_backlog() {
    // With a backlog, hide_compression removes the exposed latency entirely
    // for the queued packets.
    let run = |hide: bool| {
        let mut config = NocConfig::mesh_3x3();
        config.hide_compression = hide;
        config.va_overlap = false;
        let nodes = config.num_nodes();
        let t = ErrorThreshold::from_percent(10).expect("valid");
        let codecs = (0..nodes)
            .map(|_| {
                NodeCodec::new(
                    Box::new(anoc_compression::fp::FpEncoder::fp_vaxx(Avcl::new(t))),
                    Box::new(anoc_compression::fp::FpDecoder::new()),
                )
            })
            .collect();
        let mut sim = NocSim::new(config, codecs);
        for _ in 0..10 {
            sim.enqueue_data(
                NodeId(0),
                NodeId(8),
                CacheBlock::from_i32(&[0x12345678; 16]),
            );
        }
        assert!(sim.drain(20_000));
        sim.stats().queue_lat_sum
    };
    let hidden = run(true);
    let exposed = run(false);
    assert!(
        hidden < exposed,
        "queue overlap should hide compression: {hidden} vs {exposed}"
    );
}

#[test]
fn drain_phase_deliveries_still_count() {
    // A packet created inside the measurement window but delivered after
    // `end_measurement()` (the standard warmup/measure/drain methodology)
    // must still contribute its delivered flits. Gating delivery accounting
    // on the window being open undercounts exactly the window's tail.
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    sim.begin_measurement();
    sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[3; 16]));
    sim.run(2); // still in flight
    sim.end_measurement();
    assert!(sim.drain(10_000));
    let s = sim.stats();
    assert_eq!(s.packets, 1);
    assert_eq!(s.flits_injected, 9);
    assert_eq!(
        s.flits_delivered, s.flits_injected,
        "measured flits delivered during the drain phase must count"
    );
}

#[test]
fn short_queue_cannot_absorb_compression_latency() {
    // §4.3: with latency hiding, compression overlaps the queue wait — but
    // a packet behind a short queue still pays the residual compression
    // cycles that have not elapsed by the time it reaches the queue head.
    // A 1-deep queue shifts the overlap window; it does not erase it.
    let mut config = NocConfig::mesh_3x3();
    config.hide_compression = true;
    config.va_overlap = false;
    let nodes = config.num_nodes();
    let t = ErrorThreshold::from_percent(10).expect("valid");
    // The cycle a data packet from node 0 to node 8 completes, behind a
    // single-flit control packet or alone, and its flit count.
    let data_done_at = |control_ahead: bool| {
        let codecs = (0..nodes)
            .map(|_| {
                NodeCodec::new(
                    Box::new(anoc_compression::fp::FpEncoder::fp_vaxx(Avcl::new(t))),
                    Box::new(anoc_compression::fp::FpDecoder::new()),
                )
            })
            .collect();
        let mut sim = NocSim::new(config.clone(), codecs);
        if control_ahead {
            sim.enqueue_control(NodeId(0), NodeId(8));
        }
        let pid = sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[7; 16]));
        assert!(sim.drain(10_000));
        let delivered = sim.drain_delivered();
        let done_at = delivered
            .iter()
            .find(|d| d.id == pid)
            .expect("data packet delivered")
            .done_at;
        (done_at, sim.stats().data_flits_injected)
    };
    // FP encoder compression latency (no VA-overlap credit).
    let comp = 3;
    // Alone, nothing hides compression: the head flit injects once the
    // compression cycles elapse, makes the 1 + 3 x 5-cycle trip through the
    // five routers of its XY path, the body follows a flit per cycle, and
    // decoding takes 2 cycles.
    let (alone, flits) = data_done_at(false);
    assert_eq!(
        alone,
        comp + 1 + 3 * 5 + (flits - 1) + 2,
        "data packet of {flits} flits completed at {alone}"
    );
    // The control packet ahead injects at cycle 0, so the data packet
    // reaches the queue head well before its compression finishes: the
    // residual cycles are still paid, and it completes no earlier.
    assert_eq!(
        data_done_at(true).0,
        alone,
        "the short queue absorbed un-elapsed compression cycles"
    );
}

#[test]
fn switch_allocation_is_fair_under_contention() {
    // Three nodes hammer one destination; per-source delivered counts should
    // be within a reasonable band of each other (round-robin arbitration).
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    let sources = [NodeId(0), NodeId(2), NodeId(6)];
    let mut offered = std::collections::BTreeMap::new();
    for round in 0..600 {
        if round % 2 == 0 {
            for s in sources {
                sim.enqueue_data(s, NodeId(4), CacheBlock::from_i32(&[1; 16]));
                *offered.entry(s).or_insert(0u32) += 1;
            }
        }
        sim.step();
    }
    sim.drain(100_000);
    let delivered = sim.drain_delivered();
    let mut per_src = std::collections::BTreeMap::new();
    for d in &delivered {
        *per_src.entry(d.src).or_insert(0u32) += 1;
    }
    let counts: Vec<u32> = sources.iter().map(|s| per_src[s]).collect();
    let min = *counts.iter().min().expect("three sources");
    let max = *counts.iter().max().expect("three sources");
    assert_eq!(counts.iter().sum::<u32>() as usize, delivered.len());
    assert!(
        max - min <= max / 3 + 2,
        "unfair delivery counts: {counts:?}"
    );
}

/// Runs a fixed uniform-random workload (baseline codecs, warmup +
/// measurement + full drain inside the measurement window) and renders every
/// statistic and activity counter into one string. The workload deliberately
/// avoids the paths whose accounting the measurement-window and
/// latency-hiding fixes intentionally changed (no `end_measurement()` before
/// draining, zero-latency codecs), so the fingerprint pins the *kernel*:
/// any slab/scratch-buffer/worklist refactor must reproduce it bit for bit.
fn kernel_fingerprint(config: NocConfig) -> String {
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    let mut rng = Pcg32::seed_from_u64(0xA90C);
    let offer = |sim: &mut NocSim, rng: &mut Pcg32| {
        for node in 0..nodes {
            let roll = rng.below(100);
            if roll >= 6 {
                continue;
            }
            let mut d = rng.below(nodes as u32) as usize;
            if d == node {
                d = (d + 1) % nodes;
            }
            if roll < 4 {
                sim.enqueue_control(NodeId(node as u16), NodeId(d as u16));
            } else {
                let w = rng.next_u32() as i32;
                sim.enqueue_data(
                    NodeId(node as u16),
                    NodeId(d as u16),
                    CacheBlock::from_i32(&[w; 16]),
                );
            }
        }
    };
    for _ in 0..400 {
        offer(&mut sim, &mut rng);
        sim.step();
    }
    sim.begin_measurement();
    for _ in 0..800 {
        offer(&mut sim, &mut rng);
        sim.step();
    }
    assert!(sim.drain(100_000), "workload failed to drain");
    sim.record_unfinished();
    let s = sim.stats();
    let a = sim.activity_report();
    format!(
        "cyc={} pk={} dp={} cp={} ql={} nl={} dl={} fi={} dfi={} cfi={} fd={} bdf={} unf={} hist={} p50={} p99={} bw={} br={} va={} xb={} lt={}",
        s.cycles,
        s.packets,
        s.data_packets,
        s.control_packets,
        s.queue_lat_sum,
        s.net_lat_sum,
        s.decode_lat_sum,
        s.flits_injected,
        s.data_flits_injected,
        s.control_flits_injected,
        s.flits_delivered,
        s.baseline_data_flits,
        s.unfinished,
        s.latency_histogram.samples(),
        s.latency_histogram.percentile(50.0),
        s.latency_histogram.percentile(99.0),
        a.routers.buffer_writes,
        a.routers.buffer_reads,
        a.routers.vc_allocs,
        a.routers.crossbar_traversals,
        a.routers.link_traversals,
    )
}

/// Determinism guard for the allocation-free kernel refactor: these strings
/// were captured from the pre-refactor `HashMap`-based kernel (PR 1 state)
/// and every subsequent kernel must reproduce them exactly.
#[test]
fn kernel_refactor_is_behavior_preserving() {
    assert_eq!(
        kernel_fingerprint(NocConfig::mesh_3x3()),
        "cyc=821 pk=446 dp=138 cp=308 ql=347 nl=5872 dl=0 fi=1550 dfi=1242 cfi=308 fd=1550 \
         bdf=1242 unf=0 hist=446 p50=13 p99=47 bw=6484 br=6484 va=1844 xb=6484 lt=4235"
    );
    assert_eq!(
        kernel_fingerprint(NocConfig::paper_4x4_cmesh()),
        "cyc=846 pk=1517 dp=510 cp=1007 ql=1829 nl=28511 dl=0 fi=5597 dfi=4590 cfi=1007 fd=5597 \
         bdf=4590 unf=0 hist=1517 p50=19 p99=63 bw=29454 br=29454 va=8102 xb=29454 lt=21172"
    );
    assert_eq!(
        kernel_fingerprint(NocConfig::mesh_8x8()),
        "cyc=854 pk=3162 dp=1064 cp=2098 ql=4127 nl=90706 dl=0 fi=11674 dfi=9576 cfi=2098 \
         fd=11674 bdf=9576 unf=0 hist=3162 p50=27 p99=79 bw=107774 br=107774 va=29230 xb=107774 \
         lt=90593"
    );
}

#[test]
fn drain_reports_failure_when_deadline_too_short() {
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    for _ in 0..50 {
        sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[1; 16]));
    }
    assert!(!sim.drain(10), "50 big packets cannot drain in 10 cycles");
    assert!(sim.outstanding_packets() > 0);
    assert!(sim.drain(100_000), "and they do drain eventually");
}

#[test]
fn pipeline_timing_is_three_cycles_per_hop() {
    // An uncontended control packet created at cycle 0 injects that cycle,
    // crosses the one-cycle NI link, spends three cycles in each router of
    // its XY path (BW, VA/SA, ST/LT; the last router's ejection included)
    // and decodes in 0 cycles: it completes at 1 + 3 x routers, i.e. at
    // cycles 7, 10, 13 and 16 at nodes 1, 2, 5 and 8.
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    for (dest, routers) in [(1, 2), (2, 3), (5, 4), (8, 5)] {
        let codecs = (0..nodes).map(|_| NodeCodec::baseline()).collect();
        let mut sim = NocSim::new(config.clone(), codecs);
        let pid = sim.enqueue_control(NodeId(0), NodeId(dest));
        assert!(sim.drain(1_000));
        let delivered = sim.drain_delivered();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, pid);
        assert_eq!(
            delivered[0].done_at,
            1 + 3 * routers,
            "node 0 -> node {dest}"
        );
    }
}

fn lz_codecs(nodes: usize, percent: u32) -> Vec<NodeCodec> {
    use anoc_compression::lz::{LzDecoder, LzEncoder};
    let t = if percent == 0 {
        ErrorThreshold::exact()
    } else {
        ErrorThreshold::from_percent(percent).expect("valid")
    };
    (0..nodes)
        .map(|_| {
            NodeCodec::new(
                Box::new(LzEncoder::lz_vaxx(Avcl::new(t))),
                Box::new(LzDecoder::new()),
            )
        })
        .collect()
}

#[test]
fn lz_vaxx_delivers_within_bound_through_the_noc() {
    // End-to-end: LZ-VAXX codecs in the NIs, the bound auditor armed at the
    // same 10% the encoder approximates at. Every delivered word must sit
    // within the threshold of what was enqueued, and the auditor must agree.
    use anoc_core::data::DataType;
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, lz_codecs(nodes, 10));
    sim.set_bound_check(ErrorThreshold::from_percent(10).expect("valid"));
    let mut rng = Pcg32::seed_from_u64(0x12F0);
    let mut sent = Vec::new();
    for _ in 0..12 {
        // Benchmark-shaped data: runs of a base value with small jitter
        // (inside the 10% budget), zeros, and some noise words.
        let base = (rng.next_u32() >> 12) as i32 + 1;
        let words: Vec<i32> = (0..16)
            .map(|i| match i % 4 {
                0 | 1 => base + (rng.below(1 + base as u32 / 16) as i32),
                2 => 0,
                _ => (rng.next_u32() >> rng.below(24)) as i32,
            })
            .collect();
        let block = CacheBlock::from_i32(&words);
        sent.push(block.clone());
        sim.enqueue_data(NodeId(0), NodeId(8), block);
        sim.run(100); // spaced, so deliveries stay in order
    }
    assert!(sim.drain(20_000));
    assert!(
        sim.take_fatal_error().is_none(),
        "bound checker must not fire on a fault-free LZ-VAXX run"
    );
    let delivered: Vec<_> = sim
        .drain_delivered()
        .into_iter()
        .filter(|d| d.kind == PacketKind::Data)
        .collect();
    assert_eq!(delivered.len(), sent.len());
    for (orig, d) in sent.iter().zip(&delivered) {
        let got = d.block.as_ref().expect("data packet has a block");
        for (p, a) in orig.words().iter().zip(got.words()) {
            let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
            assert!(err <= 0.10 + 1e-9, "word {p:#x} -> {a:#x} err {err}");
        }
    }
    let s = sim.stats();
    assert!(s.faults.bound_checked_words > 0, "auditor saw no words");
    assert_eq!(s.faults.bound_violations, 0);
    assert!(
        s.encode.bits_out < s.encode.bits_in,
        "LZ-VAXX failed to compress: {:?}",
        s.encode
    );
}

#[test]
fn lz_vaxx_seed_dictionary_is_a_fault_site() {
    // The dict-corruption fault site must reach the LZ encoder's seed
    // dictionary: with corruption at every opportunity the injector's
    // counter climbs, and the run completes (violations are non-fatal while
    // faults are active).
    use anoc_noc::FaultPlan;
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, lz_codecs(nodes, 10));
    sim.set_fault_plan(FaultPlan {
        seed: 7,
        dict_corrupt_ppm: 1_000_000,
        ..FaultPlan::none()
    });
    sim.set_bound_check(ErrorThreshold::from_percent(10).expect("valid"));
    for i in 0..10 {
        sim.enqueue_data(
            NodeId(0),
            NodeId(8),
            CacheBlock::from_i32(&[i, i, 1000 + i, 1000 + i]),
        );
        sim.run(100);
    }
    assert!(sim.drain(20_000));
    assert!(sim.take_fatal_error().is_none());
    let s = sim.stats();
    assert!(
        s.faults.dict_corruptions >= 10,
        "every data enqueue should corrupt a seed slot: {:?}",
        s.faults
    );
    assert!(s.faults.bound_checked_words > 0);
}
