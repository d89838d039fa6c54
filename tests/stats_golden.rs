//! Counter-order golden: every counter of a [`RunResult`] holds a distinct
//! value, so the cache payload shows which slot each counter lands in. A
//! round trip cannot catch a field swap made in both the writer and the
//! reader; this literal can.

use approx_noc::core::codec::{CodecActivity, EncodeStats};
use approx_noc::core::metrics::QualityAccumulator;
use approx_noc::harness::persist::{decode_run_result, encode_run_result};
use approx_noc::harness::runner::RunResult;
use approx_noc::harness::Mechanism;
use approx_noc::noc::router::RouterActivity;
use approx_noc::noc::{ActivityReport, FaultStats, LatencyHistogram, NetStats};

/// A result whose counters are pairwise distinct.
fn distinct_counters() -> RunResult {
    let codec = |base: u64| CodecActivity {
        cam_searches: base + 1,
        tcam_searches: base + 2,
        table_updates: base + 3,
        avcl_ops: base + 4,
        words_encoded: base + 5,
        words_decoded: base + 6,
        notifications: base + 7,
    };
    RunResult {
        mechanism: Mechanism::DiVaxx,
        stats: NetStats {
            cycles: 101,
            packets: 102,
            data_packets: 103,
            control_packets: 104,
            queue_lat_sum: 105,
            net_lat_sum: 106,
            decode_lat_sum: 107,
            flits_injected: 108,
            data_flits_injected: 109,
            control_flits_injected: 110,
            flits_delivered: 111,
            baseline_data_flits: 112,
            encode: EncodeStats {
                words: 201,
                exact_encoded: 202,
                approx_encoded: 203,
                raw: 204,
                bits_in: 205,
                bits_out: 206,
            },
            quality: QualityAccumulator::from_raw(301, 0.5, 0.25),
            unfinished: 113,
            faults: FaultStats {
                bit_flips: 401,
                port_stalls: 402,
                credits_dropped: 403,
                credits_duplicated: 404,
                dict_corruptions: 405,
                bound_checked_words: 406,
                bound_violations: 407,
                words_lost: 408,
            },
            latency_histogram: LatencyHistogram::from_buckets([(3, 501), (9, 502)], 503)
                .expect("valid buckets"),
        },
        activity: ActivityReport {
            routers: RouterActivity {
                buffer_writes: 601,
                buffer_reads: 602,
                vc_allocs: 603,
                crossbar_traversals: 604,
                link_traversals: 605,
            },
            encoders: codec(700),
            decoders: codec(800),
            cycles: 901,
        },
        nodes: 32,
        total_cycles: 902,
        drained: true,
    }
}

#[test]
fn every_counter_lands_in_its_payload_slot() {
    let payload = encode_run_result(&distinct_counters());
    assert_eq!(
        payload,
        "# anoc-result v8\n\
         mechanism DI-VAXX\n\
         nodes 32\n\
         total_cycles 902\n\
         drained true\n\
         stats 101 102 103 104 105 106 107 108 109 110 111 112 113\n\
         encode 201 202 203 204 205 206\n\
         quality 301 3fe0000000000000 3fd0000000000000\n\
         faults 401 402 403 404 405 406 407 408\n\
         hist 503 3:501 9:502\n\
         routers 601 602 603 604 605\n\
         encoders 701 702 703 704 705 706 707\n\
         decoders 801 802 803 804 805 806 807\n\
         activity_cycles 901\n"
    );
    let back = decode_run_result(&payload).expect("decodes");
    assert_eq!(encode_run_result(&back), payload);
}
