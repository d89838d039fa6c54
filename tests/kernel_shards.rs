//! Shard-count independence of the cycle kernel (DESIGN.md §10), checked in
//! the default test run. An 8x8 concentrated mesh (two nodes per router)
//! carries seeded mixed control/data traffic below saturation; at 2 and 3
//! shards the partitions cut many links, so flits and credits cross shard
//! boundaries every cycle.
//!
//! * Every statistic and activity counter must match at 1, 2 and 3 shards.
//! * A snapshot saved mid-flight at 3 shards, restored at 1, 2 and 4
//!   shards, must resume to exactly the uninterrupted serial run.

use approx_noc::core::data::{CacheBlock, NodeId};
use approx_noc::core::rng::Pcg32;
use approx_noc::core::snap::{Snap, SnapWriter};
use approx_noc::noc::{NocConfig, NocSim, NodeCodec};

const SEED: u64 = 42;
const WARMUP: u64 = 200;
const MEASURE: u64 = 600;
/// Where the sharded run saves its snapshot, inside the measurement window.
const SAVE_AT: u64 = WARMUP + MEASURE / 2;
/// Configuration fingerprint the snapshots are saved under.
const FP: u64 = 0x5AAD_0008;

fn sim(shards: usize) -> NocSim {
    let config = NocConfig::cmesh(8, 8, 2);
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    sim.set_shards(shards);
    sim
}

/// Offers cycle `cycle`'s traffic, keyed only on the cycle so a restored
/// simulation is offered exactly what the original was: 4% packets per
/// node, a quarter of them 9-flit data packets (0.12 flits/node/cycle, half
/// the mesh's bisection limit).
fn offer(sim: &mut NocSim, cycle: u64) {
    let nodes = sim.num_nodes();
    let mut rng = Pcg32::seed_from_u64(SEED ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for node in 0..nodes {
        let roll = rng.below(100);
        if roll >= 4 {
            continue;
        }
        let mut d = rng.below(nodes as u32) as usize;
        if d == node {
            d = (d + 1) % nodes;
        }
        let (src, dest) = (NodeId::from(node), NodeId::from(d));
        if roll < 3 {
            sim.enqueue_control(src, dest);
        } else {
            let base = rng.next_u32() as i32;
            let words: Vec<i32> = (0..16).map(|i| base.wrapping_add(i)).collect();
            sim.enqueue_data(src, dest, CacheBlock::from_i32(&words));
        }
    }
}

/// Steps cycles `from..to` with their traffic, opening the measurement
/// window at the end of warm-up.
fn run(sim: &mut NocSim, from: u64, to: u64) {
    for cycle in from..to {
        if cycle == WARMUP {
            sim.begin_measurement();
        }
        offer(sim, cycle);
        sim.step();
        sim.discard_delivered();
    }
}

/// Drains the network and returns everything the run reports: every
/// `NetStats` counter and histogram bucket, through its snapshot encoding,
/// and the activity report.
fn finish(sim: &mut NocSim) -> (Vec<u8>, String) {
    assert!(sim.try_drain(100_000).expect("no watchdog abort"), "drains");
    sim.record_unfinished();
    let mut w = SnapWriter::new();
    sim.stats().save(&mut w);
    (w.into_bytes(), format!("{:?}", sim.activity_report()))
}

#[test]
fn stats_and_activity_match_at_every_shard_count() {
    let mut serial = sim(1);
    run(&mut serial, 0, WARMUP + MEASURE);
    let want = finish(&mut serial);
    assert!(serial.stats().data_packets > 0 && serial.stats().control_packets > 0);
    for shards in [2, 3] {
        let mut sharded = sim(shards);
        assert_eq!(sharded.shard_count(), shards);
        run(&mut sharded, 0, WARMUP + MEASURE);
        assert_eq!(finish(&mut sharded), want, "{shards} shards diverged");
    }
}

#[test]
fn sharded_snapshot_resumes_at_any_shard_count() {
    let mut serial = sim(1);
    run(&mut serial, 0, WARMUP + MEASURE);
    let want = finish(&mut serial);

    let mut source = sim(3);
    run(&mut source, 0, SAVE_AT);
    assert!(source.outstanding_packets() > 0, "save mid-flight");
    let blob = source.save_snapshot(FP).expect("save at 3 shards");
    for shards in [1, 2, 4] {
        let mut resumed = sim(shards);
        resumed.restore_snapshot(&blob, FP).expect("restore");
        run(&mut resumed, SAVE_AT, WARMUP + MEASURE);
        assert_eq!(
            finish(&mut resumed),
            want,
            "restored at {shards} shards, resumed run diverged"
        );
    }
}
