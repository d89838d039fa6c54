//! End-to-end value-path properties: whatever traffic flows through the full
//! simulator, approximable data respects the threshold and precise data is
//! bit-exact — for every mechanism.

use approx_noc::core::avcl::Avcl;
use approx_noc::core::data::{CacheBlock, NodeId};
use approx_noc::harness::{Mechanism, SystemConfig};
use approx_noc::noc::NocSim;
use approx_noc::traffic::{Benchmark, DataModel};
use proptest::prelude::*;

fn sim_for(mechanism: Mechanism, pct: u32) -> NocSim {
    let config = SystemConfig::paper().with_threshold(pct);
    let codecs = mechanism.codecs(config.noc.num_nodes(), config.threshold());
    NocSim::new(config.noc, codecs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every delivered word of every mechanism respects the error threshold
    /// of its block (exact blocks: zero error).
    #[test]
    fn delivered_words_respect_thresholds(
        seed in any::<u64>(),
        pct in prop::sample::select(vec![5u32, 10, 20]),
        mech_idx in 0usize..5,
        n_blocks in 4usize..20,
    ) {
        let mechanism = Mechanism::ALL[mech_idx];
        let mut sim = sim_for(mechanism, pct);
        let mut model = DataModel::new(Benchmark::Ssca2, seed);
        let nodes = sim.num_nodes() as u32;
        let mut rng = approx_noc::core::rng::Pcg32::seed_from_u64(seed ^ 0xABCD);
        let mut sent: Vec<(u64, CacheBlock)> = Vec::new();
        for i in 0..n_blocks {
            let approx = i % 2 == 0;
            let block = model.next_block(approx);
            let src = NodeId::from(rng.below(nodes) as usize);
            let mut dst = NodeId::from(rng.below(nodes) as usize);
            while dst == src {
                dst = NodeId::from(rng.below(nodes) as usize);
            }
            let id = sim.enqueue_data(src, dst, block.clone());
            sent.push((id, block));
        }
        prop_assert!(sim.try_drain(100_000).unwrap());
        let mut delivered = sim.drain_delivered();
        delivered.sort_by_key(|d| d.id);
        prop_assert_eq!(delivered.len(), sent.len());
        let bound = pct as f64 / 100.0 + 1e-6;
        for (d, (id, precise)) in delivered.iter().zip(&sent) {
            prop_assert_eq!(d.id, *id);
            let got = d.block.as_ref().expect("data packet");
            prop_assert_eq!(got.len(), precise.len());
            if precise.is_approximable() {
                for (p, a) in precise.words().iter().zip(got.words()) {
                    let err = Avcl::relative_error(*p, *a, precise.dtype())
                        .unwrap_or(if p == a { 0.0 } else { 1.0 });
                    prop_assert!(
                        err <= bound,
                        "{mechanism} violated {pct}%: {p:#x} -> {a:#x} ({err})"
                    );
                }
            } else {
                prop_assert_eq!(got, precise, "{} corrupted precise data", mechanism);
            }
        }
    }
}

#[test]
fn threshold_zero_disables_all_approximation() {
    let mut sim = sim_for(Mechanism::FpVaxx, 0);
    let mut model = DataModel::new(Benchmark::Blackscholes, 77);
    let mut sent = Vec::new();
    for i in 0..10 {
        let block = model.next_block(true);
        sim.enqueue_data(NodeId(0), NodeId::from(1 + (i % 8) as usize), block.clone());
        sent.push(block);
    }
    assert!(sim.try_drain(50_000).unwrap());
    let mut delivered = sim.drain_delivered();
    delivered.sort_by_key(|d| d.id);
    for (d, precise) in delivered.iter().zip(&sent) {
        assert_eq!(d.block.as_ref().unwrap(), precise);
    }
    assert_eq!(sim.stats().encode.approx_encoded, 0);
}
