//! Approximate data responses in a multi-core cache hierarchy — the paper's
//! §5.4 methodology ("we emulate packet response whenever a miss happens").
//!
//! Sixteen cores with private L1 caches read a shared float array; every
//! miss pulls the cache line through a DI-VAXX value path. The annotated
//! (approximable) half of memory arrives within the error threshold while
//! the precise half is bit-exact — APPROX-NoC working in synergy with
//! precise storage, as §2.2 requires.
//!
//! ```sh
//! cargo run --release --example approximate_memory
//! ```

use approx_noc::apps::cachesim::{CacheConfig, CacheSim, Memory};
use approx_noc::apps::transport::ApproxTransport;
use approx_noc::core::data::{DataType, BLOCK_WORDS, WORD_BYTES};
use approx_noc::core::rng::Pcg32;
use approx_noc::core::threshold::ErrorThreshold;

fn main() {
    let config = CacheConfig::paper();
    println!(
        "cache hierarchy: {} cores x {} KB, {}-way, {} B lines",
        config.cores,
        config.capacity_bytes / 1024,
        config.ways,
        BLOCK_WORDS * WORD_BYTES
    );

    // Shared array: the first half is annotated approximable (e.g. pixel or
    // weight data), the second half must stay precise (e.g. indices).
    let words = 64 * 1024;
    let mut memory = Memory::new(words, DataType::F32).with_approx_range(0, words / 2);
    let mut rng = Pcg32::seed_from_u64(21);
    for a in 0..words {
        memory.set_f32(a, 100.0 + rng.f32() * 900.0);
    }

    let mut sim = CacheSim::new(config);
    let mut transport =
        ApproxTransport::di_vaxx(ErrorThreshold::from_percent(10).expect("10% is valid"));

    let mut max_err_approx: f64 = 0.0;
    let mut exact_words = 0u64;
    let accesses = 200_000;
    for i in 0..accesses {
        let core = (i % config.cores as u64) as usize;
        let addr = (rng.below(words as u32)) as usize;
        let seen = sim.read_f32(core, addr, &memory, &mut transport) as f64;
        let truth = memory.f32_at(addr) as f64;
        let err = (seen - truth).abs() / truth;
        if addr < words / 2 {
            max_err_approx = max_err_approx.max(err);
        } else {
            assert_eq!(seen, truth, "precise region corrupted");
            exact_words += 1;
        }
    }

    let stats = sim.stats();
    println!(
        "{accesses} accesses: {:.1}% miss ratio, {} block transfers over the NoC",
        stats.miss_ratio() * 100.0,
        stats.transfers
    );
    println!(
        "approximable region: worst-case relative error {:.2}% (threshold 10%)",
        max_err_approx * 100.0
    );
    println!("precise region: {exact_words} reads, all bit-exact");
}
