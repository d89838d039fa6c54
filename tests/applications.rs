//! Integration tests over the application layer: every kernel runs against
//! every transport flavour with sane error behaviour, and the cache
//! simulator composes with the kernels' data.

use approx_noc::apps::cachesim::{CacheConfig, CacheSim, Memory};
use approx_noc::apps::kernel::evaluate;
use approx_noc::apps::kernel::ApproxKernel;
use approx_noc::apps::transport::{
    AdversarialTransport, ApproxTransport, BlockTransport, PreciseTransport,
};
use approx_noc::apps::{default_kernels, ssca2::Ssca2};
use approx_noc::core::data::DataType;
use approx_noc::core::threshold::ErrorThreshold;

#[test]
fn all_kernels_run_and_errors_are_ordered() {
    let t10 = ErrorThreshold::from_percent(10).expect("valid");
    for kernel in default_kernels() {
        let precise_a = kernel.run(&mut PreciseTransport);
        let precise_b = kernel.run(&mut PreciseTransport);
        assert_eq!(precise_a, precise_b, "{} nondeterministic", kernel.name());
        assert!(!precise_a.is_empty());

        let mut fp = ApproxTransport::fp_vaxx(t10);
        let (_, _, realistic) = evaluate(kernel.as_ref(), &mut fp);
        let mut adv = AdversarialTransport::new(t10);
        let (_, _, worst) = evaluate(kernel.as_ref(), &mut adv);
        assert!(
            realistic <= worst + 0.02,
            "{}: realistic {realistic} > worst-case {worst}",
            kernel.name()
        );
        assert!(worst <= 1.0, "{}: error metric out of range", kernel.name());
    }
}

#[test]
fn worst_case_error_grows_with_budget() {
    // The Figure 16 x-axis behaviour on the most sensitive kernels.
    for kernel in default_kernels() {
        let mut errs = Vec::new();
        for pct in [5u32, 20] {
            let t = ErrorThreshold::from_percent(pct).expect("valid");
            let mut adv = AdversarialTransport::new(t);
            let (_, _, e) = evaluate(kernel.as_ref(), &mut adv);
            errs.push(e);
        }
        assert!(
            errs[0] <= errs[1] + 0.05,
            "{}: error shrank with budget {errs:?}",
            kernel.name()
        );
    }
}

#[test]
fn ssca2_kernel_composes_with_cache_hierarchy() {
    // Graph weights staged in shared memory, read through private caches
    // with approximate data responses, then consumed by the BC kernel's
    // error metric — the full §5.4 pipeline.
    let kernel = Ssca2::new(64, 256, 3);
    let exact = kernel.run(&mut PreciseTransport);

    let mut memory = Memory::new(4096, DataType::F32).with_approx_range(0, 4096);
    for (i, v) in exact.iter().enumerate().take(4096) {
        memory.set_f32(i, *v as f32);
    }
    let mut cache = CacheSim::new(CacheConfig {
        cores: 4,
        capacity_bytes: 4 * 1024,
        ways: 2,
    });
    let mut transport = ApproxTransport::di_vaxx(ErrorThreshold::from_percent(10).expect("valid"));
    let mut worst: f64 = 0.0;
    for core in 0..4 {
        for i in 0..exact.len().min(4096) {
            let seen = cache.read_f32(core, i, &memory, &mut transport) as f64;
            let truth = memory.f32_at(i) as f64;
            if truth != 0.0 {
                worst = worst.max((seen - truth).abs() / truth.abs());
            } else {
                assert_eq!(seen, truth, "zero words are special and exact");
            }
        }
    }
    assert!(
        worst <= 0.10 + 1e-6,
        "cache path violated threshold: {worst}"
    );
    assert!(cache.stats().transfers > 0);
}

#[test]
fn transports_compose_with_mixed_chunk_sizes() {
    let t = ErrorThreshold::from_percent(10).expect("valid");
    let mut fp = ApproxTransport::fp_vaxx(t);
    for len in [1usize, 15, 16, 17, 33] {
        let vals: Vec<f32> = (0..len).map(|i| 10.0 + i as f32).collect();
        let rx = fp.transmit_f32(&vals);
        assert_eq!(rx.len(), len);
        let ints: Vec<i32> = (0..len).map(|i| 1000 * (i as i32 + 1)).collect();
        let rxi = fp.transmit_i32(&ints);
        assert_eq!(rxi.len(), len);
    }
}
