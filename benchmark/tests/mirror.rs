//! The benchmark's mirrored runner loop must compute exactly what the
//! harness runner computes, traced or not: a timing of the mirror is only a
//! timing of the runner's work if the two produce the same payload.

use std::time::Instant;

use anoc_benchmark::mirror::run_cell;
use anoc_benchmark::trace::{Call, Off, SpanKind, Tracer};
use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::try_run_benchmark;
use anoc_harness::{Mechanism, SystemConfig};
use anoc_traffic::{Benchmark, BenchmarkTraffic};

#[test]
fn mirror_payload_equals_runner_payload() {
    let cfg = SystemConfig::paper().with_sim_cycles(800);
    let seed = 7;
    for benchmark in [Benchmark::Ssca2, Benchmark::Blackscholes] {
        for mechanism in [Mechanism::Baseline, Mechanism::DiVaxx, Mechanism::LzVaxx] {
            let runner = try_run_benchmark(benchmark, mechanism, &cfg, seed).expect("runner cell");
            let expected = encode_run_result(&runner);
            let source = || BenchmarkTraffic::new(benchmark, 32, cfg.approx_ratio, seed);

            let plain = run_cell(&mut Off, &mut source(), mechanism, &cfg).expect("mirrored cell");
            assert_eq!(
                encode_run_result(&plain.result),
                expected,
                "{benchmark}/{mechanism}: untraced mirror differs from the runner"
            );

            let mut tracer = Tracer::new(Instant::now());
            let traced =
                run_cell(&mut tracer, &mut source(), mechanism, &cfg).expect("traced cell");
            assert_eq!(
                encode_run_result(&traced.result),
                expected,
                "{benchmark}/{mechanism}: traced mirror differs from the runner"
            );
            let cycles = cfg.warmup_cycles + cfg.sim_cycles;
            assert_eq!(tracer.call(Call::Step).0, cycles, "one step lap per cycle");
            assert_eq!(tracer.durations(SpanKind::Cell).len(), 1);
            assert_eq!(tracer.durations(SpanKind::Drain).len(), 1);
            // Every nanosecond of the cell is either in a layer or
            // unattributed (up to clock rounding).
            let split = tracer.split();
            let covered = split.layer_ns.iter().sum::<u64>() + split.unattributed_ns;
            assert!(
                covered.abs_diff(split.root_ns) <= split.root_ns / 1000 + 1_000,
                "layers + unattributed {covered} ns vs cell {} ns",
                split.root_ns
            );
        }
    }
}
