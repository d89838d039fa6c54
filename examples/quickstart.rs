//! Quickstart: simulate one benchmark under all five mechanisms and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use approx_noc::harness::runner::try_run_benchmark;
use approx_noc::harness::{Mechanism, SystemConfig};
use approx_noc::traffic::Benchmark;

fn main() {
    let config = SystemConfig::paper().with_sim_cycles(20_000);
    println!("APPROX-NoC quickstart — Table 1 configuration:");
    for (k, v) in config.table1_rows() {
        println!("  {k:<34} {v}");
    }

    let benchmark = Benchmark::Ssca2;
    println!(
        "\nSimulating {benchmark} under each mechanism ({} measured cycles):",
        config.sim_cycles
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}",
        "mechanism", "latency(cyc)", "data flits", "comp.ratio", "quality"
    );
    let mut baseline_latency = None;
    for mechanism in Mechanism::ALL {
        let r = try_run_benchmark(benchmark, mechanism, &config, 42).expect("run completes");
        if mechanism == Mechanism::Baseline {
            baseline_latency = Some(r.avg_packet_latency());
        }
        println!(
            "{:<10} {:>12.2} {:>12.3} {:>12.3} {:>9.2}%",
            mechanism.name(),
            r.avg_packet_latency(),
            r.stats.normalized_data_flits(),
            r.stats.encode.compression_ratio(),
            r.data_quality() * 100.0
        );
    }
    if let Some(base) = baseline_latency {
        let vaxx = try_run_benchmark(benchmark, Mechanism::FpVaxx, &config, 42)
            .expect("run completes")
            .avg_packet_latency();
        println!(
            "\nFP-VAXX cuts {benchmark}'s average packet latency by {:.1}% vs the baseline.",
            (base - vaxx) / base * 100.0
        );
    }
}
