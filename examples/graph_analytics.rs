//! Big-data graph analytics through an approximate NoC — the paper's
//! headline SSCA2 scenario.
//!
//! Builds an R-MAT small-world graph, computes betweenness centrality
//! precisely and with the pairwise dependency vectors routed through a
//! DI-VAXX value path, then shows that (a) the top-ranked entities are
//! preserved and (b) the NoC-level latency win on ssca2-shaped traffic.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use approx_noc::apps::graph::{betweenness_centrality, Graph};
use approx_noc::apps::transport::{ApproxTransport, PreciseTransport};
use approx_noc::core::metrics::mean_relative_error;
use approx_noc::core::threshold::ErrorThreshold;
use approx_noc::harness::runner::try_run_benchmark;
use approx_noc::harness::{Mechanism, SystemConfig};
use approx_noc::traffic::Benchmark;

fn main() {
    // --- Application-level accuracy -------------------------------------
    let graph = Graph::rmat(256, 1024, 7);
    println!(
        "R-MAT graph: {} vertices, {} edges (max degree {})",
        graph.len(),
        graph.num_edges(),
        (0..graph.len()).map(|v| graph.degree(v)).max().unwrap_or(0)
    );

    let _ = PreciseTransport;
    let exact = betweenness_centrality(&graph, usize::MAX, None);
    let threshold = ErrorThreshold::from_percent(10).expect("10% is valid");
    let mut transport = ApproxTransport::di_vaxx(threshold);
    let approx = betweenness_centrality(&graph, usize::MAX, Some(&mut transport));

    let err = mean_relative_error(&exact, &approx, 1.0);
    println!(
        "pair-wise BC error at a 10% data threshold: {:.3}%",
        err * 100.0
    );

    let top = |bc: &[f64]| {
        let mut idx: Vec<usize> = (0..bc.len()).collect();
        idx.sort_by(|a, b| bc[*b].partial_cmp(&bc[*a]).expect("finite BC"));
        idx.truncate(10);
        idx
    };
    let (te, ta) = (top(&exact), top(&approx));
    let overlap = te.iter().filter(|v| ta.contains(v)).count();
    println!("top-10 key entities preserved: {overlap}/10");

    // --- Network-level benefit ------------------------------------------
    let config = SystemConfig::paper().with_sim_cycles(15_000);
    let base =
        try_run_benchmark(Benchmark::Ssca2, Mechanism::DiComp, &config, 11).expect("run completes");
    let vaxx =
        try_run_benchmark(Benchmark::Ssca2, Mechanism::DiVaxx, &config, 11).expect("run completes");
    let fp =
        try_run_benchmark(Benchmark::Ssca2, Mechanism::FpVaxx, &config, 11).expect("run completes");
    println!(
        "\nssca2 traffic, avg packet latency: DI-COMP {:.1} | DI-VAXX {:.1} | FP-VAXX {:.1} cycles",
        base.avg_packet_latency(),
        vaxx.avg_packet_latency(),
        fp.avg_packet_latency()
    );
    println!(
        "latency reduction vs exact compression: {:.1}% (paper reports 36.7% for its graph workload)",
        (base.avg_packet_latency() - fp.avg_packet_latency()) / base.avg_packet_latency() * 100.0
    );
}
