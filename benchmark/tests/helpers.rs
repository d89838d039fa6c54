//! Order statistics, `compare` verdicts and the small formats the benchmark
//! reads and writes.

use anoc_benchmark::compare::{bound_for, compare, verdict, Verdict};
use anoc_benchmark::json::Json;
use anoc_benchmark::spec::{Better, Spec};
use anoc_benchmark::summary::{median, percentile, quartiles, Summary};
use anoc_benchmark::workloads::{per_layer_names, Fnv, Workload, END_TO_END};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the exclusive
    // method extrapolates past the ends of a short sample.
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 50.0), 3.0);
    assert!((percentile(&v, 95.0) - 4.8).abs() < 1e-12);
    assert_eq!(percentile(&v, 100.0), 5.0);
}

#[test]
fn summary_spread_is_iqr_over_median() {
    let s = Summary::of(&[10.0, 10.0, 10.0, 10.0]);
    assert_eq!(s.spread(), 0.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&ten);
    assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
    assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
}

#[test]
fn verdicts_follow_the_bound_and_the_direction() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let shift = |k: f64| a.iter().map(|v| v * k).collect::<Vec<_>>();
    // Inside the bound either way: same.
    assert_eq!(verdict(&a, &shift(1.05), Better::Lower, 0.1), Verdict::Same);
    assert_eq!(verdict(&a, &shift(0.95), Better::Lower, 0.1), Verdict::Same);
    // A 10% move counts.
    assert_eq!(
        verdict(&a, &shift(1.10), Better::Lower, 0.1),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&a, &shift(0.85), Better::Lower, 0.1),
        Verdict::Better
    );
    assert_eq!(
        verdict(&a, &shift(1.20), Better::Higher, 0.1),
        Verdict::Better
    );
    assert_eq!(
        verdict(&a, &shift(0.80), Better::Higher, 0.1),
        Verdict::Worse
    );
}

#[test]
fn wide_spread_is_unresolved_unless_the_runs_separate() {
    let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
    let overlapping = [60.0, 110.0, 160.0, 90.0, 130.0];
    assert_eq!(
        verdict(&noisy, &overlapping, Better::Lower, 0.1),
        Verdict::Unresolved
    );
    // Every B run beats every A run: resolved despite the spread.
    let faster = [10.0, 20.0, 30.0, 15.0, 25.0];
    assert_eq!(
        verdict(&noisy, &faster, Better::Lower, 0.1),
        Verdict::Better
    );
    assert_eq!(verdict(&faster, &noisy, Better::Lower, 0.1), Verdict::Worse);
}

#[test]
fn setup_bound_has_a_twenty_millisecond_floor() {
    let spec = Spec::builtin().expect("BENCHMARK.json parses");
    let setup = spec
        .end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s declared");
    assert!((bound_for(setup, 0.001) - 20.0).abs() < 1e-9);
    assert_eq!(bound_for(setup, 1.0), setup.bound.expect("bounded"));
    // Millisecond set-ups that spread widely: a 30% move is noise, 30 ms is
    // not.
    let a = [0.0010, 0.0014, 0.0008, 0.0011, 0.0012];
    let bound = bound_for(setup, median(&a));
    let slower: Vec<f64> = a.iter().map(|v| v * 1.3).collect();
    assert_eq!(verdict(&a, &slower, Better::Lower, bound), Verdict::Same);
    let much_slower: Vec<f64> = a.iter().map(|v| v + 0.03).collect();
    assert_eq!(
        verdict(&a, &much_slower, Better::Lower, bound),
        Verdict::Worse
    );
    // Other metrics keep their declared share.
    let op = spec.end_to_end.iter().find(|d| d.name == "ns_per_op");
    let op = op.expect("ns_per_op declared");
    assert_eq!(bound_for(op, 1e-6), op.bound.expect("bounded"));
}

fn run_file(workload: &str, metric: &str, samples: &[f64]) -> Json {
    let list = samples
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    Json::parse(&format!(
        r#"{{"workload":"{workload}","traced":false,"metrics":{{"{metric}":{{"unit":"s","samples":[{list}]}}}}}}"#
    ))
    .expect("valid run file")
}

#[test]
fn compare_reads_bounds_from_the_declaration() {
    let spec = Spec::builtin().expect("BENCHMARK.json parses");
    let op = spec
        .end_to_end
        .iter()
        .find(|d| d.name == "ns_per_op")
        .expect("ns_per_op declared");
    assert_eq!(op.better, Better::Lower);
    let a = run_file("matrix4x4", "ns_per_op", &[1.0, 1.01, 0.99]);
    let b = run_file("matrix4x4", "ns_per_op", &[1.5, 1.51, 1.49]);
    let ledger = Json::parse(&format!(r#"{{"runs":[{}]}}"#, b.render())).expect("ledger");
    let rows = compare(&spec, &a, &ledger);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].verdict, Verdict::Worse);
    // Undeclared metrics and traced runs are not compared.
    let c = run_file("matrix4x4", "wall_s", &[1.0]);
    assert!(compare(&spec, &c, &c).is_empty());
}

#[test]
fn declaration_matches_the_code() {
    let spec = Spec::builtin().expect("BENCHMARK.json parses");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let e2e: Vec<(&str, &str)> = spec
        .end_to_end
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layer: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(layer, per_layer_names());
    // setup_s carries the largest bound; every bound is at most 0.25.
    let bounds: Vec<f64> = spec.end_to_end.iter().filter_map(|d| d.bound).collect();
    let setup = spec.end_to_end.iter().find(|d| d.name == "setup_s");
    let max = bounds.iter().copied().fold(0.0, f64::max);
    assert_eq!(setup.and_then(|d| d.bound), Some(max));
    assert!(max <= 0.25);
}

#[test]
fn json_round_trips_and_keeps_every_digit() {
    let text = r#"{"a":[1,2.5,-3e-7],"b":{"c":"x\"yé","d":null,"e":true}}"#;
    let v = Json::parse(text).expect("parses");
    assert_eq!(Json::parse(&v.render()).expect("reparses"), v);
    assert_eq!(Json::parse(&v.render_pretty()).expect("reparses"), v);
    let measured = 0.123_456_789_012_345_67_f64;
    let back = Json::parse(&Json::Num(measured).render()).expect("number");
    assert_eq!(back.as_f64(), Some(measured));
    assert!(Json::parse("{\"a\":1,}").is_err());
    assert!(Json::parse("[1] 2").is_err());
}

#[test]
fn incremental_fnv_matches_the_exec_hash() {
    let mut f = Fnv::default();
    f.write(b"anoc-");
    f.write(b"benchmark");
    assert_eq!(f.finish(), anoc_exec::hash::fnv1a64(b"anoc-benchmark"));
}
