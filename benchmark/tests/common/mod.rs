//! Smoke-run helper shared by the per-process smoke test files (the
//! harness's execution context is process-wide, so workloads that install
//! different contexts run in different test binaries).

use std::path::PathBuf;

use anoc_benchmark::spec::Spec;
use anoc_benchmark::workloads::{run, Group, Options, Scale, Workload};

/// Runs `workload` at smoke scale, untraced and traced, and checks that
/// nothing failed and that the emitted metrics are exactly the declared
/// ones, with the declared units.
pub fn smoke(workload: Workload) {
    let spec = Spec::builtin().expect("BENCHMARK.json parses");
    assert!(spec.workloads.iter().any(|w| w == workload.name()));
    for trace in [false, true] {
        let opts = Options {
            workload,
            seed: 7,
            repeats: 1,
            seconds: 0.0,
            trace,
            scale: Scale::smoke(),
            work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        };
        let o = run(&opts).expect("smoke run completes");
        assert_eq!(
            o.failed,
            0,
            "{} (trace {trace}) failed: {:?}",
            workload.name(),
            o.failures
        );
        assert!(o.correct() && o.attempted > 0);
        let (group, declared) = if trace {
            (Group::Layer, &spec.per_layer)
        } else {
            (Group::EndToEnd, &spec.end_to_end)
        };
        let mut emitted: Vec<(String, String)> = o
            .metrics
            .iter()
            .filter(|m| m.group == group)
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        let mut want: Vec<(String, String)> = declared
            .iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect();
        emitted.sort();
        want.sort();
        assert_eq!(emitted, want, "{} (trace {trace})", workload.name());
        for m in &o.metrics {
            assert!(
                m.samples.iter().all(|v| v.is_finite()),
                "{} {}: {:?}",
                workload.name(),
                m.name,
                m.samples
            );
        }
        if trace {
            assert!(o.trace.is_some(), "traced run keeps its spans");
        }
    }
}
