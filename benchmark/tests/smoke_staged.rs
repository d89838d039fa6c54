//! Smoke-scale run of the staged sweep, alone in its process because it
//! installs the harness's execution context with a result cache and a
//! snapshot store.

mod common;

use anoc_benchmark::workloads::Workload;

#[test]
fn staged_sweep_smoke() {
    common::smoke(Workload::StagedSweep);
}
