//! Smoke-scale runs of the workloads that share one process: the matrix
//! installs the harness's cache-less execution context; the 8x8 run and
//! the codec stream install none.

mod common;

use anoc_benchmark::workloads::Workload;

#[test]
fn matrix4x4_smoke() {
    common::smoke(Workload::Matrix4x4);
}

#[test]
fn cmesh8_ur_smoke() {
    common::smoke(Workload::Cmesh8Ur);
}

#[test]
fn codec_stream_smoke() {
    common::smoke(Workload::CodecStream);
}
