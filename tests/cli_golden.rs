//! Golden output of `anoc run`: the FNV-1a hash of the stdout of `run all`
//! as text and as CSV, and of the QoS and LZ studies as JSON, all at 300
//! measured cycles, plus the literal rows a faults sweep prints for a failed
//! point. A rewrite of any table, its CSV or its JSON must reproduce every
//! byte. `run all --json` must carry, table by table, exactly the CSV rows.
//! `anoc cache stats` must report both stores that `anoc cache clear` empties.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use anoc_exec::hash::fnv1a64;
use anoc_exec::{CellError, CellFailure, ResultCache, SnapshotStore};
use approx_noc::harness::experiments::{faults_table, FaultCurvePoint};
use approx_noc::traffic::Benchmark;

/// `(name, anoc arguments, FNV-1a of stdout)`; every run adds
/// `--cycles 300 --out fig17`.
const GOLDEN: [(&str, &[&str], u64); 4] = [
    ("run all", &["run", "all"], 0x3695_50b7_5b7d_9783),
    (
        "run all --csv",
        &["run", "all", "--csv"],
        0x183b_417a_cd30_dbd0,
    ),
    (
        "run qos --json",
        &["run", "qos", "--json"],
        0x2b17_2ff4_6edb_7613,
    ),
    (
        "run lz --json",
        &["run", "lz", "--json"],
        0xc0cf_62a0_b895_b1b7,
    ),
];

/// A fresh working directory holding the run's result cache, snapshot store
/// and Figure 17 images. The first run fills the cache, so later runs answer
/// most cells from it.
fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("anoc-cli-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}

/// Runs `anoc` in `dir` and returns its stdout. The relative `--out` keeps
/// the printed image paths independent of where the repository lives.
fn stdout_of(dir: &Path, args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_anoc"))
        .args(args)
        .args(["--cycles", "300", "--out", "fig17"])
        .current_dir(dir)
        .env("ANOC_CACHE_DIR", dir.join("cache"))
        .env("ANOC_SNAPSHOT_DIR", dir.join("snapshots"))
        .output()
        .expect("anoc starts");
    assert!(
        out.status.success(),
        "anoc {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The stdout of every [`GOLDEN`] run, then of `run all --json`, from one
/// working directory.
fn outputs() -> &'static [Vec<u8>] {
    static OUTPUTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    OUTPUTS.get_or_init(|| {
        let dir = work_dir();
        let json_args: &[&str] = &["run", "all", "--json"];
        let runs = GOLDEN.iter().map(|(_, args, _)| *args);
        let out = runs
            .chain([json_args])
            .map(|args| stdout_of(&dir, args))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        out
    })
}

#[test]
fn anoc_run_stdout_matches_golden() {
    let hex = |name: &str, h: u64| (name.to_string(), format!("{h:016x}"));
    let got: Vec<_> = GOLDEN
        .iter()
        .zip(outputs())
        .map(|((name, _, _), out)| hex(name, fnv1a64(out)))
        .collect();
    let want: Vec<_> = GOLDEN.iter().map(|&(name, _, h)| hex(name, h)).collect();
    assert_eq!(got, want);
}

/// The `==== target ====` sections of `anoc run all`.
fn sections(out: &[u8]) -> Vec<(String, String)> {
    let out = String::from_utf8(out.to_vec()).expect("utf-8 stdout");
    out.split("==== ")
        .skip(1)
        .map(|s| {
            let (target, body) = s.split_once(" ====\n").expect("a section header");
            (target.to_string(), body.to_string())
        })
        .collect()
}

/// The `(key, value)` pairs of one JSON row object, string values unquoted
/// and `null` as the empty CSV field.
fn json_fields(row: &str) -> Vec<(String, String)> {
    let body = row.trim_end_matches(',');
    let body = body.strip_prefix("  {").and_then(|b| b.strip_suffix('}'));
    let body = body.unwrap_or_else(|| panic!("not a row object: {row}"));
    let mut fields = Vec::new();
    let (mut start, mut in_string) = (0, false);
    for (i, c) in body.char_indices().chain([(body.len(), ',')]) {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                let (key, value) = body[start..i].split_once(':').expect("key:value");
                let value = match value {
                    "null" => "",
                    v => v.trim_matches('"'),
                };
                fields.push((key.trim_matches('"').to_string(), value.to_string()));
                start = i + 1;
            }
            _ => {}
        }
    }
    fields
}

#[test]
fn json_tables_carry_the_csv_rows() {
    let csv = sections(&outputs()[1]);
    let json = sections(&outputs()[GOLDEN.len()]);
    assert_eq!(csv.len(), json.len());
    for ((target, csv), (json_target, json)) in csv.iter().zip(&json) {
        assert_eq!(target, json_target);
        if !json.starts_with("{\"study\":") {
            assert_eq!(json, csv, "{target} prints the same text in both formats");
            continue;
        }
        let study = format!("{{\"study\":\"{target}\",\"rows\":[");
        assert!(json.starts_with(&study), "{target}: {json}");
        assert_eq!(
            json.find("\n]}\n"),
            Some(json.len() - 4),
            "{target}: one document"
        );
        let mut csv_lines = csv.lines();
        let header_line = csv_lines.next().expect("a CSV header");
        let header: Vec<&str> = header_line.split(',').collect();
        // Figure 12's CSV repeats its header per panel.
        let mut csv_rows = csv_lines.filter(|l| *l != header_line);
        for row in json.lines().filter(|l| l.starts_with("  {")) {
            let fields = json_fields(row);
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, header, "{target}: {row}");
            let values: Vec<&str> = fields.iter().map(|(_, v)| v.as_str()).collect();
            let csv_row: Vec<&str> = csv_rows.next().expect("a CSV row").split(',').collect();
            assert_eq!(values, csv_row, "{target}: {row}");
        }
        assert_eq!(csv_rows.next(), None, "{target}: CSV rows without JSON");
    }
}

#[test]
fn faults_sweep_prints_failed_points() {
    let point = |flip_ppm, quality, bit_flips, violations| FaultCurvePoint {
        flip_ppm,
        avg_latency: 14.766917293233083,
        quality,
        bit_flips,
        bound_checked_words: 1376,
        bound_violations: violations,
    };
    let points = [
        (0, Some(point(0, 0.9982921236946849, 0, 0))),
        (1_000, None),
        (100_000, Some(point(100_000, 0.9371554540589585, 165, 96))),
    ];
    let failures = [CellFailure {
        index: 1,
        id: "blackscholes/FP-VAXX/s42".into(),
        error: CellError::Failed("network deadlock: stalled".into()),
    }];
    let table = faults_table(Benchmark::Blackscholes, &points, &failures);
    assert_eq!(
        table.text(),
        "Fault-injection sweep: blackscholes / FP-VAXX\n\
         flip_ppm    latency   quality   bit_flips    checked  violations\n       \
         0      14.77    0.9983           0       1376           0\n    \
         1000     failed (see below)\n  \
         100000      14.77    0.9372         165       1376          96\n\
         failed: cell 1 (blackscholes/FP-VAXX/s42) failed: network deadlock: stalled\n"
    );
    assert_eq!(
        table.csv(),
        "flip_ppm,avg_latency,quality,bit_flips,bound_checked_words,bound_violations\n\
         0,14.766917293233083,0.9982921236946849,0,1376,0\n\
         1000,,,,,\n\
         100000,14.766917293233083,0.9371554540589585,165,1376,96\n"
    );
}

/// The stdout of `anoc cache <action>` over the stores in `dir`.
fn cache_command(dir: &Path, action: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_anoc"))
        .args(["cache", action])
        .env("ANOC_CACHE_DIR", dir.join("cache"))
        .env("ANOC_SNAPSHOT_DIR", dir.join("snapshots"))
        .output()
        .expect("anoc starts");
    assert!(
        out.status.success(),
        "anoc cache {action} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn cache_stats_reports_the_snapshot_store_that_clear_empties() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("anoc-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(dir.join("cache")).expect("open the result cache");
    let store = SnapshotStore::open(dir.join("snapshots")).expect("open the snapshot store");
    cache.put("a cell", "a payload").expect("put a result");
    store.put("a warmup", &[7; 40]).expect("put a snapshot");
    store.put("a checkpoint", &[9; 24]).expect("put a snapshot");
    let line = |entries: usize, bytes: u64| {
        format!(
            "snapshot store: {entries} entries, {bytes} bytes, at {}\n",
            store.dir().display()
        )
    };
    let stats = cache_command(&dir, "stats");
    assert!(stats.starts_with("result cache: 1 entries, "), "{stats}");
    assert!(stats.ends_with(&line(2, store.size_bytes())), "{stats}");
    assert!(store.size_bytes() > 64, "the frames count toward the bytes");
    let cleared = cache_command(&dir, "clear");
    assert!(cleared.contains("cleared 2 snapshots"), "{cleared}");
    assert!(cache_command(&dir, "stats").ends_with(&line(0, 0)));
    let _ = std::fs::remove_dir_all(&dir);
}
