//! Golden output of `anoc run`: the FNV-1a hash of the stdout of `run all`
//! as text, as CSV and as JSON, and of the QoS and LZ studies as JSON, all
//! at 300 measured cycles. A rewrite of any table, its CSV or its JSON must
//! reproduce every byte. `run all --json` must carry, table by table,
//! exactly the CSV rows.
//! `anoc run fig12` must simulate only the points it prints.
//! `anoc cache stats` must report both stores that `anoc cache clear` empties.
//! `anoc replay` must turn a malformed trace into an `error:`, not a panic.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use anoc_exec::hash::fnv1a64;
use anoc_exec::{ResultCache, SnapshotStore};

/// `(name, anoc arguments, FNV-1a of stdout)`; every run adds
/// `--cycles 300 --out fig17`.
const GOLDEN: [(&str, &[&str], u64); 5] = [
    ("run all", &["run", "all"], 0xb6fb_49ad_edbf_0ac4),
    (
        "run all --csv",
        &["run", "all", "--csv"],
        0xbd50_81db_3caa_65cd,
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
    (
        "run all --json",
        &["run", "all", "--json"],
        0x5127_eed7_f401_8c37,
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

/// The stdout of every [`GOLDEN`] run, in order, from one working directory.
fn outputs() -> &'static [Vec<u8>] {
    static OUTPUTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    OUTPUTS.get_or_init(|| {
        let dir = work_dir();
        let out = GOLDEN
            .iter()
            .map(|(_, args, _)| stdout_of(&dir, args))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        out
    })
}

/// The stdout of the [`GOLDEN`] run called `name`.
fn output(name: &str) -> &'static [u8] {
    let i = GOLDEN.iter().position(|(n, _, _)| *n == name);
    &outputs()[i.unwrap_or_else(|| panic!("no golden run {name}"))]
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
    let csv = sections(output("run all --csv"));
    let json = sections(output("run all --json"));
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

/// Figure 12 simulates a curve's next rate only while the curve is at or
/// under its latency cap, so each cell it runs is a row it prints: the job
/// count of the stderr summary equals the CSV's data rows.
#[test]
fn fig12_simulates_only_the_points_it_prints() {
    let out = Command::new(env!("CARGO_BIN_EXE_anoc"))
        .args(["run", "fig12", "--cycles", "300", "--no-cache", "--csv"])
        .env("ANOC_PROGRESS", "0")
        .output()
        .expect("anoc starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "anoc run fig12 failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let header = stdout.lines().next().expect("a CSV header");
    let rows = stdout.lines().filter(|l| *l != header).count();
    let jobs: usize = stderr
        .split_once(" across ")
        .and_then(|(_, rest)| rest.split_once(" jobs"))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no job count on stderr: {stderr}"));
    assert_eq!(jobs, rows, "{stderr}");
    assert_eq!(rows, 148);
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
    store
        .put("another warmup", &[9; 24])
        .expect("put a snapshot");
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

/// A node id beyond the header's `nodes=`, and a header whose node count is
/// not the NoC's (the paper's 4x4 cmesh has 32 nodes): each is a runtime
/// error (exit 1) with an `error:` line, never a panic.
#[test]
fn replay_rejects_a_malformed_trace_without_panicking() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("anoc-cli-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the work directory");
    // A data record one word past a 64-byte line.
    let long = format!(
        "# anoc-trace v1 nodes=32\n0 0 1 D ia{}\n",
        " 00000007".repeat(17)
    );
    for (name, trace) in [
        ("node-out-of-range", "# anoc-trace v1 nodes=32\n0 0 40 C\n"),
        ("node-count-mismatch", "# anoc-trace v1 nodes=16\n0 0 1 C\n"),
        ("record-past-a-line", long.as_str()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, trace).expect("write the trace");
        let out = Command::new(env!("CARGO_BIN_EXE_anoc"))
            .args(["replay", "--cycles", "100", "--out"])
            .arg(&path)
            .env("ANOC_CACHE_DIR", dir.join("cache"))
            .env("ANOC_SNAPSHOT_DIR", dir.join("snapshots"))
            .output()
            .expect("anoc starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
