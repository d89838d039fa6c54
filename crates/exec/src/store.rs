//! The on-disk keyed store behind the result cache and the snapshot store.
//!
//! Entries are files named by the FNV-1a digest of their key. Each file
//! stores the full key (so a digest collision reads as a miss, never as
//! another key's payload) ahead of the payload bytes:
//!
//! ```text
//! # anoc-cache v1
//! key fig9 config{...} mechanism=FP-VAXX benchmark=ssca2 seed=42
//! ---
//! <payload bytes...>
//! ```
//!
//! Two views share this code and differ only in payload type and file
//! extension. [`ResultCache`] holds text campaign results as
//! `<digest>.txt`, each written as its cell finishes, so a killed campaign's
//! rerun simulates only the cells it never completed. [`SnapshotStore`]
//! holds binary post-warmup simulator states as `<digest>.snap`, keyed by
//! the warmup half of a sweep cell's configuration, so cells differing only
//! inside the measurement window fork from one shared warmup. The payload's
//! own integrity (result format version, snapshot version and config
//! fingerprint) is the caller's job; the store only frames and names it.
//!
//! Writes go through a uniquely named temp file and an atomic rename, so
//! concurrent campaign workers never observe torn entries. Unreadable,
//! malformed or colliding entries are misses: a store can make a campaign
//! slower, never wrong.

use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::key_digest;

/// Every entry file opens with its magic line and the start of its key
/// line; the key and [`KEY_END`] follow, then the payload.
const HEAD: &str = "# anoc-cache v1\nkey ";
/// Ends the key line and the frame.
const KEY_END: &str = "\n---\n";

/// What a [`KeyedStore`] holds: the extension of its entry files and how a
/// payload is read back from the stored bytes.
pub trait Payload: Sized {
    /// Entry file extension: entries are named `<digest>.<EXT>`.
    const EXT: &'static str;
    /// The borrowed form [`KeyedStore::put`] takes.
    type Borrowed: AsRef<[u8]> + ?Sized;
    /// Converts stored bytes back; `None` makes the entry a miss.
    fn from_bytes(bytes: Vec<u8>) -> Option<Self>;
}

impl Payload for String {
    const EXT: &'static str = "txt";
    type Borrowed = str;
    fn from_bytes(bytes: Vec<u8>) -> Option<Self> {
        String::from_utf8(bytes).ok()
    }
}

impl Payload for Vec<u8> {
    const EXT: &'static str = "snap";
    type Borrowed = [u8];
    fn from_bytes(bytes: Vec<u8>) -> Option<Self> {
        Some(bytes)
    }
}

/// A directory of keyed entries holding payloads of type `P`.
#[derive(Debug, Clone)]
pub struct KeyedStore<P> {
    dir: PathBuf,
    payload: PhantomData<fn() -> P>,
}

/// A directory of cached campaign results (text payloads, `<digest>.txt`).
pub type ResultCache = KeyedStore<String>;

/// A directory of stored simulator snapshots (binary payloads,
/// `<digest>.snap`).
pub type SnapshotStore = KeyedStore<Vec<u8>>;

impl<P: Payload> KeyedStore<P> {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(KeyedStore {
            dir,
            payload: PhantomData,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.{}", key_digest(key), P::EXT))
    }

    /// Looks up `key`, returning the stored payload on a hit.
    pub fn get(&self, key: &str) -> Option<P> {
        read_entry(&self.path_of(key), Some(key))
    }

    /// Stores `payload` under `key`, replacing any previous entry.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `key` spans more than one line (the frame keeps it
    /// on one); otherwise propagates I/O errors from writing the entry.
    pub fn put(&self, key: &str, payload: &P::Borrowed) -> io::Result<()> {
        // The pid alone is not unique: two pool workers putting entries with
        // the same digest would share a temp file and could rename a torn
        // mix of their writes into place. A process-wide counter (one for
        // every payload type) makes every put's temp file distinct.
        static PUT_SEQ: AtomicU64 = AtomicU64::new(0);
        if key.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store keys must be single-line",
            ));
        }
        let tmp_path = self.dir.join(format!(
            ".{}.tmp-{}-{}",
            key_digest(key),
            std::process::id(),
            PUT_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(format!("{HEAD}{key}{KEY_END}").as_bytes())?;
            f.write_all(payload.as_ref())?;
        }
        std::fs::rename(&tmp_path, self.path_of(key))
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entry_paths().count()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of all entries in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.entry_paths()
            .filter_map(|p| p.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Iterates over the payloads of every well-formed entry (unreadable or
    /// malformed files are skipped, as in [`get`](Self::get)). The store is
    /// payload-agnostic; this lets tooling layered on top inspect stored
    /// payloads (e.g. report a format-version mix) without the store
    /// knowing the payload schema.
    pub fn payloads(&self) -> impl Iterator<Item = P> + '_ {
        self.entry_paths().filter_map(|p| read_entry(&p, None))
    }

    /// Deletes every entry, returning how many were removed. Also sweeps
    /// orphaned temp files (left behind by a put whose process died between
    /// create and rename); they are not counted, as they were never entries.
    ///
    /// # Errors
    ///
    /// Propagates the first deletion error.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        for path in self.entry_paths().collect::<Vec<_>>() {
            std::fs::remove_file(path)?;
            removed += 1;
        }
        let orphans: Vec<PathBuf> = dir_paths(&self.dir)
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with('.') && n.contains(".tmp-"))
            })
            .collect();
        for path in orphans {
            std::fs::remove_file(path)?;
        }
        Ok(removed)
    }

    /// Only committed entries qualify: `<16-hex-digest>.<EXT>`. In-flight
    /// `.tmp-` files (and anything else in the directory) are invisible to
    /// iteration, statistics and clearing-by-count, so a put racing with a
    /// stats call can never be observed half-written.
    fn entry_paths(&self) -> impl Iterator<Item = PathBuf> {
        dir_paths(&self.dir).filter(|p| {
            p.extension().is_some_and(|e| e == P::EXT)
                && p.file_stem()
                    .and_then(|s| s.to_str())
                    .is_some_and(|s| s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit()))
        })
    }
}

/// Every path in `dir` (none if it cannot be read).
fn dir_paths(dir: &Path) -> impl Iterator<Item = PathBuf> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
}

/// Reads the payload of the entry file at `path` if its frame names `key`
/// (any key, for `None`). Misses are an unreadable file, a foreign or
/// truncated frame, another key (a digest collision), or bytes `P` rejects.
fn read_entry<P: Payload>(path: &Path, key: Option<&str>) -> Option<P> {
    let mut bytes = std::fs::read(path).ok()?;
    let rest = bytes.strip_prefix(HEAD.as_bytes())?;
    let key = match key {
        Some(key) => key.as_bytes(),
        None => rest.split(|&b| b == b'\n').next()?,
    };
    let payload = rest.strip_prefix(key)?.strip_prefix(KEY_END.as_bytes())?;
    let start = bytes.len() - payload.len();
    bytes.drain(..start);
    P::from_bytes(bytes)
}

/// The default result-cache directory: `$ANOC_CACHE_DIR` or
/// `target/anoc-cache`.
pub fn default_cache_dir() -> PathBuf {
    dir_from_env("ANOC_CACHE_DIR", "anoc-cache")
}

/// The default snapshot directory: `$ANOC_SNAPSHOT_DIR` or
/// `target/anoc-snapshots`.
pub fn default_snapshot_dir() -> PathBuf {
    dir_from_env("ANOC_SNAPSHOT_DIR", "anoc-snapshots")
}

fn dir_from_env(var: &str, name: &str) -> PathBuf {
    std::env::var_os(var)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store<P: Payload>(name: &str) -> KeyedStore<P> {
        let dir =
            std::env::temp_dir().join(format!("anoc-exec-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        KeyedStore::open(dir).expect("open temp store")
    }

    #[test]
    fn round_trip_hits() {
        let store: SnapshotStore = temp_store("roundtrip");
        assert!(store.get("warmup a").is_none());
        let blob: Vec<u8> = (0..=255).collect();
        store.put("warmup a", &blob).expect("put");
        assert_eq!(store.get("warmup a").as_deref(), Some(&blob[..]));
        assert_eq!(store.len(), 1);
        assert!(store.size_bytes() > blob.len() as u64);
        // An empty payload round-trips too.
        store.put("empty", b"").expect("put");
        assert_eq!(store.get("empty").as_deref(), Some(&b""[..]));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let store: SnapshotStore = temp_store("alias");
        store.put("cell a", b"A").expect("put");
        store.put("cell b", b"B").expect("put");
        assert_eq!(store.get("cell a").as_deref(), Some(&b"A"[..]));
        assert_eq!(store.get("cell b").as_deref(), Some(&b"B"[..]));
        assert!(store.get("cell c").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn collision_or_garbage_is_a_miss() {
        let store: SnapshotStore = temp_store("corrupt");
        store.put("real key", b"payload").expect("put");
        let path = store.dir().join(format!("{}.snap", key_digest("real key")));
        // Same digest file, other stored keys: a miss, never their payload.
        for other in ["other key", "real key 2", "real"] {
            let forged = format!("# anoc-cache v1\nkey {other}\n---\npayload");
            std::fs::write(&path, forged).expect("write");
            assert!(store.get("real key").is_none(), "key {other} read as a hit");
        }
        // Garbage, truncated frames and a bad separator are misses too.
        for junk in [
            "not an entry",
            "# anoc-cache v1\nkey real key",
            "# anoc-cache v1\nkey real key\n---",
            "# anoc-cache v1\nkey real key\n--\npayload",
        ] {
            std::fs::write(&path, junk).expect("write");
            assert!(store.get("real key").is_none(), "{junk:?} read as a hit");
        }
        // So is a snapshot file in the older binary frame: magic, key
        // length, key, blob. The runner then replays its warmup, and the put
        // that follows rewrites it in this frame.
        let mut old = b"ANOCSSTR".to_vec();
        old.extend_from_slice(&(b"real key".len() as u64).to_le_bytes());
        old.extend_from_slice(b"real key");
        old.extend_from_slice(b"blob");
        std::fs::write(&path, old).expect("write");
        assert!(store.get("real key").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn text_frame_is_stable() {
        // The exact bytes every result-cache file has carried since the
        // first format: a cache filled by an older build still hits.
        let cache: ResultCache = temp_store("frame");
        let path = cache.dir().join(format!("{}.txt", key_digest("fig13 k")));
        std::fs::write(
            &path,
            "# anoc-cache v1\nkey fig13 k\n---\n# result v8\nbody\n",
        )
        .expect("write");
        assert_eq!(cache.get("fig13 k").as_deref(), Some("# result v8\nbody\n"));
        cache.put("fig13 k", "# result v8\nbody\n").expect("put");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "# anoc-cache v1\nkey fig13 k\n---\n# result v8\nbody\n"
        );
        // A text payload that is not UTF-8 is a miss.
        std::fs::write(&path, b"# anoc-cache v1\nkey fig13 k\n---\n\xff\xfe").expect("write");
        assert!(cache.get("fig13 k").is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn views_keep_their_own_file_names() {
        // Both views in one directory: each sees only its own extension.
        let cache: ResultCache = temp_store("views");
        let store = SnapshotStore::open(cache.dir()).expect("open");
        cache.put("k", "text").expect("put");
        store.put("k", b"blob").expect("put");
        let digest = key_digest("k");
        assert!(cache.dir().join(format!("{digest}.txt")).exists());
        assert!(cache.dir().join(format!("{digest}.snap")).exists());
        assert_eq!((cache.len(), store.len()), (1, 1));
        assert_eq!(cache.get("k").as_deref(), Some("text"));
        assert_eq!(store.get("k").as_deref(), Some(&b"blob"[..]));
        assert_eq!(cache.clear().expect("clear"), 1);
        assert_eq!(store.get("k").as_deref(), Some(&b"blob"[..]));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn overwrite_replaces_payload() {
        let store: SnapshotStore = temp_store("overwrite");
        store.put("k", b"old").expect("put");
        store.put("k", b"new longer blob").expect("put");
        assert_eq!(store.get("k").as_deref(), Some(&b"new longer blob"[..]));
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn multi_line_key_is_rejected() {
        let cache: ResultCache = temp_store("multiline");
        let err = cache.put("two\nlines", "x").expect_err("multi-line key");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn payloads_iterates_entries_and_skips_malformed_files() {
        let cache: ResultCache = temp_store("payloads");
        cache.put("k1", "# fmt v1\nbody").expect("put");
        cache.put("k2", "# fmt v2\nbody").expect("put");
        // A malformed file with a valid-looking name must be skipped.
        let bogus = cache.dir().join("00000000deadbeef.txt");
        std::fs::write(&bogus, "not a cache file").expect("write");
        let mut firsts: Vec<String> = cache
            .payloads()
            .filter_map(|p| p.lines().next().map(str::to_string))
            .collect();
        firsts.sort();
        assert_eq!(firsts, vec!["# fmt v1", "# fmt v2"]);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn orphaned_temp_files_are_invisible_and_swept_by_clear() {
        // A process killed between temp-file create and rename leaves a
        // `.tmp-` orphan behind. It must not count as an entry, must not
        // appear in payload iteration or size accounting, and clear() must
        // sweep it without counting it.
        let store: SnapshotStore = temp_store("orphans");
        for i in 0..3 {
            store.put(&format!("k{i}"), b"s").expect("put");
        }
        let size_before = store.size_bytes();
        let orphan = store.dir().join(".deadbeefdeadbeef.tmp-999-0");
        std::fs::write(&orphan, b"half-written entry").expect("write orphan");
        assert_eq!(store.len(), 3, "orphan counted as an entry");
        assert_eq!(store.payloads().count(), 3);
        assert_eq!(store.size_bytes(), size_before, "orphan counted in size");
        assert_eq!(store.clear().expect("clear"), 3, "orphan inflated count");
        assert!(!orphan.exists(), "orphan survived clear");
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn concurrent_puts_of_one_key_never_tear() {
        // Hammer a single key from many threads: every get must observe one
        // writer's complete payload, never a mix, and no temp files survive.
        let store: SnapshotStore = temp_store("race");
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let payload = vec![t; 4096];
                    for _ in 0..50 {
                        store.put("contended key", &payload).expect("put");
                        let got = store.get("contended key").expect("entry exists");
                        assert_eq!(got.len(), payload.len(), "torn entry length");
                        assert!(got.iter().all(|&b| b == got[0]), "torn entry mixes writers");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer thread");
        }
        assert_eq!(store.len(), 1);
        let leftovers: Vec<_> = dir_paths(store.dir())
            .filter(|p| p.to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn default_dirs_fall_back_under_target() {
        // Checks the fallback shape without mutating the process env (other
        // tests run in parallel).
        for (dir, var, name) in [
            (default_cache_dir(), "ANOC_CACHE_DIR", "anoc-cache"),
            (
                default_snapshot_dir(),
                "ANOC_SNAPSHOT_DIR",
                "anoc-snapshots",
            ),
        ] {
            assert!(
                dir.ends_with(Path::new("target").join(name)) || std::env::var_os(var).is_some()
            );
        }
    }
}
