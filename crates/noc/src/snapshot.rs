//! Versioned binary snapshots of the complete simulator state.
//!
//! A snapshot captures everything [`NocSim`](crate::NocSim) needs to resume
//! bit-identically: routers (VC buffers, credits, allocator round-robin
//! state), NIs and their queues, the slab packet store, the event ring, the
//! fault-RNG cursor, progress bookkeeping and the measurement statistics.
//! The blob starts with a magic, a format version and a caller-supplied
//! configuration fingerprint, so a stale or mismatched snapshot is rejected
//! with a typed [`SnapshotError`] — never misparsed into a plausible-looking
//! simulation (DESIGN.md §11).
//!
//! Deliberately *excluded* from the blob (and why):
//!
//! * the mesh, config and router wiring — pure functions of the
//!   configuration, which the fingerprint pins;
//! * packet slots — flits name their packet by its rank in the blob's
//!   packet list, because free-list history leaves holes in the slab;
//! * the delivered-packet log — observability state the driver drains each
//!   step; saving refuses if it is non-empty;
//! * the bound checker, watchdog, fault *plan*, loss *plan* and QoS *spec*
//!   — armed by the caller, who must re-arm them before restoring (the
//!   restored fault/loss RNG cursors, controller-bank state and progress
//!   clock then overwrite what arming reset; a blob carrying QoS state
//!   refuses to restore into a simulator whose bank is not armed).
//!
//! Every record travels through its [`Snap`] impl, on the little-endian
//! primitives of [`anoc_core::snap`], so blobs are byte-stable across hosts.

use std::fmt;

use anoc_core::snap::{Snap, SnapError, SnapReader};

/// First eight bytes of every snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ANOCSNAP";

/// Current snapshot format version. Bump on any layout change.
///
/// v2: packets carry their approximation level and lossy-link erasures,
/// `FaultStats` gained `words_lost`, and the blob serializes the loss-RNG
/// cursor plus (when armed) the per-flow QoS controller bank. v1 blobs
/// predate all of that and are rejected, never misparsed.
///
/// v3: the base-delta word code (tag 3) was deleted, so `Match` is now
/// tag 3 and `Dict` tag 4. A v2 blob holding LZ or DI codes in flight would
/// misparse under the new tags, so v2 is refused.
pub const SNAPSHOT_VERSION: u32 = 3;

/// A typed failure while saving or restoring a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob ended before the expected field.
    Truncated,
    /// The blob does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The blob's format version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The blob was saved under a different configuration fingerprint.
    FingerprintMismatch,
    /// A field decoded to a value inconsistent with the target simulator.
    Structure(&'static str),
    /// The simulator is not in a snapshot-safe state (see the field).
    Unclean(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "snapshot format v{v}, expected v{SNAPSHOT_VERSION}")
            }
            SnapshotError::FingerprintMismatch => {
                write!(f, "snapshot was saved under a different configuration")
            }
            SnapshotError::Structure(what) => write!(f, "inconsistent snapshot field: {what}"),
            SnapshotError::Unclean(what) => write!(f, "state not snapshot-safe: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::Truncated => SnapshotError::Truncated,
            SnapError::Invalid(what) => SnapshotError::Structure(what),
        }
    }
}

anoc_core::snap_record! {
    /// Where an event-ring arrival lands, in the blob's form: a router id
    /// and input port, or the ejecting node. The kernel itself holds
    /// [`Hop`](crate::router::Hop)s; save and restore translate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum LinkDest {
        /// Input port `port` of router `router`.
        Router { router: usize, port: usize },
        /// The ejection path of node `node`.
        Eject { node: usize },
    }
}

/// Reads a [`LinkDest`] and checks its router or node against the
/// network's geometry.
pub(crate) fn load_link_dest(
    r: &mut SnapReader<'_>,
    num_routers: usize,
    num_nodes: usize,
) -> Result<LinkDest, SnapError> {
    let dest = LinkDest::load(r)?;
    match dest {
        LinkDest::Router { router, .. } if router >= num_routers => {
            Err(SnapError::Invalid("arrival router id"))
        }
        LinkDest::Eject { node } if node >= num_nodes => Err(SnapError::Invalid("arrival node id")),
        _ => Ok(dest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultStats;
    use crate::histogram::LatencyHistogram;
    use crate::stats::NetStats;
    use anoc_core::codec::{EncodeStats, EncodedBlock, Notification, WordCode};
    use anoc_core::data::{CacheBlock, DataType};
    use anoc_core::metrics::QualityAccumulator;
    use anoc_core::snap::SnapWriter;

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::BadVersion(7).to_string().contains("v7"));
        assert!(SnapshotError::FingerprintMismatch
            .to_string()
            .contains("configuration"));
        assert!(SnapshotError::Unclean("a fatal error is pending")
            .to_string()
            .contains("fatal"));
        let e: SnapshotError = SnapError::Truncated.into();
        assert_eq!(e, SnapshotError::Truncated);
        let e: SnapshotError = SnapError::Invalid("x").into();
        assert_eq!(e, SnapshotError::Structure("x"));
    }

    /// Every counter of the stats block holds a distinct value, so the
    /// words a snapshot stores show each counter's slot. A round trip cannot
    /// catch a swap made in both `save` and `load`.
    #[test]
    fn every_stats_counter_lands_in_its_snapshot_slot() {
        let stats = NetStats {
            cycles: 101,
            packets: 102,
            data_packets: 103,
            control_packets: 104,
            queue_lat_sum: 105,
            net_lat_sum: 106,
            decode_lat_sum: 107,
            flits_injected: 108,
            data_flits_injected: 109,
            control_flits_injected: 110,
            flits_delivered: 111,
            baseline_data_flits: 112,
            encode: EncodeStats {
                words: 201,
                exact_encoded: 202,
                approx_encoded: 203,
                raw: 204,
                bits_in: 205,
                bits_out: 206,
            },
            quality: QualityAccumulator::from_raw(301, 0.5, 0.25),
            unfinished: 113,
            faults: FaultStats {
                bit_flips: 401,
                port_stalls: 402,
                credits_dropped: 403,
                credits_duplicated: 404,
                dict_corruptions: 405,
                bound_checked_words: 406,
                bound_violations: 407,
                words_lost: 408,
            },
            latency_histogram: LatencyHistogram::from_buckets([(3, 501), (9, 502)], 503)
                .expect("valid buckets"),
        };
        let mut w = SnapWriter::new();
        stats.save(&mut w);
        let bytes = w.into_bytes();
        let words: Vec<u64> = bytes
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte words")))
            .collect();
        assert_eq!(
            words,
            [
                101,
                102,
                103,
                104,
                105,
                106,
                107,
                108,
                109,
                110,
                111,
                112,
                201,
                202,
                203,
                204,
                205,
                206,
                301,
                0x3fe0_0000_0000_0000,
                0x3fd0_0000_0000_0000,
                113,
                401,
                402,
                403,
                404,
                405,
                406,
                407,
                408,
                503,
                2,
                3,
                501,
                9,
                502,
            ]
        );
        let back = NetStats::load(&mut SnapReader::new(&bytes)).expect("loads");
        let mut again = SnapWriter::new();
        back.save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn word_codes_round_trip() {
        let codes = vec![
            WordCode::Raw {
                word: 0xdead_beef,
                prefix_bits: 3,
            },
            WordCode::Pattern {
                index: 5,
                adjunct: 0x1234,
                adjunct_bits: 16,
                approx: true,
            },
            WordCode::ZeroRun { len: 8 },
            WordCode::Match {
                distance: 17,
                len: 4,
                dist_bits: 5,
                approx: true,
            },
            WordCode::Dict {
                index: 3,
                index_bits: 3,
                approx: false,
                pattern: 99,
            },
        ];
        let block = EncodedBlock::new(codes, DataType::F32, true);
        let mut w = SnapWriter::new();
        block.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = EncodedBlock::load(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.codes(), block.codes());
        assert_eq!(back.dtype(), block.dtype());
        assert_eq!(back.is_approximable(), block.is_approximable());
    }

    /// A snapshot carries a block as its length, its words, its data type
    /// and its flag: checked at every length from 0 to one 64-byte line's
    /// 16 words against the bytes a plain word list writes. A list of 17 is
    /// refused as a typed error.
    mod block_round_trip {
        use super::*;
        use anoc_core::data::BLOCK_WORDS;
        use anoc_core::snap::SnapError;
        use proptest::prelude::*;

        const MAX_LEN: usize = BLOCK_WORDS;

        fn dtype_of(f32: bool) -> DataType {
            if f32 {
                DataType::F32
            } else {
                DataType::Int
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn blocks_and_codes_round_trip_at_every_length(
                all_words in prop::collection::vec(any::<u32>(), MAX_LEN + 1),
                f32 in any::<bool>(),
                approximable in any::<bool>(),
            ) {
                let dtype = dtype_of(f32);
                for n in 0..=MAX_LEN {
                    let words = &all_words[..n];
                    let mut expected = SnapWriter::new();
                    expected.usize(n);
                    words.iter().for_each(|&w| expected.u32(w));
                    expected.u8(u8::from(f32));
                    expected.bool(approximable);
                    let expected = expected.into_bytes();

                    let block = CacheBlock::new(words.to_vec(), dtype, approximable);
                    let mut w = SnapWriter::new();
                    block.save(&mut w);
                    let bytes = w.into_bytes();
                    prop_assert_eq!(&bytes, &expected);
                    let mut r = SnapReader::new(&bytes);
                    let back = CacheBlock::load(&mut r).expect("loads");
                    prop_assert!(r.is_exhausted());
                    prop_assert_eq!(back.words(), words);
                    prop_assert_eq!(&back, &block);
                    prop_assert_eq!(format!("{back:?}"), format!("{block:?}"));

                    let codes: Vec<WordCode> = words
                        .iter()
                        .map(|&word| WordCode::Raw { word, prefix_bits: 2 })
                        .collect();
                    let encoded = EncodedBlock::new(codes.clone(), dtype, approximable);
                    let mut w = SnapWriter::new();
                    encoded.save(&mut w);
                    let bytes = w.into_bytes();
                    let mut r = SnapReader::new(&bytes);
                    let back = EncodedBlock::load(&mut r).expect("loads");
                    prop_assert!(r.is_exhausted());
                    prop_assert_eq!(back.codes(), &codes[..]);
                    prop_assert_eq!(&back, &encoded);
                    prop_assert_eq!(format!("{back:?}"), format!("{encoded:?}"));
                }

                // One entry past the line: the count is refused before any
                // entry is read.
                let mut words = SnapWriter::new();
                let mut codes = SnapWriter::new();
                words.usize(MAX_LEN + 1);
                codes.usize(MAX_LEN + 1);
                for &word in &all_words {
                    words.u32(word);
                    WordCode::Raw { word, prefix_bits: 2 }.save(&mut codes);
                }
                for w in [&mut words, &mut codes] {
                    w.u8(u8::from(f32));
                    w.bool(approximable);
                }
                let refused = SnapError::Invalid("block length");
                let words = words.into_bytes();
                prop_assert_eq!(CacheBlock::load(&mut SnapReader::new(&words)), Err(refused));
                let codes = codes.into_bytes();
                prop_assert_eq!(EncodedBlock::load(&mut SnapReader::new(&codes)), Err(refused));
            }
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let mut r = SnapReader::new(&[9]);
        assert!(DataType::load(&mut r).is_err());
        let mut r = SnapReader::new(&[9]);
        assert!(WordCode::load(&mut r).is_err());
        let mut r = SnapReader::new(&[9]);
        assert!(Notification::load(&mut r).is_err());
        let mut r = SnapReader::new(&[9]);
        assert!(load_link_dest(&mut r, 4, 8).is_err());
    }
}
