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
//! * the shard partition and worker threads — snapshots serialize packets
//!   and ring events in a canonical shard-independent order, so a blob
//!   saved at one shard count restores bit-identically at any other;
//! * the delivered-packet log — observability state the driver drains each
//!   step; saving refuses if it is non-empty;
//! * the bound checker, watchdog, fault *plan*, loss *plan* and QoS *spec*
//!   — armed by the caller, who must re-arm them before restoring (the
//!   restored fault/loss RNG cursors, controller-bank state and progress
//!   clock then overwrite what arming reset; a blob carrying QoS state
//!   refuses to restore into a simulator whose bank is not armed).
//!
//! Serialization uses the little-endian primitives of [`anoc_core::snap`],
//! so blobs are byte-stable across hosts.

use std::fmt;

use anoc_core::codec::{EncodedBlock, Notification, WordCode};
use anoc_core::data::{CacheBlock, DataType, NodeId};
use anoc_core::snap::{SnapError, SnapReader, SnapWriter};

use crate::packet::{Flit, PacketKind, PacketState};

/// First eight bytes of every snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ANOCSNAP";

/// Current snapshot format version. Bump on any layout change.
///
/// v2: packets carry their approximation level and lossy-link erasures,
/// `FaultStats` gained `words_lost`, and the blob serializes the loss-RNG
/// cursor plus (when armed) the per-flow QoS controller bank. v1 blobs
/// predate all of that and are rejected, never misparsed.
pub const SNAPSHOT_VERSION: u32 = 2;

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

// ---- value helpers shared by the sim serializer --------------------------

pub(crate) fn save_node(w: &mut SnapWriter, n: NodeId) {
    w.u32(n.0 as u32);
}

pub(crate) fn load_node(r: &mut SnapReader<'_>) -> Result<NodeId, SnapError> {
    u16::try_from(r.u32()?)
        .map(NodeId)
        .map_err(|_| SnapError::Invalid("node id"))
}

pub(crate) fn save_opt_u64(w: &mut SnapWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.bool(true);
            w.u64(x);
        }
        None => w.bool(false),
    }
}

pub(crate) fn load_opt_u64(r: &mut SnapReader<'_>) -> Result<Option<u64>, SnapError> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

pub(crate) fn save_opt_usize(w: &mut SnapWriter, v: Option<usize>) {
    match v {
        Some(x) => {
            w.bool(true);
            w.usize(x);
        }
        None => w.bool(false),
    }
}

/// Reads an `Option<usize>` bounded by `limit` (exclusive).
pub(crate) fn load_opt_usize_below(
    r: &mut SnapReader<'_>,
    limit: usize,
    what: &'static str,
) -> Result<Option<usize>, SnapError> {
    if !r.bool()? {
        return Ok(None);
    }
    let v = r.usize()?;
    if v >= limit {
        return Err(SnapError::Invalid(what));
    }
    Ok(Some(v))
}

fn save_dtype(w: &mut SnapWriter, d: DataType) {
    w.u8(match d {
        DataType::Int => 0,
        DataType::F32 => 1,
    });
}

fn load_dtype(r: &mut SnapReader<'_>) -> Result<DataType, SnapError> {
    match r.u8()? {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::F32),
        _ => Err(SnapError::Invalid("data type tag")),
    }
}

pub(crate) fn save_block(w: &mut SnapWriter, b: &CacheBlock) {
    w.usize(b.len());
    for &word in b.words() {
        w.u32(word);
    }
    save_dtype(w, b.dtype());
    w.bool(b.is_approximable());
}

pub(crate) fn load_block(r: &mut SnapReader<'_>) -> Result<CacheBlock, SnapError> {
    let n = r.usize()?;
    if n > 1 << 16 {
        return Err(SnapError::Invalid("cache block length"));
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(r.u32()?);
    }
    let dtype = load_dtype(r)?;
    let approximable = r.bool()?;
    Ok(CacheBlock::new(words, dtype, approximable))
}

fn save_code(w: &mut SnapWriter, c: &WordCode) {
    match *c {
        WordCode::Raw { word, prefix_bits } => {
            w.u8(0);
            w.u32(word);
            w.u8(prefix_bits);
        }
        WordCode::Pattern {
            index,
            adjunct,
            adjunct_bits,
            approx,
        } => {
            w.u8(1);
            w.u8(index);
            w.u32(adjunct);
            w.u8(adjunct_bits);
            w.bool(approx);
        }
        WordCode::ZeroRun { len } => {
            w.u8(2);
            w.u8(len);
        }
        WordCode::Delta {
            delta,
            delta_bits,
            approx,
        } => {
            w.u8(3);
            w.u32(delta as u32);
            w.u8(delta_bits);
            w.bool(approx);
        }
        WordCode::Match {
            distance,
            len,
            dist_bits,
            approx,
        } => {
            w.u8(4);
            w.u32(distance as u32);
            w.u8(len);
            w.u8(dist_bits);
            w.bool(approx);
        }
        WordCode::Dict {
            index,
            index_bits,
            approx,
            pattern,
        } => {
            w.u8(5);
            w.u8(index);
            w.u8(index_bits);
            w.bool(approx);
            w.u32(pattern);
        }
    }
}

fn load_code(r: &mut SnapReader<'_>) -> Result<WordCode, SnapError> {
    Ok(match r.u8()? {
        0 => WordCode::Raw {
            word: r.u32()?,
            prefix_bits: r.u8()?,
        },
        1 => WordCode::Pattern {
            index: r.u8()?,
            adjunct: r.u32()?,
            adjunct_bits: r.u8()?,
            approx: r.bool()?,
        },
        2 => WordCode::ZeroRun { len: r.u8()? },
        3 => WordCode::Delta {
            delta: r.u32()? as i32,
            delta_bits: r.u8()?,
            approx: r.bool()?,
        },
        4 => WordCode::Match {
            distance: u16::try_from(r.u32()?).map_err(|_| SnapError::Invalid("match distance"))?,
            len: r.u8()?,
            dist_bits: r.u8()?,
            approx: r.bool()?,
        },
        5 => WordCode::Dict {
            index: r.u8()?,
            index_bits: r.u8()?,
            approx: r.bool()?,
            pattern: r.u32()?,
        },
        _ => return Err(SnapError::Invalid("word code tag")),
    })
}

pub(crate) fn save_encoded(w: &mut SnapWriter, e: &EncodedBlock) {
    w.usize(e.codes().len());
    for c in e.codes() {
        save_code(w, c);
    }
    save_dtype(w, e.dtype());
    w.bool(e.is_approximable());
}

pub(crate) fn load_encoded(r: &mut SnapReader<'_>) -> Result<EncodedBlock, SnapError> {
    let n = r.usize()?;
    if n > 1 << 16 {
        return Err(SnapError::Invalid("encoded block length"));
    }
    let mut codes = Vec::with_capacity(n);
    for _ in 0..n {
        codes.push(load_code(r)?);
    }
    let dtype = load_dtype(r)?;
    let approximable = r.bool()?;
    Ok(EncodedBlock::new(codes, dtype, approximable))
}

pub(crate) fn save_notification(w: &mut SnapWriter, n: &Notification) {
    match *n {
        Notification::Install {
            pattern,
            index,
            dtype,
        } => {
            w.u8(0);
            w.u32(pattern);
            w.u8(index);
            save_dtype(w, dtype);
        }
        Notification::Invalidate { pattern } => {
            w.u8(1);
            w.u32(pattern);
        }
    }
}

pub(crate) fn load_notification(r: &mut SnapReader<'_>) -> Result<Notification, SnapError> {
    Ok(match r.u8()? {
        0 => Notification::Install {
            pattern: r.u32()?,
            index: r.u8()?,
            dtype: load_dtype(r)?,
        },
        1 => Notification::Invalidate { pattern: r.u32()? },
        _ => return Err(SnapError::Invalid("notification tag")),
    })
}

/// Writes a flit with its slab slot translated by `remap` (to a canonical
/// index on save, back to a slot on restore).
pub(crate) fn save_flit(
    w: &mut SnapWriter,
    f: &Flit,
    remap: &impl Fn(u32) -> Option<u32>,
) -> Result<(), SnapError> {
    let slot = remap(f.slot).ok_or(SnapError::Invalid("flit references a dead slot"))?;
    w.u32(slot);
    w.u32(f.seq);
    w.bool(f.is_tail);
    save_node(w, f.dest);
    w.u64(f.ready_at);
    Ok(())
}

pub(crate) fn load_flit(
    r: &mut SnapReader<'_>,
    remap: &impl Fn(u32) -> Option<u32>,
) -> Result<Flit, SnapError> {
    let canon = r.u32()?;
    let slot = remap(canon).ok_or(SnapError::Invalid("flit references an unknown packet"))?;
    Ok(Flit {
        slot,
        seq: r.u32()?,
        is_tail: r.bool()?,
        dest: load_node(r)?,
        ready_at: r.u64()?,
    })
}

/// Where an event-ring arrival lands, in the blob's shard-independent form:
/// a global router id, or the ejecting node. The kernel itself resolves
/// links to shard-local [`Hop`](crate::router::Hop)s; save and restore
/// translate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkDest {
    /// Input port `port` of router `router`.
    Router { router: usize, port: usize },
    /// The ejection path of node `node`.
    Eject { node: usize },
}

pub(crate) fn save_link_dest(w: &mut SnapWriter, d: LinkDest) {
    match d {
        LinkDest::Router { router, port } => {
            w.u8(0);
            w.usize(router);
            w.usize(port);
        }
        LinkDest::Eject { node } => {
            w.u8(1);
            w.usize(node);
        }
    }
}

pub(crate) fn load_link_dest(
    r: &mut SnapReader<'_>,
    num_routers: usize,
    num_nodes: usize,
) -> Result<LinkDest, SnapError> {
    Ok(match r.u8()? {
        0 => {
            let router = r.usize()?;
            let port = r.usize()?;
            if router >= num_routers {
                return Err(SnapError::Invalid("arrival router id"));
            }
            LinkDest::Router { router, port }
        }
        1 => {
            let node = r.usize()?;
            if node >= num_nodes {
                return Err(SnapError::Invalid("arrival node id"));
            }
            LinkDest::Eject { node }
        }
        _ => return Err(SnapError::Invalid("link destination tag")),
    })
}

/// Serializes one packet's full state. Flit slots are not involved — flits
/// reference packets, not the other way around.
pub(crate) fn save_packet(w: &mut SnapWriter, p: &PacketState) {
    w.u64(p.id);
    save_node(w, p.src);
    save_node(w, p.dest);
    w.u8(match p.kind {
        PacketKind::Control => 0,
        PacketKind::Data => 1,
    });
    w.u64(p.created);
    w.u64(p.ready_at);
    w.u64(p.head_gate);
    save_opt_u64(w, p.inject_start);
    w.u32(p.num_flits);
    w.u32(p.baseline_flits);
    w.u32(p.ejected_flits);
    match &p.payload {
        Some(e) => {
            w.bool(true);
            save_encoded(w, e);
        }
        None => w.bool(false),
    }
    match &p.precise {
        Some(b) => {
            w.bool(true);
            save_block(w, b);
        }
        None => w.bool(false),
    }
    match &p.notification {
        Some(n) => {
            w.bool(true);
            save_notification(w, n);
        }
        None => w.bool(false),
    }
    w.usize(p.corrupt.len());
    for &(word, bit) in &p.corrupt {
        w.u32(word);
        w.u32(bit);
    }
    w.u32(p.approx_level);
    w.usize(p.lost.len());
    for &word in &p.lost {
        w.u32(word);
    }
    w.bool(p.measured);
}

pub(crate) fn load_packet(r: &mut SnapReader<'_>) -> Result<PacketState, SnapError> {
    let id = r.u64()?;
    let src = load_node(r)?;
    let dest = load_node(r)?;
    let kind = match r.u8()? {
        0 => PacketKind::Control,
        1 => PacketKind::Data,
        _ => return Err(SnapError::Invalid("packet kind tag")),
    };
    let created = r.u64()?;
    let ready_at = r.u64()?;
    let head_gate = r.u64()?;
    let inject_start = load_opt_u64(r)?;
    let num_flits = r.u32()?;
    let baseline_flits = r.u32()?;
    let ejected_flits = r.u32()?;
    let payload = if r.bool()? {
        Some(load_encoded(r)?)
    } else {
        None
    };
    let precise = if r.bool()? {
        Some(load_block(r)?)
    } else {
        None
    };
    let notification = if r.bool()? {
        Some(load_notification(r)?)
    } else {
        None
    };
    let nc = r.usize()?;
    if nc > 1 << 24 {
        return Err(SnapError::Invalid("corruption event count"));
    }
    let mut corrupt = Vec::with_capacity(nc);
    for _ in 0..nc {
        let word = r.u32()?;
        let bit = r.u32()?;
        corrupt.push((word, bit));
    }
    let approx_level = r.u32()?;
    let nl = r.usize()?;
    if nl > 1 << 24 {
        return Err(SnapError::Invalid("loss event count"));
    }
    let mut lost = Vec::with_capacity(nl);
    for _ in 0..nl {
        lost.push(r.u32()?);
    }
    let measured = r.bool()?;
    Ok(PacketState {
        id,
        src,
        dest,
        kind,
        created,
        ready_at,
        head_gate,
        inject_start,
        num_flits,
        baseline_flits,
        ejected_flits,
        payload,
        precise,
        notification,
        corrupt,
        approx_level,
        lost,
        measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultStats;
    use crate::histogram::LatencyHistogram;
    use crate::stats::NetStats;
    use anoc_core::codec::EncodeStats;
    use anoc_core::metrics::QualityAccumulator;

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
    /// catch a swap made in both `save_state` and `load_state`.
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
        stats.save_state(&mut w);
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
        let back = NetStats::load_state(&mut SnapReader::new(&bytes)).expect("loads");
        let mut again = SnapWriter::new();
        back.save_state(&mut again);
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
            WordCode::Delta {
                delta: -42,
                delta_bits: 8,
                approx: false,
            },
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
        save_encoded(&mut w, &block);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = load_encoded(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.codes(), block.codes());
        assert_eq!(back.dtype(), block.dtype());
        assert_eq!(back.is_approximable(), block.is_approximable());
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let mut r = SnapReader::new(&[9]);
        assert!(load_dtype(&mut r).is_err());
        let mut r = SnapReader::new(&[9]);
        assert!(load_code(&mut r).is_err());
        let mut r = SnapReader::new(&[9]);
        assert!(load_notification(&mut r).is_err());
        let mut r = SnapReader::new(&[9]);
        assert!(load_link_dest(&mut r, 4, 8).is_err());
    }
}
