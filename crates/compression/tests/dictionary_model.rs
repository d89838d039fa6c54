//! Reference-model tests for the dictionary tables: random install /
//! invalidate / lookup / decay / retarget / fault / observe / hit sequences
//! run on [`EncoderPmt`] and [`DecoderPmt`] and on a straightforward model
//! of the same tables kept in this file (one heap record per entry, one
//! `Vec<bool>` of valid bits per slot, counted candidate rows). Every return
//! value, every notification in order and every `save_state` byte must
//! agree. Tables span 1–16 entries and 1–130 nodes, so valid-bit sets cross
//! the 64-bit word boundary.

use anoc_compression::dictionary::{DecoderPmt, DestRecord, EncoderPmt, PROMOTE_THRESHOLD};
use anoc_core::avcl::{ApproxPattern, Avcl};
use anoc_core::codec::Notification;
use anoc_core::data::{DataType, NodeId};
use anoc_core::snap::{SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;
use proptest::prelude::*;

/// Rows of the model's candidate filter.
const CANDIDATE_ENTRIES: usize = 16;

#[derive(Debug, Clone)]
struct ModelSlot {
    pattern: u32,
    freq: u32,
    valid: Vec<bool>,
}

/// The decoder table as a list of optional slots, each with its own
/// valid-bit vector, and a candidate list with explicit sighting counts.
#[derive(Debug, Clone)]
struct ModelDecoder {
    slots: Vec<Option<ModelSlot>>,
    candidates: Vec<(u32, u32)>,
    num_nodes: usize,
    races: u64,
}

impl ModelDecoder {
    fn new(entries: usize, num_nodes: usize) -> Self {
        ModelDecoder {
            slots: vec![None; entries],
            candidates: Vec::new(),
            num_nodes,
            races: 0,
        }
    }

    fn pattern_at(&self, index: u8) -> Option<u32> {
        self.slots
            .get(index as usize)
            .and_then(|s| s.as_ref().map(|e| e.pattern))
    }

    fn record_hit(&mut self, index: u8, expected: u32) {
        match self.slots.get_mut(index as usize).and_then(Option::as_mut) {
            Some(e) if e.pattern == expected => e.freq = e.freq.saturating_add(1),
            _ => self.races += 1,
        }
    }

    fn observe_raw(
        &mut self,
        word: u32,
        src: NodeId,
        dtype: DataType,
        notes: &mut Vec<(NodeId, Notification)>,
    ) {
        let tracked = self
            .slots
            .iter_mut()
            .enumerate()
            .find_map(|(i, s)| s.as_mut().filter(|e| e.pattern == word).map(|e| (i, e)));
        if let Some((index, e)) = tracked {
            e.freq = e.freq.saturating_add(1);
            if !e.valid[src.index()] {
                e.valid[src.index()] = true;
                notes.push((
                    src,
                    Notification::Install {
                        pattern: word,
                        index: index as u8,
                        dtype,
                    },
                ));
            }
            return;
        }
        match self.candidates.iter().position(|&(w, _)| w == word) {
            Some(row) => {
                self.candidates[row].1 += 1;
                if self.candidates[row].1 >= PROMOTE_THRESHOLD {
                    self.candidates.retain(|&(w, _)| w != word);
                    self.promote(word, src, dtype, notes);
                }
            }
            None => {
                if self.candidates.len() == CANDIDATE_ENTRIES {
                    // Coldest row (first minimum count) takes the last row.
                    let min = self.candidates.iter().map(|c| c.1).min().unwrap_or(0);
                    let coldest = self.candidates.iter().position(|c| c.1 == min);
                    self.candidates.swap_remove(coldest.unwrap_or(0));
                }
                self.candidates.push((word, 1));
            }
        }
    }

    fn promote(
        &mut self,
        word: u32,
        src: NodeId,
        dtype: DataType,
        notes: &mut Vec<(NodeId, Notification)>,
    ) {
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(empty) => empty,
            None => {
                let Some(victim) = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_ref().map_or(0, |e| e.freq))
                    .map(|(i, _)| i)
                else {
                    return;
                };
                let old = self.slots[victim].take().expect("a full table");
                for (node, &v) in old.valid.iter().enumerate() {
                    if v {
                        notes.push((
                            NodeId::from(node),
                            Notification::Invalidate {
                                pattern: old.pattern,
                            },
                        ));
                    }
                }
                victim
            }
        };
        let mut valid = vec![false; self.num_nodes];
        valid[src.index()] = true;
        self.slots[slot] = Some(ModelSlot {
            pattern: word,
            freq: PROMOTE_THRESHOLD,
            valid,
        });
        notes.push((
            src,
            Notification::Install {
                pattern: word,
                index: slot as u8,
                dtype,
            },
        ));
    }

    fn decay(&mut self) {
        for e in self.slots.iter_mut().flatten() {
            e.freq /= 2;
        }
        self.candidates.iter_mut().for_each(|c| c.1 /= 2);
        self.candidates.retain(|c| c.1 > 0);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.slots.len());
        for slot in &self.slots {
            match slot {
                Some(e) => {
                    w.bool(true);
                    w.u32(e.pattern);
                    w.u32(e.freq);
                    w.usize(e.valid.len());
                    e.valid.iter().for_each(|&v| w.bool(v));
                }
                None => w.bool(false),
            }
        }
        w.usize(self.candidates.len());
        for &(word, count) in &self.candidates {
            w.u32(word);
            w.u32(count);
        }
        w.u64(self.races);
    }
}

#[derive(Debug, Clone)]
struct ModelEntry {
    key: ApproxPattern,
    dtype: DataType,
    freq: u32,
    per_dest: Vec<Option<DestRecord>>,
}

/// The encoder table as an ordered list of entries, each with its own
/// per-destination record vector.
#[derive(Debug, Clone)]
struct ModelEncoder {
    entries: Vec<ModelEntry>,
    capacity: usize,
    num_nodes: usize,
    apcl: Option<Avcl>,
}

impl ModelEncoder {
    fn new(capacity: usize, num_nodes: usize, apcl: Option<Avcl>) -> Self {
        ModelEncoder {
            entries: Vec::new(),
            capacity,
            num_nodes,
            apcl,
        }
    }

    fn set_apcl(&mut self, apcl: Avcl) {
        if self.apcl.is_some() {
            self.apcl = Some(apcl);
            for e in &mut self.entries {
                e.key = apcl.approx_pattern(e.key.value(), e.dtype);
            }
        }
    }

    fn apply(&mut self, from: NodeId, note: Notification) {
        match note {
            Notification::Install {
                pattern,
                index,
                dtype,
            } => {
                let key = match &self.apcl {
                    Some(apcl) => apcl.approx_pattern(pattern, dtype),
                    None => ApproxPattern::exact(pattern),
                };
                let record = DestRecord {
                    index,
                    original: pattern,
                };
                if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
                    e.per_dest[from.index()] = Some(record);
                    e.freq = e.freq.saturating_add(1);
                    return;
                }
                if self.entries.len() == self.capacity {
                    let Some(victim) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.freq)
                        .map(|(i, _)| i)
                    else {
                        return;
                    };
                    self.entries.swap_remove(victim);
                }
                let mut per_dest = vec![None; self.num_nodes];
                per_dest[from.index()] = Some(record);
                self.entries.push(ModelEntry {
                    key,
                    dtype,
                    freq: 1,
                    per_dest,
                });
            }
            Notification::Invalidate { pattern } => {
                for e in &mut self.entries {
                    if matches!(e.per_dest[from.index()], Some(r) if r.original == pattern) {
                        e.per_dest[from.index()] = None;
                    }
                }
                self.entries
                    .retain(|e| e.per_dest.iter().any(Option::is_some));
            }
        }
    }

    fn lookup_exact(&mut self, word: u32, dest: NodeId) -> Option<DestRecord> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| matches!(e.per_dest[dest.index()], Some(r) if r.original == word))?;
        e.freq = e.freq.saturating_add(1);
        e.per_dest[dest.index()]
    }

    fn lookup_approx(
        &mut self,
        word: u32,
        dest: NodeId,
        dtype: DataType,
        strict: bool,
    ) -> Option<DestRecord> {
        let apcl = self.apcl?;
        let e = self.entries.iter_mut().find(|e| {
            e.key.matches(word)
                && matches!(e.per_dest[dest.index()],
                    Some(r) if !strict || apcl.accepts(word, r.original, dtype))
        })?;
        e.freq = e.freq.saturating_add(1);
        e.per_dest[dest.index()]
    }

    fn decay(&mut self) {
        self.entries.iter_mut().for_each(|e| e.freq /= 2);
    }

    /// The entry and destination a fault with `entropy` addresses.
    fn fault_target(&self, entropy: u64) -> Option<(usize, usize)> {
        if self.entries.is_empty() || self.num_nodes == 0 {
            return None;
        }
        let entry = (entropy as usize) % self.entries.len();
        Some((entry, ((entropy >> 16) as usize) % self.num_nodes))
    }

    fn corrupt(&mut self, entropy: u64) -> bool {
        let Some((entry, dest)) = self.fault_target(entropy) else {
            return false;
        };
        let bit = ((entropy >> 40) % u64::from(u32::BITS)) as u32;
        match &mut self.entries[entry].per_dest[dest] {
            Some(rec) => {
                rec.original ^= 1 << bit;
                true
            }
            None => false,
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.entries.len());
        for e in &self.entries {
            w.u32(e.key.value());
            w.u32(e.key.mask());
            w.u8(u8::from(e.dtype == DataType::F32));
            w.u32(e.freq);
            w.usize(e.per_dest.len());
            for rec in &e.per_dest {
                match rec {
                    Some(r) => {
                        w.bool(true);
                        w.u8(r.index);
                        w.u32(r.original);
                    }
                    None => w.bool(false),
                }
            }
        }
    }
}

/// A word from a small pool of integer and float patterns, nudged in its
/// low bits half the time: sightings repeat, promote and evict, and TCAM
/// keys match their neighbours.
fn word(r: u32) -> u32 {
    const POOL: [u32; 14] = [
        0,
        7,
        1_000,
        1_003,
        5_000,
        5_100,
        0x4000_0000,
        0xFFFF_FF00,
        0x3F80_0000, // 1.0f32
        0x3F81_4000,
        0x4120_0000, // 10.0f32
        0x7F80_0000, // +inf: a float that bypasses approximation
        0x0000_0003, // a denormal
        0xDEAD_BEEF,
    ];
    let base = POOL[(r % POOL.len() as u32) as usize];
    if r & 0x100 != 0 {
        base ^ ((r >> 9) & 7)
    } else {
        base
    }
}

fn dtype(r: u32) -> DataType {
    if r & 1 == 0 {
        DataType::Int
    } else {
        DataType::F32
    }
}

/// A node index among a few that straddle the 64-bit valid-word boundary.
fn node(r: u32, nodes: usize) -> NodeId {
    const NEAR: [usize; 8] = [0, 1, 2, 63, 64, 65, 127, 129];
    NodeId::from(NEAR[(r % NEAR.len() as u32) as usize] % nodes)
}

fn avcl(r: u32) -> Avcl {
    const PERCENT: [u32; 7] = [0, 1, 5, 10, 20, 50, 100];
    let p = PERCENT[(r % PERCENT.len() as u32) as usize];
    Avcl::new(if p == 0 {
        ErrorThreshold::exact()
    } else {
        ErrorThreshold::from_percent(p).expect("valid percent")
    })
}

fn bytes(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    save(&mut w);
    w.into_bytes()
}

fn ops() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The decoder table agrees with the model on every notification, hit,
    /// race count, slot pattern and snapshot byte, and a snapshot restored
    /// into a fresh table continues identically.
    #[test]
    fn decoder_matches_reference_model(
        entries in 1usize..=16,
        nodes in 1usize..=130,
        ops in ops(),
    ) {
        let mut pmt = DecoderPmt::new(entries, nodes);
        let mut model = ModelDecoder::new(entries, nodes);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            match kind % 10 {
                0..=5 => {
                    let (w, src, dt) = (word(a), node(b, nodes), dtype(b >> 8));
                    pmt.observe_raw(w, src, dt, &mut got);
                    model.observe_raw(w, src, dt, &mut want);
                    prop_assert_eq!(&got, &want, "notifications after step {}", step);
                }
                6 | 7 => {
                    let index = (a % (entries as u32 + 1)) as u8;
                    let expected = match model.pattern_at(index) {
                        Some(p) if b & 1 == 0 => p,
                        _ => word(b),
                    };
                    pmt.record_hit(index, expected);
                    model.record_hit(index, expected);
                }
                8 => {
                    pmt.decay();
                    model.decay();
                }
                _ => {
                    let saved = bytes(|w| pmt.save_state(w));
                    prop_assert_eq!(&saved, &bytes(|w| model.save_state(w)));
                    let mut restored = DecoderPmt::new(entries, nodes);
                    let mut r = SnapReader::new(&saved);
                    prop_assert!(restored.load_state(&mut r).is_ok());
                    prop_assert!(r.is_exhausted());
                    pmt = restored;
                }
            }
            prop_assert_eq!(pmt.races(), model.races);
            for i in 0..=entries as u8 {
                prop_assert_eq!(pmt.pattern_at(i), model.pattern_at(i));
            }
        }
        prop_assert_eq!(bytes(|w| pmt.save_state(w)), bytes(|w| model.save_state(w)));
    }

    /// The encoder table, binary or ternary, agrees with the model on every
    /// lookup, eviction, invalidation, retarget, fault and snapshot byte.
    #[test]
    fn encoder_matches_reference_model(
        entries in 1usize..=16,
        nodes in 1usize..=130,
        ternary in any::<bool>(),
        apcl_pick in any::<u32>(),
        ops in ops(),
    ) {
        // A restored table is built with the APCL installed at restore time.
        let mut apcl = ternary.then(|| avcl(apcl_pick));
        let new = |apcl: Option<Avcl>| match apcl {
            Some(a) => EncoderPmt::di_vaxx(entries, nodes, a),
            None => EncoderPmt::di_comp(entries, nodes),
        };
        let mut pmt = new(apcl);
        let mut model = ModelEncoder::new(entries, nodes, apcl);
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let at = node(b, nodes);
            // Half the lookups probe a stored original (faulted ones too).
            let stored = model
                .entries
                .get(a as usize % model.entries.len().max(1))
                .and_then(|e| e.per_dest[at.index()]);
            let w = match stored {
                Some(rec) if b & 0x4_0000 != 0 => rec.original,
                _ => word(a),
            };
            match kind % 12 {
                0..=2 => {
                    let note = Notification::Install {
                        pattern: w,
                        index: ((b >> 8) % entries as u32) as u8,
                        dtype: dtype(b >> 16),
                    };
                    pmt.apply(at, note);
                    model.apply(at, note);
                }
                3 => {
                    let note = Notification::Invalidate { pattern: w };
                    pmt.apply(at, note);
                    model.apply(at, note);
                }
                4 | 5 => {
                    prop_assert_eq!(
                        pmt.lookup_exact(w, at),
                        model.lookup_exact(w, at),
                        "exact lookup at step {}", step
                    );
                }
                6 | 7 => {
                    let (dt, strict) = (dtype(b >> 16), b & 0x2_0000 != 0);
                    prop_assert_eq!(
                        pmt.lookup_approx(w, at, dt, strict),
                        model.lookup_approx(w, at, dt, strict),
                        "approximate lookup at step {}", step
                    );
                }
                8 => {
                    let (dt, strict) = (dtype(b >> 16), b & 0x2_0000 != 0);
                    let want = model
                        .lookup_approx(w, at, dt, strict)
                        .or_else(|| model.lookup_exact(w, at));
                    prop_assert_eq!(
                        pmt.lookup_approx_or_exact(w, at, dt, strict),
                        want,
                        "TCAM-then-CAM lookup at step {}", step
                    );
                }
                9 => {
                    pmt.decay();
                    model.decay();
                }
                10 => {
                    let a = avcl(b);
                    pmt.set_apcl(a);
                    model.set_apcl(a);
                    apcl = apcl.map(|_| a);
                }
                _ if b & 1 == 0 => {
                    // Aim the fault at a stored record when a few tries find
                    // one, so faulted lookups actually happen.
                    let seed = u64::from(a) << 32 | u64::from(b);
                    let entropy = (0..64u64)
                        .map(|k| (seed ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .find(|&x| {
                            model
                                .fault_target(x)
                                .is_some_and(|(e, d)| model.entries[e].per_dest[d].is_some())
                        })
                        .unwrap_or(seed);
                    prop_assert_eq!(pmt.corrupt(entropy), model.corrupt(entropy));
                }
                _ => {
                    let saved = bytes(|w| pmt.save_state(w));
                    prop_assert_eq!(&saved, &bytes(|w| model.save_state(w)));
                    let mut restored = new(apcl);
                    let mut r = SnapReader::new(&saved);
                    prop_assert!(restored.load_state(&mut r).is_ok());
                    prop_assert!(r.is_exhausted());
                    pmt = restored;
                }
            }
            prop_assert_eq!(pmt.len(), model.entries.len(), "entries after step {}", step);
        }
        prop_assert_eq!(bytes(|w| pmt.save_state(w)), bytes(|w| model.save_state(w)));
    }
}
