//! Encoder/decoder pattern-matching tables for dictionary-based compression
//! (Figures 7 and 8 of the paper, after Jin et al., MICRO'08).
//!
//! Decoders *learn*: they watch the uncompressed words arriving from each
//! sender, count recurrences, and on promotion install the pattern in their
//! PMT, sending an **install** notification (pattern, encoded index) to the
//! sender's encoder. On replacement they send **invalidate** notifications to
//! every encoder whose valid bit is set. Encoders mirror this state: per
//! pattern, a vector of per-destination encoded indices (DI-COMP), or a
//! ternary approximate pattern plus per-destination original patterns
//! (DI-VAXX, built by the Approximate Pattern Compute Logic at install time
//! so the AVCL is off the packetization critical path).
//!
//! Both tables are flat arrays indexed by entry, with `u64` bitmasks for
//! occupancy, so a PMT holds at most [`MAX_PMT_ENTRIES`] entries.

use anoc_core::avcl::{ApproxPattern, Avcl};
use anoc_core::codec::Notification;
use anoc_core::data::{DataType, NodeId};
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Number of PMT entries in both encoders and decoders (Table 1: 8).
pub const DEFAULT_PMT_ENTRIES: usize = 8;

/// Most entries a PMT may hold: one bit per entry in the `u64` occupancy
/// masks of the flat tables.
pub const MAX_PMT_ENTRIES: usize = 64;

/// Recurrences a candidate pattern needs before promotion into the PMT.
pub const PROMOTE_THRESHOLD: u32 = 2;

// The candidate filter keeps no counts. A row enters with one sighting and
// leaves at its second (promotion) or at the next decay (1 / 2 = 0), so
// every live row holds exactly one sighting. That holds only while the
// second sighting promotes.
const _: () = assert!(
    PROMOTE_THRESHOLD == 2,
    "candidate rows assume promotion on the second sighting"
);

/// Size of the decoder's candidate (pre-PMT) tracking filter.
const CANDIDATE_ENTRIES: usize = 16;

/// A mask of the low `n` bits, for `n` up to 64.
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Panics unless a PMT of `entries` fits the occupancy masks.
fn check_entries(entries: usize) {
    assert!(
        entries <= MAX_PMT_ENTRIES,
        "a PMT holds at most {MAX_PMT_ENTRIES} entries, not {entries}"
    );
}

/// The decoder's pre-PMT candidate filter: fixed word rows, the first `len`
/// live, each holding one sighting (see [`PROMOTE_THRESHOLD`]). Rows are
/// appended at the end, dropped in place, and a full filter evicts row 0 by
/// moving the last row into it; that order decides future evictions and the
/// snapshot bytes.
#[derive(Debug, Clone)]
struct Candidates {
    words: [u32; CANDIDATE_ENTRIES],
    len: usize,
}

impl Candidates {
    fn new() -> Self {
        Candidates {
            words: [0; CANDIDATE_ENTRIES],
            len: 0,
        }
    }

    /// Whether a live row holds `word`.
    fn contains(&self, word: u32) -> bool {
        self.words[..self.len].contains(&word)
    }

    /// Appends `word`. A full filter first evicts its coldest row, the first
    /// of least sightings: with one sighting per row, that is row 0.
    fn push(&mut self, word: u32) {
        if self.len == CANDIDATE_ENTRIES {
            self.len -= 1;
            self.words[0] = self.words[self.len];
        }
        self.words[self.len] = word;
        self.len += 1;
    }

    /// Drops every live row holding `word`, keeping the others in order.
    fn remove(&mut self, word: u32) {
        let mut kept = 0;
        for row in 0..self.len {
            let w = self.words[row];
            self.words[kept] = w;
            kept += usize::from(w != word);
        }
        self.len = kept;
    }
}

/// Bits needed to express an encoded index into a PMT of `entries` slots
/// (⌈log2 entries⌉, at least 1).
pub(crate) fn index_bits(entries: usize) -> u8 {
    (usize::BITS - (entries.max(2) - 1).leading_zeros()) as u8
}

/// The decoder-side pattern matching table: per slot a data pattern, a
/// frequency counter and one valid bit per remote encoder (Figure 7b). The
/// slot position doubles as the encoded index.
///
/// The slots are flat arrays plus a bitmask of the live ones; slot `s`'s
/// valid bits are the `u64` words `valid[s * words..(s + 1) * words]`, node
/// `n` at bit `n % 64` of word `n / 64`. A slot that is not live has no
/// valid bits set.
#[derive(Debug, Clone)]
pub struct DecoderPmt {
    patterns: Vec<u32>,
    freqs: Vec<u32>,
    live: u64,
    valid: Vec<u64>,
    /// Valid-bit words per slot: ⌈num_nodes / 64⌉.
    words: usize,
    candidates: Candidates,
    num_nodes: usize,
    /// Count of decode-time index lookups whose slot no longer held the
    /// pattern the packet was encoded against (an in-flight replacement
    /// race, resolved by the consistency protocol).
    races: u64,
}

impl DecoderPmt {
    /// Creates a decoder PMT with `entries` slots, in a system of
    /// `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `entries` exceeds [`MAX_PMT_ENTRIES`].
    pub fn new(entries: usize, num_nodes: usize) -> Self {
        check_entries(entries);
        let words = num_nodes.div_ceil(64);
        DecoderPmt {
            patterns: vec![0; entries],
            freqs: vec![0; entries],
            live: 0,
            valid: vec![0; entries * words],
            words,
            candidates: Candidates::new(),
            num_nodes,
            races: 0,
        }
    }

    /// Number of PMT slots.
    pub fn entries(&self) -> usize {
        self.patterns.len()
    }

    /// Bits needed to express an encoded index.
    pub fn index_bits(&self) -> u8 {
        index_bits(self.patterns.len())
    }

    /// Whether slot `slot` holds a pattern.
    fn is_live(&self, slot: usize) -> bool {
        slot < self.patterns.len() && self.live >> slot & 1 == 1
    }

    /// The valid-bit word and bit of `node` in slot `slot`.
    fn valid_bit(&self, slot: usize, node: usize) -> (usize, u64) {
        (slot * self.words + node / 64, 1 << (node % 64))
    }

    /// The pattern currently stored at `index`, if any.
    pub fn pattern_at(&self, index: u8) -> Option<u32> {
        let slot = index as usize;
        self.is_live(slot).then(|| self.patterns[slot])
    }

    /// Races observed so far (stale in-flight indices).
    pub fn races(&self) -> u64 {
        self.races
    }

    /// Records a dictionary hit arriving from `src` at `index`. The packet
    /// carries `expected`, the pattern the encoder believed the index mapped
    /// to; a mismatch is counted as a (protocol-resolved) race.
    pub fn record_hit(&mut self, index: u8, expected: u32) {
        let slot = index as usize;
        if self.is_live(slot) && self.patterns[slot] == expected {
            self.freqs[slot] = self.freqs[slot].saturating_add(1);
        } else {
            self.races += 1;
        }
    }

    /// Observes an uncompressed word arriving from `src`, learning frequent
    /// patterns. Appends the notifications to send (install to `src`,
    /// invalidations to displaced encoders) to `notes`, in send order.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a node of this table's system.
    pub fn observe_raw(
        &mut self,
        word: u32,
        src: NodeId,
        dtype: DataType,
        notes: &mut Vec<(NodeId, Notification)>,
    ) {
        let node = src.index();
        assert!(
            node < self.num_nodes,
            "node {node} outside a {}-node decoder PMT",
            self.num_nodes
        );
        // Already tracked? Bump frequency; announce to this sender if new.
        let live = self.live;
        let found = self
            .patterns
            .iter()
            .enumerate()
            .position(|(s, &p)| p == word && live >> s & 1 == 1);
        if let Some(slot) = found {
            self.freqs[slot] = self.freqs[slot].saturating_add(1);
            let (at, bit) = self.valid_bit(slot, node);
            if self.valid[at] & bit == 0 {
                self.valid[at] |= bit;
                notes.push((
                    src,
                    Notification::Install {
                        pattern: word,
                        index: slot as u8,
                        dtype,
                    },
                ));
            }
            return;
        }
        // Track as a candidate; a second sighting promotes.
        if self.candidates.contains(word) {
            self.candidates.remove(word);
            self.promote(word, src, dtype, notes);
        } else {
            self.candidates.push(word);
        }
    }

    /// Promotes `word` into the PMT, evicting the least-frequently-used
    /// entry if the table is full, and appends the resulting notifications.
    fn promote(
        &mut self,
        word: u32,
        src: NodeId,
        dtype: DataType,
        notes: &mut Vec<(NodeId, Notification)>,
    ) {
        let free = !self.live & low_bits(self.patterns.len());
        let slot = if free != 0 {
            free.trailing_zeros() as usize
        } else {
            // The first slot of least frequency; a zero-slot PMT can store
            // nothing, so the promotion is dropped.
            let Some(victim) = (0..self.freqs.len()).min_by_key(|&s| self.freqs[s]) else {
                return;
            };
            let pattern = self.patterns[victim];
            let row = &mut self.valid[victim * self.words..(victim + 1) * self.words];
            for (w, bits) in row.iter_mut().enumerate() {
                let mut holders = *bits;
                while holders != 0 {
                    let node = w * 64 + holders.trailing_zeros() as usize;
                    notes.push((NodeId::from(node), Notification::Invalidate { pattern }));
                    holders &= holders - 1;
                }
                *bits = 0;
            }
            victim
        };
        self.patterns[slot] = word;
        self.freqs[slot] = PROMOTE_THRESHOLD;
        self.live |= 1 << slot;
        let (at, bit) = self.valid_bit(slot, src.index());
        self.valid[at] |= bit;
        notes.push((
            src,
            Notification::Install {
                pattern: word,
                index: slot as u8,
                dtype,
            },
        ));
    }

    /// Ages all frequency counters (halving), so stale patterns lose
    /// priority when the communication phase changes. Every candidate's one
    /// sighting halves to none, so the filter empties.
    pub fn decay(&mut self) {
        self.freqs.iter_mut().for_each(|f| *f /= 2);
        self.candidates.len = 0;
    }

    /// Serializes the learned table (slots, candidate filter, race counter)
    /// for a simulator snapshot. Structural parameters (slot count, node
    /// count) are construction-time configuration and are not written.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.patterns.len());
        for slot in 0..self.patterns.len() {
            let live = self.is_live(slot);
            w.bool(live);
            if live {
                w.u32(self.patterns[slot]);
                w.u32(self.freqs[slot]);
                w.usize(self.num_nodes);
                for node in 0..self.num_nodes {
                    let (at, bit) = self.valid_bit(slot, node);
                    w.bool(self.valid[at] & bit != 0);
                }
            }
        }
        let c = &self.candidates;
        w.usize(c.len);
        for &word in &c.words[..c.len] {
            w.u32(word);
            w.u32(1);
        }
        w.u64(self.races);
    }

    /// Restores state written by [`save_state`](Self::save_state) into an
    /// identically configured table. Each slot's valid-bit width and each
    /// candidate's sighting count are checked before they are used.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let slots = r.usize()?;
        if slots != self.patterns.len() {
            return Err(SnapError::Invalid("decoder PMT slot count"));
        }
        self.live = 0;
        self.valid.fill(0);
        for slot in 0..slots {
            if !r.bool()? {
                continue;
            }
            self.patterns[slot] = r.u32()?;
            self.freqs[slot] = r.u32()?;
            if r.usize()? != self.num_nodes {
                return Err(SnapError::Invalid("decoder PMT valid width"));
            }
            self.live |= 1 << slot;
            for node in 0..self.num_nodes {
                if r.bool()? {
                    let (at, bit) = self.valid_bit(slot, node);
                    self.valid[at] |= bit;
                }
            }
        }
        let cands = r.usize()?;
        if cands > CANDIDATE_ENTRIES {
            return Err(SnapError::Invalid("decoder candidate count"));
        }
        let c = &mut self.candidates;
        c.len = 0;
        for _ in 0..cands {
            let word = r.u32()?;
            if r.u32()? != 1 {
                return Err(SnapError::Invalid("decoder candidate sightings"));
            }
            c.words[c.len] = word;
            c.len += 1;
        }
        self.races = r.u64()?;
        Ok(())
    }
}

/// One per-destination record of a DI-VAXX encoder entry: the encoded index
/// announced by that destination's decoder, and the original (precise)
/// pattern it resolves to (Figure 8's "idx / op" pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestRecord {
    /// Encoded index at the destination decoder.
    pub index: u8,
    /// The original pattern stored at that index.
    pub original: u32,
}

/// The encoder-side pattern matching table (binary CAM for DI-COMP, TCAM
/// with original-pattern storage for DI-VAXX).
///
/// Entries keep table order in flat per-entry arrays: the key (for DI-COMP
/// the exact pattern; for DI-VAXX the ternary approximate pattern computed
/// by the APCL at install time), the install-time data type (so a threshold
/// retarget can recompute the key's mask plane, see
/// [`EncoderPmt::set_apcl`]) and the frequency. Destination `d` owns one
/// contiguous row of `capacity` records, `records[d * capacity..]`, whose
/// slot `e` belongs to entry `e`, and a bitmask `held[d]` of the entries that
/// hold a record for it. A lookup scans only its destination's row. The
/// arrays are allocated at the first install or restore, so building a
/// network's codecs stays cheap.
///
/// Every record's original equals its entry's key value, since both come
/// from the same install, until [`corrupt`](Self::corrupt) flips one.
#[derive(Debug, Clone)]
pub struct EncoderPmt {
    keys: Vec<ApproxPattern>,
    dtypes: Vec<DataType>,
    freqs: Vec<u32>,
    records: Vec<DestRecord>,
    held: Vec<u64>,
    capacity: usize,
    num_nodes: usize,
    /// `Some` for DI-VAXX (the APCL), `None` for DI-COMP.
    apcl: Option<Avcl>,
    /// Whether some record's original may differ from its key value.
    faulted: bool,
}

impl EncoderPmt {
    fn with_apcl(capacity: usize, num_nodes: usize, apcl: Option<Avcl>) -> Self {
        check_entries(capacity);
        EncoderPmt {
            keys: Vec::new(),
            dtypes: Vec::new(),
            freqs: Vec::new(),
            records: Vec::new(),
            held: Vec::new(),
            capacity,
            num_nodes,
            apcl,
            faulted: false,
        }
    }

    /// Allocates the entry arrays and the destination rows if this table
    /// has none yet.
    fn allocate(&mut self) {
        if self.held.len() == self.num_nodes {
            return;
        }
        let empty = DestRecord {
            index: 0,
            original: 0,
        };
        self.keys.reserve_exact(self.capacity);
        self.dtypes.reserve_exact(self.capacity);
        self.freqs.reserve_exact(self.capacity);
        self.records = vec![empty; self.capacity * self.num_nodes];
        self.held = vec![0; self.num_nodes];
    }

    /// Creates a DI-COMP (exact) encoder PMT.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds [`MAX_PMT_ENTRIES`].
    pub fn di_comp(capacity: usize, num_nodes: usize) -> Self {
        Self::with_apcl(capacity, num_nodes, None)
    }

    /// Creates a DI-VAXX (ternary) encoder PMT with the given APCL.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds [`MAX_PMT_ENTRIES`].
    pub fn di_vaxx(capacity: usize, num_nodes: usize, apcl: Avcl) -> Self {
        Self::with_apcl(capacity, num_nodes, Some(apcl))
    }

    /// Whether this PMT stores ternary (TCAM) keys.
    pub fn is_ternary(&self) -> bool {
        self.apcl.is_some()
    }

    /// Replaces the APCL at run time (the dynamic-threshold hook of the
    /// staged-warmup methodology, DESIGN.md §11) and reprograms the mask
    /// plane: every stored key's don't-care mask is recomputed from its
    /// install-time pattern under the new threshold, exactly as a ternary
    /// CAM whose masks derive from a global threshold register behaves when
    /// that register is rewritten. Key *values* store the full install-time
    /// pattern, so the rewrite is deterministic and idempotent. No-op on a
    /// DI-COMP (binary CAM) table.
    pub fn set_apcl(&mut self, apcl: Avcl) {
        if self.apcl.is_some() {
            self.apcl = Some(apcl);
            for (key, &dtype) in self.keys.iter_mut().zip(&self.dtypes) {
                *key = apcl.approx_pattern(key.value(), dtype);
            }
        }
    }

    /// Serializes the learned entries for a simulator snapshot. Keys are
    /// stored verbatim (value + mask + install dtype), so restoring is
    /// independent of the APCL installed at load time.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.keys.len());
        for (e, key) in self.keys.iter().enumerate() {
            w.u32(key.value());
            w.u32(key.mask());
            self.dtypes[e].save(w);
            w.u32(self.freqs[e]);
            w.usize(self.num_nodes);
            for (dest, &held) in self.held.iter().enumerate() {
                let holds = held >> e & 1 == 1;
                w.bool(holds);
                if holds {
                    let rec = self.records[dest * self.capacity + e];
                    w.u8(rec.index);
                    w.u32(rec.original);
                }
            }
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into an
    /// identically configured table.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n > self.capacity {
            return Err(SnapError::Invalid("encoder PMT entry count"));
        }
        self.allocate();
        self.keys.clear();
        self.dtypes.clear();
        self.freqs.clear();
        self.held.fill(0);
        self.faulted = false;
        for e in 0..n {
            let value = r.u32()?;
            let mask = r.u32()?;
            let dtype = DataType::load(r)?;
            let freq = r.u32()?;
            if r.usize()? != self.num_nodes {
                return Err(SnapError::Invalid("encoder PMT dest width"));
            }
            // The entry joins before its records, so a truncated blob still
            // leaves every held bit inside the table.
            self.keys.push(ApproxPattern::new(value, mask));
            self.dtypes.push(dtype);
            self.freqs.push(freq);
            for dest in 0..self.num_nodes {
                if r.bool()? {
                    let index = r.u8()?;
                    let original = r.u32()?;
                    self.records[dest * self.capacity + e] = DestRecord { index, original };
                    self.held[dest] |= 1 << e;
                    self.faulted |= original != value;
                }
            }
        }
        Ok(())
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the PMT is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Applies an install/invalidate notification from `from`'s decoder.
    pub fn apply(&mut self, from: NodeId, note: Notification) {
        match note {
            Notification::Install {
                pattern,
                index,
                dtype,
            } => self.install(from, pattern, index, dtype),
            Notification::Invalidate { pattern } => self.invalidate(from, pattern),
        }
    }

    fn install(&mut self, from: NodeId, pattern: u32, index: u8, dtype: DataType) {
        let key = match &self.apcl {
            Some(apcl) => apcl.approx_pattern(pattern, dtype),
            None => ApproxPattern::exact(pattern),
        };
        let record = DestRecord {
            index,
            original: pattern,
        };
        let dest = from.index();
        self.allocate();
        let e = match self.keys.iter().position(|k| *k == key) {
            Some(e) => {
                self.freqs[e] = self.freqs[e].saturating_add(1);
                e
            }
            None => {
                if self.keys.len() == self.capacity {
                    // Evict the LFU entry (the first of least frequency);
                    // its per-destination indices simply stop being used
                    // (the decoders keep their own state). A zero-capacity
                    // PMT stores nothing.
                    let Some(victim) = (0..self.freqs.len()).min_by_key(|&e| self.freqs[e]) else {
                        return;
                    };
                    self.swap_remove(victim);
                }
                self.keys.push(key);
                self.dtypes.push(dtype);
                self.freqs.push(1);
                self.keys.len() - 1
            }
        };
        self.records[dest * self.capacity + e] = record;
        self.held[dest] |= 1 << e;
    }

    /// Removes entry `victim`, moving the last entry into its place in the
    /// per-entry arrays and in every destination's row.
    fn swap_remove(&mut self, victim: usize) {
        let last = self.keys.len() - 1;
        self.keys.swap_remove(victim);
        self.dtypes.swap_remove(victim);
        self.freqs.swap_remove(victim);
        for (dest, held) in self.held.iter_mut().enumerate() {
            let row = &mut self.records[dest * self.capacity..];
            row[victim] = row[last];
            let moved = *held >> last & 1;
            *held = (*held & !(1 << victim) | moved << victim) & !(1 << last);
        }
    }

    fn invalidate(&mut self, from: NodeId, pattern: u32) {
        let dest = from.index();
        let Some(&(mut held)) = self.held.get(dest) else {
            return;
        };
        let mut scan = held;
        while scan != 0 {
            let e = scan.trailing_zeros() as usize;
            if self.records[dest * self.capacity + e].original == pattern {
                held &= !(1 << e);
            }
            scan &= scan - 1;
        }
        self.held[dest] = held;
        // Entries that no destination holds leave the table, in order.
        let any = self.held.iter().fold(0, |acc, &h| acc | h);
        let keep = any & low_bits(self.keys.len());
        if keep != low_bits(self.keys.len()) {
            self.retain(keep);
        }
    }

    /// Keeps the entries whose bit is set in `keep`, in order, compacting
    /// the per-entry arrays, every destination's row and its held mask.
    fn retain(&mut self, keep: u64) {
        let mut kept = 0;
        for e in 0..self.keys.len() {
            if keep >> e & 1 == 0 {
                continue;
            }
            self.keys[kept] = self.keys[e];
            self.dtypes[kept] = self.dtypes[e];
            self.freqs[kept] = self.freqs[e];
            for (dest, held) in self.held.iter_mut().enumerate() {
                let row = &mut self.records[dest * self.capacity..];
                row[kept] = row[e];
                let bit = *held >> e & 1;
                *held = *held & !(1 << kept) | bit << kept;
            }
            kept += 1;
        }
        self.keys.truncate(kept);
        self.dtypes.truncate(kept);
        self.freqs.truncate(kept);
        self.held.iter_mut().for_each(|h| *h &= low_bits(kept));
    }

    /// The lookups of destination `dest`'s row. An encoder takes this view
    /// once per block, so the row and its held mask are found once.
    pub(crate) fn lookups(&mut self, dest: NodeId) -> DestLookups<'_> {
        let d = dest.index();
        let held = self.held.get(d).copied().unwrap_or(0);
        let row = match held {
            0 => &[][..],
            _ => &self.records[d * self.capacity..][..self.keys.len()],
        };
        DestLookups {
            keys: &self.keys,
            row,
            freqs: &mut self.freqs,
            held,
            apcl: self.apcl,
            exact_after_tcam: self.apcl.is_none() || self.faulted,
        }
    }

    /// Exact lookup: an entry whose **original** pattern for `dest` equals
    /// `word`. This is the only path non-approximable data may use (§4.2.1).
    pub fn lookup_exact(&mut self, word: u32, dest: NodeId) -> Option<DestRecord> {
        self.lookups(dest).exact(word)
    }

    /// Ternary (TCAM) lookup for approximable data: an entry whose approximate
    /// pattern matches `word` and that has a record for `dest`.
    ///
    /// The hit is confirmed against `word`'s *own* error tolerance (the
    /// recovered original must lie within the threshold of the precise
    /// word), so the data-error guarantee holds exactly. The word's own APCL
    /// pattern is computed once, and only after a key hits.
    pub fn lookup_approx(
        &mut self,
        word: u32,
        dest: NodeId,
        dtype: DataType,
    ) -> Option<DestRecord> {
        self.lookups(dest).approx(word, dtype)
    }

    /// The encoder's search for a word of approximable data:
    /// [`lookup_approx`](Self::lookup_approx), then on a miss
    /// [`lookup_exact`](Self::lookup_exact).
    ///
    /// On a ternary table the exact scan is skipped until a fault: a record
    /// holding `word` sits in an entry whose key value is `word`, a key
    /// always matches its own value, and `word`'s own pattern accepts
    /// `word`, so the TCAM search would have hit that entry or an earlier
    /// one.
    pub fn lookup_approx_or_exact(
        &mut self,
        word: u32,
        dest: NodeId,
        dtype: DataType,
    ) -> Option<DestRecord> {
        self.lookups(dest).approx_or_exact(word, dtype)
    }

    /// Ages all frequency counters.
    pub fn decay(&mut self) {
        self.freqs.iter_mut().for_each(|f| *f /= 2);
    }

    /// Fault-injection hook: flips one bit of one stored original pattern,
    /// all chosen by `entropy`. The corrupted record keeps encoding against
    /// the wrong original — the realistic silent-data-corruption mode of a
    /// soft error in the PMT storage array. Returns whether a record was hit
    /// (the addressed per-destination slot may be empty).
    pub fn corrupt(&mut self, entropy: u64) -> bool {
        if self.keys.is_empty() || self.num_nodes == 0 {
            return false;
        }
        let e = (entropy as usize) % self.keys.len();
        let dest = ((entropy >> 16) as usize) % self.num_nodes;
        let bit = ((entropy >> 40) % u32::BITS as u64) as u32;
        let held = self.held[dest] >> e & 1 == 1;
        if held {
            self.records[dest * self.capacity + e].original ^= 1 << bit;
            self.faulted = true;
        }
        held
    }
}

/// One destination's lookups in an [`EncoderPmt`]: its record row and held
/// mask, with the table's keys and frequency counters.
pub(crate) struct DestLookups<'a> {
    keys: &'a [ApproxPattern],
    row: &'a [DestRecord],
    freqs: &'a mut [u32],
    held: u64,
    apcl: Option<Avcl>,
    /// Whether an exact scan must follow a TCAM miss (see
    /// [`EncoderPmt::lookup_approx_or_exact`]).
    exact_after_tcam: bool,
}

impl DestLookups<'_> {
    /// Bumps entry `e`'s frequency and returns its record.
    fn hit(&mut self, e: usize) -> DestRecord {
        self.freqs[e] = self.freqs[e].saturating_add(1);
        self.row[e]
    }

    /// See [`EncoderPmt::lookup_exact`].
    #[inline]
    pub(crate) fn exact(&mut self, word: u32) -> Option<DestRecord> {
        let held = self.held;
        let e = self
            .row
            .iter()
            .enumerate()
            .position(|(e, rec)| rec.original == word && held >> e & 1 == 1)?;
        Some(self.hit(e))
    }

    /// See [`EncoderPmt::lookup_approx`].
    #[inline]
    pub(crate) fn approx(&mut self, word: u32, dtype: DataType) -> Option<DestRecord> {
        let apcl = self.apcl?;
        let mut own: Option<ApproxPattern> = None;
        for (e, (key, rec)) in self.keys.iter().zip(self.row).enumerate() {
            if !key.matches(word) || self.held >> e & 1 == 0 {
                continue;
            }
            if !own
                .get_or_insert_with(|| apcl.approx_pattern(word, dtype))
                .matches(rec.original)
            {
                continue;
            }
            return Some(self.hit(e));
        }
        None
    }

    /// See [`EncoderPmt::lookup_approx_or_exact`].
    #[inline]
    pub(crate) fn approx_or_exact(&mut self, word: u32, dtype: DataType) -> Option<DestRecord> {
        let hit = self.approx(word, dtype);
        if hit.is_some() || !self.exact_after_tcam {
            return hit;
        }
        self.exact(word)
    }

    /// Ages all frequency counters (see [`EncoderPmt::decay`]).
    pub(crate) fn decay(&mut self) {
        self.freqs.iter_mut().for_each(|f| *f /= 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::threshold::ErrorThreshold;

    const N: usize = 4;

    fn dec() -> DecoderPmt {
        DecoderPmt::new(DEFAULT_PMT_ENTRIES, N)
    }

    /// `observe_raw` into a fresh buffer: the notifications one word caused.
    fn observe(d: &mut DecoderPmt, word: u32, src: NodeId) -> Vec<(NodeId, Notification)> {
        let mut notes = Vec::new();
        d.observe_raw(word, src, DataType::Int, &mut notes);
        notes
    }

    #[test]
    fn decoder_learns_after_promote_threshold() {
        let mut d = dec();
        let src = NodeId(1);
        assert!(observe(&mut d, 0xAB, src).is_empty());
        let notes = observe(&mut d, 0xAB, src);
        assert_eq!(notes.len(), 1);
        match notes[0] {
            (to, Notification::Install { pattern, index, .. }) => {
                assert_eq!(to, src);
                assert_eq!(pattern, 0xAB);
                assert_eq!(d.pattern_at(index), Some(0xAB));
            }
            ref other => panic!("expected install, got {other:?}"),
        }
    }

    #[test]
    fn decoder_announces_to_each_new_sender() {
        let mut d = dec();
        observe(&mut d, 7, NodeId(0));
        observe(&mut d, 7, NodeId(0)); // promoted, announced to 0
        let notes = observe(&mut d, 7, NodeId(2));
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].0, NodeId(2));
        // Sender 0 is not re-announced.
        assert!(observe(&mut d, 7, NodeId(0)).is_empty());
    }

    #[test]
    fn decoder_eviction_invalidates_all_holders() {
        let mut d = DecoderPmt::new(2, N);
        // Fill both slots, pattern 1 known to nodes 0 and 1.
        for s in [NodeId(0), NodeId(0), NodeId(1)] {
            observe(&mut d, 1, s);
        }
        for _ in 0..2 {
            observe(&mut d, 2, NodeId(0));
        }
        // Give pattern 2 more hits so pattern 1 is the LFU victim... they
        // both sit at freq 2+; bump pattern 2.
        observe(&mut d, 2, NodeId(0));
        d.decay(); // 1: freq 3/2=1, 2: freq 3/2=1 — decay keeps relative order
        for _ in 0..3 {
            observe(&mut d, 2, NodeId(0));
        }
        // Promote a third pattern; victim must be pattern 1.
        let mut notes = Vec::new();
        for _ in 0..2 {
            d.observe_raw(3, NodeId(3), DataType::Int, &mut notes);
        }
        let invalidations: Vec<_> = notes
            .iter()
            .filter(|(_, n)| matches!(n, Notification::Invalidate { pattern: 1 }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(invalidations, vec![NodeId(0), NodeId(1)]);
        assert!(notes.iter().any(
            |(to, n)| *to == NodeId(3) && matches!(n, Notification::Install { pattern: 3, .. })
        ));
    }

    #[test]
    fn decoder_race_counting() {
        let mut d = dec();
        for _ in 0..2 {
            observe(&mut d, 0xCAFE, NodeId(0));
        }
        d.record_hit(0, 0xCAFE);
        assert_eq!(d.races(), 0);
        d.record_hit(0, 0xBEEF);
        assert_eq!(d.races(), 1);
        d.record_hit(7, 0xCAFE); // empty slot
        assert_eq!(d.races(), 2);
    }

    #[test]
    fn index_bits() {
        assert_eq!(DecoderPmt::new(8, N).index_bits(), 3);
        assert_eq!(DecoderPmt::new(16, N).index_bits(), 4);
        assert_eq!(DecoderPmt::new(2, N).index_bits(), 1);
        // Non-power-of-two tables round up: index 2 of 3 needs two bits.
        assert_eq!(DecoderPmt::new(3, N).index_bits(), 2);
        assert_eq!(DecoderPmt::new(5, N).index_bits(), 3);
        assert_eq!(DecoderPmt::new(12, N).index_bits(), 4);
    }

    #[test]
    fn encoder_di_comp_exact_lookup() {
        let mut e = EncoderPmt::di_comp(8, N);
        assert!(e.is_empty());
        e.apply(
            NodeId(2),
            Notification::Install {
                pattern: 0xFACE,
                index: 5,
                dtype: DataType::Int,
            },
        );
        let rec = e.lookup_exact(0xFACE, NodeId(2)).unwrap();
        assert_eq!(rec.index, 5);
        assert_eq!(rec.original, 0xFACE);
        // Not announced for another destination.
        assert!(e.lookup_exact(0xFACE, NodeId(3)).is_none());
        // Approximate lookup is unavailable on a binary CAM.
        assert!(e.lookup_approx(0xFACE, NodeId(2), DataType::Int).is_none());
    }

    #[test]
    fn encoder_invalidate_clears_dest() {
        let mut e = EncoderPmt::di_comp(8, N);
        e.apply(
            NodeId(1),
            Notification::Install {
                pattern: 42,
                index: 0,
                dtype: DataType::Int,
            },
        );
        e.apply(
            NodeId(2),
            Notification::Install {
                pattern: 42,
                index: 3,
                dtype: DataType::Int,
            },
        );
        e.apply(NodeId(1), Notification::Invalidate { pattern: 42 });
        assert!(e.lookup_exact(42, NodeId(1)).is_none());
        assert_eq!(e.lookup_exact(42, NodeId(2)).unwrap().index, 3);
        e.apply(NodeId(2), Notification::Invalidate { pattern: 42 });
        assert!(e.is_empty());
    }

    #[test]
    fn encoder_capacity_evicts_lfu() {
        let mut e = EncoderPmt::di_comp(2, N);
        for (p, i) in [(1u32, 0u8), (2, 1)] {
            e.apply(
                NodeId(0),
                Notification::Install {
                    pattern: p,
                    index: i,
                    dtype: DataType::Int,
                },
            );
        }
        // Heat up pattern 2.
        e.lookup_exact(2, NodeId(0));
        e.lookup_exact(2, NodeId(0));
        e.apply(
            NodeId(0),
            Notification::Install {
                pattern: 3,
                index: 0,
                dtype: DataType::Int,
            },
        );
        assert_eq!(e.len(), 2);
        assert!(e.lookup_exact(1, NodeId(0)).is_none(), "LFU evicted");
        assert!(e.lookup_exact(2, NodeId(0)).is_some());
        assert!(e.lookup_exact(3, NodeId(0)).is_some());
    }

    #[test]
    fn di_vaxx_tcam_match_and_strict_confirm() {
        let apcl = Avcl::new(ErrorThreshold::from_percent(25).unwrap());
        let mut e = EncoderPmt::di_vaxx(8, N, apcl);
        assert!(e.is_ternary());
        // Reference pattern 1000 at 25%: range 250, 7 don't-care bits.
        e.apply(
            NodeId(1),
            Notification::Install {
                pattern: 1000,
                index: 2,
                dtype: DataType::Int,
            },
        );
        // 1005 matches the ternary key and confirms strictly.
        let rec = e.lookup_approx(1005, NodeId(1), DataType::Int).unwrap();
        assert_eq!(rec.original, 1000);
        // A word whose own tolerance cannot absorb the recovered original
        // fails the strict confirm even if the TCAM fires: 4 (tolerance 1)
        // would decode to 1000 — but 4 doesn't TCAM-match anyway. Construct
        // a sharper case: word 960 matches key (1000 & !0x7F = 0x3C0 ==
        // 960 & !0x7F)? 960 = 0x3C0, base(1000)=0x3C0 -> TCAM fires. 960's
        // own tolerance at 25% is 240 >= |1000-960| = 40, so it confirms.
        assert!(e.lookup_approx(960, NodeId(1), DataType::Int).is_some());
        // Exact path finds the original.
        assert_eq!(e.lookup_exact(1000, NodeId(1)).unwrap().index, 2);
        // ...but not a merely-close word.
        assert!(e.lookup_exact(1001, NodeId(1)).is_none());
    }

    #[test]
    fn di_vaxx_strict_rejects_out_of_tolerance() {
        // The stored pattern's tolerance can be a power of two wider than
        // the probe word's: at 25% the error range is `v >> 2`, so 510
        // (range 127) ignores 7 low bits and its key's base is 384, while
        // 400 (range 100) ignores only 6.
        let apcl = Avcl::new(ErrorThreshold::from_percent(25).unwrap());
        let mut e = EncoderPmt::di_vaxx(8, N, apcl);
        e.apply(
            NodeId(0),
            Notification::Install {
                pattern: 510,
                index: 0,
                dtype: DataType::Int,
            },
        );
        // The TCAM fires for 400, but 510 lies outside 400's own pattern
        // (and 110 away, past 25% of 400): the confirm rejects the hit.
        assert!(apcl.approx_pattern(510, DataType::Int).matches(400));
        assert!(!apcl.accepts(400, 510, DataType::Int));
        assert!(e.lookup_approx(400, NodeId(0), DataType::Int).is_none());
        // 460's own pattern does hold 510: the key fires and confirms.
        assert!(apcl.accepts(460, 510, DataType::Int));
        let hit = e.lookup_approx(460, NodeId(0), DataType::Int);
        assert_eq!(hit.map(|r| r.original), Some(510));
    }

    #[test]
    fn decoder_candidate_table_bounded() {
        let mut d = dec();
        for w in 0..100u32 {
            observe(&mut d, w, NodeId(0));
        }
        // No pattern repeated, so nothing promoted.
        for i in 0..8 {
            assert!(d.pattern_at(i).is_none());
        }
    }

    #[test]
    fn pmts_hold_up_to_64_entries() {
        let full = MAX_PMT_ENTRIES as u32;
        let far = NodeId(129);
        let mut d = DecoderPmt::new(MAX_PMT_ENTRIES, 130);
        for p in 0..full {
            observe(&mut d, p, far);
            observe(&mut d, p, far);
        }
        assert_eq!(d.pattern_at(63), Some(63));
        let mut e = EncoderPmt::di_comp(MAX_PMT_ENTRIES, 130);
        for p in 0..full {
            let install = Notification::Install {
                pattern: p,
                index: p as u8,
                dtype: DataType::Int,
            };
            e.apply(far, install);
        }
        assert_eq!(e.len(), MAX_PMT_ENTRIES);
        assert_eq!(e.lookup_exact(63, far).map(|r| r.index), Some(63));
    }

    #[test]
    #[should_panic(expected = "at most 64 entries")]
    fn oversized_decoder_pmt_panics() {
        DecoderPmt::new(MAX_PMT_ENTRIES + 1, N);
    }

    #[test]
    #[should_panic(expected = "at most 64 entries")]
    fn oversized_encoder_pmt_panics() {
        let apcl = Avcl::new(ErrorThreshold::from_percent(10).unwrap());
        EncoderPmt::di_vaxx(MAX_PMT_ENTRIES + 1, N, apcl);
    }

    #[test]
    fn decay_halves_frequencies() {
        let mut d = dec();
        for _ in 0..4 {
            observe(&mut d, 9, NodeId(0));
        }
        d.decay();
        // Still present after decay.
        assert!(d.pattern_at(0) == Some(9));
        let mut e = EncoderPmt::di_comp(4, N);
        e.apply(
            NodeId(0),
            Notification::Install {
                pattern: 9,
                index: 0,
                dtype: DataType::Int,
            },
        );
        e.decay();
        assert_eq!(e.len(), 1);
    }
}
