//! Block codec traits and the encoded network representation (NR).
//!
//! The encoder in the source NI compresses each word of a cache block into a
//! [`WordCode`]; the resulting [`EncodedBlock`] is the intermediate network
//! representation that gets packetized, fragmented into flits and injected
//! (Figure 3). At the destination the decoder reverses the mapping —
//! approximately, if VAXX substituted reference patterns.
//!
//! Dictionary-based mechanisms additionally exchange [`Notification`]s:
//! decoders detect recurring patterns and notify the paired encoder of new
//! encoded indices, or of invalidations on replacement (Figure 7).

use std::fmt;

use crate::data::{CacheBlock, DataType, NodeId, BLOCK_WORDS};
use crate::line::{Entry, Line, Meta};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

crate::snap_record! {
    /// One word of the network representation. A snapshot writes its
    /// variant's tag (`Raw` 0 to `Dict` 5), then its fields in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WordCode {
        /// Word transmitted verbatim, plus `prefix_bits` of "uncompressed" tag.
        Raw {
            /// The verbatim 32-bit word.
            word: u32,
            /// Tag overhead in bits (3 for FPC's `111` prefix, 1 for dictionary
            /// schemes' miss flag).
            prefix_bits: u8,
        },
        /// Frequent-pattern hit: a 3-bit pattern index plus a variable-length
        /// adjunct carrying the significant bits (Figure 5).
        Pattern {
            /// Index into the static frequent-pattern table (0..=7).
            index: u8,
            /// The adjunct data bits accompanying the index.
            adjunct: u32,
            /// Width of the adjunct in bits (0, 4, 8 or 16).
            adjunct_bits: u8,
            /// Whether VAXX approximation enabled this hit.
            approx: bool,
        },
        /// A run of consecutive all-zero words, merged into one code with a
        /// 3-bit run length (FPC's `000` row in Figure 5).
        ZeroRun {
            /// Number of zero words covered (1..=8).
            len: u8,
        },
        /// Base-delta encoding: the word travels as a narrow signed delta from
        /// the block's base word (Zhan et al., ASP-DAC'14 — the BDI extension).
        Delta {
            /// The signed delta from the base (simulation metadata; the wire
            /// carries `delta_bits` of it).
            delta: i32,
            /// Width of the delta field in bits (0 for a repeated word).
            delta_bits: u8,
            /// Whether VAXX approximation enabled this delta to fit.
            approx: bool,
        },
        /// LZ back-reference (LZ-VAXX): copies `len` words starting `distance`
        /// words back in the reconstruction window (static seed dictionary +
        /// already-decoded words of the same block). The distance may be
        /// shorter than the length, in which case the copy overlaps itself and
        /// expresses a run. Matching across word boundaries is what
        /// distinguishes this mechanism from the per-word FP/DI tables.
        Match {
            /// Backward distance in words (1-based) into the window.
            distance: u16,
            /// Number of source words covered (1..=8).
            len: u8,
            /// Wire width of the distance field: short after MTF recency
            /// ranking promoted this distance, full width otherwise.
            dist_bits: u8,
            /// Whether any covered word was accepted through a VAXX don't-care
            /// mask rather than an exact compare.
            approx: bool,
        },
        /// Dictionary hit: an encoded index the paired decoder can resolve.
        Dict {
            /// The encoded index previously announced by the decoder.
            index: u8,
            /// Width of the index field in bits (log2 of the PMT size).
            index_bits: u8,
            /// Whether the hit went through the approximate (TCAM) path.
            approx: bool,
            /// Simulation metadata (not counted on the wire): the value this
            /// index resolves to at the paired decoder when the packet was
            /// encoded. The dictionary consistency protocol (update/invalidate
            /// notifications, §4.2) keeps encoder and decoder in sync; this
            /// field lets the simulator decode in-flight packets that raced
            /// with a replacement exactly as the protocol's epoch handling
            /// would.
            pattern: u32,
        },
    }
}

impl WordCode {
    /// Size of this code on the wire, in bits (tag + payload).
    pub fn bits(&self) -> u32 {
        match *self {
            WordCode::Raw { prefix_bits, .. } => prefix_bits as u32 + 32,
            WordCode::Pattern {
                adjunct_bits: data, ..
            } => 3 + data as u32,
            WordCode::ZeroRun { .. } => 3 + 3,
            WordCode::Delta { delta_bits, .. } => delta_bits as u32,
            WordCode::Match { dist_bits, .. } => 2 + dist_bits as u32 + 3,
            WordCode::Dict { index_bits, .. } => 1 + index_bits as u32,
        }
    }

    /// Number of source words this code covers (1, except for zero runs and
    /// LZ matches).
    pub fn word_span(&self) -> u32 {
        match *self {
            WordCode::ZeroRun { len } => len as u32,
            WordCode::Match { len, .. } => len as u32,
            _ => 1,
        }
    }

    /// Whether the word was encoded (pattern or dictionary hit) rather than
    /// sent raw.
    pub fn is_encoded(&self) -> bool {
        !matches!(self, WordCode::Raw { .. })
    }

    /// Whether the encoding involved value approximation.
    pub fn is_approx(&self) -> bool {
        match *self {
            WordCode::Raw { .. } | WordCode::ZeroRun { .. } => false,
            WordCode::Pattern { approx, .. }
            | WordCode::Dict { approx, .. }
            | WordCode::Delta { approx, .. }
            | WordCode::Match { approx, .. } => approx,
        }
    }
}

impl Entry for WordCode {
    const FILL: WordCode = WordCode::ZeroRun { len: 0 };
}

/// The encoded network representation of one cache block.
///
/// A block never encodes to more codes than it has words, so the codes of a
/// 64-byte line live in place ([`BLOCK_WORDS`] of
/// them, 136 bytes in all); longer blocks spill to the heap.
#[derive(Clone, PartialEq)]
pub struct EncodedBlock(Line<WordCode>);

impl EncodedBlock {
    /// Creates an encoded block from per-word codes.
    pub fn new(codes: Vec<WordCode>, dtype: DataType, approximable: bool) -> Self {
        EncodedBlock(Line::from_vec(codes, Meta::new(dtype, approximable)))
    }

    /// Creates an encoded block of the first `len` (at most
    /// [`BLOCK_WORDS`]) codes of `line`, moved in whole: the constructor for
    /// encoders, which fill a line in place. A longer block goes through a
    /// [`Spill`].
    #[inline]
    pub fn from_line(
        line: [WordCode; BLOCK_WORDS],
        len: usize,
        dtype: DataType,
        approximable: bool,
    ) -> Self {
        EncodedBlock(Line::prefix(line, len, Meta::new(dtype, approximable)))
    }

    /// Creates an encoded block with no codes yet, carrying `block`'s
    /// metadata: an encoder [`push`](Self::push)es its codes into it.
    pub fn empty_for(block: &CacheBlock) -> Self {
        EncodedBlock::empty(block.dtype(), block.is_approximable())
    }

    /// Creates an encoded block with no codes yet.
    pub fn empty(dtype: DataType, approximable: bool) -> Self {
        EncodedBlock(Line::new(Meta::new(dtype, approximable)))
    }

    /// Appends a code.
    #[inline]
    pub fn push(&mut self, code: WordCode) {
        self.0.push(code);
    }

    /// The per-word codes.
    #[inline]
    pub fn codes(&self) -> &[WordCode] {
        self.0.as_slice()
    }

    /// Data type of the encoded block.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.0.meta().dtype
    }

    /// Whether the original block was annotated approximable.
    #[inline]
    pub fn is_approximable(&self) -> bool {
        self.0.meta().approximable
    }

    /// Overrides the data type and the approximable flag, returning the
    /// modified block.
    #[must_use]
    pub fn with_meta(mut self, dtype: DataType, approximable: bool) -> Self {
        *self.0.meta_mut() = Meta::new(dtype, approximable);
        self
    }

    /// Number of codes in the block (zero runs count once).
    pub fn len(&self) -> usize {
        self.codes().len()
    }

    /// Number of source words covered by the block.
    pub fn word_count(&self) -> u32 {
        self.codes().iter().map(WordCode::word_span).sum()
    }

    /// Whether the block holds no words.
    pub fn is_empty(&self) -> bool {
        self.codes().is_empty()
    }

    /// Total payload size on the wire in bits.
    pub fn payload_bits(&self) -> u32 {
        self.codes().iter().map(WordCode::bits).sum()
    }

    /// Aggregates the per-word encoding statistics of this block.
    pub fn stats(&self) -> EncodeStats {
        let mut s = EncodeStats::default();
        s.absorb_block(self);
        s
    }
}

/// The codes as a list, then the data type and the flag.
impl Snap for EncodedBlock {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Line::load(r).map(EncodedBlock)
    }
}

impl Extend<WordCode> for EncodedBlock {
    #[inline]
    fn extend<I: IntoIterator<Item = WordCode>>(&mut self, codes: I) {
        self.0.extend(codes);
    }
}

/// Prints the codes, the data type and the flag, whatever the storage.
impl fmt::Debug for EncodedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EncodedBlock")
            .field("codes", &self.codes())
            .field("dtype", &self.dtype())
            .field("approximable", &self.is_approximable())
            .finish()
    }
}

/// A block a codec builds one local line at a time: a [`CacheBlock`] (a
/// decoder's output) or an [`EncodedBlock`] (an encoder's).
pub trait LineBlock {
    /// What the block holds: a word or a code.
    type Entry: Copy;

    /// The value a codec's fresh local line holds in every slot.
    const FILL: Self::Entry;

    /// The block of `entries`, of any length.
    fn from_vec(entries: Vec<Self::Entry>, dtype: DataType, approximable: bool) -> Self;
}

impl LineBlock for CacheBlock {
    type Entry = u32;
    const FILL: u32 = <u32 as Entry>::FILL;

    fn from_vec(words: Vec<u32>, dtype: DataType, approximable: bool) -> Self {
        CacheBlock::new(words, dtype, approximable)
    }
}

impl LineBlock for EncodedBlock {
    type Entry = WordCode;
    const FILL: WordCode = <WordCode as Entry>::FILL;

    fn from_vec(codes: Vec<WordCode>, dtype: DataType, approximable: bool) -> Self {
        EncodedBlock::new(codes, dtype, approximable)
    }
}

/// The first entries of a block longer than [`BLOCK_WORDS`], which a codec
/// has handed over from its local line.
///
/// Every encoder and decoder fills one local `[_; BLOCK_WORDS]` line and
/// hands it to its block once, through `from_line`. A block longer than a
/// line (tests, cachesim lines of another size) fills the local line more
/// than once: each time it is full, the codec's loop moves it here with
/// [`take`](Self::take) and starts it again, and the codec returns
/// [`finish`](Self::finish)'s block instead. The block keeps the form its
/// length alone decides.
///
/// The codec builds its block from the line in its own return statement,
/// not through a helper that returns it: the block is then written straight
/// into the caller's slot, where a returned temporary costs a second copy
/// of the line.
pub struct Spill<B: LineBlock> {
    entries: Vec<B::Entry>,
    dtype: DataType,
    approximable: bool,
}

impl<B: LineBlock> Spill<B> {
    /// Nothing spilled yet, for a block of this metadata.
    #[inline(always)]
    pub fn new(dtype: DataType, approximable: bool) -> Self {
        Spill {
            entries: Vec::new(),
            dtype,
            approximable,
        }
    }

    /// Moves the first `len` entries of `line` after those taken before.
    #[cold]
    #[inline(never)]
    pub fn take(&mut self, line: &[B::Entry; BLOCK_WORDS], len: usize) {
        self.entries.extend_from_slice(&line[..len]);
    }

    /// Whether any entries were taken. Nothing taken means nothing
    /// allocated, so a codec that builds its block from the line has
    /// nothing to free.
    #[inline(always)]
    pub fn is_spilled(&self) -> bool {
        self.entries.capacity() != 0
    }

    /// The block of a line that spilled: the entries taken before, then
    /// the first `len` of `line`.
    #[cold]
    #[inline(never)]
    pub fn finish(mut self, line: &[B::Entry; BLOCK_WORDS], len: usize) -> B {
        self.take(line, len);
        B::from_vec(self.entries, self.dtype, self.approximable)
    }
}

crate::stats_record! {
    /// Running statistics over encoded words (drives Figures 10a/10b).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EncodeStats {
        /// Total words seen.
        pub words: u64,
        /// Words encoded via an exact match.
        pub exact_encoded: u64,
        /// Words encoded thanks to value approximation.
        pub approx_encoded: u64,
        /// Words sent raw (uncompressed).
        pub raw: u64,
        /// Total input bits (words × 32).
        pub bits_in: u64,
        /// Total output bits on the wire.
        pub bits_out: u64,
    }
}

#[warn(clippy::cast_possible_truncation)]
impl EncodeStats {
    /// Folds one encoded block into the statistics. A zero run counts as
    /// `len` exactly-encoded words.
    pub fn absorb_block(&mut self, block: &EncodedBlock) {
        for code in block.codes() {
            let span = code.word_span() as u64;
            self.words += span;
            self.bits_in += 32 * span;
            self.bits_out += code.bits() as u64;
            match (code.is_encoded(), code.is_approx()) {
                (true, true) => self.approx_encoded += span,
                (true, false) => self.exact_encoded += span,
                (false, _) => self.raw += span,
            }
        }
    }

    /// Fraction of words that were encoded (exact + approximate).
    pub fn encoded_fraction(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            (self.exact_encoded + self.approx_encoded) as f64 / self.words as f64
        }
    }

    /// Fraction of words encoded exactly.
    pub fn exact_fraction(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.exact_encoded as f64 / self.words as f64
        }
    }

    /// Fraction of words encoded thanks to approximation.
    pub fn approx_fraction(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.approx_encoded as f64 / self.words as f64
        }
    }

    /// Compression ratio `bits_in / bits_out` (≥ 1 is a win).
    pub fn compression_ratio(&self) -> f64 {
        if self.bits_out == 0 {
            1.0
        } else {
            self.bits_in as f64 / self.bits_out as f64
        }
    }
}

crate::stats_record! {
    /// Hardware activity counters a codec accumulates, consumed by the dynamic
    /// power model (Figure 15). All counts are event totals since construction.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CodecActivity {
        /// CAM search operations (pattern-matching-table lookups).
        pub cam_searches: u64,
        /// TCAM search operations (ternary approximate lookups).
        pub tcam_searches: u64,
        /// CAM/TCAM write (update/install/invalidate) operations.
        pub table_updates: u64,
        /// Approximate-value/pattern compute logic activations (AVCL/APCL).
        pub avcl_ops: u64,
        /// Words pushed through encode.
        pub words_encoded: u64,
        /// Words pushed through decode.
        pub words_decoded: u64,
        /// Dictionary notifications produced or consumed.
        pub notifications: u64,
    }
}

crate::snap_record! {
    /// A dictionary maintenance message from a decoder to a remote encoder.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Notification {
        /// The decoder placed `pattern` at `index` in its PMT; the encoder may
        /// now compress occurrences of it for this decoder.
        Install {
            /// The newly tracked data pattern.
            pattern: u32,
            /// The encoded index assigned by the decoder.
            index: u8,
            /// Data type the pattern was observed under, so a DI-VAXX encoder's
            /// APCL can derive the right don't-care mask.
            dtype: DataType,
        },
        /// The decoder evicted `pattern`; the encoder must stop compressing it.
        Invalidate {
            /// The evicted data pattern.
            pattern: u32,
        },
    }
}

/// Result of decoding a block: the (possibly approximated) cache block plus
/// any dictionary notifications, each addressed to the encoder at a specific
/// node (installs go to the packet's source; invalidations fan out to every
/// encoder whose valid bit is set, per Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeResult {
    /// The reconstructed cache block.
    pub block: CacheBlock,
    /// Dictionary update notifications, paired with the node to notify.
    pub notifications: Vec<(NodeId, Notification)>,
}

/// A block compression encoder living in a source NI.
///
/// Implementations: the baseline (no-op), FP-COMP, FP-VAXX, DI-COMP and
/// DI-VAXX in the `anoc-compression` crate.
pub trait BlockEncoder {
    /// Short mechanism name, e.g. `"FP-VAXX"`.
    fn name(&self) -> &'static str;

    /// Encodes `block` for transmission to `dest`.
    fn encode(&mut self, block: &CacheBlock, dest: NodeId) -> EncodedBlock;

    /// Compression latency in cycles added on the injection path. The paper
    /// provisions three cycles (two matching + one encoding) for all
    /// mechanisms (§4.3).
    fn compression_latency(&self) -> u64 {
        3
    }

    /// Delivers a dictionary notification that arrived from `from`'s decoder.
    /// Static mechanisms ignore these.
    fn apply_notification(&mut self, from: NodeId, note: Notification) {
        let _ = (from, note);
    }

    /// Hardware activity counters accumulated so far (for the power model).
    fn activity(&self) -> CodecActivity {
        CodecActivity::default()
    }

    /// Fault-injection hook: corrupts one stored dictionary/table entry
    /// using `entropy` to pick it. Returns whether anything was corrupted —
    /// the default (for table-less mechanisms) corrupts nothing.
    fn inject_table_fault(&mut self, entropy: u64) -> bool {
        let _ = entropy;
        false
    }

    /// Retargets the encoder's approximation threshold mid-run (the staged
    /// warmup methodology warms every codec at the exact threshold and
    /// retargets at the measurement boundary, DESIGN.md §11). Mechanisms
    /// without a VAXX engine ignore this.
    fn set_error_threshold(&mut self, threshold: crate::threshold::ErrorThreshold) {
        let _ = threshold;
    }

    /// Serializes the encoder's mutable state (learned tables, RNG cursors,
    /// activity counters) for a simulator snapshot. Stateless encoders write
    /// nothing; whatever is written here must be read back by `load_state`.
    fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        let _ = w;
    }

    /// Restores state written by [`save_state`](Self::save_state) into an
    /// identically constructed encoder.
    fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// A block decompression decoder living in a destination NI.
pub trait BlockDecoder {
    /// Short mechanism name, e.g. `"FP-VAXX"`.
    fn name(&self) -> &'static str;

    /// Decodes a network representation received from `src`.
    fn decode(&mut self, encoded: &EncodedBlock, src: NodeId) -> DecodeResult;

    /// Decompression latency in cycles added at the ejection path (two cycles
    /// in the paper, §4.3).
    fn decompression_latency(&self) -> u64 {
        2
    }

    /// Hardware activity counters accumulated so far (for the power model).
    fn activity(&self) -> CodecActivity {
        CodecActivity::default()
    }

    /// Serializes the decoder's mutable state for a simulator snapshot (see
    /// [`BlockEncoder::save_state`]).
    fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        let _ = w;
    }

    /// Restores state written by [`save_state`](Self::save_state) into an
    /// identically constructed decoder.
    fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// The baseline mechanism: no compression at all. Every word is sent raw with
/// zero tag overhead, and codec latencies are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCodec;

impl NullCodec {
    /// Creates a baseline codec.
    pub fn new() -> Self {
        NullCodec
    }
}

impl BlockEncoder for NullCodec {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn encode(&mut self, block: &CacheBlock, _dest: NodeId) -> EncodedBlock {
        let mut spill = Spill::new(block.dtype(), block.is_approximable());
        let mut line = [EncodedBlock::FILL; BLOCK_WORDS];
        let mut len = 0;
        for words in block.words().chunks(BLOCK_WORDS) {
            // Only a line longer than BLOCK_WORDS fills the local one.
            if len == BLOCK_WORDS {
                spill.take(&line, len);
            }
            for (slot, &word) in line.iter_mut().zip(words) {
                *slot = WordCode::Raw {
                    word,
                    prefix_bits: 0,
                };
            }
            len = words.len();
        }
        if spill.is_spilled() {
            return spill.finish(&line, len);
        }
        EncodedBlock::from_line(line, len, block.dtype(), block.is_approximable())
    }

    fn compression_latency(&self) -> u64 {
        0
    }
}

impl BlockDecoder for NullCodec {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn decode(&mut self, encoded: &EncodedBlock, _src: NodeId) -> DecodeResult {
        let mut spill = Spill::new(encoded.dtype(), encoded.is_approximable());
        let mut line = [CacheBlock::FILL; BLOCK_WORDS];
        let mut codes = encoded.codes().iter();
        let mut len = 0;
        loop {
            for slot in &mut line {
                let Some(code) = codes.next() else { break };
                *slot = match *code {
                    WordCode::Raw { word, .. } => word,
                    _ => unreachable!("baseline never produces encoded words"),
                };
                len += 1;
            }
            // Only a line longer than BLOCK_WORDS fills the local one.
            if codes.len() == 0 {
                break;
            }
            spill.take(&line, len);
            len = 0;
        }
        let notifications = Vec::new();
        if spill.is_spilled() {
            let block = spill.finish(&line, len);
            return DecodeResult {
                block,
                notifications,
            };
        }
        let block = CacheBlock::from_line(line, len, encoded.dtype(), encoded.is_approximable());
        DecodeResult {
            block,
            notifications,
        }
    }

    fn decompression_latency(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_code_bit_sizes() {
        assert_eq!(
            WordCode::Raw {
                word: 0,
                prefix_bits: 3
            }
            .bits(),
            35
        );
        assert_eq!(
            WordCode::Pattern {
                index: 1,
                adjunct: 0xF,
                adjunct_bits: 4,
                approx: false
            }
            .bits(),
            7
        );
        assert_eq!(
            WordCode::Dict {
                index: 2,
                index_bits: 3,
                approx: true,
                pattern: 0
            }
            .bits(),
            4
        );
        assert_eq!(WordCode::ZeroRun { len: 8 }.bits(), 6);
        assert_eq!(WordCode::ZeroRun { len: 8 }.word_span(), 8);
        let m = WordCode::Match {
            distance: 3,
            len: 4,
            dist_bits: 3,
            approx: true,
        };
        assert_eq!(m.bits(), 2 + 3 + 3);
        assert_eq!(m.word_span(), 4);
        assert!(m.is_encoded());
        assert!(m.is_approx());
    }

    #[test]
    fn encode_stats_classification() {
        let codes = vec![
            WordCode::Raw {
                word: 5,
                prefix_bits: 1,
            },
            WordCode::Dict {
                index: 0,
                index_bits: 3,
                approx: false,
                pattern: 7,
            },
            WordCode::Dict {
                index: 1,
                index_bits: 3,
                approx: true,
                pattern: 9,
            },
        ];
        let block = EncodedBlock::new(codes, DataType::Int, true);
        let s = block.stats();
        assert_eq!(s.words, 3);
        assert_eq!(s.raw, 1);
        assert_eq!(s.exact_encoded, 1);
        assert_eq!(s.approx_encoded, 1);
        assert_eq!(s.bits_in, 96);
        assert_eq!(s.bits_out, 33 + 4 + 4);
        assert!((s.encoded_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.compression_ratio() > 2.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = EncodeStats {
            words: 1,
            exact_encoded: 1,
            bits_in: 32,
            bits_out: 4,
            ..Default::default()
        };
        let b = EncodeStats {
            words: 2,
            raw: 2,
            bits_in: 64,
            bits_out: 66,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.words, 3);
        assert_eq!(a.bits_out, 70);
        assert!((a.exact_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.approx_fraction(), 0.0);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = EncodeStats::default();
        assert_eq!(s.encoded_fraction(), 0.0);
        assert_eq!(s.compression_ratio(), 1.0);
    }

    #[test]
    fn null_codec_roundtrip() {
        let mut enc = NullCodec::new();
        let mut dec = NullCodec::new();
        let block = CacheBlock::from_i32(&[1, -2, 3, -4]);
        let e = enc.encode(&block, NodeId(1));
        assert_eq!(e.payload_bits(), 128);
        assert_eq!(enc.compression_latency(), 0);
        assert_eq!(dec.decompression_latency(), 0);
        let d = dec.decode(&e, NodeId(0));
        assert_eq!(d.block, block);
        assert!(d.notifications.is_empty());
        assert_eq!(BlockEncoder::name(&enc), "Baseline");
        assert_eq!(BlockDecoder::name(&dec), "Baseline");
    }
}
