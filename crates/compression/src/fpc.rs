//! The static frequent-pattern table (Figure 5) and masked approximate
//! matching against it (Figure 6).
//!
//! Each pattern class constrains a *fixed region* of the 32-bit word to a
//! sign-fill value and leaves a *free region* to travel as the adjunct data.
//! Exact FP-COMP matching checks the whole word against the fixed region;
//! FP-VAXX first widens the match by excluding the AVCL's don't-care bits
//! from the comparison (the shaded portion of Figure 6), then reconstructs
//! the canonical approximated word the decoder will materialise.

/// A frequent-pattern class (the 3-bit encoded index of Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FpcClass {
    /// `000` — zero run (3-bit run length).
    Zero = 0,
    /// `001` — 4-bit sign-extended value.
    Se4 = 1,
    /// `010` — one byte sign-extended.
    Se8 = 2,
    /// `011` — halfword sign-extended.
    Se16 = 3,
    /// `100` — halfword padded with a zero halfword.
    HalfPadded = 4,
    /// `101` — two halfwords, each a byte sign-extended.
    TwoHalfSe = 5,
    /// `111` — uncompressed word.
    Uncompressed = 7,
}

/// Matching priority: highest compression first, as arbitrated by the CA
/// logic of Figure 6. FP-VAXX always tries the highest-priority row (§5.3.1).
pub const MATCH_PRIORITY: [FpcClass; 6] = [
    FpcClass::Zero,
    FpcClass::Se4,
    FpcClass::Se8,
    FpcClass::Se16,
    FpcClass::HalfPadded,
    FpcClass::TwoHalfSe,
];

/// The pattern-matching rows of the CA logic (Figure 6), in
/// [`MATCH_PRIORITY`] order: `(class, fixed_region_mask, fill)`. A word fits
/// a class iff for some row of that class all fixed-region bits equal the
/// fill; sign-extended classes have one row per sign.
const ROWS: [(FpcClass, u32, u32); 12] = [
    (FpcClass::Zero, 0xFFFF_FFFF, 0),
    (FpcClass::Se4, 0xFFFF_FFF8, 0),
    (FpcClass::Se4, 0xFFFF_FFF8, 0xFFFF_FFF8),
    (FpcClass::Se8, 0xFFFF_FF80, 0),
    (FpcClass::Se8, 0xFFFF_FF80, 0xFFFF_FF80),
    (FpcClass::Se16, 0xFFFF_8000, 0),
    (FpcClass::Se16, 0xFFFF_8000, 0xFFFF_8000),
    (FpcClass::HalfPadded, 0x0000_FFFF, 0),
    (FpcClass::TwoHalfSe, 0xFF80_FF80, 0),
    (FpcClass::TwoHalfSe, 0xFF80_FF80, 0x0000_FF80),
    (FpcClass::TwoHalfSe, 0xFF80_FF80, 0xFF80_0000),
    (FpcClass::TwoHalfSe, 0xFF80_FF80, 0xFF80_FF80),
];

impl FpcClass {
    /// Converts a 3-bit encoded index back to a class.
    pub fn from_index(index: u8) -> Option<FpcClass> {
        match index {
            0 => Some(FpcClass::Zero),
            1 => Some(FpcClass::Se4),
            2 => Some(FpcClass::Se8),
            3 => Some(FpcClass::Se16),
            4 => Some(FpcClass::HalfPadded),
            5 => Some(FpcClass::TwoHalfSe),
            7 => Some(FpcClass::Uncompressed),
            _ => None,
        }
    }

    /// The adjunct data size in bits (the "encoded data size" column of
    /// Figure 5; 3 bits for a zero run's length, 32 for uncompressed).
    pub const fn adjunct_bits(self) -> u8 {
        match self {
            FpcClass::Zero => 3,
            FpcClass::Se4 => 4,
            FpcClass::Se8 => 8,
            FpcClass::Se16 | FpcClass::HalfPadded | FpcClass::TwoHalfSe => 16,
            FpcClass::Uncompressed => 32,
        }
    }

    /// Projects `word` onto this class under a don't-care mask: finds the
    /// value `v` closest to `word` that (a) fits this pattern class and
    /// (b) agrees with `word` on every bit *not* in `dont_care`.
    ///
    /// With `dont_care == 0` this degenerates to exact FP-COMP matching
    /// (returns `Some(word)` iff `word` fits the class).
    pub fn project(self, word: u32, dont_care: u32) -> Option<u32> {
        let must = !dont_care;
        ROWS.iter()
            .filter(|&&(class, ..)| class == self)
            .find(|&&(_, fixed, fill)| word & must & fixed == fill & must)
            // Free-region bits are taken from the original word so the
            // approximation stays as close as possible (and equals the word
            // exactly when the word already fits).
            .map(|&(_, fixed, fill)| fill | (word & !fixed))
    }

    /// How the adjunct is cut from a word of this class, as
    /// `(shift, high, low, base)`: the adjunct is
    /// `(value >> shift) & high | value & low | base`.
    const fn adjunct_layout(self) -> (u32, u32, u32, u32) {
        match self {
            FpcClass::Zero => (0, 0, 0, 1), // run length 1; block layer merges runs
            FpcClass::Se4 => (0, 0, 0xF, 0),
            FpcClass::Se8 => (0, 0, 0xFF, 0),
            FpcClass::Se16 => (0, 0, 0xFFFF, 0),
            FpcClass::HalfPadded => (16, 0xFFFF, 0, 0),
            FpcClass::TwoHalfSe => (8, 0xFF00, 0xFF, 0),
            FpcClass::Uncompressed => (0, 0, u32::MAX, 0),
        }
    }

    /// Extracts the adjunct data bits from a word known to fit this class.
    pub fn adjunct_of(self, value: u32) -> u32 {
        let (shift, high, low, base) = self.adjunct_layout();
        (value >> shift) & high | value & low | base
    }

    /// Reconstructs the word from its class and adjunct (the decoder side).
    /// For [`FpcClass::Zero`] the adjunct is a run length and the decoded
    /// value is a single zero word; the caller expands runs.
    pub fn decode(self, adjunct: u32) -> u32 {
        match self {
            FpcClass::Zero => 0,
            FpcClass::Se4 => ((adjunct as i32) << 28 >> 28) as u32,
            FpcClass::Se8 => ((adjunct as i32) << 24 >> 24) as u32,
            FpcClass::Se16 => ((adjunct as i32) << 16 >> 16) as u32,
            FpcClass::HalfPadded => adjunct << 16,
            FpcClass::TwoHalfSe => {
                let hi = ((adjunct >> 8) as u8 as i8 as i16) as u16 as u32;
                let lo = (adjunct as u8 as i8 as i16) as u16 as u32;
                (hi << 16) | lo
            }
            FpcClass::Uncompressed => adjunct,
        }
    }
}

/// Finds the highest-priority frequent pattern `word` can be (approximately)
/// matched to, returning the class and the canonical approximated value.
///
/// `dont_care` is the AVCL mask (0 for exact FP-COMP matching).
///
/// # Examples
///
/// ```
/// use anoc_compression::fpc::{best_match, FpcClass};
/// // -3 is a 4-bit sign-extended value.
/// assert_eq!(best_match((-3i32) as u32, 0), Some((FpcClass::Se4, (-3i32) as u32)));
/// // 0x12345678 fits nothing exactly...
/// assert_eq!(best_match(0x1234_5678, 0), None);
/// // ...but with the low 16 bits don't-care it projects onto "halfword
/// // padded with a zero halfword".
/// assert_eq!(
///     best_match(0x1234_5678, 0xFFFF),
///     Some((FpcClass::HalfPadded, 0x1234_0000))
/// );
/// ```
pub fn best_match(word: u32, dont_care: u32) -> Option<(FpcClass, u32)> {
    for class in MATCH_PRIORITY {
        if let Some(v) = class.project(word, dont_care) {
            return Some((class, v));
        }
    }
    None
}

/// The row index [`first_rows8`] gives a word that matches no row: the
/// index of [`ROW_CODES`]' uncompressed entry.
pub(crate) const NO_ROW: u8 = ROWS.len() as u8;

/// What the encoder emits for a word whose first matching row is a given
/// one: the row's fixed region and fill, which give the approximated value
/// `fill | word & !fixed`, the class index and adjunct width of its code,
/// and the cut of the adjunct from the value (see
/// [`FpcClass::adjunct_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowCode {
    /// Fixed-region mask of the row (0 for no match: the value is the word).
    pub(crate) fixed: u32,
    /// Fill of the fixed region.
    pub(crate) fill: u32,
    /// The 3-bit class index of the code.
    pub(crate) index: u8,
    /// Adjunct width in bits.
    pub(crate) width: u8,
    /// The adjunct is `(value >> shift) & high | value & low | base`.
    pub(crate) shift: u32,
    /// See [`shift`](Self::shift).
    pub(crate) high: u32,
    /// See [`shift`](Self::shift).
    pub(crate) low: u32,
    /// See [`shift`](Self::shift).
    pub(crate) base: u32,
}

impl RowCode {
    const fn of(class: FpcClass, fixed: u32, fill: u32) -> RowCode {
        let (shift, high, low, base) = class.adjunct_layout();
        RowCode {
            fixed,
            fill,
            index: class as u8,
            width: class.adjunct_bits(),
            shift,
            high,
            low,
            base,
        }
    }

    /// The value the decoder materialises for `word`.
    #[inline]
    pub(crate) fn value(&self, word: u32) -> u32 {
        self.fill | (word & !self.fixed)
    }

    /// The adjunct of `value`.
    #[inline]
    pub(crate) fn adjunct(&self, value: u32) -> u32 {
        (value >> self.shift) & self.high | value & self.low | self.base
    }
}

/// One [`RowCode`] per row of the CA logic, in [`MATCH_PRIORITY`] order,
/// then the uncompressed entry at [`NO_ROW`].
pub(crate) const ROW_CODES: [RowCode; ROWS.len() + 1] = {
    let mut codes = [RowCode::of(FpcClass::Uncompressed, 0, 0); ROWS.len() + 1];
    let mut r = 0;
    while r < ROWS.len() {
        let (class, fixed, fill) = ROWS[r];
        codes[r] = RowCode::of(class, fixed, fill);
        r += 1;
    }
    codes
};

/// Finds each of eight contiguous words' first matching row, the way the CA
/// logic of Figure 6 matches every pattern row at once: the index into
/// [`ROW_CODES`] of the row [`best_match`] would project the word onto
/// under its don't-care mask, or [`NO_ROW`]. Each lane compares its word
/// against all twelve rows with no branch, each compare one bit of a hit
/// mask, and takes the lowest set bit ([`first_row`]). A walk of the rows
/// that stopped once every lane had matched measured slower: one raw word
/// in a group sends it through every row, and the winners are picked with
/// a data-dependent branch or a select per lane and row.
#[inline]
pub(crate) fn first_rows8(words: &[u32; 8], dont_care: &[u32; 8]) -> [u8; 8] {
    std::array::from_fn(|lane| first_row(words[lane], dont_care[lane]))
}

/// The words of a group shorter than eight, padded with zeros to eight
/// lanes: the tail of a block whose length is not a multiple of eight.
#[cold]
pub(crate) fn pad8(group: &[u32]) -> [u32; 8] {
    let mut lanes = [0; 8];
    let n = group.len().min(8);
    lanes[..n].copy_from_slice(&group[..n]);
    lanes
}

/// Each row's fixed-region mask, in [`ROWS`] order.
const FIXED: [u32; ROWS.len()] = {
    let mut fixed = [0; ROWS.len()];
    let mut r = 0;
    while r < ROWS.len() {
        fixed[r] = ROWS[r].1;
        r += 1;
    }
    fixed
};

/// Each row's fill, in [`ROWS`] order.
const FILL: [u32; ROWS.len()] = {
    let mut fill = [0; ROWS.len()];
    let mut r = 0;
    while r < ROWS.len() {
        fill[r] = ROWS[r].2;
        r += 1;
    }
    fill
};

/// One lane of [`first_rows8`]: `word`'s first matching row under
/// `dont_care`, or [`NO_ROW`]. Every row is compared, each into one bit
/// of a hit mask, and the lowest set bit is the winner.
#[inline]
pub(crate) fn first_row(word: u32, dont_care: u32) -> u8 {
    let must = !dont_care;
    let mut hits = 1u32 << NO_ROW;
    for r in 0..ROWS.len() {
        hits |= u32::from((word ^ FILL[r]) & FIXED[r] & must == 0) << r;
    }
    hits.trailing_zeros() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_classification_of_figure5_examples() {
        assert_eq!(best_match(0, 0).unwrap().0, FpcClass::Zero);
        assert_eq!(best_match(7, 0).unwrap().0, FpcClass::Se4);
        assert_eq!(best_match((-8i32) as u32, 0).unwrap().0, FpcClass::Se4);
        assert_eq!(best_match(100, 0).unwrap().0, FpcClass::Se8);
        assert_eq!(best_match((-100i32) as u32, 0).unwrap().0, FpcClass::Se8);
        assert_eq!(best_match(30_000, 0).unwrap().0, FpcClass::Se16);
        assert_eq!(
            best_match((-30_000i32) as u32, 0).unwrap().0,
            FpcClass::Se16
        );
        assert_eq!(best_match(0xABCD_0000, 0).unwrap().0, FpcClass::HalfPadded);
        // two halfwords each byte sign-extended: 0x0042_FFC0
        assert_eq!(best_match(0x0042_FFC0, 0).unwrap().0, FpcClass::TwoHalfSe);
        assert_eq!(best_match(0x1234_5678, 0), None);
        // 0x8000_0000 has a zero low halfword, so it *is* halfword-padded.
        assert_eq!(best_match(0x8000_0000, 0).unwrap().0, FpcClass::HalfPadded);
        assert_eq!(best_match(0x8000_0001, 0), None);
    }

    #[test]
    fn exact_match_returns_word_unchanged() {
        for w in [0u32, 7, 0xFFu32, 0xFFFF_FF85, 0xABCD_0000, 0x0042_FFC0] {
            if let Some((_, v)) = best_match(w, 0) {
                assert_eq!(v, w, "exact match must not alter {w:#x}");
            }
        }
    }

    #[test]
    fn roundtrip_encode_decode() {
        let words = [
            0u32,
            5,
            (-5i32) as u32,
            120,
            (-120i32) as u32,
            30_000,
            (-29_999i32) as u32,
            0x7FFF_0000,
            0x0042_FFC0,
            0xFF85_0023u32,
        ];
        for w in words {
            if let Some((class, v)) = best_match(w, 0) {
                assert_eq!(v, w);
                if class != FpcClass::Zero {
                    let adj = class.adjunct_of(v);
                    assert!(adj < (1u64 << class.adjunct_bits()) as u32);
                    assert_eq!(class.decode(adj), v, "class {class:?} word {w:#x}");
                }
            }
        }
    }

    #[test]
    fn projection_respects_must_bits() {
        // 0x12345678 with low byte don't-care still cannot fit Se16.
        assert_eq!(FpcClass::Se16.project(0x1234_5678, 0xFF), None);
        // 0x00008123 with low byte don't-care: must bits 0x00008100 — Se16
        // needs bits 31..15 uniform; bit 15 is 1 but 31..16 are 0 -> no.
        assert_eq!(FpcClass::Se16.project(0x0000_8123, 0xFF), None);
        // 0x00007F23 with low byte don't-care fits Se16 (positive fill).
        assert_eq!(FpcClass::Se16.project(0x0000_7F23, 0xFF), Some(0x0000_7F23));
    }

    #[test]
    fn projection_keeps_free_bits_close() {
        // Word 0x0000_00FF: not a sign-extended byte (bit 7 set, bits 31..8
        // clear), and 4 don't-care bits don't rescue Se4/Se8 because bit 7 is
        // a must-bit. It lands on Se16 with the word unchanged.
        let (class, v) = best_match(0x0000_00FF, 0xF).unwrap();
        assert_eq!(class, FpcClass::Se16);
        assert_eq!(v, 0xFF);
        // 0x0000_0013: bit 4 is a must-bit in Se4's fixed region, so two
        // free low bits cannot rescue the match.
        assert_eq!(FpcClass::Se4.project(0x13, 0b11), None);
        // 5 fits signed-4-bit exactly, don't-care bits or not.
        assert_eq!(FpcClass::Se4.project(0x5, 0b11), Some(0x5));
        // 11 does not (it exceeds the signed 4-bit range [-8, 7]).
        assert_eq!(FpcClass::Se4.project(0xB, 0), None);
    }

    #[test]
    fn approximate_zero_match() {
        // Word 3 with two don't-care bits projects onto the zero pattern.
        assert_eq!(FpcClass::Zero.project(3, 0b11), Some(0));
        assert_eq!(best_match(3, 0b11).unwrap(), (FpcClass::Zero, 0));
        // But not when a must-bit is set.
        assert_eq!(FpcClass::Zero.project(4, 0b11), None);
    }

    #[test]
    fn two_half_se_decode() {
        let v = 0x0042_FFC0u32; // hi half = sext8(0x42), lo half = sext8(0xC0)
        let adj = FpcClass::TwoHalfSe.adjunct_of(v);
        assert_eq!(adj, 0x42C0);
        assert_eq!(FpcClass::TwoHalfSe.decode(adj), v);
    }

    #[test]
    fn class_index_roundtrip() {
        for class in MATCH_PRIORITY {
            assert_eq!(FpcClass::from_index(class as u8), Some(class));
        }
        assert_eq!(FpcClass::from_index(7), Some(FpcClass::Uncompressed));
        assert_eq!(FpcClass::from_index(6), None);
        assert_eq!(FpcClass::from_index(8), None);
    }

    /// The class and value the row [`first_rows8`] picked gives a word.
    fn matched(row: u8, word: u32) -> Option<(FpcClass, u32)> {
        let code = ROW_CODES[usize::from(row)];
        let class = FpcClass::from_index(code.index).unwrap();
        (row != NO_ROW).then(|| (class, code.value(word)))
    }

    #[test]
    fn first_rows8_agrees_with_scalar() {
        use anoc_core::avcl::Avcl;
        use anoc_core::data::DataType;
        use anoc_core::threshold::ErrorThreshold;

        let check = |words: &[u32; 8], masks: &[u32; 8]| {
            let batch = first_rows8(words, masks);
            for lane in 0..8 {
                let (word, mask) = (words[lane], masks[lane]);
                assert_eq!(batch[lane], first_row(word, mask), "lane {lane}");
                assert_eq!(
                    matched(batch[lane], word),
                    best_match(word, mask),
                    "lane {lane}: word {word:#x} mask {mask:#x}"
                );
            }
        };
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(0xF8C8);
        for _ in 0..200 {
            let words: [u32; 8] = core::array::from_fn(|_| rng.next_u32() >> rng.below(28));
            let masks: [u32; 8] = core::array::from_fn(|_| (1u32 << rng.below(17)) - 1);
            check(&words, &masks);
        }
        // The masks FP-VAXX actually feeds the wide path: the AVCL's own
        // don't-care patterns, for integer words and for float bit patterns
        // (specials included) at each paper threshold.
        for pct in [5, 10, 20] {
            let avcl = Avcl::new(ErrorThreshold::from_percent(pct).unwrap());
            for _ in 0..200 {
                let ints: [u32; 8] = core::array::from_fn(|_| {
                    let w = rng.next_u32() >> rng.below(32);
                    if rng.chance(0.5) {
                        w.wrapping_neg()
                    } else {
                        w
                    }
                });
                let floats: [u32; 8] = core::array::from_fn(|lane| match lane {
                    0 => 0,
                    1 => f32::INFINITY.to_bits(),
                    _ => ((rng.f32() - 0.5) * 2f32.powi(rng.range(0, 40) as i32 - 20)).to_bits(),
                });
                for (words, dtype) in [(ints, DataType::Int), (floats, DataType::F32)] {
                    let pats = avcl.approx_pattern8(&words, dtype);
                    check(&words, &core::array::from_fn(|i| pats[i].mask()));
                }
            }
        }
    }

    #[test]
    fn row_codes_encode_as_the_classes_do() {
        for (r, &(class, fixed, fill)) in ROWS.iter().enumerate() {
            let code = ROW_CODES[r];
            assert_eq!((code.fixed, code.fill), (fixed, fill));
            assert_eq!(code.index, class as u8);
            assert_eq!(code.width, class.adjunct_bits());
        }
        let raw = ROW_CODES[usize::from(NO_ROW)];
        assert_eq!(raw.index, FpcClass::Uncompressed as u8);
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(0xC0DE);
        for _ in 0..2000 {
            let word = rng.next_u32() >> rng.below(32);
            let mask = (1u32 << rng.below(17)) - 1;
            if let Some((class, v)) = best_match(word, mask) {
                let code = ROW_CODES[usize::from(first_row(word, mask))];
                assert_eq!(code.value(word), v);
                assert_eq!(code.adjunct(v), class.adjunct_of(v), "{word:#x}");
            }
            assert_eq!(raw.value(word), word);
        }
    }

    #[test]
    fn priority_prefers_denser_patterns() {
        // 0 fits every pattern; priority must pick Zero.
        assert_eq!(best_match(0, 0).unwrap().0, FpcClass::Zero);
        // 5 fits Se4/Se8/Se16; priority must pick Se4.
        assert_eq!(best_match(5, 0).unwrap().0, FpcClass::Se4);
    }
}
