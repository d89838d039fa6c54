//! Pins the observable behaviour of `CacheBlock` and `EncodedBlock` against
//! a plain-`Vec` reference model, at every length from 0 to the 16 entries
//! of one 64-byte line. Constructors (the codecs' line-at-a-time
//! construction among them), accessors, `==`, `clone()` and the `Debug` text
//! must all agree with the model, and every constructor refuses a 17th
//! entry.

use anoc_core::codec::{EncodedBlock, WordCode};
use anoc_core::data::{CacheBlock, DataType, BLOCK_WORDS};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Longest block the properties build: one 64-byte line.
const MAX_LEN: usize = BLOCK_WORDS;

/// The reference model: the `Vec`-backed layout, with derived `Debug` and
/// `PartialEq`. Its type names match the real ones, so its `Debug` text is
/// the text the real types must print.
mod model {
    use anoc_core::codec::WordCode;
    use anoc_core::data::DataType;

    #[derive(Debug, Clone, PartialEq)]
    pub struct CacheBlock {
        pub words: Vec<u32>,
        pub dtype: DataType,
        pub approximable: bool,
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct EncodedBlock {
        pub codes: Vec<WordCode>,
        pub dtype: DataType,
        pub approximable: bool,
    }
}

fn dtype_of(f32: bool) -> DataType {
    if f32 {
        DataType::F32
    } else {
        DataType::Int
    }
}

/// One word code of any variant, with arbitrary fields.
fn code_of((tag, a, b, c, approx): (u8, u32, u8, u8, bool)) -> WordCode {
    match tag % 5 {
        0 => WordCode::Raw {
            word: a,
            prefix_bits: b,
        },
        1 => WordCode::Pattern {
            index: b,
            adjunct: a,
            adjunct_bits: c,
            approx,
        },
        2 => WordCode::ZeroRun { len: b },
        3 => WordCode::Match {
            distance: a as u16,
            len: b,
            dist_bits: c,
            approx,
        },
        _ => WordCode::Dict {
            index: b,
            index_bits: c,
            approx,
            pattern: a,
        },
    }
}

/// `entries` as a codec builds them: into one local line of `fill`, and the
/// block made once at the end.
fn lined<E: Copy, B>(
    entries: &[E],
    fill: E,
    from_line: impl FnOnce([E; BLOCK_WORDS], usize) -> B,
) -> B {
    let mut line = [fill; BLOCK_WORDS];
    line[..entries.len()].copy_from_slice(entries);
    from_line(line, entries.len())
}

/// Checks everything a block shows against its model.
fn check_block(block: &CacheBlock, model: &model::CacheBlock) -> Result<(), TestCaseError> {
    prop_assert_eq!(block.words(), &model.words[..]);
    prop_assert_eq!(block.len(), model.words.len());
    prop_assert_eq!(block.is_empty(), model.words.is_empty());
    prop_assert_eq!(block.size_bytes(), 4 * model.words.len());
    prop_assert_eq!(block.size_bits(), 32 * model.words.len() as u64);
    prop_assert_eq!(block.dtype(), model.dtype);
    prop_assert_eq!(block.is_approximable(), model.approximable);
    prop_assert_eq!(format!("{block:?}"), format!("{model:?}"));
    prop_assert_eq!(format!("{block:#?}"), format!("{model:#?}"));
    let clone = block.clone();
    prop_assert!(&clone == block);
    prop_assert_eq!(format!("{clone:?}"), format!("{model:?}"));
    Ok(())
}

fn check_encoded(block: &EncodedBlock, model: &model::EncodedBlock) -> Result<(), TestCaseError> {
    prop_assert_eq!(block.codes(), &model.codes[..]);
    prop_assert_eq!(block.len(), model.codes.len());
    prop_assert_eq!(block.is_empty(), model.codes.is_empty());
    prop_assert_eq!(
        block.word_count(),
        model.codes.iter().map(WordCode::word_span).sum::<u32>()
    );
    prop_assert_eq!(
        block.payload_bits(),
        model.codes.iter().map(WordCode::bits).sum::<u32>()
    );
    prop_assert_eq!(block.dtype(), model.dtype);
    prop_assert_eq!(block.is_approximable(), model.approximable);
    prop_assert_eq!(format!("{block:?}"), format!("{model:?}"));
    prop_assert_eq!(format!("{block:#?}"), format!("{model:#?}"));
    let clone = block.clone();
    prop_assert!(&clone == block);
    prop_assert_eq!(format!("{clone:?}"), format!("{model:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every constructor, accessor, `==` and `clone()` of `CacheBlock`
    /// agrees with the model at every length in `0..=MAX_LEN`.
    #[test]
    fn cache_block_matches_its_vec_model(
        words in prop::collection::vec(any::<u32>(), MAX_LEN),
        f32 in any::<bool>(),
        approximable in any::<bool>(),
        flip in any::<u32>(),
    ) {
        let dtype = dtype_of(f32);
        for n in 0..=MAX_LEN {
            let words = &words[..n];
            let model = model::CacheBlock { words: words.to_vec(), dtype, approximable };

            let block = CacheBlock::new(words.to_vec(), dtype, approximable);
            check_block(&block, &model)?;

            let precise = CacheBlock::precise(words.to_vec());
            check_block(
                &precise,
                &model::CacheBlock { words: words.to_vec(), dtype: DataType::Int, approximable: false },
            )?;
            prop_assert!(precise.clone().with_approximable(true).is_approximable());

            let ints: Vec<i32> = words.iter().map(|&w| w as i32).collect();
            let from_i32 = CacheBlock::from_i32(&ints);
            check_block(
                &from_i32,
                &model::CacheBlock { words: words.to_vec(), dtype: DataType::Int, approximable: true },
            )?;
            prop_assert_eq!(from_i32.as_i32(), ints);

            let floats: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
            let from_f32 = CacheBlock::from_f32(&floats);
            let float_bits: Vec<u32> = floats.iter().map(|v| v.to_bits()).collect();
            check_block(
                &from_f32,
                &model::CacheBlock { words: float_bits.clone(), dtype: DataType::F32, approximable: true },
            )?;
            let as_bits: Vec<u32> = from_f32.as_f32().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(as_bits, float_bits);

            // Written in place: pushed or extended into an empty block, the
            // metadata given up front or set afterwards.
            let mut pushed = CacheBlock::empty(dtype, approximable);
            for &w in words {
                pushed.push(w);
            }
            check_block(&pushed, &model)?;
            let mut extended = CacheBlock::empty(dtype_of(!f32), !approximable);
            extended.extend(words.iter().copied());
            check_block(&extended.with_meta(dtype, approximable), &model)?;
            let from_line = |line, len| CacheBlock::from_line(line, len, dtype, approximable);
            check_block(&lined(words, CacheBlock::FILL, from_line), &model)?;

            // `words_mut` edits in place, at any length.
            let mut edited = block.clone();
            let mut edited_model = model.clone();
            for (w, m) in edited.words_mut().iter_mut().zip(&mut edited_model.words) {
                *w ^= flip;
                *m ^= flip;
            }
            check_block(&edited, &edited_model)?;

            // `==` sees every word, the length and both metadata fields.
            prop_assert_eq!(&block, &CacheBlock::new(words.to_vec(), dtype, approximable));
            prop_assert_eq!(block == edited, flip == 0 || n == 0);
            if n > 0 {
                let shorter = CacheBlock::new(words[..n - 1].to_vec(), dtype, approximable);
                prop_assert_ne!(&block, &shorter);
            }
            prop_assert_ne!(&block, &CacheBlock::new(words.to_vec(), dtype_of(!f32), approximable));
            prop_assert_ne!(&block, &block.clone().with_approximable(!approximable));
        }
    }

    /// The same for `EncodedBlock`'s codes.
    #[test]
    fn encoded_block_matches_its_vec_model(
        fields in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>(), any::<bool>()),
            MAX_LEN,
        ),
        f32 in any::<bool>(),
        approximable in any::<bool>(),
    ) {
        let dtype = dtype_of(f32);
        let codes: Vec<WordCode> = fields.into_iter().map(code_of).collect();
        for n in 0..=MAX_LEN {
            let codes = &codes[..n];
            let model = model::EncodedBlock { codes: codes.to_vec(), dtype, approximable };
            let block = EncodedBlock::new(codes.to_vec(), dtype, approximable);
            check_encoded(&block, &model)?;
            let from_line = |line, len| EncodedBlock::from_line(line, len, dtype, approximable);
            check_encoded(&lined(codes, EncodedBlock::FILL, from_line), &model)?;
            let stats = block.stats();
            prop_assert_eq!(stats.words, codes.iter().map(|c| u64::from(c.word_span())).sum::<u64>());
            prop_assert_eq!(stats.bits_out, codes.iter().map(|c| u64::from(c.bits())).sum::<u64>());

            prop_assert_eq!(&block, &EncodedBlock::new(codes.to_vec(), dtype, approximable));
            if n > 0 {
                let shorter = EncodedBlock::new(codes[..n - 1].to_vec(), dtype, approximable);
                prop_assert_ne!(&block, &shorter);
                let mut changed = codes.to_vec();
                changed[n - 1] = match changed[n - 1] {
                    WordCode::ZeroRun { len } => WordCode::ZeroRun { len: len.wrapping_add(1) },
                    _ => WordCode::ZeroRun { len: 0 },
                };
                prop_assert_ne!(&block, &EncodedBlock::new(changed, dtype, approximable));
            }
            prop_assert_ne!(&block, &EncodedBlock::new(codes.to_vec(), dtype_of(!f32), approximable));
            prop_assert_ne!(&block, &EncodedBlock::new(codes.to_vec(), dtype, !approximable));
        }
    }
}

/// Every constructor that takes entries asserts the one-line capacity.
#[test]
fn every_constructor_refuses_a_seventeenth_entry() {
    const OVER: usize = BLOCK_WORDS + 1;
    let attempts: [(&str, fn()); 7] = [
        ("CacheBlock::new", || {
            let _ = CacheBlock::new(vec![7; OVER], DataType::Int, true);
        }),
        ("CacheBlock::precise", || {
            let _ = CacheBlock::precise(vec![7; OVER]);
        }),
        ("CacheBlock::from_i32", || {
            let _ = CacheBlock::from_i32(&[7; OVER]);
        }),
        ("CacheBlock::from_f32", || {
            let _ = CacheBlock::from_f32(&[7.0; OVER]);
        }),
        ("CacheBlock::push", || {
            CacheBlock::from_i32(&[7; BLOCK_WORDS]).push(7);
        }),
        ("CacheBlock::extend", || {
            CacheBlock::empty(DataType::Int, true).extend([7; OVER]);
        }),
        ("EncodedBlock::new", || {
            let _ = EncodedBlock::new(vec![EncodedBlock::FILL; OVER], DataType::Int, true);
        }),
    ];
    for (name, attempt) in attempts {
        assert!(
            std::panic::catch_unwind(attempt).is_err(),
            "{name} took a 17th entry"
        );
    }
}

/// One 64-byte line fits inline: sixteen words in 68 bytes, sixteen codes
/// in 132, and `Option` adds nothing.
#[test]
fn blocks_fit_one_inline_line() {
    use std::mem::size_of;
    assert!(size_of::<CacheBlock>() <= 68, "{}", size_of::<CacheBlock>());
    assert!(
        size_of::<EncodedBlock>() <= 132,
        "{}",
        size_of::<EncodedBlock>()
    );
    assert!(size_of::<Option<CacheBlock>>() <= size_of::<CacheBlock>());
    assert!(size_of::<Option<EncodedBlock>>() <= size_of::<EncodedBlock>());
}
