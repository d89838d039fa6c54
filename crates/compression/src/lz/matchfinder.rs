//! Bucketed hash-chain match finding over the LZ-VAXX sliding window.
//!
//! The window (static seed dictionary + the reconstructed prefix of the
//! current cache block) is indexed by hash buckets keyed on a word's high
//! halfword. Each bucket heads a singly linked chain through the window,
//! newest position first, so a probe visits the most recent — and therefore
//! cheapest-to-rank — candidates before older ones.
//!
//! Bucketing on the *high* halfword is what makes the structure work for
//! approximate matching: a DI-VAXX-style don't-care mask is a contiguous
//! low-bit run capped at 16 bits, so every candidate a probe word could
//! accept under such a mask agrees with it on the high halfword and lands in
//! the same chain. Wider masks (enormous magnitudes at high thresholds) may
//! miss candidates in other buckets; that only costs compression, never
//! correctness, because every candidate is still confirmed word-by-word.
//!
//! Everything lives in fixed arrays. A chain reaches at most
//! `MAX_DISTANCE` (64) positions back, so the links are kept in a ring of
//! [`RING`] (twice that) slots, position `p` in slot `p % RING`, and a walk
//! never reads a slot a newer position has overwritten. A bucket head is
//! stamped with the generation of the block that wrote it, so starting a
//! block is one increment rather than a clear of every head; the heads are
//! cleared once, when the generation wraps.

use super::MAX_DISTANCE;

/// log2 of the number of hash buckets.
pub const HASH_BITS: u32 = 8;

const BUCKETS: usize = 1 << HASH_BITS;

/// Slots in the window ring: twice the farthest a chain reaches.
pub const RING: usize = 2 * MAX_DISTANCE;

/// A bucket's newest position, and the block generation that wrote it.
#[derive(Debug, Clone, Copy)]
struct Head {
    generation: u16,
    pos: u32,
}

/// No position of any live block: generation 0 is never current.
const STALE: Head = Head {
    generation: 0,
    pos: 0,
};

/// The bucketed hash-chain index over one block's window.
#[derive(Debug, Clone)]
pub struct MatchFinder {
    /// Most recent window position per bucket.
    heads: [Head; BUCKETS],
    /// Per window position, how far back the previous position of its
    /// bucket lies; 0 when there is none within `MAX_DISTANCE`.
    links: [u8; RING],
    /// The current block's generation, never 0.
    generation: u16,
}

impl MatchFinder {
    /// Creates an empty match finder.
    pub fn new() -> Self {
        MatchFinder {
            heads: [STALE; BUCKETS],
            links: [0; RING],
            generation: 0,
        }
    }

    /// The bucket a word hashes to (keyed on its high halfword).
    #[inline]
    pub fn bucket(word: u32) -> usize {
        ((word >> 16).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// Starts a new block: every position inserted before is forgotten.
    #[inline]
    pub fn begin_block(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.heads = [STALE; BUCKETS];
            self.generation = 1;
        }
    }

    /// Indexes the window word at `pos` (positions must be inserted in
    /// increasing order so chains stay newest-first).
    #[inline]
    pub fn insert(&mut self, pos: usize, word: u32) {
        let head = &mut self.heads[Self::bucket(word)];
        let back = pos.wrapping_sub(head.pos as usize);
        let linked = head.generation == self.generation && back <= MAX_DISTANCE;
        self.links[pos % RING] = if linked { back as u8 } else { 0 };
        *head = Head {
            generation: self.generation,
            pos: pos as u32,
        };
    }

    /// Walks the chain of candidate window positions for `word`, newest
    /// first, for a probe at window position `cur`: every position of the
    /// bucket at most `MAX_DISTANCE` before `cur`. The caller bounds the
    /// walk with its chain-depth budget.
    #[inline]
    pub fn chain(&self, word: u32, cur: usize) -> Chain<'_> {
        let head = self.heads[Self::bucket(word)];
        let back = match head.generation == self.generation {
            true => cur.wrapping_sub(head.pos as usize),
            false => 0,
        };
        Chain {
            links: &self.links,
            cur,
            back,
        }
    }
}

impl Default for MatchFinder {
    fn default() -> Self {
        MatchFinder::new()
    }
}

/// Iterator over one bucket's chain, newest position first.
#[derive(Debug)]
pub struct Chain<'a> {
    links: &'a [u8; RING],
    cur: usize,
    /// How far before `cur` the next position lies; 0 once the chain ends.
    back: usize,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.back == 0 || self.back > MAX_DISTANCE {
            return None;
        }
        let pos = self.cur - self.back;
        let link = usize::from(self.links[pos % RING]);
        self.back = if link == 0 { 0 } else { self.back + link };
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_are_newest_first() {
        let mut f = MatchFinder::new();
        f.begin_block();
        for pos in [0usize, 3, 5] {
            f.insert(pos, 0x0001_0000);
        }
        let hits: Vec<usize> = f.chain(0x0001_0000, 8).collect();
        assert_eq!(hits, vec![5, 3, 0]);
    }

    #[test]
    fn low_halfword_differences_share_a_bucket() {
        // Candidates inside a ≤16-bit don't-care mask agree on the high
        // halfword, so they must be discoverable from one probe.
        let mut f = MatchFinder::new();
        f.begin_block();
        f.insert(0, 0x00AB_0000);
        f.insert(1, 0x00AB_FFFF);
        let hits: Vec<usize> = f.chain(0x00AB_1234, 2).collect();
        assert_eq!(hits, vec![1, 0]);
    }

    #[test]
    fn probe_never_misses_same_high_halfword_entries() {
        // The structural guarantee: whatever the hash does, a probe's chain
        // contains every inserted position whose high halfword matches.
        let mut f = MatchFinder::new();
        let words: Vec<u32> = (0..32).map(|i| ((i % 5) << 16) | (i * 77)).collect();
        f.begin_block();
        for (pos, &w) in words.iter().enumerate() {
            f.insert(pos, w);
        }
        for probe in [0u32, 0x0002_1234, 0x0004_FFFF] {
            let chain: Vec<usize> = f.chain(probe, words.len()).collect();
            for (pos, &w) in words.iter().enumerate() {
                if w >> 16 == probe >> 16 {
                    assert!(chain.contains(&pos), "probe {probe:#x} missed pos {pos}");
                }
            }
        }
    }

    #[test]
    fn begin_block_clears_previous_state() {
        let mut f = MatchFinder::new();
        f.begin_block();
        f.insert(0, 42);
        f.begin_block();
        assert_eq!(f.chain(42, 1).count(), 0);
    }

    #[test]
    fn chains_reach_max_distance_back_and_no_further() {
        // One bucket at every position of a window several rings long: the
        // chain from any probe holds exactly the positions at most
        // MAX_DISTANCE back, however often the ring has wrapped.
        let mut f = MatchFinder::new();
        f.begin_block();
        for cur in 0..5 * RING {
            let want: Vec<usize> = (cur.saturating_sub(MAX_DISTANCE)..cur).rev().collect();
            assert_eq!(f.chain(7, cur).collect::<Vec<_>>(), want, "at {cur}");
            f.insert(cur, 7);
        }
        // A gap wider than MAX_DISTANCE ends the chain.
        f.insert(5 * RING + MAX_DISTANCE + 1, 7);
        let cur = 5 * RING + MAX_DISTANCE + 2;
        assert_eq!(f.chain(7, cur).collect::<Vec<_>>(), vec![cur - 1]);
    }

    #[test]
    fn generation_wrap_clears_stale_heads() {
        let mut f = MatchFinder::new();
        f.begin_block();
        f.insert(3, 42);
        // Run the generation round to the block that wrote that head: the
        // wrap must have cleared it rather than let it alias.
        for _ in 0..u16::MAX {
            f.begin_block();
        }
        assert_eq!(f.generation, 1);
        assert_eq!(f.chain(42, 4).count(), 0);
        f.insert(0, 42);
        assert_eq!(f.chain(42, 4).collect::<Vec<_>>(), vec![0]);
    }
}
