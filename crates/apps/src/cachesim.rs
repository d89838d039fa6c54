//! A multi-core private-cache simulator, the substrate of the paper's
//! Pin-based output-error study (§5.4): "We model a system with 16 cores and
//! each core has a 64 KB two-way L1 private data cache of cache line size of
//! 64 Bytes. We emulate packet response whenever a miss happens, that
//! requires a data response from another node."
//!
//! On a miss, the block fetched from the shared backing store travels through
//! the configured [`BlockTransport`] — approximating it exactly once per
//! transfer, like a real data-response packet crossing the NoC.

use anoc_core::data::{CacheBlock, DataType};

use crate::transport::BlockTransport;

/// Geometry of each core's private data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of cores (each with a private L1D).
    pub cores: usize,
    /// Cache capacity per core, in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The paper's §5.4 configuration: 16 cores, 64 KB, 2-way, 64 B lines.
    pub fn paper() -> Self {
        CacheConfig {
            cores: 16,
            capacity_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// Number of sets per cache.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// Words per line.
    pub fn words_per_line(&self) -> usize {
        self.line_bytes / 4
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper()
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: bool,
    words: Vec<u32>,
    lru: u64,
}

/// Access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read/write hits.
    pub hits: u64,
    /// Misses (each caused one block transfer over the network).
    pub misses: u64,
    /// Blocks transferred through the transport.
    pub transfers: u64,
}

#[warn(clippy::cast_possible_truncation)]
impl CacheStats {
    /// Miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// The shared word-addressable backing store, with an approximable address
/// range (the hand-annotated data region of §5.1).
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<u32>,
    dtype: DataType,
    approx_range: std::ops::Range<usize>,
}

impl Memory {
    /// Creates a memory of `words` zeroed words; no region is approximable.
    pub fn new(words: usize, dtype: DataType) -> Self {
        Memory {
            words: vec![0; words],
            dtype,
            approx_range: 0..0,
        }
    }

    /// Marks `[start, end)` (word addresses) as approximable.
    #[must_use]
    pub fn with_approx_range(mut self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.words.len(),
            "range out of bounds"
        );
        self.approx_range = start..end;
        self
    }

    /// Word count.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Raw word access (backing-store truth).
    pub fn word(&self, addr: usize) -> u32 {
        self.words[addr]
    }

    /// Writes a word directly (e.g. input initialization).
    pub fn set_word(&mut self, addr: usize, value: u32) {
        self.words[addr] = value;
    }

    /// Stores an `f32` at a word address.
    pub fn set_f32(&mut self, addr: usize, value: f32) {
        self.words[addr] = value.to_bits();
    }

    /// Reads an `f32` from a word address (backing-store truth).
    pub fn f32_at(&self, addr: usize) -> f32 {
        f32::from_bits(self.words[addr])
    }
}

/// The multi-core cache simulator.
pub struct CacheSim {
    config: CacheConfig,
    caches: Vec<Vec<Line>>, // per core: sets*ways lines
    stats: CacheStats,
    tick: u64,
}

impl std::fmt::Debug for CacheSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSim")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl CacheSim {
    /// Creates the cache hierarchy.
    pub fn new(config: CacheConfig) -> Self {
        let lines_per_core = config.sets() * config.ways;
        CacheSim {
            config,
            caches: (0..config.cores)
                .map(|_| {
                    (0..lines_per_core)
                        .map(|_| Line {
                            tag: 0,
                            valid: false,
                            words: vec![0; config.words_per_line()],
                            lru: 0,
                        })
                        .collect()
                })
                .collect(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// Access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reads the word at `addr` as seen by `core` — hitting in its private
    /// cache, or fetching the line from memory through `transport` on a
    /// miss (approximating it if the line lies in the approximable range).
    pub fn read_word(
        &mut self,
        core: usize,
        addr: usize,
        memory: &Memory,
        transport: &mut dyn BlockTransport,
    ) -> u32 {
        self.tick += 1;
        let wpl = self.config.words_per_line();
        let line_addr = (addr / wpl) as u64;
        let set = (line_addr as usize) % self.config.sets();
        let base = set * self.config.ways;
        // Lookup.
        for w in 0..self.config.ways {
            let line = &mut self.caches[core][base + w];
            if line.valid && line.tag == line_addr {
                line.lru = self.tick;
                self.stats.hits += 1;
                return line.words[addr % wpl];
            }
        }
        // Miss: fetch through the network.
        self.stats.misses += 1;
        self.stats.transfers += 1;
        let start = (line_addr as usize) * wpl;
        let words: Vec<u32> = (0..wpl)
            .map(|i| memory.words.get(start + i).copied().unwrap_or(0))
            .collect();
        let approximable = memory.approx_range.contains(&start)
            && memory.approx_range.contains(&(start + wpl - 1));
        let block = CacheBlock::new(words, memory.dtype, approximable);
        let received = transport.transmit(block);
        // Victim: LRU way.
        let victim = (0..self.config.ways)
            .min_by_key(|w| self.caches[core][base + w].lru)
            .unwrap_or(0); // ways >= 1 (validated by CacheConfig); way 0 if not
        let line = &mut self.caches[core][base + victim];
        line.tag = line_addr;
        line.valid = true;
        line.lru = self.tick;
        line.words.copy_from_slice(received.words());
        line.words[addr % wpl]
    }

    /// Writes the word at `addr` as `core` (write-allocate, write-through to
    /// the backing store — dirty-line writeback does not change what the
    /// approximation study measures, since data responses are the only
    /// transfers that may be approximated).
    pub fn write_word(
        &mut self,
        core: usize,
        addr: usize,
        value: u32,
        memory: &mut Memory,
        transport: &mut dyn BlockTransport,
    ) {
        // Allocate (fetching through the network on a miss), then update
        // both the cached copy and the backing store.
        self.read_word(core, addr, memory, transport);
        let wpl = self.config.words_per_line();
        let line_addr = (addr / wpl) as u64;
        let set = (line_addr as usize) % self.config.sets();
        let base = set * self.config.ways;
        for w in 0..self.config.ways {
            let line = &mut self.caches[core][base + w];
            if line.valid && line.tag == line_addr {
                line.words[addr % wpl] = value;
                break;
            }
        }
        memory.set_word(addr, value);
    }

    /// Writes an `f32` through the cache.
    pub fn write_f32(
        &mut self,
        core: usize,
        addr: usize,
        value: f32,
        memory: &mut Memory,
        transport: &mut dyn BlockTransport,
    ) {
        self.write_word(core, addr, value.to_bits(), memory, transport);
    }

    /// Reads an `f32` through the cache.
    pub fn read_f32(
        &mut self,
        core: usize,
        addr: usize,
        memory: &Memory,
        transport: &mut dyn BlockTransport,
    ) -> f32 {
        f32::from_bits(self.read_word(core, addr, memory, transport))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    fn small_config() -> CacheConfig {
        CacheConfig {
            cores: 2,
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        }
    }

    #[test]
    fn paper_geometry() {
        let c = CacheConfig::paper();
        assert_eq!(c.sets(), 512);
        assert_eq!(c.words_per_line(), 16);
    }

    #[test]
    fn hit_after_miss() {
        let mut sim = CacheSim::new(small_config());
        let mut mem = Memory::new(256, DataType::Int);
        mem.set_word(5, 1234);
        let mut t = PreciseTransport;
        assert_eq!(sim.read_word(0, 5, &mem, &mut t), 1234);
        assert_eq!(sim.stats().misses, 1);
        assert_eq!(sim.read_word(0, 5, &mem, &mut t), 1234);
        assert_eq!(sim.stats().hits, 1);
        // Another word in the same line also hits.
        assert_eq!(sim.read_word(0, 6, &mem, &mut t), 0);
        assert_eq!(sim.stats().hits, 2);
    }

    #[test]
    fn caches_are_private_per_core() {
        let mut sim = CacheSim::new(small_config());
        let mem = Memory::new(256, DataType::Int);
        let mut t = PreciseTransport;
        sim.read_word(0, 0, &mem, &mut t);
        sim.read_word(1, 0, &mem, &mut t);
        assert_eq!(sim.stats().misses, 2, "each core misses separately");
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let cfg = small_config(); // 8 sets, 2 ways
        let mut sim = CacheSim::new(cfg);
        let mem = Memory::new(4096, DataType::Int);
        let mut t = PreciseTransport;
        let sets = cfg.sets();
        let wpl = cfg.words_per_line();
        // Three lines mapping to set 0: line 0, sets, 2*sets.
        sim.read_word(0, 0, &mem, &mut t);
        sim.read_word(0, sets * wpl, &mem, &mut t);
        sim.read_word(0, 2 * sets * wpl, &mem, &mut t); // evicts line 0
        assert_eq!(sim.stats().misses, 3);
        sim.read_word(0, sets * wpl, &mem, &mut t); // still resident
        assert_eq!(sim.stats().hits, 1);
        sim.read_word(0, 0, &mem, &mut t); // was evicted
        assert_eq!(sim.stats().misses, 4);
    }

    #[test]
    fn approximable_range_is_approximated_and_rest_is_exact() {
        let mut sim = CacheSim::new(small_config());
        let mut mem = Memory::new(256, DataType::F32).with_approx_range(0, 128);
        for a in 0..256 {
            mem.set_f32(a, 1000.0 + a as f32);
        }
        let mut t = ApproxTransport::di_vaxx(ErrorThreshold::from_percent(10).unwrap());
        // Warm the dictionary with repeated fetches (distinct cores so every
        // access misses and transfers).
        for core in 0..2 {
            for a in (0..256).step_by(16) {
                let v = sim.read_f32(core, a, &mem, &mut t);
                let truth = mem.f32_at(a);
                if a < 128 {
                    assert!((v - truth).abs() / truth <= 0.10 + 1e-6);
                } else {
                    assert_eq!(v, truth, "non-approximable range must be exact");
                }
            }
        }
        assert!(sim.stats().transfers >= 32);
        assert!(sim.stats().miss_ratio() > 0.0);
    }

    #[test]
    fn write_through_updates_cache_and_memory() {
        let mut sim = CacheSim::new(small_config());
        let mut mem = Memory::new(256, DataType::Int);
        let mut t = PreciseTransport;
        sim.write_word(0, 9, 777, &mut mem, &mut t);
        assert_eq!(mem.word(9), 777);
        // Subsequent read hits and sees the written value.
        let before = sim.stats().misses;
        assert_eq!(sim.read_word(0, 9, &mem, &mut t), 777);
        assert_eq!(sim.stats().misses, before);
        // Another core reads the fresh value from memory (its own miss).
        assert_eq!(sim.read_word(1, 9, &mem, &mut t), 777);
        let mut tf = PreciseTransport;
        sim.write_f32(0, 12, 1.5, &mut mem, &mut tf);
        assert_eq!(sim.read_f32(0, 12, &mem, &mut tf), 1.5);
    }

    #[test]
    fn memory_helpers() {
        let mut mem = Memory::new(8, DataType::F32);
        assert_eq!(mem.len(), 8);
        assert!(!mem.is_empty());
        mem.set_f32(3, 2.5);
        assert_eq!(mem.f32_at(3), 2.5);
        assert_eq!(mem.word(3), 2.5f32.to_bits());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_approx_range_rejected() {
        let _ = Memory::new(4, DataType::Int).with_approx_range(0, 10);
    }
}
