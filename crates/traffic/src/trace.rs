//! Data pools and communication traces.
//!
//! The paper's throughput study (Figure 12) replays benchmark *data* under
//! synthetic *traffic*: "we collect the data injected at each node from the
//! gem5 benchmark traces and utilize the data traces to create data packets
//! in the synthetic workloads". [`DataPool`] plays the role of those captured
//! data traces; [`Trace`] records and replays full (cycle, src, dest, block)
//! streams so experiments are repeatable across mechanisms.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use anoc_core::data::{CacheBlock, DataType, NodeId, BLOCK_WORDS};
use anoc_core::rng::Pcg32;

use crate::datamodel::{Benchmark, DataModel};
use crate::generator::{Injection, TrafficSource};

/// A pool of benchmark-shaped cache blocks, drawn from when synthetic
/// traffic needs a payload.
#[derive(Debug, Clone)]
pub struct DataPool {
    blocks: Vec<CacheBlock>,
}

impl DataPool {
    /// Captures `size` blocks from a benchmark's data model.
    pub fn from_benchmark(benchmark: Benchmark, size: usize, seed: u64) -> Self {
        let mut model = DataModel::new(benchmark, seed);
        DataPool {
            blocks: (0..size.max(1)).map(|_| model.next_block(true)).collect(),
        }
    }

    /// Wraps an explicit set of blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn from_blocks(blocks: Vec<CacheBlock>) -> Self {
        assert!(!blocks.is_empty(), "a data pool cannot be empty");
        DataPool { blocks }
    }

    /// Number of blocks in the pool.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Draws a uniformly random block (cloned).
    pub fn draw(&self, rng: &mut Pcg32) -> CacheBlock {
        self.blocks[rng.below(self.blocks.len() as u32) as usize].clone()
    }
}

/// One recorded injection.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Cycle the packet was offered.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Payload (None = control packet).
    pub payload: Option<CacheBlock>,
}

/// A recorded communication trace, replayable as a [`TrafficSource`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    num_nodes: usize,
}

impl Trace {
    /// Creates an empty trace over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Trace {
            records: Vec::new(),
            num_nodes,
        }
    }

    /// Records a live source for `cycles` cycles.
    pub fn capture(source: &mut dyn TrafficSource, cycles: u64) -> Self {
        let mut trace = Trace::new(source.num_nodes());
        let mut buf = Vec::new();
        for c in 0..cycles {
            buf.clear();
            source.tick(c, &mut buf);
            for inj in buf.drain(..) {
                trace.records.push(TraceRecord {
                    cycle: c,
                    src: inj.src,
                    dest: inj.dest,
                    payload: inj.payload,
                });
            }
        }
        trace
    }

    /// Number of nodes the trace was recorded over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of recorded injections.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded injections.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// A replay cursor over this trace.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay {
            trace: self,
            next: 0,
        }
    }

    /// Saves the trace to a file in the line-oriented text format (see the
    /// module docs) — the equivalent of the paper's gem5-captured
    /// communication traces, decoupling capture from simulation.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        writeln!(w, "# anoc-trace v1 nodes={}", self.num_nodes)?;
        for r in &self.records {
            match &r.payload {
                None => writeln!(w, "{} {} {} C", r.cycle, r.src.0, r.dest.0)?,
                Some(block) => {
                    let dtype = match block.dtype() {
                        DataType::Int => "i",
                        DataType::F32 => "f",
                    };
                    let approx = if block.is_approximable() { "a" } else { "p" };
                    write!(w, "{} {} {} D {dtype}{approx}", r.cycle, r.src.0, r.dest.0)?;
                    for word in block.words() {
                        write!(w, " {word:08x}")?;
                    }
                    writeln!(w)?;
                }
            }
        }
        w.flush()
    }

    /// Loads a trace saved by [`Trace::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed line, on a node id outside the
    /// header's `nodes=`, on a data record with no payload words or with
    /// more than [`BLOCK_WORDS`] (a block is one 64-byte line), and on a
    /// record whose cycle is lower than the one before it (replay would
    /// inject it late). Propagates I/O errors.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        let mut lines = reader.lines();
        let header = lines.next().ok_or_else(|| bad("empty trace file"))??;
        let nodes: usize = header
            .strip_prefix("# anoc-trace v1 nodes=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad("bad trace header"))?;
        let mut trace = Trace::new(nodes);
        let node = |field: Option<&str>, what: &str| -> std::io::Result<NodeId> {
            let id: u16 = field
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(&format!("missing {what}")))?;
            if usize::from(id) >= nodes {
                return Err(bad(&format!("{what} {id} is not a node of nodes={nodes}")));
            }
            Ok(NodeId(id))
        };
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let mut f = line.split_whitespace();
            let cycle: u64 = f
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("missing cycle"))?;
            if let Some(prev) = trace.records.last() {
                if cycle < prev.cycle {
                    return Err(bad(&format!(
                        "cycle {cycle} follows cycle {}: records must be in cycle order",
                        prev.cycle
                    )));
                }
            }
            let src = node(f.next(), "src")?;
            let dest = node(f.next(), "dest")?;
            let kind = f.next().ok_or_else(|| bad("missing kind"))?;
            let payload = match kind {
                "C" => None,
                "D" => {
                    let meta = f.next().ok_or_else(|| bad("missing data metadata"))?;
                    let mut meta_chars = meta.chars();
                    let dtype = match meta_chars.next() {
                        Some('i') => DataType::Int,
                        Some('f') => DataType::F32,
                        _ => return Err(bad("bad data type")),
                    };
                    let approx = match meta_chars.next() {
                        Some('a') => true,
                        Some('p') => false,
                        _ => return Err(bad("bad approximable flag")),
                    };
                    let mut block = CacheBlock::empty(dtype, approx);
                    for w in f {
                        if block.len() == BLOCK_WORDS {
                            return Err(bad(&format!(
                                "data record at cycle {cycle} has more than {BLOCK_WORDS} \
                                 payload words"
                            )));
                        }
                        block
                            .push(u32::from_str_radix(w, 16).map_err(|_| bad("bad payload word"))?);
                    }
                    if block.is_empty() {
                        return Err(bad(&format!(
                            "data record at cycle {cycle} has no payload words"
                        )));
                    }
                    Some(block)
                }
                _ => return Err(bad("bad record kind")),
            };
            trace.records.push(TraceRecord {
                cycle,
                src,
                dest,
                payload,
            });
        }
        Ok(trace)
    }
}

/// Replays a [`Trace`] as a traffic source.
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a Trace,
    next: usize,
}

impl TrafficSource for TraceReplay<'_> {
    fn tick(&mut self, cycle: u64, out: &mut Vec<Injection>) {
        while let Some(r) = self.trace.records.get(self.next) {
            if r.cycle > cycle {
                break;
            }
            out.push(Injection {
                src: r.src,
                dest: r.dest,
                payload: r.payload.clone(),
            });
            self.next += 1;
        }
    }

    fn num_nodes(&self) -> usize {
        self.trace.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BenchmarkTraffic;

    #[test]
    fn pool_draws_from_captured_blocks() {
        let pool = DataPool::from_benchmark(Benchmark::X264, 8, 1);
        assert_eq!(pool.len(), 8);
        assert!(!pool.is_empty());
        let mut rng = Pcg32::seed_from_u64(2);
        for _ in 0..50 {
            let b = pool.draw(&mut rng);
            assert_eq!(b.len(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_pool_rejected() {
        let _ = DataPool::from_blocks(vec![]);
    }

    #[test]
    fn capture_and_replay_are_identical() {
        let mut src = BenchmarkTraffic::new(Benchmark::Swaptions, 8, 0.75, 9);
        let trace = Trace::capture(&mut src, 500);
        assert!(!trace.is_empty());
        assert_eq!(trace.replay().num_nodes(), 8);

        // Replaying twice yields the same stream.
        let collect = |t: &Trace| {
            let mut replay = t.replay();
            let mut all = Vec::new();
            for c in 0..500 {
                let mut buf = Vec::new();
                replay.tick(c, &mut buf);
                all.extend(buf.into_iter().map(|i| (c, i.src, i.dest, i.payload)));
            }
            all
        };
        let a = collect(&trace);
        let b = collect(&trace);
        assert_eq!(a.len(), trace.len());
        assert_eq!(a, b);
    }

    #[test]
    fn replay_emits_records_at_their_cycles() {
        let mut trace = Trace::new(4);
        trace.records.push(TraceRecord {
            cycle: 3,
            src: NodeId(0),
            dest: NodeId(1),
            payload: None,
        });
        trace.records.push(TraceRecord {
            cycle: 5,
            src: NodeId(2),
            dest: NodeId(3),
            payload: None,
        });
        let mut replay = trace.replay();
        let mut out = Vec::new();
        replay.tick(0, &mut out);
        assert!(out.is_empty());
        replay.tick(3, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // Skipping ahead delivers everything due.
        replay.tick(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, NodeId(2));
    }
}

#[cfg(test)]
mod file_tests {
    use super::*;
    use crate::datamodel::Benchmark;
    use crate::generator::BenchmarkTraffic;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("anoc-trace-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip() {
        let mut src = BenchmarkTraffic::new(Benchmark::X264, 8, 0.75, 3);
        let trace = Trace::capture(&mut src, 300);
        assert!(!trace.is_empty());
        let path = temp_path("roundtrip");
        trace.save(&path).expect("save trace");
        let loaded = Trace::load(&path).expect("load trace");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.records(), trace.records());
        assert_eq!(loaded.replay().num_nodes(), 8);
    }

    #[test]
    fn malformed_files_are_rejected() {
        let path = temp_path("malformed");
        for content in [
            "",                                         // empty
            "garbage header\n",                         // bad header
            "# anoc-trace v1 nodes=4\n1 0\n",           // truncated record
            "# anoc-trace v1 nodes=4\n1 0 1 X\n",       // bad kind
            "# anoc-trace v1 nodes=4\n1 0 1 D zz 00\n", // bad metadata
            "# anoc-trace v1 nodes=4\n1 0 1 D ia zz\n", // bad word
        ] {
            std::fs::write(&path, content).expect("write fixture");
            assert!(Trace::load(&path).is_err(), "accepted: {content:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Loads `content` from a scratch file and returns the error message.
    fn load_error(name: &str, content: &str) -> String {
        let path = temp_path(name);
        std::fs::write(&path, content).expect("write fixture");
        let err = Trace::load(&path).expect_err("a malformed trace loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn src_outside_the_header_nodes_is_rejected() {
        let msg = load_error("src", "# anoc-trace v1 nodes=32\n0 1 2 C\n0 32 2 C\n");
        assert!(msg.contains("src 32"), "{msg}");
    }

    #[test]
    fn dest_outside_the_header_nodes_is_rejected() {
        let msg = load_error("dest", "# anoc-trace v1 nodes=32\n0 0 40 C\n");
        assert!(msg.contains("dest 40"), "{msg}");
        let msg = load_error(
            "dest-data",
            "# anoc-trace v1 nodes=4\n3 0 4 D ia 00000001\n",
        );
        assert!(msg.contains("dest 4"), "{msg}");
    }

    #[test]
    fn a_record_earlier_than_the_one_before_it_is_rejected() {
        let msg = load_error(
            "order",
            "# anoc-trace v1 nodes=4\n5 0 1 C\n5 1 2 C\n4 2 3 C\n",
        );
        assert!(msg.contains("cycle 4 follows cycle 5"), "{msg}");
    }

    #[test]
    fn a_data_record_without_payload_words_is_rejected() {
        let msg = load_error(
            "empty-data",
            "# anoc-trace v1 nodes=4\n0 0 1 C\n7 0 1 D ia\n",
        );
        assert!(msg.contains("cycle 7"), "{msg}");
        assert!(msg.contains("no payload words"), "{msg}");
    }

    #[test]
    fn a_data_record_longer_than_a_line_is_rejected() {
        let words: Vec<String> = (0..17).map(|i| format!("{i:08x}")).collect();
        let msg = load_error(
            "long-data",
            &format!(
                "# anoc-trace v1 nodes=4\n0 0 1 C\n3 0 1 D ia {}\n",
                words.join(" ")
            ),
        );
        assert!(msg.contains("cycle 3"), "{msg}");
        assert!(msg.contains("more than 16 payload words"), "{msg}");
        // One line's worth loads whole.
        let line = words[..16].join(" ");
        let path = temp_path("line-data");
        std::fs::write(
            &path,
            format!("# anoc-trace v1 nodes=4\n3 0 1 D ia {line}\n"),
        )
        .expect("write fixture");
        let loaded = Trace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let block = loaded.records()[0].payload.as_ref().expect("a data record");
        assert_eq!(block.words(), (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn control_and_data_records_roundtrip_exactly() {
        let mut trace = Trace::new(4);
        trace.records.push(TraceRecord {
            cycle: 5,
            src: NodeId(1),
            dest: NodeId(2),
            payload: None,
        });
        trace.records.push(TraceRecord {
            cycle: 9,
            src: NodeId(3),
            dest: NodeId(0),
            payload: Some(CacheBlock::new(
                vec![0, u32::MAX, 0xDEAD_BEEF],
                DataType::F32,
                false,
            )),
        });
        let path = temp_path("exact");
        trace.save(&path).expect("save");
        let loaded = Trace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.records(), trace.records());
    }
}
