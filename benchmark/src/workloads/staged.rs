//! `staged-sweep`: the `sensitivity_sweep` shape (benchmarks × {DI, FP}
//! family × {COMP, VAXX at 5/10/20%}) with a long warmup, on the harness's
//! pool with a result cache and a snapshot store, both cleared before each
//! repeat. The timed pass 1 publishes the shared warmup snapshots, forks
//! every cell from them and fills the cache; pass 2 then answers every cell
//! from the cache, many times over. The one workload where `anoc-exec` and
//! `persist` do most of the work, with writes (pass 1) beside reads
//! (pass 2).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use anoc_exec::hash::fnv1a64;
use anoc_exec::{run_campaign, CampaignOptions, JobSpec, ResultCache, SnapshotStore, ThreadPool};
use anoc_harness::campaign::{cell_key, context, warmup_key};
use anoc_harness::experiments::{sensitivity_sweep, SensitivityRow};
use anoc_harness::persist::{decode_run_result, encode_run_result};
use anoc_harness::runner::try_run_benchmark;
use anoc_harness::{Mechanism, RunResult, SystemConfig};
use anoc_noc::SimError;
use anoc_traffic::{Benchmark, BenchmarkTraffic};

use super::{
    cell_ok, check_cell_build, install_context, scratch_dir, sim_details, threads, Bench, Checks,
    Fnv, Options, Repeat, Traced, Value,
};
use crate::mirror::{self, Stepper};
use crate::summary::median;
use crate::trace::{ratio, Probe, SpanKind, Tracer};

/// Swept error thresholds, percent.
const SETTINGS: [u32; 3] = [5, 10, 20];
/// The exact and VAXX mechanism of each codec family, in sweep order.
const FAMILIES: [(Mechanism, Mechanism); 2] = [
    (Mechanism::DiComp, Mechanism::DiVaxx),
    (Mechanism::FpComp, Mechanism::FpVaxx),
];
/// Cells re-run cold to check that forking did not change them.
const COLD_CHECKS: usize = 4;

/// One sweep cell.
#[derive(Clone)]
struct Cell {
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: SystemConfig,
    key: String,
    warmup_key: String,
}

pub(crate) struct Staged {
    cfg: SystemConfig,
    benchmarks: Vec<Benchmark>,
    cells: Vec<Cell>,
    cache: ResultCache,
    store: SnapshotStore,
    trace_cache: ResultCache,
    trace_store: SnapshotStore,
    pool: Option<ThreadPool>,
    /// The untraced runner's pass-1 payloads from the warm-up, plan order.
    reference: Vec<Option<String>>,
    /// Flits the traffic offers over the cycles pass 1 steps.
    offered: u64,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Whether two sweeps produced bit-identical rows.
fn same_rows(a: &[SensitivityRow], b: &[SensitivityRow]) -> bool {
    let bits = |r: &SensitivityRow| {
        let mut v = vec![r.compression_latency.to_bits()];
        v.extend(
            r.vaxx_latencies
                .iter()
                .map(|(s, l)| u64::from(*s) ^ l.to_bits()),
        );
        (r.benchmark, r.family, v)
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

impl Staged {
    /// The runner's payload for cell `i`, if it produced one.
    fn reference(&self, i: usize) -> Option<&String> {
        self.reference.get(i).and_then(Option::as_ref)
    }

    fn sweep(&self, seed: u64) -> Vec<SensitivityRow> {
        sensitivity_sweep(&self.cfg, seed, &self.benchmarks, &SETTINGS, |c, s| {
            c.with_threshold(s)
        })
    }

    fn source(cell: &Cell, seed: u64) -> BenchmarkTraffic {
        BenchmarkTraffic::new(
            cell.benchmark,
            cell.config.noc.num_nodes(),
            cell.config.approx_ratio,
            seed,
        )
    }

    /// Flits offered over the cycles pass 1 steps: every distinct warmup
    /// once, then each cell's measurement window, as every cell forks. The
    /// cells of one benchmark share its traffic.
    fn offered_stepped(&self, seed: u64) -> u64 {
        let c = &self.cfg;
        let (warmup, until) = (c.warmup_cycles, c.warmup_cycles + c.sim_cycles);
        let offered = |b: Benchmark, from: u64, to: u64| {
            let mut source = BenchmarkTraffic::new(b, c.noc.num_nodes(), c.approx_ratio, seed);
            mirror::offered_flits(&mut source, &c.noc, from, to)
        };
        let per_benchmark: Vec<(Benchmark, u64, u64)> = self
            .benchmarks
            .iter()
            .map(|&b| (b, offered(b, 0, warmup), offered(b, warmup, until)))
            .collect();
        let mut warmed = BTreeSet::new();
        self.cells
            .iter()
            .map(|cell| {
                let (_, warm, window) = per_benchmark
                    .iter()
                    .find(|(b, _, _)| *b == cell.benchmark)
                    .expect("every cell's benchmark is planned");
                window + u64::from(warmed.insert(&cell.warmup_key)) * warm
            })
            .sum()
    }

    /// Re-runs sampled cells cold and compares them with the forked
    /// payloads.
    fn check_cold(&self, seed: u64, payloads: &[Option<String>], checks: &mut Checks) {
        let mut differ = 0;
        let stride = (self.cells.len() / COLD_CHECKS).max(1);
        let offset = (seed as usize) % stride;
        for i in (offset..self.cells.len()).step_by(stride).take(COLD_CHECKS) {
            let c = &self.cells[i];
            let cold = try_run_benchmark(c.benchmark, c.mechanism, &c.config, seed)
                .map(|r| encode_run_result(&r));
            differ += u64::from(cold.ok() != payloads[i]);
        }
        checks.record(0, differ, || {
            format!("{differ} forked sweep cell(s) differ from a cold run")
        });
    }

    /// The traced mirror of pass 1 and pass 2. Returns the pass-1 wall time.
    fn traced_passes(
        &mut self,
        seed: u64,
        passes: usize,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<(f64, Vec<Value>), String> {
        self.trace_cache.clear().map_err(io("clear trace cache"))?;
        self.trace_store.clear().map_err(io("clear trace store"))?;
        let origin = tracer.origin();
        let pool = self.pool.get_or_insert_with(|| ThreadPool::new(threads()));
        let workers = pool.threads() as f64;
        let (cache, store) = (&self.trace_cache, &self.trace_store);
        let t = Instant::now();

        // Phase 1: every cell misses the cleared cache.
        let mut hits = 0u64;
        for (i, c) in self.cells.iter().enumerate() {
            tracer.set_cell(i as u32);
            tracer.open(SpanKind::CacheGet);
            hits += u64::from(cache.get(&c.key).is_some());
            tracer.close();
        }

        // Phase 1.5: one warmup per distinct key, in key order.
        let mut warmups: BTreeMap<String, usize> = BTreeMap::new();
        for (i, c) in self.cells.iter().enumerate() {
            warmups.entry(c.warmup_key.clone()).or_insert(i);
        }
        let stage_start = Instant::now();
        let jobs: Vec<JobSpec<(Result<bool, String>, Tracer)>> = warmups
            .values()
            .map(|&i| {
                let (c, store) = (self.cells[i].clone(), store.clone());
                JobSpec::new(c.warmup_key.clone(), c.warmup_key.clone(), move || {
                    let mut tr = Tracer::new(origin);
                    tr.set_cell(i as u32);
                    let published = publish_warmup(&mut tr, &c, seed, &store);
                    (published, tr)
                })
            })
            .collect();
        let (outs, _) = run_campaign(pool, None, jobs, &CampaignOptions::quiet(), None);
        let mut simulated_warmups = 0u64;
        let mut warmup_errors = 0u64;
        for (published, tr) in outs {
            tracer.absorb(tr);
            match published {
                Ok(fresh) => simulated_warmups += u64::from(fresh),
                Err(_) => warmup_errors += 1,
            }
        }
        checks.record(0, warmup_errors, || {
            format!("{warmup_errors} traced warmup stage(s) failed")
        });

        // Phase 2: every cell forks from its warmup snapshot.
        type Out = (Result<(RunResult, bool), SimError>, Tracer);
        let jobs: Vec<JobSpec<Out>> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (c, store) = (c.clone(), store.clone());
                JobSpec::new(c.key.clone(), c.key.clone(), move || {
                    let mut tr = Tracer::new(origin);
                    tr.set_cell(i as u32);
                    let r = forked_cell(&mut tr, &c, seed, &store);
                    (r, tr)
                })
            })
            .collect();
        let (outs, _) = run_campaign(pool, None, jobs, &CampaignOptions::quiet(), None);
        let pooled_s = stage_start.elapsed().as_secs_f64();

        // Phase 3: serialize and write back on the submitting thread.
        let mut results = Vec::new();
        let mut forked = 0u64;
        let mut mismatched = 0u64;
        for (i, (r, tr)) in outs.into_iter().enumerate() {
            tracer.absorb(tr);
            let Ok((result, was_forked)) = r else {
                mismatched += 1;
                continue;
            };
            forked += u64::from(was_forked);
            tracer.set_cell(i as u32);
            tracer.open(SpanKind::PersistEncode);
            let payload = encode_run_result(&result);
            tracer.close();
            tracer.open(SpanKind::CachePut);
            let put = cache.put(&self.cells[i].key, &payload);
            tracer.close();
            mismatched += u64::from(put.is_err() || self.reference(i) != Some(&payload));
            results.push(result);
        }
        let pass1_s = t.elapsed().as_secs_f64();
        checks.record(self.cells.len() as u64, mismatched, || {
            format!("{mismatched} traced sweep cell(s) differ from the runner's payload")
        });

        // Pass 2: every cell from the cache, decoded.
        let mut stale = 0u64;
        for _ in 0..passes {
            let mut decoded = Vec::with_capacity(self.cells.len());
            tracer.open(SpanKind::Pass);
            for (i, c) in self.cells.iter().enumerate() {
                tracer.set_cell(i as u32);
                tracer.open(SpanKind::CacheGet);
                let payload = cache.get(&c.key);
                tracer.close();
                hits += u64::from(payload.is_some());
                tracer.open(SpanKind::PersistDecode);
                decoded.push(payload.as_deref().and_then(decode_run_result));
                tracer.close();
            }
            tracer.close();
            for (i, r) in decoded.iter().enumerate() {
                stale += u64::from(r.as_ref().map(encode_run_result).as_ref() != self.reference(i));
            }
        }
        let cells = self.cells.len() as u64;
        checks.record(cells * passes as u64, stale, || {
            format!("{stale} traced warm cell(s) differ from pass 1")
        });

        let warmup = self.cfg.warmup_cycles;
        let restored = forked * warmup;
        let stepped = simulated_warmups * warmup
            + results.iter().map(|r| r.total_cycles).sum::<u64>()
            - restored;
        // Pool jobs are the root warmup-stage and cell spans.
        let busy: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && matches!(s.kind, SpanKind::Warmup | SpanKind::Cell))
            .map(|s| s.dur_ns())
            .sum();
        let mean_us = |kind| {
            let d = tracer.durations(kind);
            ratio(d.iter().sum::<f64>() / 1e3, d.len() as f64)
        };
        let mut values = vec![
            (
                "exec.cache.hit_ratio".to_string(),
                "frac",
                ratio(hits as f64, (cells * (passes as u64 + 1)) as f64),
            ),
            (
                "exec.store.fork_ratio".into(),
                "frac",
                ratio(forked as f64, cells as f64),
            ),
            (
                "exec.pool.idle_frac".into(),
                "frac",
                1.0 - ratio(busy as f64 / 1e9, workers * pooled_s),
            ),
            (
                "harness.restored_cycle_frac".into(),
                "frac",
                ratio(restored as f64, (restored + stepped) as f64),
            ),
            (
                "exec.cache.get_us".into(),
                "us",
                mean_us(SpanKind::CacheGet),
            ),
            (
                "exec.cache.put_us".into(),
                "us",
                mean_us(SpanKind::CachePut),
            ),
            (
                "exec.store.get_us".into(),
                "us",
                mean_us(SpanKind::StoreGet),
            ),
            (
                "exec.store.put_us".into(),
                "us",
                mean_us(SpanKind::StorePut),
            ),
            (
                "noc.snapshot.save_us".into(),
                "us",
                mean_us(SpanKind::SnapshotSave),
            ),
            (
                "noc.snapshot.restore_us".into(),
                "us",
                mean_us(SpanKind::SnapshotRestore),
            ),
            (
                "noc.snapshot.blob_bytes".into(),
                "bytes",
                ratio(store.size_bytes() as f64, store.len() as f64),
            ),
            (
                "harness.persist.encode_us".into(),
                "us",
                mean_us(SpanKind::PersistEncode),
            ),
            (
                "harness.persist.decode_us".into(),
                "us",
                mean_us(SpanKind::PersistDecode),
            ),
        ];
        values.extend(sim_details(tracer, &results, warmup));
        Ok((pass1_s, values))
    }
}

/// The traced warmup stage: skip if published, else simulate the warmup and
/// publish it. Returns whether a warmup was simulated.
fn publish_warmup(
    tr: &mut Tracer,
    c: &Cell,
    seed: u64,
    store: &SnapshotStore,
) -> Result<bool, String> {
    tr.open(SpanKind::Warmup);
    let outcome = (|| {
        tr.open(SpanKind::StoreGet);
        let present = store.get(&c.warmup_key).is_some();
        tr.close();
        if present {
            return Ok(false);
        }
        let mut sim = mirror::fresh_sim(c.mechanism, &c.config);
        let mut source = Staged::source(c, seed);
        let mut stepper = Stepper::new(c.mechanism);
        tr.mark();
        stepper
            .run_to(tr, &mut sim, &mut source, c.config.warmup_cycles)
            .map_err(|e| e.to_string())?;
        tr.open(SpanKind::SnapshotSave);
        let blob = mirror::freeze(&sim, &source, fnv1a64(c.warmup_key.as_bytes()));
        tr.close();
        let blob = blob.map_err(|e| e.to_string())?;
        tr.open(SpanKind::StorePut);
        let put = store.put(&c.warmup_key, &blob);
        tr.close();
        put.map_err(|e| e.to_string())?;
        Ok(true)
    })();
    tr.close();
    outcome
}

/// The traced cell: fork from the warmup snapshot (cold on any miss), then
/// measure. Returns the result and whether it forked.
fn forked_cell(
    tr: &mut Tracer,
    c: &Cell,
    seed: u64,
    store: &SnapshotStore,
) -> Result<(RunResult, bool), SimError> {
    tr.open(SpanKind::Cell);
    let outcome = (|| {
        tr.open(SpanKind::StoreGet);
        let blob = store.get(&c.warmup_key);
        tr.close();
        let mut sim = mirror::fresh_sim(c.mechanism, &c.config);
        let mut source = Staged::source(c, seed);
        let mut stepper = Stepper::new(c.mechanism);
        let mut forked = false;
        if let Some(blob) = blob {
            tr.open(SpanKind::SnapshotRestore);
            let fp = fnv1a64(c.warmup_key.as_bytes());
            forked = mirror::thaw(&blob, fp, &mut sim, &mut source).is_ok()
                && sim.cycle() == c.config.warmup_cycles;
            tr.close();
            if !forked {
                sim = mirror::fresh_sim(c.mechanism, &c.config);
                source = Staged::source(c, seed);
            }
        }
        if !forked {
            tr.mark();
            stepper.drive(
                tr,
                SpanKind::Warmup,
                &mut sim,
                &mut source,
                c.config.warmup_cycles,
            )?;
        }
        mirror::arm_measurement(&mut sim, &c.config);
        let run = mirror::measure_window(
            tr,
            &mut stepper,
            &mut sim,
            &mut source,
            c.mechanism,
            &c.config,
        )?;
        Ok((run.result, forked))
    })();
    tr.close();
    outcome
}

impl Bench for Staged {
    fn setup(opts: &Options) -> Result<Self, String> {
        let dir = scratch_dir(opts);
        let cache = ResultCache::open(dir.join("cache")).map_err(io("open result cache"))?;
        let store = SnapshotStore::open(dir.join("store")).map_err(io("open snapshot store"))?;
        install_context(Some(cache.clone()), Some(store.clone()))?;
        let (warmup_cycles, sim_cycles) = opts.scale.sweep_cycles;
        let mut cfg = SystemConfig::paper().with_sim_cycles(sim_cycles);
        cfg.warmup_cycles = warmup_cycles;
        let benchmarks = Benchmark::ALL[..opts.scale.benchmarks].to_vec();
        let mut cells = Vec::new();
        for &benchmark in &benchmarks {
            for (comp, vaxx) in FAMILIES {
                let variants = std::iter::once((comp, cfg.clone())).chain(
                    SETTINGS
                        .iter()
                        .map(|&s| (vaxx, cfg.clone().with_threshold(s))),
                );
                for (mechanism, config) in variants {
                    let (m, b, seed) = (mechanism.name(), benchmark.name(), opts.seed);
                    cells.push(Cell {
                        key: cell_key("bench", &config, m, b, seed),
                        warmup_key: warmup_key("bench", &config, m, b, seed),
                        benchmark,
                        mechanism,
                        config,
                    });
                }
            }
        }
        for c in &cells {
            check_cell_build(
                &mirror::fresh_sim(c.mechanism, &c.config),
                &Staged::source(c, opts.seed),
                c.mechanism,
            )?;
        }
        Ok(Staged {
            cfg,
            benchmarks,
            cells,
            trace_cache: ResultCache::open(dir.join("trace-cache"))
                .map_err(io("open trace cache"))?,
            trace_store: SnapshotStore::open(dir.join("trace-store"))
                .map_err(io("open trace store"))?,
            cache,
            store,
            pool: None,
            reference: Vec::new(),
            offered: 0,
        })
    }

    fn repeat(&mut self, opts: &Options, first: bool) -> Result<Repeat, String> {
        self.cache.clear().map_err(io("clear result cache"))?;
        self.store.clear().map_err(io("clear snapshot store"))?;
        let ctx = context();
        let before = ctx.totals();
        let t = Instant::now();
        let rows = self.sweep(opts.seed);
        let wall_s = t.elapsed().as_secs_f64();
        let after = ctx.totals();

        let mut checks = Checks::default();
        let payloads: Vec<Option<String>> =
            self.cells.iter().map(|c| self.cache.get(&c.key)).collect();
        let results: Vec<RunResult> = payloads
            .iter()
            .filter_map(|p| p.as_deref().and_then(decode_run_result))
            .filter(cell_ok)
            .collect();
        let bad = payloads.len() as u64 - results.len() as u64;
        let cells = self.cells.len() as u64;
        checks.record(cells, bad, || {
            format!("{bad} sweep cell(s) failed, did not drain or were not cached")
        });
        let mut fnv = Fnv::default();
        payloads
            .iter()
            .flatten()
            .for_each(|p| fnv.write(p.as_bytes()));
        if first {
            self.check_cold(opts.seed, &payloads, &mut checks);
            self.reference = payloads;
            self.offered = self.offered_stepped(opts.seed);
        }

        let mut warm_s = Vec::with_capacity(opts.scale.warm_passes);
        let mut stale = 0;
        for _ in 0..opts.scale.warm_passes {
            let executed = ctx.totals().executed_jobs;
            let t = Instant::now();
            let warm_rows = self.sweep(opts.seed);
            warm_s.push(t.elapsed().as_secs_f64());
            if ctx.totals().executed_jobs != executed || !same_rows(&rows, &warm_rows) {
                stale += cells;
            }
        }
        checks.record(cells * warm_s.len() as u64, stale, || {
            format!("{stale} warm cell(s) were simulated again or differ from pass 1")
        });

        let cycles = after.sim_cycles - before.sim_cycles;
        let skipped = after.skipped_cycles - before.skipped_cycles;
        let executed = after.executed_jobs - before.executed_jobs;
        let forked = after.forked_jobs - before.forked_jobs;
        Ok(Repeat {
            wall_s,
            ns_per_op: ratio(wall_s * 1e9, self.offered as f64),
            detail: vec![
                (
                    "warm_us_per_cell".into(),
                    "us",
                    median(&warm_s) * 1e6 / cells as f64,
                ),
                // Restored (forked) cycles cost no stepping; they are excluded.
                (
                    "mcyc_per_s".into(),
                    "Mcyc/s",
                    (cycles - skipped) as f64 / wall_s / 1e6,
                ),
                (
                    "fork_ratio".into(),
                    "frac",
                    ratio(forked as f64, executed as f64),
                ),
            ],
            fingerprint: fnv.finish(),
            checks,
        })
    }

    fn traced(&mut self, opts: &Options) -> Result<Traced, String> {
        let mut tracer = Tracer::new(Instant::now());
        let mut checks = Checks::default();
        let (wall_s, values) =
            self.traced_passes(opts.seed, opts.scale.warm_passes, &mut tracer, &mut checks)?;
        Ok(Traced {
            wall_s,
            tracer,
            values,
            checks,
        })
    }
}
