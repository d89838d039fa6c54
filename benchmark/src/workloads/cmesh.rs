//! `cmesh8-ur`: a serial 8x8 cmesh (concentration 2, 128 nodes) under
//! uniform-random synthetic traffic at 0.10 flits/node/cycle with a 25:75
//! data:control mix and Baseline codecs. The kernel does nearly all of the
//! work and the codecs none, so this is the control workload for codec
//! changes and where a step-loop speed-up shows. The load sits below the
//! 0.15–0.20 saturation point; a run whose accepted throughput falls below
//! 98% of offered, or whose NI backlog grows, is invalid and counts as
//! failed. Timed runs go through the harness runner; the mirrored loop,
//! which sees the NI queues, replays the warm-up run to check saturation, and
//! every run must reproduce the warm-up's payload.

use std::time::Instant;

use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::try_run_with_source;
use anoc_harness::{Mechanism, SystemConfig};
use anoc_noc::{NocConfig, SimError};
use anoc_traffic::{Benchmark, DataPool, DestPattern, SyntheticTraffic};

use super::{check_cell_build, sim_details, Bench, Checks, Fnv, Options, Repeat, Traced};
use crate::mirror::{self, CellRun, Stepper};
use crate::summary::median;
use crate::trace::{ratio, Off, Probe, SpanKind, Tracer};

/// Offered load, flits/node/cycle.
const RATE: f64 = 0.10;
/// Share of packets carrying data.
const DATA_RATIO: f64 = 0.25;
/// Accepted ÷ offered flits below this means the network saturated.
const MIN_ACCEPTED: f64 = 0.98;
/// Shard-2 samples per traced repeat.
const SHARD_SAMPLES: usize = 3;

pub(crate) struct Cmesh {
    cfg: SystemConfig,
    pool: DataPool,
    /// The harness runner's payload for the same run, from the warm-up.
    reference: Option<String>,
    /// Flits the traffic offers over the run's simulated cycles.
    offered: u64,
}

impl Cmesh {
    fn source(&self, seed: u64) -> SyntheticTraffic {
        SyntheticTraffic::new(
            DestPattern::UniformRandom,
            self.cfg.noc.num_nodes(),
            self.pool.clone(),
            RATE,
            DATA_RATIO,
            self.cfg.approx_ratio,
            seed,
        )
    }

    /// One mirrored run, timed by the caller.
    fn run<P: Probe>(&self, probe: &mut P, seed: u64) -> Result<CellRun, SimError> {
        let mut source = self.source(seed);
        mirror::run_cell(probe, &mut source, Mechanism::Baseline, &self.cfg)
    }

    /// Checks a mirrored run: it finished, stayed below saturation and
    /// reproduced the runner's payload.
    fn check(&self, run: Result<CellRun, SimError>, checks: &mut Checks) -> Option<CellRun> {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                checks.record(1, 1, || format!("8x8 run failed: {e}"));
                return None;
            }
        };
        let accepted = ratio(
            run.result.stats.flits_injected as f64,
            run.offered_flits as f64,
        );
        let (start, end) = run.backlog;
        // Below saturation the queues hover around a few packets; a
        // saturated network grows them by thousands over the window.
        let grew = end > start + self.cfg.noc.num_nodes();
        let payload = encode_run_result(&run.result);
        let bad = !super::cell_ok(&run.result)
            || accepted < MIN_ACCEPTED
            || grew
            || self.reference.as_ref() != Some(&payload);
        checks.record(1, u64::from(bad), || {
            format!(
                "8x8 run invalid: drained {}, accepted/offered {accepted:.4}, backlog {start} -> {end}, payload matches runner: {}",
                run.result.drained,
                self.reference.as_ref() == Some(&payload)
            )
        });
        Some(run)
    }

    /// Times `cycles` cycles of a fresh simulator at `shards` shards;
    /// returns the seconds and the statistics' rendering.
    fn shard_sample(&self, seed: u64, shards: usize, cycles: u64) -> (f64, String) {
        let mut sim = mirror::fresh_sim(Mechanism::Baseline, &self.cfg);
        sim.set_shards(shards);
        let mut source = self.source(seed);
        let mut stepper = Stepper::new(Mechanism::Baseline);
        let t = Instant::now();
        let outcome = stepper.drive(&mut Off, SpanKind::Pass, &mut sim, &mut source, cycles);
        let secs = t.elapsed().as_secs_f64();
        (secs, format!("{outcome:?} {:?}", sim.stats()))
    }
}

impl Bench for Cmesh {
    fn setup(opts: &Options) -> Result<Self, String> {
        let (warmup_cycles, sim_cycles) = opts.scale.cmesh_cycles;
        let cfg = SystemConfig {
            noc: NocConfig::cmesh(8, 8, 2),
            warmup_cycles,
            sim_cycles,
            drain_cycles: sim_cycles,
            ..SystemConfig::paper()
        };
        let cmesh = Cmesh {
            pool: DataPool::from_benchmark(Benchmark::Blackscholes, 512, opts.seed),
            cfg,
            reference: None,
            offered: 0,
        };
        check_cell_build(
            &mirror::fresh_sim(Mechanism::Baseline, &cmesh.cfg),
            &cmesh.source(opts.seed),
            Mechanism::Baseline,
        )?;
        Ok(cmesh)
    }

    fn repeat(&mut self, opts: &Options, first: bool) -> Result<Repeat, String> {
        let mut checks = Checks::default();
        let mut source = self.source(opts.seed);
        let t = Instant::now();
        let result = try_run_with_source(&mut source, Mechanism::Baseline, &self.cfg);
        let wall_s = t.elapsed().as_secs_f64();
        let payload = result.as_ref().ok().map(encode_run_result);
        if first {
            // The runner's warm-up payload is the reference of every later
            // run. The mirror replays it with the NI queues and the offered
            // traffic in view, so it also shows the run stays below
            // saturation.
            self.reference = payload.clone();
            let run = self.run(&mut Off, opts.seed);
            self.check(run, &mut checks);
            let c = &self.cfg;
            let until = c.warmup_cycles + c.sim_cycles;
            self.offered = mirror::offered_flits(&mut self.source(opts.seed), &c.noc, 0, until);
        }
        let ok = result.as_ref().is_ok_and(super::cell_ok) && payload == self.reference;
        checks.record(1, u64::from(!ok), || match &result {
            Ok(r) => format!(
                "8x8 run drained {}, payload matches the reference: {}",
                r.drained,
                payload == self.reference
            ),
            Err(e) => format!("8x8 run failed: {e}"),
        });
        let mut fnv = Fnv::default();
        fnv.write(payload.unwrap_or_default().as_bytes());
        let cycles = result.map_or(0, |r| r.total_cycles);
        Ok(Repeat {
            wall_s,
            ns_per_op: ratio(wall_s * 1e9, self.offered as f64),
            detail: vec![("mcyc_per_s".into(), "Mcyc/s", cycles as f64 / wall_s / 1e6)],
            fingerprint: fnv.finish(),
            checks,
        })
    }

    fn traced(&mut self, opts: &Options) -> Result<Traced, String> {
        let mut checks = Checks::default();
        let mut tracer = Tracer::new(Instant::now());
        let t = Instant::now();
        let run = self.run(&mut tracer, opts.seed);
        let wall_s = t.elapsed().as_secs_f64();
        let run = self.check(run, &mut checks);
        let mut values = Vec::new();
        if let Some(run) = &run {
            values.extend(sim_details(
                &tracer,
                std::slice::from_ref(&run.result),
                self.cfg.warmup_cycles,
            ));
            values.push(("noc.backlog_end".into(), "count", run.backlog.1 as f64));
        }

        // The sharded kernel, sampled outside the traced wall: too noisy on
        // a shared two-CPU host to gate, so it is recorded, not bounded.
        let cycles = opts.scale.shard_sample_cycles;
        let mut per_cycle = Vec::new();
        let mut speedup = Vec::new();
        let mut diverged = 0;
        for _ in 0..SHARD_SAMPLES {
            let (serial_s, serial_stats) = self.shard_sample(opts.seed, 1, cycles);
            let (sharded_s, sharded_stats) = self.shard_sample(opts.seed, 2, cycles);
            diverged += u64::from(serial_stats != sharded_stats);
            per_cycle.push(sharded_s * 1e9 / cycles as f64);
            speedup.push(ratio(serial_s, sharded_s));
        }
        checks.record(SHARD_SAMPLES as u64, diverged, || {
            format!("{diverged} shard-2 sample(s) diverged from the serial kernel")
        });
        let fold = |f: fn(f64, f64) -> f64, init| speedup.iter().copied().fold(init, f);
        values.extend([
            (
                "noc.shard2_step_ns_per_cycle".to_string(),
                "ns",
                median(&per_cycle),
            ),
            ("noc.shard2_speedup".into(), "ratio", median(&speedup)),
            (
                "noc.shard2_speedup.min".into(),
                "ratio",
                fold(f64::min, f64::INFINITY),
            ),
            (
                "noc.shard2_speedup.max".into(),
                "ratio",
                fold(f64::max, 0.0),
            ),
        ]);
        Ok(Traced {
            wall_s,
            tracer,
            values,
            checks,
        })
    }
}
