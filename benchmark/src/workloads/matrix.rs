//! `matrix4x4`: the Fig. 9–11/15 campaign — every benchmark × {Baseline,
//! DI-COMP, DI-VAXX, FP-COMP, FP-VAXX, LZ-VAXX} on the paper's 4x4 cmesh,
//! through `BenchmarkMatrix::run_with` on the harness's pool with no cache
//! and no snapshot store. The campaign users run most; its time splits over
//! the kernel, traffic generation and NI encode.

use std::time::Instant;

use anoc_exec::{run_campaign, CampaignOptions, JobSpec, ThreadPool};
use anoc_harness::experiments::BenchmarkMatrix;
use anoc_harness::persist::encode_run_result;
use anoc_harness::{Mechanism, RunResult, SystemConfig};
use anoc_noc::SimError;
use anoc_traffic::{Benchmark, BenchmarkTraffic};

use super::{
    cell_ok, install_context, sim_details, threads, Bench, Checks, Fnv, Options, Repeat, Traced,
};
use crate::mirror;
use crate::trace::{ratio, SpanKind, Tracer, MECHS};

pub(crate) struct Matrix {
    cfg: SystemConfig,
    /// The untraced runner's payloads from the warm-up repeat, in plan order.
    reference: Vec<String>,
    /// Flits the traffic offers over the simulated cycles of every cell.
    offered: u64,
    /// The traced mirror's pool, sized like the harness's.
    pool: Option<ThreadPool>,
}

fn cells() -> impl Iterator<Item = (Benchmark, Mechanism)> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|b| MECHS.into_iter().map(move |m| (b, m)))
}

impl Bench for Matrix {
    fn setup(opts: &Options) -> Result<Self, String> {
        install_context(None, None)?;
        let cfg = SystemConfig::paper().with_sim_cycles(opts.scale.matrix_cycles);
        for (b, m) in cells() {
            let source = BenchmarkTraffic::new(b, cfg.noc.num_nodes(), cfg.approx_ratio, opts.seed);
            super::check_cell_build(&mirror::fresh_sim(m, &cfg), &source, m)?;
        }
        Ok(Matrix {
            cfg,
            reference: Vec::new(),
            offered: 0,
            pool: None,
        })
    }

    fn repeat(&mut self, opts: &Options, first: bool) -> Result<Repeat, String> {
        let t = Instant::now();
        let matrix = BenchmarkMatrix::run_with(&self.cfg, opts.seed, &MECHS);
        let wall_s = t.elapsed().as_secs_f64();

        let results: Vec<&RunResult> = matrix.cells.iter().flat_map(|(_, rs)| rs).collect();
        let payloads: Vec<String> = results.iter().map(|r| encode_run_result(r)).collect();
        let mut fnv = Fnv::default();
        payloads.iter().for_each(|p| fnv.write(p.as_bytes()));
        let mut checks = Checks::default();
        let bad = results.iter().filter(|r| !cell_ok(r)).count() as u64;
        checks.record(results.len() as u64, bad, || {
            format!("{bad} matrix cell(s) failed or did not drain")
        });
        let cycles: u64 = results.iter().map(|r| r.total_cycles).sum();
        if first {
            self.reference = payloads;
            let (cfg, until) = (&self.cfg, self.cfg.warmup_cycles + self.cfg.sim_cycles);
            self.offered = Benchmark::ALL
                .iter()
                .map(|&b| {
                    let mut source =
                        BenchmarkTraffic::new(b, cfg.noc.num_nodes(), cfg.approx_ratio, opts.seed);
                    MECHS.len() as u64 * mirror::offered_flits(&mut source, &cfg.noc, 0, until)
                })
                .sum();
        }
        Ok(Repeat {
            wall_s,
            ns_per_op: ratio(wall_s * 1e9, self.offered as f64),
            detail: vec![("mcyc_per_s".into(), "Mcyc/s", cycles as f64 / wall_s / 1e6)],
            fingerprint: fnv.finish(),
            checks,
        })
    }

    fn traced(&mut self, opts: &Options) -> Result<Traced, String> {
        let pool = self.pool.get_or_insert_with(|| ThreadPool::new(threads()));
        let origin = Instant::now();
        type Out = (Result<RunResult, SimError>, Tracer);
        let jobs: Vec<JobSpec<Out>> = cells()
            .enumerate()
            .map(|(i, (b, m))| {
                let cfg = self.cfg.clone();
                let seed = opts.seed;
                JobSpec::new(
                    format!("{}/{}", b.name(), m.name()),
                    format!("trace matrix {i}"),
                    move || {
                        let mut tracer = Tracer::new(origin);
                        tracer.set_cell(i as u32);
                        let mut source =
                            BenchmarkTraffic::new(b, cfg.noc.num_nodes(), cfg.approx_ratio, seed);
                        let result = mirror::run_cell(&mut tracer, &mut source, m, &cfg);
                        (result.map(|c| c.result), tracer)
                    },
                )
            })
            .collect();
        let t = Instant::now();
        let (outs, _) = run_campaign(pool, None, jobs, &CampaignOptions::quiet(), None);
        let wall_s = t.elapsed().as_secs_f64();

        let cells = outs.len() as u64;
        let mut tracer = Tracer::new(origin);
        let mut results = Vec::new();
        let mut checks = Checks::default();
        let mut mismatched = 0;
        for (i, (result, cell_tracer)) in outs.into_iter().enumerate() {
            tracer.absorb(cell_tracer);
            match result {
                Ok(r) => {
                    if self.reference.get(i) != Some(&encode_run_result(&r)) {
                        mismatched += 1;
                    }
                    results.push(r);
                }
                Err(_) => mismatched += 1,
            }
        }
        checks.record(cells, mismatched, || {
            format!("{mismatched} traced matrix cell(s) differ from the runner's payload")
        });
        let busy = tracer.total_ns(SpanKind::Cell) as f64 / 1e9;
        let mut values = vec![(
            "exec.pool.idle_frac".to_string(),
            "frac",
            1.0 - ratio(busy, pool.threads() as f64 * wall_s),
        )];
        values.extend(sim_details(&tracer, &results, self.cfg.warmup_cycles));
        Ok(Traced {
            wall_s,
            tracer,
            values,
            checks,
        })
    }
}
