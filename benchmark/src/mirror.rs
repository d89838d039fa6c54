//! The benchmark's own copy of the harness's staged runner loop.
//!
//! `anoc_harness::runner` keeps its cycle loop private, so the benchmark
//! rebuilds the same sequence from public calls — arm a fresh simulator,
//! warm up at the exact threshold, retarget + arm the bound checker + begin
//! measuring, measure, end measuring, drain, record stragglers — with a
//! [`Probe`] at every call. A mirrored cell must serialize
//! (`persist::encode_run_result`) to the same payload as the runner's cell;
//! the workloads check that on every traced cell, so a timing taken here is
//! a timing of the runner's work.

use anoc_core::snap::{SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;
use anoc_harness::{Mechanism, RunResult, SystemConfig};
use anoc_noc::{NocConfig, NocSim, SimError, SnapshotError};
use anoc_traffic::{Injection, TrafficSource};

use crate::trace::{mech_index, Call, Probe, SpanKind};

/// A simulator armed the way the staged runner arms one: exact-threshold
/// codecs, shards, fault and loss plans, QoS and watchdog.
pub fn fresh_sim(mechanism: Mechanism, config: &SystemConfig) -> NocSim {
    let codecs = mechanism.codecs(config.noc.num_nodes(), ErrorThreshold::exact());
    let mut sim = NocSim::new(config.noc.clone(), codecs);
    sim.set_shards(config.shards);
    sim.set_fault_plan(config.faults);
    sim.set_loss_plan(config.loss);
    sim.set_qos(config.qos);
    sim.set_watchdog(config.watchdog_horizon);
    sim
}

/// Flits an injection offers at its uncompressed size, so the count does not
/// depend on the mechanism.
fn offered(noc: &NocConfig, inj: &Injection) -> u64 {
    match &inj.payload {
        Some(block) => u64::from(noc.data_packet_flits(block.size_bits() as u32)),
        None => 1,
    }
}

/// Flits `source` offers in cycles `from..until` when ticked from cycle 0:
/// the traffic a simulator stepping those cycles is handed. Injection is
/// open-loop, so the count does not depend on the network.
pub fn offered_flits(
    source: &mut dyn TrafficSource,
    noc: &NocConfig,
    from: u64,
    until: u64,
) -> u64 {
    let mut buf = Vec::new();
    let mut flits = 0;
    for cycle in 0..until {
        buf.clear();
        source.tick(cycle, &mut buf);
        if cycle >= from {
            flits += buf.iter().map(|inj| offered(noc, inj)).sum::<u64>();
        }
    }
    flits
}

/// The cycle loop's state: the mechanism being timed, the injection buffer
/// and the flits offered so far.
pub struct Stepper {
    mech: usize,
    buf: Vec<Injection>,
    /// Flits the traffic source offered, summed over every driven cycle.
    pub offered_flits: u64,
}

impl Stepper {
    /// A stepper for cells of `mechanism`.
    pub fn new(mechanism: Mechanism) -> Self {
        Stepper {
            mech: mech_index(mechanism),
            buf: Vec::new(),
            offered_flits: 0,
        }
    }

    /// Offers one cycle of traffic and steps the simulator, keeping the
    /// delivery log drained.
    pub fn step_cycle<P: Probe>(
        &mut self,
        probe: &mut P,
        sim: &mut NocSim,
        source: &mut dyn TrafficSource,
    ) -> Result<(), SimError> {
        self.buf.clear();
        source.tick(sim.cycle(), &mut self.buf);
        probe.lap(Call::Tick);
        for inj in self.buf.drain(..) {
            self.offered_flits += offered(sim.config(), &inj);
            match inj.payload {
                Some(block) => {
                    sim.enqueue_data(inj.src, inj.dest, block);
                    probe.lap(Call::EnqueueData(self.mech));
                }
                None => {
                    sim.enqueue_control(inj.src, inj.dest);
                    probe.lap(Call::EnqueueControl);
                }
            }
        }
        sim.step();
        let fatal = sim.take_fatal_error();
        sim.discard_delivered();
        probe.lap(Call::Step);
        fatal.map_or(Ok(()), Err)
    }

    /// Steps until `sim.cycle()` reaches `until`.
    pub fn run_to<P: Probe>(
        &mut self,
        probe: &mut P,
        sim: &mut NocSim,
        source: &mut dyn TrafficSource,
        until: u64,
    ) -> Result<(), SimError> {
        while sim.cycle() < until {
            self.step_cycle(probe, sim, source)?;
        }
        Ok(())
    }

    /// [`run_to`](Self::run_to) inside a `kind` span.
    pub fn drive<P: Probe>(
        &mut self,
        probe: &mut P,
        kind: SpanKind,
        sim: &mut NocSim,
        source: &mut dyn TrafficSource,
        until: u64,
    ) -> Result<(), SimError> {
        probe.open(kind);
        let outcome = self.run_to(probe, sim, source, until);
        probe.close();
        outcome
    }
}

/// The measurement boundary: retarget the encoders, arm the bound checker,
/// start measuring (static-threshold configurations only; QoS is not
/// benchmarked).
pub fn arm_measurement(sim: &mut NocSim, config: &SystemConfig) {
    sim.set_error_threshold(config.threshold());
    sim.set_bound_check(config.bound_threshold());
    sim.begin_measurement();
}

/// Ends the measurement window, drains and assembles the result.
pub fn finish<P: Probe>(
    probe: &mut P,
    sim: &mut NocSim,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> Result<RunResult, SimError> {
    sim.end_measurement();
    probe.open(SpanKind::Drain);
    let drained = sim.try_drain(config.drain_cycles);
    sim.discard_delivered();
    probe.close();
    let drained = drained?;
    sim.record_unfinished();
    Ok(RunResult {
        mechanism,
        stats: sim.stats().clone(),
        activity: sim.activity_report(),
        nodes: config.noc.num_nodes(),
        total_cycles: sim.cycle(),
        drained,
    })
}

/// A finished cell plus what its measurement window looked like from the
/// NIs.
pub struct CellRun {
    /// The cell's result, as the runner would return it.
    pub result: RunResult,
    /// Flits the traffic source offered during the measurement window.
    pub offered_flits: u64,
    /// Packets queued in all NIs at the start and at the end of the window.
    pub backlog: (usize, usize),
}

fn backlog(sim: &NocSim) -> usize {
    (0..sim.num_nodes())
        .map(|n| sim.injection_backlog(n.into()))
        .sum()
}

/// Measures from the armed boundary to the end of the window, then
/// finishes.
pub fn measure_window<P: Probe>(
    probe: &mut P,
    stepper: &mut Stepper,
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> Result<CellRun, SimError> {
    let start = (backlog(sim), stepper.offered_flits);
    let end = config.warmup_cycles + config.sim_cycles;
    stepper.drive(probe, SpanKind::Measure, sim, source, end)?;
    let backlog_end = backlog(sim);
    probe.mark();
    Ok(CellRun {
        result: finish(probe, sim, mechanism, config)?,
        offered_flits: stepper.offered_flits - start.1,
        backlog: (start.0, backlog_end),
    })
}

/// One cold staged cell inside a `cell` span.
pub fn run_cell<P: Probe>(
    probe: &mut P,
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> Result<CellRun, SimError> {
    probe.open(SpanKind::Cell);
    let outcome = (|| {
        let mut sim = fresh_sim(mechanism, config);
        let mut stepper = Stepper::new(mechanism);
        probe.mark();
        stepper.drive(
            probe,
            SpanKind::Warmup,
            &mut sim,
            source,
            config.warmup_cycles,
        )?;
        arm_measurement(&mut sim, config);
        measure_window(probe, &mut stepper, &mut sim, source, mechanism, config)
    })();
    probe.close();
    outcome
}

/// Frames a simulator and its traffic source as one snapshot-store blob:
/// `[u64 sim-blob length][sim blob][traffic-source state]`.
pub fn freeze(
    sim: &NocSim,
    source: &dyn TrafficSource,
    fingerprint: u64,
) -> Result<Vec<u8>, SnapshotError> {
    let sim_blob = sim.save_snapshot(fingerprint)?;
    let mut w = SnapWriter::new();
    w.u64(sim_blob.len() as u64);
    w.bytes(&sim_blob);
    source.save_state(&mut w);
    Ok(w.into_bytes())
}

/// Restores a [`freeze`] blob into a freshly armed simulator and a
/// never-ticked source built with the same arguments.
pub fn thaw(
    blob: &[u8],
    fingerprint: u64,
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
) -> Result<(), String> {
    let mut r = SnapReader::new(blob);
    let len = r.u64().map_err(|e| format!("sim-blob length: {e}"))?;
    let len = usize::try_from(len).map_err(|_| "sim-blob length overflows".to_string())?;
    let sim_blob = r.bytes(len).map_err(|e| format!("sim blob: {e}"))?;
    sim.restore_snapshot(sim_blob, fingerprint)
        .map_err(|e| e.to_string())?;
    source
        .load_state(&mut r)
        .map_err(|e| format!("traffic state: {e}"))?;
    if r.is_exhausted() {
        Ok(())
    } else {
        Err("trailing bytes after traffic state".into())
    }
}
