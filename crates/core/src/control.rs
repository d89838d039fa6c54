//! Runtime error-threshold control.
//!
//! §1: the error threshold "can be determined by the compiler or annotated by
//! the programmer and **can be dynamically adjusted at run time**". §2.2 adds
//! that approximable applications still need QoS guarantees and cites Rumba's
//! online quality management. [`QualityController`] is that loop: it watches
//! the realized output/data quality and adjusts the threshold percentage —
//! additive-increase when quality has slack, multiplicative-decrease when the
//! QoS floor is violated — so the network harvests as much approximation as
//! the application's quality budget allows.
//!
//! [`FlowControllerBank`] scales the loop to a network: one controller per
//! *flow* (source NI × destination class), each fed by the delivered-word
//! auditor on a deterministic epoch schedule (DESIGN.md §12). Flows whose
//! data tolerates approximation drift toward the threshold ceiling while
//! fragile flows tighten, which is exactly the per-flow headroom a single
//! global threshold cannot harvest.

use crate::data::CacheBlock;
use crate::metrics::QualityAccumulator;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::threshold::ErrorThreshold;

/// An AIMD controller for the runtime error threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityController {
    target_quality: f64,
    percent: u32,
    min_percent: u32,
    max_percent: u32,
    /// Additive step (percentage points) when quality has slack.
    step_up: u32,
    /// Epochs to hold after a multiplicative decrease before the additive
    /// path may grow again (anti-windup, see [`observe_epoch`]).
    ///
    /// [`observe_epoch`]: Self::observe_epoch
    cooldown: u32,
}

impl QualityController {
    /// Creates a controller holding realized quality above `target_quality`
    /// (e.g. `0.97`), starting from `initial_percent` and confined to
    /// `[min_percent, max_percent]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < target_quality <= 1.0` and
    /// `min_percent <= initial_percent <= max_percent <= 100`.
    pub fn new(
        target_quality: f64,
        initial_percent: u32,
        min_percent: u32,
        max_percent: u32,
    ) -> Self {
        assert!(
            target_quality > 0.0 && target_quality <= 1.0,
            "quality target must be in (0, 1]"
        );
        assert!(
            min_percent <= initial_percent && initial_percent <= max_percent && max_percent <= 100,
            "threshold bounds must satisfy min <= initial <= max <= 100"
        );
        QualityController {
            target_quality,
            percent: initial_percent,
            min_percent,
            max_percent,
            step_up: 2,
            cooldown: 0,
        }
    }

    /// The paper's defaults: hold data quality above 97% (its Figure 9
    /// observation), thresholds between 1% and 20%, starting at 10%.
    pub fn paper_defaults() -> Self {
        QualityController::new(0.97, 10, 1, 20)
    }

    /// The current threshold percentage.
    pub fn percent(&self) -> u32 {
        self.percent
    }

    /// The current threshold object (`exact` when driven to 0 — cannot
    /// happen with `min_percent >= 1`).
    pub fn threshold(&self) -> ErrorThreshold {
        // Percent is clamped into 1..=100, so this never falls back; exact
        // (no approximation) is the conservative default if it ever did.
        ErrorThreshold::from_percent(self.percent.max(1))
            .unwrap_or_else(|_| ErrorThreshold::exact())
    }

    /// The quality floor being enforced.
    pub fn target_quality(&self) -> f64 {
        self.target_quality
    }

    /// Feeds one epoch's realized quality (`1 - mean relative error`, or an
    /// application-level accuracy) and returns the threshold for the next
    /// epoch. AIMD: halve on violation, step up gently when there is slack.
    pub fn observe(&mut self, realized_quality: f64) -> ErrorThreshold {
        if realized_quality < self.target_quality {
            self.percent = (self.percent / 2).max(self.min_percent);
        } else {
            // Only grow when there is real headroom, to avoid oscillating on
            // the floor.
            let slack = realized_quality - self.target_quality;
            if slack > (1.0 - self.target_quality) * 0.25 {
                self.percent = (self.percent + self.step_up).min(self.max_percent);
            }
        }
        self.threshold()
    }

    /// The epoch form of [`observe`](Self::observe) used by the per-flow
    /// loop, with two anti-windup guards the plain AIMD law lacks:
    ///
    /// * an epoch carrying fewer than `min_words` audited words holds the
    ///   threshold — a handful of words is noise, not evidence, and acting
    ///   on it makes sparse flows oscillate between the rails;
    /// * a violation arms a one-epoch cooldown, so a full clean epoch must
    ///   pass before the additive path may grow again. Without it the
    ///   controller re-inflates off quality that was realized *before* the
    ///   decrease took effect (packets already in flight), then halves
    ///   again — a limit cycle, not convergence.
    pub fn observe_epoch(
        &mut self,
        realized_quality: f64,
        words: u64,
        min_words: u64,
    ) -> ErrorThreshold {
        if words < min_words {
            return self.threshold();
        }
        if realized_quality < self.target_quality {
            self.percent = (self.percent / 2).max(self.min_percent);
            self.cooldown = 1;
        } else if self.cooldown > 0 {
            self.cooldown -= 1;
        } else {
            let slack = realized_quality - self.target_quality;
            if slack > (1.0 - self.target_quality) * 0.25 {
                self.percent = (self.percent + self.step_up).min(self.max_percent);
            }
        }
        self.threshold()
    }

    /// Serializes the mutable controller state (the configuration — target,
    /// bounds, step — is rebuilt from the [`QosSpec`] on arming).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u32(self.percent);
        w.u32(self.cooldown);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let percent = r.u32()?;
        if percent < self.min_percent || percent > self.max_percent {
            return Err(SnapError::Invalid("controller percent out of bounds"));
        }
        self.percent = percent;
        self.cooldown = r.u32()?;
        Ok(())
    }
}

impl Default for QualityController {
    fn default() -> Self {
        QualityController::paper_defaults()
    }
}

/// Configuration of the per-flow QoS loop. All-integer (the quality target
/// travels as parts-per-million) so the spec is `Eq + Hash` and renders
/// exactly into result-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QosSpec {
    /// Quality floor in parts-per-million (970_000 = hold quality ≥ 0.97).
    pub target_quality_ppm: u32,
    /// Control epoch length in cycles; 0 disables the loop entirely.
    pub epoch_cycles: u64,
    /// Threshold percentage every flow starts from.
    pub initial_percent: u32,
    /// Floor of the per-flow threshold.
    pub min_percent: u32,
    /// Ceiling of the per-flow threshold (the bound checker of a QoS run is
    /// armed here: no flow may ever approximate past it).
    pub max_percent: u32,
    /// Number of destination classes per source NI (flow = source ×
    /// `dest % classes`).
    pub classes: u32,
    /// Minimum audited words per epoch before a flow's controller acts
    /// (anti-windup on sparse flows).
    pub min_words: u64,
}

impl QosSpec {
    /// The inert spec: no epochs, no controllers, zero behavioral footprint.
    pub fn off() -> Self {
        QosSpec {
            target_quality_ppm: 0,
            epoch_cycles: 0,
            initial_percent: 0,
            min_percent: 0,
            max_percent: 0,
            classes: 0,
            min_words: 0,
        }
    }

    /// The defaults the `anoc run qos` campaign uses: hold per-flow data
    /// quality above 97% (the paper's Figure 9 observation), thresholds in
    /// 1..=20% starting at 10%, 4 destination classes, 500-cycle epochs.
    pub fn paper(target_quality_ppm: u32) -> Self {
        QosSpec {
            target_quality_ppm,
            epoch_cycles: 500,
            initial_percent: 10,
            min_percent: 1,
            max_percent: 20,
            classes: 4,
            min_words: 64,
        }
    }

    /// Whether the loop is armed at all.
    pub fn is_active(&self) -> bool {
        self.epoch_cycles > 0
    }

    /// The quality floor as a fraction.
    pub fn target_quality(&self) -> f64 {
        f64::from(self.target_quality_ppm) / 1e6
    }

    /// The canonical rendering for result-cache keys. Every field appears:
    /// two specs with any differing knob must never share a cached cell.
    pub fn key_fragment(&self) -> String {
        format!(
            "qt={} qe={} qi={} qlo={} qhi={} qc={} qw={}",
            self.target_quality_ppm,
            self.epoch_cycles,
            self.initial_percent,
            self.min_percent,
            self.max_percent,
            self.classes,
            self.min_words,
        )
    }
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec::off()
    }
}

/// One flow's slot in the bank: its controller plus the quality evidence
/// accumulated over the current epoch.
#[derive(Debug, Clone, PartialEq)]
struct FlowState {
    controller: QualityController,
    epoch: QualityAccumulator,
}

/// The per-flow QoS control plane: one [`QualityController`] per
/// (source NI, destination class) pair, fed by the delivered-word auditor
/// and stepped on a fixed epoch schedule.
///
/// Determinism contract (DESIGN.md §12): the bank is only ever mutated from
/// the simulator's cycle edge and epilogue — observation happens at packet
/// completion (ejections are processed in router-ascending ring order) and
/// the epoch update walks flows in ascending index order — so its trajectory
/// is bit-identical across campaign worker-thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowControllerBank {
    spec: QosSpec,
    nodes: usize,
    flows: Vec<FlowState>,
}

impl FlowControllerBank {
    /// A bank of `nodes × spec.classes` controllers, each starting from the
    /// spec's initial threshold.
    ///
    /// # Panics
    ///
    /// Panics on an inactive spec or one whose bounds the underlying
    /// controller rejects.
    pub fn new(nodes: usize, spec: QosSpec) -> Self {
        assert!(spec.is_active(), "cannot build a bank from an inert spec");
        assert!(spec.classes > 0, "a bank needs at least one class");
        let proto = QualityController::new(
            spec.target_quality(),
            spec.initial_percent,
            spec.min_percent,
            spec.max_percent,
        );
        let flows = vec![
            FlowState {
                controller: proto,
                epoch: QualityAccumulator::new(),
            };
            nodes * spec.classes as usize
        ];
        FlowControllerBank { spec, nodes, flows }
    }

    /// The destination class of `dest`.
    pub fn class_of(&self, dest: usize) -> usize {
        dest % self.spec.classes as usize
    }

    fn flow_index(&self, src: usize, dest: usize) -> usize {
        src * self.spec.classes as usize + self.class_of(dest)
    }

    /// Feeds one delivered block (precise golden copy vs what arrived) into
    /// the owning flow's epoch accumulator.
    pub fn observe_block(
        &mut self,
        src: usize,
        dest: usize,
        precise: &CacheBlock,
        approx: &CacheBlock,
    ) {
        let i = self.flow_index(src, dest);
        self.flows[i].epoch.record_block(precise, approx);
    }

    /// Whether `cycle` is an epoch boundary. Purely arithmetic — the
    /// schedule carries no randomness, which is what keeps the loop
    /// bit-identical across `--threads` values.
    pub fn epoch_due(&self, cycle: u64) -> bool {
        cycle > 0 && cycle.is_multiple_of(self.spec.epoch_cycles)
    }

    /// Runs one control epoch: every flow observes its accumulated quality
    /// (in ascending flow order) and resets its accumulator.
    pub fn run_epoch(&mut self) {
        for f in &mut self.flows {
            let q = f.epoch.quality();
            let words = f.epoch.words();
            f.controller.observe_epoch(q, words, self.spec.min_words);
            f.epoch = QualityAccumulator::new();
        }
    }

    /// The threshold the flow `(src, dest-class)` currently demands.
    pub fn threshold_for(&self, src: usize, dest: usize) -> ErrorThreshold {
        self.flows[self.flow_index(src, dest)]
            .controller
            .threshold()
    }

    /// The flow's current threshold percentage (the cheap equality probe the
    /// lazy-install path compares before rewriting an encoder).
    pub fn percent_for(&self, src: usize, dest: usize) -> u32 {
        self.flows[self.flow_index(src, dest)].controller.percent()
    }

    /// Iterates `(flow_index, percent)` in ascending flow order (reporting).
    pub fn percents(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.controller.percent()))
    }

    /// Serializes every flow's controller state and in-flight epoch
    /// evidence.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.flows.len());
        for f in &self.flows {
            f.controller.save_state(w);
            f.epoch.save(w);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// bank armed with the same spec and node count.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n != self.flows.len() {
            return Err(SnapError::Invalid("flow count mismatch"));
        }
        for f in &mut self.flows {
            f.controller.load_state(r)?;
            f.epoch = QualityAccumulator::load(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_halves_the_threshold() {
        let mut c = QualityController::paper_defaults();
        assert_eq!(c.percent(), 10);
        c.observe(0.90); // below the 0.97 floor
        assert_eq!(c.percent(), 5);
        c.observe(0.90);
        assert_eq!(c.percent(), 2);
        c.observe(0.50);
        c.observe(0.50);
        assert_eq!(c.percent(), 1, "clamped at the minimum");
    }

    #[test]
    fn slack_grows_the_threshold_gently() {
        let mut c = QualityController::paper_defaults();
        for _ in 0..20 {
            c.observe(0.999); // lots of headroom
        }
        assert_eq!(c.percent(), 20, "clamped at the maximum");
    }

    #[test]
    fn near_target_quality_holds_steady() {
        let mut c = QualityController::paper_defaults();
        for _ in 0..10 {
            c.observe(0.975); // above floor, within the no-grow band
        }
        assert_eq!(c.percent(), 10);
    }

    #[test]
    fn converges_under_a_simple_plant() {
        // A toy plant where realized quality = 1 - percent/200 (i.e. 20%
        // threshold -> 0.90 quality): the controller must settle where
        // quality ~ target.
        let mut c = QualityController::new(0.96, 20, 1, 40);
        let mut pct = c.percent();
        for _ in 0..50 {
            let quality = 1.0 - pct as f64 / 200.0;
            pct = c.observe(quality).percent();
        }
        let final_quality = 1.0 - pct as f64 / 200.0;
        assert!(
            final_quality >= 0.955,
            "settled at {pct}% -> quality {final_quality}"
        );
        assert!(pct >= 4, "should not collapse to the minimum: {pct}");
    }

    #[test]
    fn threshold_object_matches_percent() {
        let c = QualityController::paper_defaults();
        assert_eq!(c.threshold().percent(), 10);
        assert_eq!(c.target_quality(), 0.97);
        assert_eq!(QualityController::default(), c);
    }

    #[test]
    #[should_panic(expected = "quality target")]
    fn bad_target_rejected() {
        let _ = QualityController::new(0.0, 10, 1, 20);
    }

    #[test]
    #[should_panic(expected = "threshold bounds")]
    fn bad_bounds_rejected() {
        let _ = QualityController::new(0.97, 30, 1, 20);
    }

    #[test]
    fn sparse_epochs_hold_the_threshold() {
        let mut c = QualityController::paper_defaults();
        // Catastrophic quality, but only 3 audited words: not evidence.
        c.observe_epoch(0.10, 3, 64);
        assert_eq!(c.percent(), 10, "sparse epoch must not move the knob");
        c.observe_epoch(0.10, 64, 64);
        assert_eq!(c.percent(), 5, "a full epoch acts");
    }

    #[test]
    fn cooldown_blocks_growth_for_one_epoch_after_a_violation() {
        let mut c = QualityController::paper_defaults();
        c.observe_epoch(0.90, 100, 1); // violation: 10 -> 5, cooldown armed
        assert_eq!(c.percent(), 5);
        c.observe_epoch(0.999, 100, 1); // slack, but cooling down: hold
        assert_eq!(c.percent(), 5, "cooldown epoch must not grow");
        c.observe_epoch(0.999, 100, 1); // clean epoch passed: grow again
        assert_eq!(c.percent(), 7);
    }

    #[test]
    fn controller_state_round_trips() {
        let mut c = QualityController::paper_defaults();
        c.observe_epoch(0.90, 100, 1);
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = QualityController::paper_defaults();
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r).expect("load");
        assert!(r.is_exhausted());
        assert_eq!(fresh, c);
        // Out-of-bounds percent is a typed error, not silent acceptance.
        let mut w = SnapWriter::new();
        w.u32(99);
        w.u32(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(fresh.load_state(&mut r).is_err());
    }

    #[test]
    fn qos_spec_activity_and_key() {
        assert!(!QosSpec::off().is_active());
        assert_eq!(QosSpec::default(), QosSpec::off());
        let spec = QosSpec::paper(970_000);
        assert!(spec.is_active());
        assert!((spec.target_quality() - 0.97).abs() < 1e-12);
        let mut other = spec;
        other.min_words += 1;
        assert_ne!(spec.key_fragment(), other.key_fragment());
        for field in ["qt=", "qe=", "qi=", "qlo=", "qhi=", "qc=", "qw="] {
            assert!(spec.key_fragment().contains(field), "{field} missing");
        }
    }

    #[test]
    fn bank_controls_flows_independently() {
        let spec = QosSpec::paper(970_000);
        let mut bank = FlowControllerBank::new(2, spec);
        assert_eq!(bank.percent_for(0, 0), 10);
        // Flow (0, class 0) sees bad quality, flow (1, class 1) sees slack.
        let good = CacheBlock::from_i32(&[100; 8]);
        let bad = CacheBlock::from_i32(&[160; 8]);
        for _ in 0..16 {
            bank.observe_block(0, 4, &good, &bad); // dest 4 -> class 0
            bank.observe_block(1, 5, &good, &good); // dest 5 -> class 1
        }
        bank.run_epoch();
        assert_eq!(bank.percent_for(0, 4), 5, "violating flow halves");
        assert_eq!(bank.percent_for(1, 5), 12, "slack flow grows");
        assert_eq!(bank.percent_for(0, 1), 10, "idle flow holds");
        assert_eq!(bank.threshold_for(0, 4).percent(), 5);
        assert_eq!(bank.percents().count(), 8);
    }

    #[test]
    fn bank_epoch_schedule_is_pure_arithmetic() {
        let bank = FlowControllerBank::new(1, QosSpec::paper(970_000));
        assert!(!bank.epoch_due(0));
        assert!(bank.epoch_due(500));
        assert!(!bank.epoch_due(501));
        assert!(bank.epoch_due(1_000));
    }

    #[test]
    fn bank_state_round_trips_and_rejects_mismatched_geometry() {
        let spec = QosSpec::paper(970_000);
        let mut bank = FlowControllerBank::new(2, spec);
        let good = CacheBlock::from_i32(&[100; 8]);
        let bad = CacheBlock::from_i32(&[130; 8]);
        for _ in 0..16 {
            bank.observe_block(0, 0, &good, &bad);
        }
        bank.run_epoch();
        bank.observe_block(1, 3, &good, &bad); // in-flight epoch evidence
        let mut w = SnapWriter::new();
        bank.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = FlowControllerBank::new(2, spec);
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r).expect("load");
        assert!(r.is_exhausted());
        assert_eq!(fresh, bank);
        // A bank armed for a different node count must refuse the blob.
        let mut wrong = FlowControllerBank::new(4, spec);
        let mut r = SnapReader::new(&bytes);
        assert!(wrong.load_state(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "inert spec")]
    fn bank_rejects_inert_spec() {
        let _ = FlowControllerBank::new(4, QosSpec::off());
    }
}
