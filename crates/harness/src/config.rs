//! Experiment configuration: Table 1 plus the evaluation knobs of §5.1.

use anoc_compression::di::{DiConfig, DiDecoder, DiEncoder};
use anoc_compression::fp::{FpDecoder, FpEncoder};
use anoc_compression::lz::{LzDecoder, LzEncoder};
use anoc_core::avcl::Avcl;
use anoc_core::control::QosSpec;
use anoc_core::threshold::ErrorThreshold;
use anoc_noc::{FaultPlan, LossPlan, NocConfig, NodeCodec};

/// The mechanisms a run can simulate: the paper's five
/// ([`Mechanism::ALL`]) and LZ-VAXX, plus the label of a failed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// No compression.
    Baseline,
    /// Dynamic dictionary compression (Jin et al.).
    DiComp,
    /// Dictionary compression + VAXX approximation.
    DiVaxx,
    /// Static frequent-pattern compression (Das et al.).
    FpComp,
    /// Frequent-pattern compression + VAXX approximation.
    FpVaxx,
    /// Streaming approximate-LZ compression + VAXX approximation: cross-word
    /// back-references within a cache block, confirmed against AVCL
    /// don't-care patterns. Not part of the paper's five-way comparison
    /// ([`Mechanism::ALL`]); driven by the `anoc run lz` study.
    LzVaxx,
    /// The label of [`RunResult::failed_sentinel`](crate::runner::RunResult::failed_sentinel),
    /// the placeholder a keep-going campaign reports for a failed cell. It
    /// names a result, never a run.
    Failed,
}

impl Mechanism {
    /// All mechanisms in the paper's plotting order.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::Baseline,
        Mechanism::DiComp,
        Mechanism::DiVaxx,
        Mechanism::FpComp,
        Mechanism::FpVaxx,
    ];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Baseline => "Baseline",
            Mechanism::DiComp => "DI-COMP",
            Mechanism::DiVaxx => "DI-VAXX",
            Mechanism::FpComp => "FP-COMP",
            Mechanism::FpVaxx => "FP-VAXX",
            Mechanism::LzVaxx => "LZ-VAXX",
            Mechanism::Failed => "FAILED",
        }
    }

    /// The inverse of [`name`](Self::name) over every mechanism a run can
    /// simulate — the hook the result cache uses to reconstruct a mechanism
    /// from its stored name. `FAILED` is not one: a failed cell is never
    /// cached.
    pub fn from_name(name: &str) -> Option<Mechanism> {
        Some(match name {
            "Baseline" => Mechanism::Baseline,
            "DI-COMP" => Mechanism::DiComp,
            "DI-VAXX" => Mechanism::DiVaxx,
            "FP-COMP" => Mechanism::FpComp,
            "FP-VAXX" => Mechanism::FpVaxx,
            "LZ-VAXX" => Mechanism::LzVaxx,
            _ => return None,
        })
    }

    /// Whether this mechanism performs value approximation.
    pub fn is_vaxx(&self) -> bool {
        matches!(
            self,
            Mechanism::DiVaxx | Mechanism::FpVaxx | Mechanism::LzVaxx
        )
    }

    /// Whether this mechanism uses the dynamic dictionary (the shared
    /// encoder/decoder PMT with its install/invalidate notification
    /// protocol). LZ-VAXX's dictionary is intra-block and stateless, so it
    /// does not count.
    pub fn is_dictionary(&self) -> bool {
        matches!(self, Mechanism::DiComp | Mechanism::DiVaxx)
    }

    /// Builds the per-node codec pairs for a network of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics for [`Mechanism::Failed`], which labels a failed cell's
    /// placeholder and has no codecs.
    pub fn codecs(&self, nodes: usize, threshold: ErrorThreshold) -> Vec<NodeCodec> {
        (0..nodes)
            .map(|_| match self {
                Mechanism::Failed => panic!("the FAILED placeholder labels no run"),
                Mechanism::Baseline => NodeCodec::baseline(),
                Mechanism::FpComp => {
                    NodeCodec::new(Box::new(FpEncoder::fp_comp()), Box::new(FpDecoder::new()))
                }
                Mechanism::FpVaxx => NodeCodec::new(
                    Box::new(FpEncoder::fp_vaxx(Avcl::new(threshold))),
                    Box::new(FpDecoder::new()),
                ),
                Mechanism::DiComp => {
                    let cfg = DiConfig::for_nodes(nodes);
                    NodeCodec::new(
                        Box::new(DiEncoder::di_comp(cfg)),
                        Box::new(DiDecoder::new(cfg)),
                    )
                }
                Mechanism::DiVaxx => {
                    let cfg = DiConfig::for_nodes(nodes);
                    NodeCodec::new(
                        Box::new(DiEncoder::di_vaxx(cfg, Avcl::new(threshold))),
                        Box::new(DiDecoder::new(cfg)),
                    )
                }
                Mechanism::LzVaxx => NodeCodec::new(
                    Box::new(LzEncoder::lz_vaxx(Avcl::new(threshold))),
                    Box::new(LzDecoder::new()),
                ),
            })
            .collect()
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full experiment configuration (Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The NoC parameters.
    pub noc: NocConfig,
    /// Error threshold percentage (paper default: 10; 0 = exact).
    pub threshold_percent: u32,
    /// Fraction of data packets annotated approximable (paper default 0.75).
    pub approx_ratio: f64,
    /// Warmup cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measured simulation cycles.
    pub sim_cycles: u64,
    /// Additional cycles allowed for draining in-flight packets.
    pub drain_cycles: u64,
    /// Traffic/data RNG seed used when an experiment does not override it.
    pub seed: u64,
    /// Deterministic fault-injection plan (inert by default).
    pub faults: FaultPlan,
    /// Deterministic lossy-link plan (inert by default).
    pub loss: LossPlan,
    /// Per-flow QoS control-loop spec (off by default). When active, the
    /// measurement window runs under runtime-controlled per-flow thresholds
    /// instead of the static `threshold_percent`.
    pub qos: QosSpec,
    /// Watchdog no-forward-progress horizon in cycles (0 disables).
    pub watchdog_horizon: u64,
    /// Unused: the kernel always steps one network serially. Kept only
    /// because the benchmark crate (`benchmark/`) still reads it; it is not
    /// part of the result-cache `config_key`.
    pub shards: usize,
}

impl SystemConfig {
    /// The paper's default operating point.
    pub fn paper() -> Self {
        SystemConfig {
            noc: NocConfig::paper_4x4_cmesh(),
            threshold_percent: 10,
            approx_ratio: 0.75,
            warmup_cycles: 5_000,
            sim_cycles: 50_000,
            drain_cycles: 50_000,
            seed: 42,
            faults: FaultPlan::none(),
            loss: LossPlan::none(),
            qos: QosSpec::off(),
            watchdog_horizon: 20_000,
            shards: 1,
        }
    }

    /// The §5.4 full-system configuration: a 64-core CMP on an 8×8 mesh.
    pub fn full_system() -> Self {
        SystemConfig {
            noc: NocConfig::mesh_8x8(),
            ..SystemConfig::paper()
        }
    }

    /// Overrides the measured cycle count (warmup scales to 10%).
    #[must_use]
    pub fn with_sim_cycles(mut self, cycles: u64) -> Self {
        self.sim_cycles = cycles;
        self.warmup_cycles = (cycles / 10).max(500);
        self.drain_cycles = cycles;
        self
    }

    /// Overrides the error threshold percentage (0 = exact matching only).
    #[must_use]
    pub fn with_threshold(mut self, percent: u32) -> Self {
        self.threshold_percent = percent;
        self
    }

    /// Overrides the approximable-packet ratio.
    #[must_use]
    pub fn with_approx_ratio(mut self, ratio: f64) -> Self {
        self.approx_ratio = ratio;
        self
    }

    /// Overrides the default RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs a lossy-link plan (see [`LossPlan`]).
    #[must_use]
    pub fn with_loss(mut self, loss: LossPlan) -> Self {
        self.loss = loss;
        self
    }

    /// Arms the per-flow QoS control loop (see [`QosSpec`]).
    #[must_use]
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Overrides the watchdog no-forward-progress horizon (0 disables).
    #[must_use]
    pub fn with_watchdog(mut self, horizon: u64) -> Self {
        self.watchdog_horizon = horizon;
        self
    }

    /// The error threshold object.
    pub fn threshold(&self) -> ErrorThreshold {
        if self.threshold_percent == 0 {
            ErrorThreshold::exact()
        } else {
            ErrorThreshold::from_percent(self.threshold_percent).expect("validated percentage")
        }
    }

    /// The threshold the end-to-end bound checker arms at: the static
    /// threshold normally, the QoS ceiling when the per-flow control loop
    /// owns the encoder thresholds (no flow can ever exceed its controller's
    /// `max_percent`, so a delivered word outside it still means a codec
    /// bug, not a control decision).
    pub fn bound_threshold(&self) -> ErrorThreshold {
        if self.qos.is_active() && self.qos.max_percent > 0 {
            ErrorThreshold::from_percent(self.qos.max_percent).expect("validated percentage")
        } else {
            self.threshold()
        }
    }

    /// Renders Table 1 as printable rows.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "System parameters".into(),
                "32 OoO cores @ 2 GHz, 32KB L1I$/64KB L1D$ 2-way, 2MB L2$, 16 dirs, MOESI".into(),
            ),
            (
                "NoC topology".into(),
                format!(
                    "{}x{} 2D concentrated mesh ({} nodes)",
                    self.noc.width,
                    self.noc.height,
                    self.noc.num_nodes()
                ),
            ),
            (
                "Router".into(),
                format!(
                    "2 GHz, three-stage, {} VCs x {}-flit buffers, {}-bit flits, wormhole, XY",
                    self.noc.vcs, self.noc.vc_buffer, self.noc.flit_bits
                ),
            ),
            (
                "Error threshold".into(),
                format!(
                    "5%, 10% (default), 20% — current: {}%",
                    self.threshold_percent
                ),
            ),
            (
                "Approximable data packet ratio".into(),
                format!(
                    "25%, 50%, 75% (default) — current: {:.0}%",
                    self.approx_ratio * 100.0
                ),
            ),
            ("Dictionary-based mechanisms".into(), "8-entry PMT".into()),
        ]
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanisms_build_matching_codecs() {
        let t = ErrorThreshold::default();
        for m in Mechanism::ALL {
            let codecs = m.codecs(4, t);
            assert_eq!(codecs.len(), 4);
            let expected = match m {
                Mechanism::Baseline => "Baseline",
                Mechanism::DiComp => "DI-COMP",
                Mechanism::DiVaxx => "DI-VAXX",
                Mechanism::FpComp => "FP-COMP",
                Mechanism::FpVaxx => "FP-VAXX",
                Mechanism::LzVaxx => "LZ-VAXX",
                Mechanism::Failed => "FAILED",
            };
            assert_eq!(codecs[0].encoder.name(), expected);
            assert_eq!(m.to_string(), expected);
        }
    }

    #[test]
    fn lz_vaxx_is_first_class_but_outside_the_paper_comparison() {
        assert!(!Mechanism::ALL.contains(&Mechanism::LzVaxx));
        assert_eq!(Mechanism::from_name("LZ-VAXX"), Some(Mechanism::LzVaxx));
        let codecs = Mechanism::LzVaxx.codecs(4, ErrorThreshold::default());
        assert_eq!(codecs.len(), 4);
        assert_eq!(codecs[0].encoder.name(), "LZ-VAXX");
    }

    #[test]
    fn vaxx_and_dictionary_classification() {
        assert!(Mechanism::DiVaxx.is_vaxx() && Mechanism::FpVaxx.is_vaxx());
        assert!(Mechanism::LzVaxx.is_vaxx());
        assert!(!Mechanism::DiComp.is_vaxx() && !Mechanism::Baseline.is_vaxx());
        assert!(Mechanism::DiComp.is_dictionary() && Mechanism::DiVaxx.is_dictionary());
        assert!(!Mechanism::FpComp.is_dictionary());
        assert!(!Mechanism::LzVaxx.is_dictionary());
    }

    #[test]
    fn full_system_preset_is_8x8() {
        let c = SystemConfig::full_system();
        assert_eq!(c.noc.num_nodes(), 64);
        assert_eq!(c.noc.concentration, 1);
    }

    #[test]
    fn config_builders() {
        let c = SystemConfig::paper()
            .with_sim_cycles(10_000)
            .with_threshold(20)
            .with_approx_ratio(0.5);
        assert_eq!(c.sim_cycles, 10_000);
        assert_eq!(c.warmup_cycles, 1_000);
        assert_eq!(c.threshold().percent(), 20);
        assert_eq!(c.approx_ratio, 0.5);
        let exact = SystemConfig::paper().with_threshold(0);
        assert!(exact.threshold().is_exact());
    }

    #[test]
    fn table1_mentions_the_key_parameters() {
        let rows = SystemConfig::paper().table1_rows();
        let all: String = rows.iter().map(|(k, v)| format!("{k}: {v}\n")).collect();
        for needle in ["4x4", "three-stage", "8-entry PMT", "75%", "10%"] {
            assert!(all.contains(needle), "Table 1 missing {needle}: {all}");
        }
    }
}
