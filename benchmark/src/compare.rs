//! Verdicts between two sets of runs, under the bounds `BENCHMARK.json`
//! declares.

use crate::json::Json;
use crate::report::samples_of;
use crate::spec::{Better, Declared, Spec};
use crate::summary::Summary;

/// How side B compares with side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median improved by at least the bound, or every B run beats
    /// every A run.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// B's median regressed by at least the bound, or every A run beats
    /// every B run.
    Worse,
    /// A side's quartile spread exceeds the bound and the runs overlap:
    /// the data cannot say.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares samples `b` against `a` for a metric with direction `better`
/// and regression bound `bound` (a share of A's median).
///
/// # Panics
///
/// Panics if either side has no samples.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let (b_beats_all, a_beats_all) = match better {
        Better::Lower => (sb.max < sa.min, sa.max < sb.min),
        Better::Higher => (sb.min > sa.max, sa.min > sb.max),
    };
    if sa.spread() > bound || sb.spread() > bound {
        return if b_beats_all {
            Verdict::Better
        } else if a_beats_all {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let gain = match better {
        Better::Lower => -change,
        Better::Higher => change,
    };
    if gain <= -bound {
        Verdict::Worse
    } else if gain >= bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// A's summary.
    pub a: Summary,
    /// B's summary.
    pub b: Summary,
}

/// The smallest change in `setup_s` that counts, in seconds. The set-ups
/// take milliseconds, and a run's passes spread by tens of percent of that,
/// so a bound of a share alone would leave set-up unresolved on every
/// comparison, over changes no user waits for.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// The bound `compare` applies to metric `d` when side A's median is
/// `median`: the declared share, or for `setup_s` the share
/// [`SETUP_FLOOR_S`] is of the median, whichever is larger.
pub fn bound_for(d: &Declared, median: f64) -> f64 {
    let bound = d.bound.unwrap_or(0.0);
    if d.name == "setup_s" {
        bound.max(SETUP_FLOOR_S / median.abs().max(f64::MIN_POSITIVE))
    } else {
        bound
    }
}

/// Compares every declared end-to-end metric present on both sides, in the
/// order the declaration lists workloads and metrics.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Vec<Row> {
    let (sa, sb) = (samples_of(a), samples_of(b));
    let find = |side: &[(String, String, Vec<f64>)], w: &str, m: &str| {
        side.iter()
            .find(|(sw, sm, _)| sw == w && sm == m)
            .map(|(_, _, v)| v.clone())
    };
    let mut rows = Vec::new();
    for w in &spec.workloads {
        for d in &spec.end_to_end {
            let (Some(va), Some(vb)) = (find(&sa, w, &d.name), find(&sb, w, &d.name)) else {
                continue;
            };
            let a = Summary::of(&va);
            rows.push(Row {
                workload: w.clone(),
                metric: d.name.clone(),
                verdict: verdict(&va, &vb, d.better, bound_for(d, a.median)),
                a,
                b: Summary::of(&vb),
            });
        }
    }
    rows
}
