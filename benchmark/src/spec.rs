//! The benchmark's declaration, `BENCHMARK.json`, compiled in so the bounds
//! live in one place.

use crate::json::Json;

/// The repository's `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the median (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

fn declared(v: &Json, with_bound: bool) -> Result<Declared, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric without a string '{k}'"))
    };
    let better = match field("better")? {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => return Err(format!("unknown direction '{other}'")),
    };
    let bound = if with_bound {
        let b = v.get("bound").and_then(Json::as_f64);
        Some(b.ok_or("end-to-end metric without a numeric 'bound'")?)
    } else {
        None
    };
    Ok(Declared {
        name: field("name")?.to_string(),
        unit: field("unit")?.to_string(),
        better,
        bound,
    })
}

impl Spec {
    /// Parses a declaration.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let list = |k: &str| {
            root.get(k)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no '{k}' list"))
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| "workload without a name".to_string())
                })
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| declared(m, true))
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| declared(m, false))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The compiled-in declaration.
    pub fn builtin() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }
}
