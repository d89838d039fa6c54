//! Rendering an [`Outcome`]: the metric table, the result file, the trace
//! file and the one-line summary the last line of a run's output carries.

use crate::json::{n, obj, s, Json};
use crate::trace::Tracer;
use crate::workloads::{Group, Outcome};

/// The header of the metric table.
pub const TABLE_HEADER: &str = "workload metric median unit q1 q3 min max n";

/// One `workload metric median unit q1 q3 min max n` line per metric.
pub fn table(o: &Outcome) -> Vec<String> {
    o.metrics
        .iter()
        .map(|m| {
            let s = m.summary();
            format!(
                "{} {} {} {} {} {} {} {} {}",
                o.workload.name(),
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n
            )
        })
        .collect()
}

fn group_name(g: Group) -> &'static str {
    match g {
        Group::EndToEnd => "end_to_end",
        Group::Layer => "per_layer",
        Group::Detail => "detail",
    }
}

/// The full result record: every metric with its summary and samples.
pub fn result_json(o: &Outcome) -> Json {
    let metrics = o.metrics.iter().map(|m| {
        let sm = m.summary();
        (
            m.name.clone(),
            obj([
                ("unit", s(m.unit)),
                ("group", s(group_name(m.group))),
                ("median", n(sm.median)),
                ("q1", n(sm.q1)),
                ("q3", n(sm.q3)),
                ("min", n(sm.min)),
                ("max", n(sm.max)),
                ("n", n(sm.n as f64)),
                (
                    "samples",
                    Json::Arr(m.samples.iter().map(|v| n(*v)).collect()),
                ),
            ]),
        )
    });
    obj([
        ("workload", s(o.workload.name())),
        ("op", s(o.workload.op())),
        ("seed", n(o.seed as f64)),
        ("traced", Json::Bool(o.traced)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", n(o.attempted as f64)),
        ("failed", n(o.failed as f64)),
        (
            "failures",
            Json::Arr(o.failures.iter().map(|f| s(f.as_str())).collect()),
        ),
        ("model_fingerprint", s(format!("{:016x}", o.fingerprint))),
        ("metrics", obj(metrics)),
    ])
}

/// The summary line: correctness, operation counts and the declared
/// metrics of the run's kind (end-to-end untraced, per-layer traced), each
/// as its median.
pub fn summary_line(o: &Outcome) -> String {
    let want = if o.traced {
        Group::Layer
    } else {
        Group::EndToEnd
    };
    let metrics = o.metrics.iter().filter(|m| m.group == want).map(|m| {
        (
            m.name.clone(),
            obj([("value", n(m.summary().median)), ("unit", s(m.unit))]),
        )
    });
    obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", n(o.attempted as f64)),
        ("failed", n(o.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

/// The spans and call counters of a traced repeat.
pub fn trace_json(o: &Outcome, t: &Tracer) -> Json {
    let spans = t.spans().iter().map(|sp| {
        obj([
            ("name", s(sp.kind.name())),
            ("cell", n(sp.cell)),
            ("start_ns", n(sp.start_ns as f64)),
            ("end_ns", n(sp.end_ns as f64)),
            ("self_ns", n(sp.self_ns() as f64)),
            ("parent", sp.parent.map_or(Json::Null, |p| n(p as f64))),
        ])
    });
    let calls = t.calls().map(|(call, count, ns)| {
        obj([
            ("name", s(call.name())),
            ("count", n(count as f64)),
            ("total_ns", n(ns as f64)),
        ])
    });
    obj([
        ("workload", s(o.workload.name())),
        ("seed", n(o.seed as f64)),
        ("spans", Json::Arr(spans.collect())),
        ("calls", Json::Arr(calls.collect())),
    ])
}

/// `(workload, metric) → samples` of the untraced runs in a result file or
/// a ledger of them.
pub fn samples_of(doc: &Json) -> Vec<(String, String, Vec<f64>)> {
    let runs: Vec<&Json> = match doc.get("runs").and_then(Json::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    let mut out = Vec::new();
    for run in runs {
        if run.get("traced").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, m) in run.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            let samples: Vec<f64> = m
                .get("samples")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            if !samples.is_empty() {
                out.push((workload.to_string(), name.clone(), samples));
            }
        }
    }
    out
}
