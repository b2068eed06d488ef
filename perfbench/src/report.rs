//! From passes to the metrics the benchmark prints. The names and units
//! here are the ones `BENCHMARK.json` declares (a test keeps the two in
//! step); `README.md` defines each.

use crate::Pass;

/// End-to-end metrics, printed by every untraced run: the median over
/// its passes (`ok_frac` is a share of them).
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("build_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("messages", "count"),
    ("msg_max", "count"),
    ("lightness", "ratio"),
    ("stretch", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run, besides the span metrics.
pub const LAYERS: [(&str, &str); 20] = [
    ("lightgraph.gen_s", "s"),
    ("lightgraph.edges", "count"),
    ("lightgraph.verify_s", "s"),
    ("engine.topo_s", "s"),
    ("congest.plan.setup_s", "s"),
    ("engine.deliver_s", "s"),
    ("engine.compute_s", "s"),
    ("engine.barrier_wait_s", "s"),
    ("algo.serial_s", "s"),
    ("engine.invocations", "count"),
    ("engine.sched_rounds", "count"),
    ("engine.active_mean", "count"),
    ("engine.combined_frac", "ratio"),
    ("engine.delivered_per_busy_s", "1/s"),
    ("node.msg_p99", "count"),
    ("engine.speedup_t2", "ratio"),
    ("congest.tree.bfs_s", "s"),
    ("core.slt_s", "s"),
    ("core.light_spanner_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The spans `collect_spans` reports for each construction, `/`
/// replaced by `.`. Each gets the three [`SPAN_FIELDS`] metrics; they
/// read 0 on workloads that do not run the phase.
pub const SPANS: [&str; 30] = [
    "bfs",
    "slt",
    "slt.tau",
    "slt.mst",
    "slt.mst.grow",
    "slt.mst.merge",
    "slt.tour",
    "slt.tour.frag_tree",
    "slt.tour.reroot",
    "slt.tour.times",
    "slt.tour.indices",
    "slt.spt",
    "slt.spt.seed",
    "slt.spt.probe",
    "slt.spt.probe.relax",
    "slt.bp1",
    "slt.bp2",
    "slt.mark",
    "slt.final_spt",
    "slt.final_spt.seed",
    "slt.final_spt.probe",
    "slt.final_spt.probe.relax",
    "spanner",
    "spanner.tau",
    "spanner.grow",
    "spanner.merge",
    "spanner.frag_tree",
    "spanner.reroot",
    "spanner.times",
    "spanner.indices",
];

/// Per-span metrics, in [`crate::SpanValues`] order.
pub const SPAN_FIELDS: [(&str, &str); 3] =
    [("wall_s", "s"), ("delivered", "count"), ("rounds", "count")];

/// Counts that must repeat exactly across passes over one instance,
/// whatever the thread count or observers (contract clauses 8 and 9).
const EXACT: [&str; 3] = ["rounds", "messages", "msg_max"];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for span in SPANS {
        for (field, unit) in SPAN_FIELDS {
            out.push((format!("{span}.{field}"), unit));
        }
    }
    out
}

/// What one benchmark run prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// One line per failed pass.
    pub errors: Vec<String>,
}

impl Summary {
    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`, if printed.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Shortest round-trip decimal; JSON has no infinities or NaN, so those
/// (only possible from a failed pass) print as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median (mean of the middle two for an even count); 0 for no values.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Why `p` disagrees with `reference` on the instance or an exact
/// count, if it does.
fn mismatch(reference: &Pass, p: &Pass) -> Option<String> {
    if reference.stamp.get("topo_key") != p.stamp.get("topo_key") {
        return Some("passes built different instances".to_owned());
    }
    EXACT
        .into_iter()
        .find(|k| reference.get(k) != p.get(k))
        .map(|k| {
            format!(
                "determinism: {k} is {} in the {} pass but {} in the {} pass",
                reference.get(k),
                reference.stamp.get("mode").map_or("first", String::as_str),
                p.get(k),
                p.stamp.get("mode").map_or("later", String::as_str),
            )
        })
}

/// Splits the passes over the pinned instance into the good ones and
/// one error line per bad one, and adds the seeded pass's error, if
/// any. A pass is bad when it failed its oracle or crashed, or when an
/// exact count differs from the first good pass: a mismatch is a
/// failure, never averaged away.
fn triage<'a>(passes: &'a [Pass], seeded: &Pass) -> (Vec<&'a Pass>, Vec<String>) {
    let reference = passes.iter().find(|p| p.error.is_none());
    let (mut good, mut errors) = (Vec::new(), Vec::new());
    for p in passes {
        match (&p.error, reference) {
            (Some(e), _) => errors.push(e.clone()),
            (None, Some(r)) => match mismatch(r, p) {
                Some(e) => errors.push(e),
                None => good.push(p),
            },
            (None, None) => unreachable!("a good pass is its own reference"),
        }
    }
    if let Some(e) = &seeded.error {
        errors.push(format!("seeded instance: {e}"));
    }
    (good, errors)
}

/// The end-to-end metrics of an untraced run: medians over the timed
/// passes of the pinned instance; `seeded` only has to pass its oracles.
pub fn summarize_timed(passes: &[Pass], seeded: &Pass) -> Summary {
    let (good, errors) = triage(passes, seeded);
    let attempted = passes.len() + 1;
    let failed = passes.len() - good.len() + usize::from(seeded.error.is_some());
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "ok_frac" {
                (attempted - failed) as f64 / attempted as f64
            } else {
                median(good.iter().map(|p| p.get(name)).collect())
            };
            (name.to_owned(), value, unit)
        })
        .collect();
    Summary {
        attempted,
        failed,
        metrics,
        errors,
    }
}

/// The per-layer metrics of a traced run: the traced pass, the serial
/// (one-thread) pass and an untraced pass over the pinned instance, and
/// the seeded pass, which only has to pass its oracles. Span counts
/// must match between the traced and serial passes.
pub fn summarize_traced(traced: &Pass, serial: &Pass, timed: &Pass, seeded: &Pass) -> Summary {
    let passes = [traced.clone(), serial.clone(), timed.clone()];
    let (good, mut errors) = triage(&passes, seeded);
    let mut failed = passes.len() - good.len() + usize::from(seeded.error.is_some());
    if let Some(path) = span_mismatch(traced, serial) {
        errors.push(format!("determinism: span {path} differs between threads"));
        failed = failed.max(1);
    }
    let (t1, t2) = (serial.get("build_s"), timed.get("build_s"));
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "engine.speedup_t2" => t1 / t2,
                "trace.overhead_frac" => (traced.get("build_s") - t2) / t2,
                _ => span_value(traced, &name).unwrap_or_else(|| traced.get(&name)),
            };
            (name, value, unit)
        })
        .collect();
    Summary {
        attempted: passes.len() + 1,
        failed,
        metrics,
        errors,
    }
}

/// The first span whose deterministic counters differ.
fn span_mismatch(a: &Pass, b: &Pass) -> Option<String> {
    let counts = |p: &Pass, path: &str| p.spans.get(path).map(|v| [v[1], v[2]]);
    a.spans
        .keys()
        .chain(b.spans.keys())
        .find(|path| counts(a, path) != counts(b, path))
        .cloned()
}

/// The span metric `name` (`<path>.<field>`) of `p`: `Some(0)` for a
/// span the pass did not run, `None` if `name` is no span metric.
fn span_value(p: &Pass, name: &str) -> Option<f64> {
    let (path, field) = name.rsplit_once('.')?;
    if !SPANS.contains(&path) {
        return None;
    }
    let i = SPAN_FIELDS.iter().position(|&(f, _)| f == field)?;
    Some(p.spans.get(path).map_or(0.0, |v| v[i]))
}
