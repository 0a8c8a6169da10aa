//! Metric names, units and the computations behind them. The names here
//! and in `BENCHMARK.json` must agree (checked by the tests below).

use crate::harness::Phase;
use crate::spans::{per, Tracer};
use crate::stats::{median, tail, Tail};

/// End-to-end metrics of the untraced run, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("first_verdict_ms_p50", "ms"),
    ("peak_heap_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run, with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("spinfind.analyze_ms", "ms"),
    ("spinfind.loops_accepted", "count"),
    ("synclib.lower_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.rebind_ms", "ms"),
    ("vm.execute_ms", "ms"),
    ("vm.events", "count"),
    ("vm.steps", "count"),
    ("vm.events_per_s", "1/s"),
    ("tracefmt.encode_ms", "ms"),
    ("tracefmt.bytes_per_event", "B"),
    ("tracefmt.open_ms", "ms"),
    ("tracefmt.decode_s", "s"),
    ("tracefmt.decode_events_per_s", "1/s"),
    ("tracefmt.chunks", "count"),
    ("tracefmt.peak_resident_bytes", "B"),
    ("detector.detect_s", "s"),
    ("detector.events_per_s", "1/s"),
    ("detector.contexts", "count"),
    ("detector.promoted_locations", "count"),
    ("detector.shadow_bytes", "B"),
    ("core.streamed_s", "s"),
    ("core.streamed_overlap", "ratio"),
    ("core.parallel_w2_events_per_s", "1/s"),
    ("core.parallel_w2_over_seq", "ratio"),
    ("serve.render_ms", "ms"),
    ("serve.session_inproc_ms", "ms"),
    ("serve.transport_wait_ms", "ms"),
    ("serve.verdict_frames", "count"),
    ("serve.error_frames", "count"),
    ("process.peak_rss_mb", "MiB"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.traced_op_ms_p50", "ms"),
    ("trace.spans", "count"),
    ("trace.probe_cycles", "count"),
    ("trace.probe_failures", "count"),
];

/// End-to-end values of a measured phase, in [`END_TO_END`] order. The
/// latencies are over [`Phase::op_samples`]; so is the throughput of a
/// phase of passes: one pass's events over the sum of its operations'
/// best latencies.
pub fn end_to_end(a: &Phase, setups: &[f64]) -> (Vec<f64>, Tail) {
    let ops = a.op_samples();
    let lat: Vec<f64> = ops.iter().map(|s| s.ms).collect();
    let t = tail(&lat);
    let events_per_s = match a.pass {
        Some(_) => per(
            ops.iter().map(|s| s.events).sum::<u64>() as f64,
            lat.iter().sum::<f64>() / 1e3,
        ),
        None => per(
            a.samples.iter().map(|s| s.events).sum::<u64>() as f64,
            a.wall_s,
        ),
    };
    let verdicts: Vec<f64> = ops.iter().map(|s| s.verdict_ms).collect();
    let n = a.samples.len() as f64;
    let values = vec![
        events_per_s,
        median(&lat),
        t.value,
        median(&verdicts),
        a.mem.heap_mb,
        per(n - a.failed() as f64, n),
        median(setups),
    ];
    (values, t)
}

/// Per-layer values from the probe spans and counters, plus the tracing
/// overhead (traced phase `b` against untraced phase `a`), in
/// [`PER_LAYER`] order.
pub fn per_layer(
    probes: &Tracer,
    spans: usize,
    cycles: usize,
    probe_failures: usize,
    a: &Phase,
    b: &Phase,
) -> Vec<f64> {
    let agg = probes.aggregate();
    let g = |name: &str| agg.get(name).copied().unwrap_or_default();
    let k = |name: &str| probes.counter(name);
    let streams = k("layers.streams");
    let decoded = k("tracefmt.decoded_events");
    let decode_s = per(g("tracefmt.decode").total_s, streams);
    let detect_s = per(g("detector.detect").total_s, streams);
    let streamed_s = per(g("core.streamed").total_s, g("core.streamed").count as f64);
    let untraced = median(&a.latencies());
    let traced = median(&b.latencies());
    vec![
        g("spinfind.analyze").mean_ms(),
        per(
            k("spinfind.loops_accepted"),
            g("spinfind.analyze").count as f64,
        ),
        g("synclib.lower").mean_ms(),
        g("core.prepare").mean_self_ms(),
        g("core.rebind").mean_ms(),
        g("vm.execute").mean_ms(),
        per(k("vm.events"), g("vm.execute").count as f64),
        per(k("vm.steps"), g("vm.execute").count as f64),
        per(k("vm.events"), g("vm.execute").total_s),
        g("tracefmt.encode").mean_ms(),
        per(k("tracefmt.bytes"), k("tracefmt.encoded_events")),
        g("tracefmt.open").mean_ms(),
        decode_s,
        per(decoded, g("tracefmt.decode").total_s),
        per(k("tracefmt.chunks"), streams),
        k("tracefmt.peak_resident_bytes"),
        detect_s,
        per(decoded, g("detector.detect").total_s),
        per(k("detector.contexts"), streams),
        per(k("detector.promoted_locations"), streams),
        k("detector.shadow_bytes"),
        streamed_s,
        per(decode_s + detect_s, streamed_s),
        per(k("core.parallel_events"), g("core.parallel_w2").total_s),
        per(
            g("core.parallel_seq").total_s,
            g("core.parallel_w2").total_s,
        ),
        g("serve.render").mean_ms(),
        g("serve.session_inproc").mean_ms(),
        g("serve.session_tcp").mean_ms() - g("serve.session_inproc").mean_ms(),
        per(k("serve.verdict_frames"), k("serve.sessions")),
        k("serve.error_frames"),
        a.mem.rss_mb,
        traced - untraced,
        per(traced - untraced, untraced),
        untraced,
        traced,
        spans as f64,
        cycles as f64,
        probe_failures as f64,
    ]
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit. Values print with all the
/// digits `f64` round-trips with.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    values: &[f64],
) -> String {
    assert_eq!(names.len(), values.len(), "one value per metric");
    let finite = values.iter().all(|v| v.is_finite());
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        let mut seen = BTreeSet::new();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("metric name").to_string(),
                    m["unit"].as_str().expect("metric unit").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_parses_and_carries_every_metric() {
        let values: Vec<f64> = (0..END_TO_END.len()).map(|i| i as f64 + 0.125).collect();
        let line = result_line(true, 10, 0, &END_TO_END, &values);
        let doc: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(doc["correct"].as_bool(), Some(true));
        assert_eq!(doc["attempted"].as_u64(), Some(10));
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            assert_eq!(doc["metrics"][*name]["unit"].as_str(), Some(*unit));
            assert_eq!(doc["metrics"][*name]["value"].as_f64(), Some(values[i]));
        }
    }

    #[test]
    fn non_finite_values_mark_the_run_incorrect() {
        let mut values = vec![1.0; END_TO_END.len()];
        values[0] = f64::NAN;
        let line = result_line(true, 1, 0, &END_TO_END, &values);
        let doc: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(doc["correct"].as_bool(), Some(false));
    }
}
