//! The metric registry — every name the benchmark may emit, with its
//! unit and direction — plus the per-run outcome and its two JSON forms.
//!
//! `BENCHMARK.json` at the repo root lists exactly these names; a unit
//! test below compares the two, so renaming a metric on one side only
//! fails loudly instead of silently dropping a gate.

use edge_llm_lab::analysis::{digest, percentile};
use edge_llm_lab::Json;
use std::collections::BTreeMap;

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "adapt_windowed",
    "adapt_fulldepth",
    "serve_decode",
    "fleet_mixed",
];

const ADAPT: &[&str] = &["adapt_windowed", "adapt_fulldepth"];
const WINDOWED: &[&str] = &["adapt_windowed"];
const SERVE: &[&str] = &["serve_decode"];
const FLEET: &[&str] = &["fleet_mixed"];
const DECODE: &[&str] = &["serve_decode", "fleet_mixed"];
const ALL: &[&str] = &WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: the share of the parent's median the metric may
    /// worsen by. Per-layer metrics carry no bound (0).
    pub bound: f64,
    /// Workloads that exercise the layer behind this metric. On every
    /// other workload the layer is idle and the metric reads 0.
    pub live_on: &'static [&'static str],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        live_on: ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    live_on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        live_on,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced run; README.md says what `step` means on each.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("step_ms_p50", "ms", Lower, 0.25),
    e2e("tokens_per_s", "tokens/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
];

/// Single-layer metrics, named `<crate>.<what>`, reported by the traced
/// run only.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tensor.matmul_nn_us", "us", Lower, ADAPT),
    layer("tensor.matmul_tn_us", "us", Lower, ADAPT),
    layer("tensor.matmul_nt_us", "us", Lower, ADAPT),
    layer("tensor.matmul_flops_per_call", "flops", Lower, ADAPT),
    layer("quant.fake_quant_weight_us", "us", Lower, WINDOWED),
    layer("quant.act_quant_us", "us", Lower, SERVE),
    layer("quant.pgemm_us_w4", "us", Lower, SERVE),
    layer("quant.pgemm_us_w2", "us", Lower, SERVE),
    layer("quant.pgemm_w2_over_w4", "ratio", Higher, SERVE),
    layer("quant.pgemm_macs_per_step", "count", Lower, SERVE),
    layer("quant.pgemm_weight_bytes_per_step", "bytes", Lower, SERVE),
    layer("quant.qmatmul_us", "us", Lower, FLEET),
    layer("prune.mask_density", "fraction", Lower, WINDOWED),
    layer("luc.profile_ms", "ms", Lower, WINDOWED),
    layer("luc.profile_evals", "count", Lower, WINDOWED),
    layer("luc.search_ms", "ms", Lower, WINDOWED),
    layer("core.apply_policy_ms", "ms", Lower, WINDOWED),
    layer("core.evaluate_ms", "ms", Lower, ADAPT),
    layer("core.eval_accuracy", "fraction", Higher, ADAPT),
    layer("data.dataset_build_ms", "ms", Lower, ADAPT),
    layer("hw.modeled_iter_us", "us", Lower, ADAPT),
    layer("model.tune_forward_ms_p50", "ms", Lower, ADAPT),
    layer("model.tune_backward_ms_p50", "ms", Lower, ADAPT),
    layer("model.tune_optimizer_ms_p50", "ms", Lower, ADAPT),
    layer("model.tune_step_ms_p95", "ms", Lower, ADAPT),
    layer("model.tune_phase_coverage", "fraction", Higher, ADAPT),
    layer("model.requant_layers_per_step", "count", Lower, ADAPT),
    layer("model.cache_invalidations_per_step", "count", Lower, ADAPT),
    layer("model.forward_layers_mean", "count", Lower, ADAPT),
    layer("model.activation_bytes_mean", "bytes", Lower, ADAPT),
    layer("model.peak_activation_bytes", "bytes", Lower, ADAPT),
    layer("model.pretrain_ms", "ms", Lower, ADAPT),
    layer("model.voting_fit_ms", "ms", Lower, WINDOWED),
    layer("model.batched_decode_step_us_p50", "us", Lower, SERVE),
    layer("model.push_token_us_p50", "us", Lower, SERVE),
    layer("model.batching_gain", "ratio", Higher, SERVE),
    layer("model.pack_weights_ms", "ms", Lower, DECODE),
    layer("model.kv_bytes_per_slot", "bytes", Lower, DECODE),
    layer("model.decode_weight_bytes", "bytes", Lower, DECODE),
    layer("model.adapter_apply_row_us", "us", Lower, FLEET),
    layer("model.spec_round_us", "us", Lower, FLEET),
    layer("serve.step_ms_p50", "ms", Lower, SERVE),
    layer("serve.step_ms_p95", "ms", Lower, SERVE),
    layer("serve.engine_overhead_us", "us", Lower, SERVE),
    layer("serve.steps", "count", Lower, SERVE),
    layer("serve.batch_occupancy_mean", "fraction", Higher, SERVE),
    layer("serve.prefill_token_share", "fraction", Lower, SERVE),
    layer("serve.itl_ms_p95", "ms", Lower, SERVE),
    layer("serve.ttft_ms_p50", "ms", Lower, SERVE),
    layer("serve.ttft_ms_p90", "ms", Lower, SERVE),
    layer("serve.weight_resident_bytes", "bytes", Lower, DECODE),
    layer("serve.adapter_resident_bytes", "bytes", Lower, FLEET),
    layer("serve.spec_acceptance_rate", "fraction", Higher, FLEET),
    layer("serve.spec_tokens_per_verify_pass", "ratio", Higher, FLEET),
    layer("serve.adapter_hits", "count", Higher, FLEET),
    layer("serve.adapter_misses", "count", Lower, FLEET),
    layer("fleet.pass_ms_p50", "ms", Lower, FLEET),
    layer("fleet.ticks", "ticks", Lower, FLEET),
    layer("fleet.tick_us_mean", "us", Lower, FLEET),
    layer("fleet.tokens_per_tick", "ratio", Higher, FLEET),
    layer("fleet.queue_wait_ticks_p50", "ticks", Lower, FLEET),
    layer("fleet.queue_wait_ticks_p95", "ticks", Lower, FLEET),
    layer("fleet.shed_total", "count", Lower, FLEET),
    layer("fleet.replays", "count", Lower, FLEET),
    layer("fleet.decode_token_us_p50", "us", Lower, FLEET),
    layer("fleet.decode_token_us_p95", "us", Lower, FLEET),
    layer("fleet.scaling_2w_over_1w", "ratio", Higher, FLEET),
    layer("fleet.overhead_vs_engine", "ratio", Lower, FLEET),
    layer("trace.span_coverage", "fraction", Higher, ALL),
    layer("trace.step_ms_p50", "ms", Lower, ALL),
];

/// The metric table a run of the given kind reports.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Nearest-rank percentile in the samples' own unit (0 for no samples).
pub fn pct(samples: &[f64], p: u8) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// Digest of a sequence of 32-bit values (loss bits, token ids) — what
/// `run` compares between runs that must agree bit for bit.
pub fn digest_u32(values: impl Iterator<Item = u32>) -> Json {
    let bytes: Vec<u8> = values.flat_map(u32::to_le_bytes).collect();
    Json::Str(digest(&bytes))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window (steps, requests,
    /// sessions) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    values: BTreeMap<&'static str, f64>,
    /// Sample count behind each reported percentile.
    pub samples: Vec<(&'static str, usize)>,
    /// Digests and exact counts `run` compares across runs of one seed.
    pub exact: Vec<(&'static str, Json)>,
    /// What the wall clock read where a metric is in reference time, and
    /// the reference kernel's own readings: `(name, value, unit)`.
    pub wall: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the registry — a typo must not
    /// become a silently absent metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not registered"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn sampled(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    pub fn exact(&mut self, name: &'static str, value: Json) {
        self.exact.push((name, value));
    }

    pub fn wall(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.wall.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Metrics the workload should have measured but did not (a layer
    /// metric reads 0 only where its layer is idle).
    pub fn missing(&self, workload: &str, traced: bool) -> Vec<&'static str> {
        defs(traced)
            .iter()
            .filter(|d| d.live_on.contains(&workload) && !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    fn metrics_json(&self, traced: bool) -> Json {
        Json::Object(
            defs(traced)
                .iter()
                .map(|d| {
                    let value = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Float(value)),
                            ("unit", Json::str(d.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self, traced: bool) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics_json(traced)),
        ])
        .to_compact()
    }

    /// The full record `run` reads back: the result line's content plus
    /// checks, sample counts and the exact values.
    pub fn detail(&self, traced: bool, context: Vec<(&str, Json)>) -> Json {
        let mut pairs = context;
        pairs.extend([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "checks",
                Json::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::Object(
                    self.samples
                        .iter()
                        .map(|(k, n)| (k.to_string(), Json::Int(*n as i64)))
                        .collect(),
                ),
            ),
            (
                "exact",
                Json::Object(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "wall",
                Json::Object(
                    self.wall
                        .iter()
                        .map(|(k, v, _)| (k.to_string(), Json::Float(*v)))
                        .collect(),
                ),
            ),
            ("metrics", self.metrics_json(traced)),
        ]);
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    /// The golden key list: BENCHMARK.json and the registry must name
    /// the same metrics with the same unit and direction, in order.
    #[test]
    fn registry_matches_benchmark_json() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            let listed: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
                .collect();
            let label = |b: Better| match b {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let registered: Vec<(&str, &str, &str)> = table
                .iter()
                .map(|d| (d.name, d.unit, label(d.better)))
                .collect();
            assert_eq!(listed, registered, "{key} differs from the registry");
        }
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end")
            .iter()
            .map(|e| e.get("bound").and_then(Json::as_f64).expect("bound"))
            .collect();
        let registered: Vec<f64> = END_TO_END.iter().map(|d| d.bound).collect();
        assert_eq!(bounds, registered);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && ok(d.name, "_.-"), "{}", d.name);
            assert!(d.unit.len() <= 16 && ok(d.unit, "_/%.-"), "{}", d.unit);
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.set("step_ms_p50", 1.5);
        o.set("serve.steps", 7.0);
        for traced in [false, true] {
            let line = Json::parse(&o.result_line(traced)).expect("result line parses");
            let keys: Vec<&str> = line
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = defs(traced).iter().map(|d| d.name).collect();
            assert_eq!(names, expected);
            for ((_, m), d) in metrics.iter().zip(defs(traced)) {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
        assert_eq!(o.get("serve.steps"), Some(7.0));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(o.correct());
        o.check("a", true, String::new());
        o.check("b", false, "saw 3".into());
        assert!(!o.correct());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn an_unregistered_metric_name_panics() {
        Outcome::default().set("serve.stepz", 1.0);
    }

    #[test]
    fn missing_lists_only_metrics_live_on_the_workload() {
        let o = Outcome::default();
        let miss = o.missing("fleet_mixed", true);
        assert!(miss.contains(&"fleet.ticks"));
        assert!(!miss.contains(&"luc.search_ms"));
        assert_eq!(o.missing("fleet_mixed", false).len(), END_TO_END.len());
    }
}
