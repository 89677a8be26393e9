//! Source scans that keep these one-sentence answers true.
//!
//! "Who creates threads?" — `pool::fan_out`: non-test code under
//! `crates/*/src` may name `thread::scope`, `thread::spawn` or `mpsc` only
//! in `crates/tensor/src/pool.rs`, and there exactly once.
//!
//! "Where is the transformer block's forward?" — `batched::walk`, frozen
//! and training alike: under `crates/model/src` only `Linear` and
//! `LayerNorm` define a `forward_no_cache`, and both GELUs are applied in
//! `batched.rs` only, once each (`gelu_forward` on a frozen layer,
//! `gelu_forward_train` on a layer that records a tape for the backward).
//! A second block forward needs one or the other.
//!
//! "Who writes JSON?" — `edge_llm_telemetry::Json`: non-test code under
//! `crates/*/src` escapes a JSON string only in
//! `crates/telemetry/src/json.rs`, and nowhere hand-formats a JSON object.
//!
//! "Who computes `tanh`?" — `ops::tanh`, fdlibm's `tanhf` written out in
//! `crates/tensor/src/ops.rs`: non-test code under `crates/*/src` calls no
//! platform `tanh`, as a method or by path, so every GELU bit comes from
//! that one function and none from the host's libm.
//!
//! "Who reads the dense effective weight?" — `Linear::forward`, the taped
//! window: non-test code under `crates/*/src` calls
//! `cached_effective_weight` only inside `fn forward` in
//! `crates/model/src/linear.rs`, so no frozen route can regrow a dense arm
//! beside its codes.
//!
//! "Who quantizes a weight?" — `Linear`, when one of its cached forms is
//! first read after a mutation: outside `crates/quant`, non-test code
//! under `crates/*/src` names `QuantizedTensor::quantize` and
//! `fake_quant` only in `crates/model/src/linear.rs`, and calls
//! `pack_weights` only from `EdgeModel::pack_frozen_weights`, so no pass
//! driver can grow a pre-quantize loop beside the layer's own builds.
//!
//! "Who decides which positions are scored and which token is
//! predicted?" — `ops::score` and `ops::argmax`: non-test code under
//! `crates/*/src` compares against `IGNORE_TARGET` or defines `fn argmax`
//! only in `crates/tensor/src/ops.rs`, so evaluation, the voting fit and
//! decoding cannot drift apart on a tie, a NaN or a masked position.
//!
//! "Who turns task samples into a dataset?" — `TaskGenerator::dataset`:
//! non-test code under `crates/*/src` calls `Dataset::from_samples` only
//! in `crates/data/src/lib.rs`, so the pipeline's draws and the CLI's
//! corpus sequences cannot drift from the one sampling loop.

use std::path::{Path, PathBuf};

const NEEDLES: [&str; 3] = ["thread::scope", "thread::spawn", "mpsc"];
const POOL: &str = "tensor/src/pool.rs";
const BLOCK_NEEDLES: [&str; 3] = [
    "fn forward_no_cache",
    "gelu_forward(",
    "gelu_forward_train(",
];

const JSON: &str = "telemetry/src/json.rs";
/// A string escaper writes an escaped quote and `\u00XX` escapes; a
/// hand-formatted object opens on a quoted key, in a plain or raw string.
const JSON_NEEDLES: [&str; 4] = [r#""\\\"""#, r"\\u{:04x}", r#"{\""#, r#"r#"{""#];

const TANH_NEEDLES: [&str; 2] = [".tanh()", "::tanh"];

const DENSE_READ: &str = "cached_effective_weight(";

const QUANT: &str = "quant/src/";
const QUANTIZER: &str = "model/src/linear.rs";
const QUANTIZE_NEEDLES: [&str; 2] = ["QuantizedTensor::quantize", "fake_quant"];
const PACK: &str = "pack_weights";

const SCORER: &str = "tensor/src/ops.rs";

const SAMPLER: &str = "data/src/lib.rs";
const FROM_SAMPLES: &str = "from_samples(";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(index, line)` of a file's product code: the lines before its first
/// `#[cfg(test)]`, comments skipped.
fn product_lines(source: &str) -> impl Iterator<Item = (usize, &str)> {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
}

/// `(needle, line number)` of every hit in a file's product code.
fn hits(source: &str, needles: &'static [&'static str]) -> Vec<(&'static str, usize)> {
    product_lines(source)
        .flat_map(|(i, line)| {
            let found = needles.iter().filter(move |n| line.contains(**n));
            found.map(move |n| (*n, i + 1))
        })
        .collect()
}

/// Every `.rs` file under `crates/*/src`.
fn product_files() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    files
}

#[test]
fn threads_are_created_in_fan_out_and_nowhere_else() {
    let files = product_files();
    let mut pool_hits = Vec::new();
    for file in &files {
        let found = hits(
            &std::fs::read_to_string(file).expect("readable source"),
            &NEEDLES,
        );
        if file.ends_with(POOL) {
            pool_hits = found;
        } else {
            assert!(found.is_empty(), "{}: {found:?}", file.display());
        }
    }
    assert_eq!(pool_hits.len(), 1, "{POOL}: {pool_hits:?}");
    assert_eq!(pool_hits[0].0, "thread::scope");
}

#[test]
fn the_scan_sees_a_pasted_thread_scope_but_not_tests_or_comments() {
    let source = "// std::thread::scope in prose\n\
                  fn f() {\n    std::thread::scope(|s| { s.spawn(|| ()); });\n}\n\
                  use std::sync::mpsc;\n\
                  #[cfg(test)]\nmod tests { fn g() { std::thread::spawn(|| ()); } }\n";
    assert_eq!(
        hits(source, &NEEDLES),
        vec![("thread::scope", 3), ("mpsc", 5)]
    );
}

/// Where the block needles may appear under `crates/model/src`, as
/// `(file name, needle)`, one line each, sorted.
const BLOCK_SITES: [(&str, &str); 4] = [
    ("batched.rs", "gelu_forward("),
    ("batched.rs", "gelu_forward_train("),
    ("linear.rs", "fn forward_no_cache"),
    ("norm.rs", "fn forward_no_cache"),
];

/// Every `.rs` file under `crates/model/src`, as `(file name, source)`.
fn model_sources() -> Vec<(String, String)> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../model/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    files
        .iter()
        .map(|file| {
            let name = file.file_name().expect("a file").to_string_lossy();
            let source = std::fs::read_to_string(file).expect("readable source");
            (name.to_string(), source)
        })
        .collect()
}

/// `(file name, needle)` of every block-needle hit in `sources`, sorted.
fn block_sites(sources: &[(String, String)]) -> Vec<(String, &'static str)> {
    let mut found: Vec<(String, &'static str)> = sources
        .iter()
        .flat_map(|(name, source)| {
            let found = hits(source, &BLOCK_NEEDLES);
            found
                .into_iter()
                .map(move |(needle, _)| (name.clone(), needle))
        })
        .collect();
    found.sort();
    found
}

#[test]
fn the_block_forward_is_written_once() {
    let want = BLOCK_SITES.map(|(file, needle)| (file.to_string(), needle));
    assert_eq!(block_sites(&model_sources()), want);
}

#[test]
fn the_scan_sees_a_pasted_second_block_body() {
    let source = "/// Like `Linear::forward_no_cache`, for a whole block.\n\
                  impl Block {\n    pub fn forward_no_cache(&self, x: &Tensor) -> Tensor {\n\
                  let a = self.attn.forward(&self.ln1.forward_no_cache(x));\n\
                  let h = gelu_forward(&self.mlp.fc1.forward_no_cache(&a));\n\
                  let t = gelu_forward_train(&mut self.mlp.fc1.forward_no_cache(&a));\n\
                  self.mlp.fc2.forward_no_cache(&h)\n    }\n}\n\
                  #[cfg(test)]\nmod tests { fn g() { gelu_forward(&x); } }\n";
    assert_eq!(
        hits(source, &BLOCK_NEEDLES),
        vec![
            ("fn forward_no_cache", 3),
            ("gelu_forward(", 5),
            ("gelu_forward_train(", 6)
        ]
    );
    // a training MLP forward pasted back into `mlp.rs` is a second site
    let mut sources = model_sources();
    let (_, mlp) = sources
        .iter_mut()
        .find(|(name, _)| name == "mlp.rs")
        .expect("mlp.rs is scanned");
    mlp.insert_str(
        0,
        "fn forward(&self, x: Tensor) -> Tensor {\n\
         let mut pre = self.fc1.forward(x).0;\n\
         self.fc2.forward(gelu_forward_train(&mut pre)).0\n}\n",
    );
    let found = block_sites(&sources);
    assert!(
        found.contains(&("mlp.rs".to_string(), "gelu_forward_train(")),
        "{found:?}"
    );
}

#[test]
fn json_is_written_once() {
    let mut json_hits = Vec::new();
    for file in &product_files() {
        let found = hits(
            &std::fs::read_to_string(file).expect("readable source"),
            &JSON_NEEDLES,
        );
        if file.ends_with(JSON) {
            json_hits = found;
        } else {
            assert!(found.is_empty(), "{}: {found:?}", file.display());
        }
    }
    let needles: Vec<&str> = json_hits.iter().map(|(n, _)| *n).collect();
    assert_eq!(needles, JSON_NEEDLES[..2], "{JSON}: {json_hits:?}");
}

#[test]
fn the_scan_sees_a_pasted_second_json_writer() {
    let source = r##"// writes {\"type\": ...} lines
fn quote(out: &mut String, c: char) {
    match c { '"' => out.push_str("\\\""), c => out.push_str(&format!("\\u{:04x}", c as u32)) }
}
fn event(id: u64) -> String { format!("{{\"id\":{id}}}") }
const ROW: &str = r#"{"a": 1}"#;
#[cfg(test)]
mod tests { const T: &str = "{\"a\":1}"; }
"##;
    assert_eq!(
        hits(source, &JSON_NEEDLES),
        vec![
            (JSON_NEEDLES[0], 3),
            (JSON_NEEDLES[1], 3),
            (JSON_NEEDLES[2], 5),
            (JSON_NEEDLES[3], 6)
        ]
    );
}

#[test]
fn tanh_is_computed_in_ops_and_nowhere_else() {
    for file in &product_files() {
        let found = hits(
            &std::fs::read_to_string(file).expect("readable source"),
            &TANH_NEEDLES,
        );
        assert!(found.is_empty(), "{}: {found:?}", file.display());
    }
}

#[test]
fn the_scan_sees_a_pasted_platform_tanh_but_not_tests_or_comments() {
    let source = "/// Like `v.tanh()`, faster.\n\
                  fn gelu(v: f32) -> f32 { 0.5 * v * (1.0 + (0.8 * v).tanh()) }\n\
                  fn all(x: &[f32]) -> Vec<f32> { x.iter().copied().map(f32::tanh).collect() }\n\
                  #[cfg(test)]\nmod tests { fn g(v: f32) -> f32 { v.tanh() } }\n";
    assert_eq!(
        hits(source, &TANH_NEEDLES),
        vec![(".tanh()", 2), ("::tanh", 3)]
    );
}

/// `(enclosing fn, line number)` of every line of a file's product code
/// (the lines before its first `#[cfg(test)]`, comments skipped) that
/// names `needle`, the definition of the fn it names aside. The enclosing
/// fn is the last `fn` a line above named.
fn callers(source: &str, needle: &str) -> Vec<(String, usize)> {
    let definition = format!("fn {}", needle.trim_end_matches('('));
    let mut current = String::new();
    let mut found = Vec::new();
    for (i, line) in product_lines(source) {
        let mut words = line.split_whitespace().skip_while(|w| *w != "fn");
        if let Some(name) = words.nth(1) {
            current = name
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
        }
        if line.contains(needle) && !line.contains(&definition) {
            found.push((current.clone(), i + 1));
        }
    }
    found
}

/// `(file:fn, line number)` of every product-code line under
/// `crates/*/src` that names `needle`, in scan order.
fn callers_everywhere(needle: &str) -> Vec<(String, usize)> {
    let mut found = Vec::new();
    for file in &product_files() {
        let source = std::fs::read_to_string(file).expect("readable source");
        let name = file.file_name().expect("a file").to_string_lossy();
        let sites = callers(&source, needle).into_iter();
        found.extend(sites.map(|(func, line)| (format!("{name}:{func}"), line)));
    }
    found
}

#[test]
fn only_the_taped_forward_reads_the_dense_weight() {
    let readers = callers_everywhere(DENSE_READ);
    let funcs: Vec<&str> = readers.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(funcs, ["linear.rs:forward"], "{readers:?}");
}

#[test]
fn the_scan_sees_a_dense_arm_pasted_into_a_frozen_route() {
    let source = "impl Linear {\n\
                  pub fn cached_effective_weight(&self) -> Arc<Tensor> { todo!() }\n\
                  pub fn forward(&self, x: Tensor) -> Tensor {\n\
                  x.matmul(&self.cached_effective_weight())\n}\n\
                  // the cached_effective_weight() of a comment\n\
                  pub fn forward_no_cache(&self, x: &Tensor) -> Tensor {\n\
                  let w = self.cached_effective_weight();\n\
                  x.matmul(&w)\n}\n}\n\
                  #[cfg(test)]\nmod tests { fn g(l: &Linear) { l.cached_effective_weight(); } }\n";
    assert_eq!(
        callers(source, DENSE_READ),
        vec![
            ("forward".to_string(), 4),
            ("forward_no_cache".to_string(), 8)
        ]
    );
}

#[test]
fn only_the_layer_quantizes_a_weight() {
    for file in &product_files() {
        let path = file.to_string_lossy();
        if path.contains(QUANT) || path.ends_with(QUANTIZER) {
            continue;
        }
        let source = std::fs::read_to_string(file).expect("readable source");
        let found = hits(&source, &QUANTIZE_NEEDLES);
        assert!(found.is_empty(), "{}: {found:?}", file.display());
    }
    let packers = callers_everywhere(PACK);
    let funcs: Vec<&str> = packers.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(funcs, ["model.rs:pack_frozen_weights"], "{packers:?}");
}

#[test]
fn the_scan_sees_a_pasted_pre_quantize_loop() {
    let source = "impl Linear {\n\
                  pub fn pack_weights(&self) -> Result<(), ModelError> { todo!() }\n}\n\
                  /// Like `Linear::pack_weights`, for every layer a pass reads.\n\
                  fn decode_runs(model: &EdgeModel) -> Result<(), ModelError> {\n\
                  model.projections().try_for_each(Linear::pack_weights)?;\n\
                  let w = fake_quant(&model.block(0).weight(), scheme)?;\n\
                  let q = QuantizedTensor::quantize(&w, scheme)?;\n}\n\
                  #[cfg(test)]\nmod tests { fn g(l: &Linear) { l.pack_weights(); } }\n";
    assert_eq!(callers(source, PACK), vec![("decode_runs".to_string(), 6)]);
    assert_eq!(
        hits(source, &QUANTIZE_NEEDLES),
        vec![(QUANTIZE_NEEDLES[1], 7), (QUANTIZE_NEEDLES[0], 8)]
    );
}

/// `(what, line number)` of every product-code line that decides scoring:
/// a definition of `fn argmax`, or a comparison against `IGNORE_TARGET`
/// (`==`, `!=` or a match arm), by bare name or by path.
fn scoring_sites(source: &str) -> Vec<(&'static str, usize)> {
    let compares = |line: &str| ["==", "!=", "=>"].iter().any(|op| line.contains(op));
    product_lines(source)
        .filter_map(|(i, line)| {
            if line.contains("fn argmax") {
                Some(("fn argmax", i + 1))
            } else if line.contains("IGNORE_TARGET") && compares(line) {
                Some(("IGNORE_TARGET", i + 1))
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn scoring_is_decided_in_ops_and_nowhere_else() {
    let mut ops_sites = Vec::new();
    for file in &product_files() {
        let found = scoring_sites(&std::fs::read_to_string(file).expect("readable source"));
        if file.ends_with(SCORER) {
            ops_sites = found;
        } else {
            assert!(found.is_empty(), "{}: {found:?}", file.display());
        }
    }
    // `argmax`, then `supervised`, which `score`, `cross_entropy_backward`
    // and the tuner's exit rows apply
    let kinds: Vec<&str> = ops_sites.iter().map(|(what, _)| *what).collect();
    assert_eq!(
        kinds,
        ["fn argmax", "IGNORE_TARGET"],
        "{SCORER}: {ops_sites:?}"
    );
}

#[test]
fn the_scan_sees_a_pasted_second_scorer() {
    let source = "/// Skips rows whose target == IGNORE_TARGET.\n\
                  fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {\n\
                  let n = targets.iter().filter(|&&t| t != IGNORE_TARGET).count();\n\
                  for (r, &t) in targets.iter().enumerate() {\n\
                  if t == edge_llm_tensor::IGNORE_TARGET { continue; }\n\
                  }\n\
                  let targets = vec![IGNORE_TARGET; 4];\n\
                  }\n\
                  pub fn argmax(xs: &[f32]) -> usize { 0 }\n\
                  #[cfg(test)]\nmod tests { fn g(t: usize) -> bool { t == IGNORE_TARGET } }\n";
    assert_eq!(
        scoring_sites(source),
        vec![("IGNORE_TARGET", 3), ("IGNORE_TARGET", 5), ("fn argmax", 9)]
    );
}

#[test]
fn task_samples_become_a_dataset_in_one_place() {
    let mut builders = Vec::new();
    for file in &product_files() {
        let source = std::fs::read_to_string(file).expect("readable source");
        let sites = callers(&source, FROM_SAMPLES).into_iter();
        builders.extend(sites.map(|(func, line)| (file.clone(), func, line)));
    }
    let sole = builders.len() == 1 && builders[0].0.ends_with(SAMPLER);
    assert!(sole && builders[0].1 == "dataset", "{builders:?}");
}

#[test]
fn the_scan_sees_a_pasted_sampler() {
    let source = "impl Dataset {\n\
                  pub fn from_samples(samples: Vec<Sample>) -> Self { todo!() }\n}\n\
                  /// Like `TaskGenerator::dataset`, for a boxed task.\n\
                  fn sample_dataset(task: &dyn TaskGenerator, n: usize) -> Dataset {\n\
                  Dataset::from_samples((0..n).map(|_| task.sample(8, rng)).collect())\n}\n\
                  fn sequences(n: usize) -> Dataset {\n\
                  let samples = Vec::with_capacity(n);\n\
                  edge_llm_data::Dataset::from_samples(samples)\n}\n\
                  #[cfg(test)]\nmod tests { fn g() { Dataset::from_samples(vec![]); } }\n";
    assert_eq!(
        callers(source, FROM_SAMPLES),
        vec![
            ("sample_dataset".to_string(), 6),
            ("sequences".to_string(), 10)
        ]
    );
}
