//! Every spec committed under `experiments/` must stay runnable and
//! gated: it parses with the real parser, and a generated baseline with
//! the current schema sits beside it under `experiments/baselines/` —
//! `scripts/verify.sh` loops `lab run` → `lab check` over exactly this
//! set, so a spec that rots or loses its baseline fails here first — and
//! so does a baseline whose spec was deleted, which nothing would check.

use edge_llm_lab::schemas::BASELINE_SCHEMA;
use edge_llm_lab::{ExperimentSpec, Json};
use std::fs;
use std::path::PathBuf;

#[test]
fn every_committed_spec_parses_and_has_a_baseline() {
    let experiments = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    let mut specs: Vec<PathBuf> = fs::read_dir(&experiments)
        .expect("read experiments/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    specs.sort();
    assert!(
        !specs.is_empty(),
        "no specs under {}",
        experiments.display()
    );

    let stem = |p: &PathBuf| p.file_stem().unwrap().to_string_lossy().into_owned();
    for entry in fs::read_dir(experiments.join("baselines")).expect("read baselines/") {
        let path = entry.expect("dir entry").path();
        assert!(
            specs.iter().any(|s| stem(s) == stem(&path)),
            "orphan baseline {}: no spec beside it",
            path.display()
        );
    }

    for path in specs {
        let name = stem(&path);
        let text = fs::read_to_string(&path).expect("read spec");
        let spec = ExperimentSpec::parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(
            spec.name, name,
            "verify.sh keys run ids and baselines off the file name"
        );

        let baseline_path = experiments.join("baselines").join(format!("{name}.json"));
        let baseline_text = fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("{name}: no baseline {}: {e}", baseline_path.display()));
        let baseline = Json::parse(&baseline_text)
            .unwrap_or_else(|e| panic!("{} is malformed: {e}", baseline_path.display()));
        let field = |k: &str| baseline.get(k).and_then(Json::as_str);
        assert_eq!(field("schema"), Some(BASELINE_SCHEMA), "{name}");
        assert_eq!(field("experiment"), Some(name.as_str()), "{name}");
    }
}
