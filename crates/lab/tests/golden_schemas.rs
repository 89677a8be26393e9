//! Golden snapshot of the lab artifact schemas: the structural shape
//! (field path → JSON type) of every trial record and analysis row the
//! runner emits. Downstream tooling — the baseline checker, anyone
//! parsing `.lab/runs/` — keys off these
//! shapes, so a silently added, removed, or retyped field is a breaking
//! change and must show up as a reviewable diff here. When a schema
//! change is intentional, regenerate with:
//!
//! ```text
//! EDGELLM_UPDATE_GOLDEN=1 cargo test -q -p edge-llm-lab --test golden_schemas
//! ```

use edge_llm_lab::analysis::sample_analysis_rows;
use edge_llm_lab::schemas::{
    sample_trial_input, sample_trial_output, sample_trial_timing, schema_of,
};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(snapshot: &str, file: &str) {
    let path = golden_path(file);
    if std::env::var_os("EDGELLM_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, snapshot).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with EDGELLM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        snapshot,
        golden,
        "artifact schema drifted from {}; if the change is intentional, \
         regenerate with EDGELLM_UPDATE_GOLDEN=1 and review the diff — \
         every consumer of .lab/runs/ sees this shape",
        path.display()
    );
}

/// Renders a named set of sample documents as `== name ==` sections of
/// `path: type` lines (the `schema_of` projection).
fn render(sections: &[(&str, String)]) -> String {
    let mut out = String::new();
    for (name, schema) in sections {
        out.push_str(&format!("== {name} ==\n{schema}\n"));
    }
    out
}

#[test]
fn trial_record_schemas_match_snapshot() {
    let snapshot = render(&[
        ("trial_input", schema_of(&sample_trial_input())),
        ("trial_output", schema_of(&sample_trial_output())),
        ("timing", schema_of(&sample_trial_timing())),
    ]);
    assert_matches_golden(&snapshot, "trial_records.txt");
}

#[test]
fn analysis_table_schemas_match_snapshot() {
    let sections: Vec<(&str, String)> = sample_analysis_rows()
        .iter()
        .map(|(table, row)| (*table, schema_of(row)))
        .collect();
    assert_matches_golden(&render(&sections), "analysis_tables.txt");
}
