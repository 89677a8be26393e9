//! Golden-report regression test: runs the quick-scale T1, T3, F2, F3,
//! F5, A1, A2 and A3 experiments through the library (the same code path as
//! `report --quick`), projects away wall-clock columns, and compares
//! the remaining cells against checked-in snapshots.
//!
//! Every number in the snapshot is produced by seeded, fixed-order
//! arithmetic, so any drift means an algorithmic change — a kernel
//! reorder, a schedule tweak, a quantizer edit — not noise. When a
//! change is intentional, regenerate with:
//!
//! ```text
//! EDGELLM_UPDATE_GOLDEN=1 cargo test -q --test golden_report
//! ```

use edge_llm::experiments::{run_experiment, Scale};
use edge_llm::report::Table;
use std::fs;
use std::path::PathBuf;

/// Columns that measure host wall-clock time and therefore vary run to
/// run; everything else in the report is deterministic.
const NONDETERMINISTIC: &[&str] = &["iter ms"];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Renders the deterministic projection of a table: the kept headers
/// and each row's kept cells, pipe-separated. `timed` says whether the
/// table carries a wall-clock column at all (F2, F3, F5, A2 and A3 do
/// not).
fn deterministic_projection(table: &Table, timed: bool) -> String {
    let keep: Vec<usize> = table
        .headers()
        .iter()
        .enumerate()
        .filter(|(_, h)| !NONDETERMINISTIC.contains(&h.as_str()))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        keep.len() < table.headers().len(),
        timed,
        "wall-clock columns in {:?}",
        table.headers()
    );
    let mut lines = Vec::with_capacity(table.n_rows() + 1);
    lines.push(
        keep.iter()
            .map(|&i| table.headers()[i].as_str())
            .collect::<Vec<_>>()
            .join(" | "),
    );
    for row in 0..table.n_rows() {
        lines.push(
            keep.iter()
                .map(|&i| table.cell(row, i).unwrap_or(""))
                .collect::<Vec<_>>()
                .join(" | "),
        );
    }
    lines.join("\n") + "\n"
}

fn assert_matches_golden(id: &str, timed: bool) {
    let table = run_experiment(id, Scale::Quick).unwrap_or_else(|e| panic!("{id} quick: {e}"));
    let projection = deterministic_projection(&table, timed);
    let path = golden_path(&format!("{id}_quick.txt"));
    if std::env::var_os("EDGELLM_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &projection).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with EDGELLM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        projection,
        golden,
        "deterministic report cells drifted from {}; if the change is \
         intentional, regenerate with EDGELLM_UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn t1_quick_matches_snapshot() {
    assert_matches_golden("t1", true);
}

#[test]
fn t3_quick_matches_snapshot() {
    assert_matches_golden("t3", true);
}

#[test]
fn f2_quick_matches_snapshot() {
    assert_matches_golden("f2", false);
}

#[test]
fn f3_quick_matches_snapshot() {
    assert_matches_golden("f3", false);
}

#[test]
fn f5_quick_matches_snapshot() {
    assert_matches_golden("f5", false);
}

#[test]
fn a1_quick_matches_snapshot() {
    assert_matches_golden("a1", true);
}

#[test]
fn a2_quick_matches_snapshot() {
    assert_matches_golden("a2", false);
}

#[test]
fn a3_quick_matches_snapshot() {
    assert_matches_golden("a3", false);
}

#[test]
fn report_binary_refuses_unknown_and_repeated_flags() {
    // `report --quik` used to warn and then run every table at full scale
    for args in [&["--quik"][..], &["--quick", "--t1", "--quick"], &["t1"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("spawn report");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[args.len() - 1]), "{args:?}: {stderr}");
    }
}
