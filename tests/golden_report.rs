//! Golden-report regression test: runs the quick-scale T1, T2, T3, F1,
//! F3, F5, A1 and A3 experiments through the library (the same code path
//! as `edgellm report --quick`), projects away wall-clock columns,
//! and compares the remaining cells against checked-in snapshots. T3
//! holds the analytic memory model beside its measured activations, every
//! voting row at a depth repeating that depth's memory cells, and F1 the
//! accuracy and Pareto frontier of its budget sweep. The eight tables are
//! built once, through one store planned for all of them, as one report
//! does; F5 and A3, whose runs T1 and A1 also read, are built again each
//! on its own, and both ways must match one snapshot.
//!
//! Every number in the snapshot is produced by seeded, fixed-order
//! arithmetic, so any drift means an algorithmic change — a kernel
//! reorder, a schedule tweak, a quantizer edit — not noise. When a
//! change is intentional, regenerate with:
//!
//! ```text
//! EDGELLM_UPDATE_GOLDEN=1 cargo test -q --test golden_report
//! ```

use edge_llm::experiments::{run_experiment, RunStore, Scale, ALL_EXPERIMENTS};
use edge_llm::report::Table;
use std::fs;
use std::path::PathBuf;
use std::sync::LazyLock;

/// Columns that measure host wall-clock time and therefore vary run to
/// run; everything else in the report is deterministic.
const NONDETERMINISTIC: &[&str] = &["iter ms", "measured speedup"];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Renders the deterministic projection of a table: the kept headers
/// and each row's kept cells, pipe-separated. `timed` says whether the
/// table carries a wall-clock column at all (T2, F3, F5 and A3 do not).
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

/// The tables with a snapshot, in report order.
const TABLES: [&str; 8] = ["t1", "t2", "t3", "f1", "f3", "f5", "a1", "a3"];

/// The quick tables `ids`, in order, through one store planned for them.
fn quick_tables(ids: &[&str]) -> Vec<Table> {
    let mut store = RunStore::new(Scale::Quick, ids);
    ids.iter()
        .map(|id| run_experiment(id, &mut store).unwrap_or_else(|e| panic!("{id} quick: {e}")))
        .collect()
}

/// Table `id` of the one quick report every test reads.
fn quick_table(id: &str) -> &'static Table {
    static REPORT: LazyLock<Vec<Table>> = LazyLock::new(|| quick_tables(&TABLES));
    let i = TABLES.iter().position(|t| *t == id);
    &REPORT[i.unwrap_or_else(|| panic!("{id} has no snapshot"))]
}

fn assert_matches_golden(id: &str, timed: bool) {
    assert_projection_matches(id, &deterministic_projection(quick_table(id), timed));
}

fn assert_projection_matches(id: &str, projection: &str) {
    let path = golden_path(&format!("{id}_quick.txt"));
    if std::env::var_os("EDGELLM_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, projection).unwrap();
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
fn every_snapshot_is_a_table_and_every_table_but_s1_has_one() {
    // S1 measures serving throughput in wall-clock and has no snapshot.
    let mut files: Vec<String> = fs::read_dir(golden_path(""))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with("_quick.txt"))
        .collect();
    files.sort();
    let mut snapshots: Vec<String> = TABLES.iter().map(|id| format!("{id}_quick.txt")).collect();
    snapshots.sort();
    assert_eq!(files, snapshots, "tests/golden holds a snapshot per table");
    let reported: Vec<&str> = ALL_EXPERIMENTS
        .into_iter()
        .filter(|id| *id != "s1")
        .collect();
    assert_eq!(
        TABLES[..],
        reported[..],
        "the report's tables but S1 have snapshots"
    );
}

#[test]
fn t1_quick_matches_snapshot() {
    assert_matches_golden("t1", true);
}

#[test]
fn t2_quick_matches_snapshot() {
    assert_matches_golden("t2", false);
}

#[test]
fn t3_quick_matches_snapshot() {
    assert_matches_golden("t3", true);
}

#[test]
fn f1_quick_matches_snapshot() {
    assert_matches_golden("f1", true);
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
fn a3_quick_matches_snapshot() {
    assert_matches_golden("a3", false);
}

#[test]
fn f5_alone_matches_snapshot() {
    let f5 = &quick_tables(&["f5"])[0];
    assert_projection_matches("f5", &deterministic_projection(f5, false));
}

#[test]
fn a3_alone_matches_snapshot() {
    let a3 = &quick_tables(&["a3"])[0];
    assert_projection_matches("a3", &deterministic_projection(a3, false));
}
