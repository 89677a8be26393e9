//! "Who creates threads?" has a one-sentence answer — `pool::fan_out` —
//! and this scan keeps it true: non-test code under `crates/*/src` may
//! name `thread::scope`, `thread::spawn` or `mpsc` only in
//! `crates/tensor/src/pool.rs`, and there exactly once.

use std::path::{Path, PathBuf};

const NEEDLES: [&str; 3] = ["thread::scope", "thread::spawn", "mpsc"];
const POOL: &str = "tensor/src/pool.rs";

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

/// `(needle, line number)` of every hit in a file's product code: the
/// lines before its first `#[cfg(test)]`, comments skipped.
fn hits(source: &str) -> Vec<(&'static str, usize)> {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .flat_map(|(i, line)| {
            let found = NEEDLES.iter().filter(move |n| line.contains(**n));
            found.map(move |n| (*n, i + 1))
        })
        .collect()
}

#[test]
fn threads_are_created_in_fan_out_and_nowhere_else() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    let mut pool_hits = Vec::new();
    for file in &files {
        let found = hits(&std::fs::read_to_string(file).expect("readable source"));
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
    assert_eq!(hits(source), vec![("thread::scope", 3), ("mpsc", 5)]);
}
