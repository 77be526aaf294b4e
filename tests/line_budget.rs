//! Line budget for the file service (`crates/fs/src`).
//!
//! ROADMAP aim 2 asks for the same numbers from fewer shapes and fewer
//! lines; a budget nobody checks is a wish. Two properties, counted
//! from the sources themselves:
//!
//! * the non-test code of `crates/fs/src/*.rs` — every line above a
//!   file's first `#[cfg(test)]` — stays within [`BUDGET`]. Raising the
//!   budget is allowed, but it is a reviewed edit of this file that says
//!   what the new lines bought, not drift;
//! * there is one scripted client: exactly one `impl Program for` among
//!   the client modules. A deployment that needs the client to go
//!   somewhere new adds an arm to its private `Route`, not a second
//!   state machine.

use std::path::Path;

/// Non-test lines `crates/fs/src` may hold: what PR 16 reached (4,791;
/// 5,133 before it), rounded up to the next 50.
const BUDGET: usize = 4_800;

/// The modules a scripted client has ever lived in.
const CLIENT_MODULES: [&str; 3] = ["client.rs", "shard.rs", "replica.rs"];

/// `(file name, its lines above the first `#[cfg(test)]`)`, per source
/// file of the crate, sorted by name.
fn non_test_sources() -> Vec<(String, Vec<String>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fs/src");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("crates/fs/src exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            let code = text
                .lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"))
                .map(str::to_string)
                .collect();
            let name = path.file_name().expect("a file").to_string_lossy();
            sources.push((name.into_owned(), code));
        }
    }
    sources.sort();
    sources
}

#[test]
fn file_service_fits_its_line_budget() {
    let sources = non_test_sources();
    assert!(sources.len() >= 10, "found only {} sources", sources.len());
    let counts: Vec<(&str, usize)> = sources
        .iter()
        .map(|(name, code)| (name.as_str(), code.len()))
        .collect();
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    assert!(
        total <= BUDGET,
        "crates/fs/src holds {total} non-test lines, over its budget of {BUDGET}: {counts:?}"
    );
}

#[test]
fn there_is_one_scripted_client() {
    let impls: Vec<String> = non_test_sources()
        .iter()
        .filter(|(name, _)| CLIENT_MODULES.contains(&name.as_str()))
        .flat_map(|(name, code)| {
            code.iter()
                .filter(|line| line.trim_start().starts_with("impl Program for"))
                .map(|line| format!("{name}: {}", line.trim()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        impls.len(),
        1,
        "the scripted clients must be one state machine: {impls:?}"
    );
}
