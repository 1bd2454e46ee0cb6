//! The documents name files that exist.
//!
//! Every backticked repository path in README.md, DESIGN.md,
//! EXPERIMENTS.md and the verify skill must be in the tree. A path here
//! is an inline code span that starts with one of [`ROOTS`]. Globs and
//! brace lists are skipped, and so are the journals a sweep or figure
//! run writes (`*.journal.jsonl`), which exist only once a run made
//! them. `benchmark/README.md` is left out: it is the benchmark's own
//! and names paths relative to `benchmark/`.

use std::path::Path;

/// The documents checked, relative to the repository root.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// The prefixes that make a code span a repository path.
const ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "examples/",
    "src/",
    "results/",
    "vendor/",
    ".github/",
];

/// The inline code spans of `text` outside fenced blocks, with their
/// line numbers. A span opens and closes on one line.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2).map(|s| (i + 1, s)));
        }
    }
    spans
}

/// Whether the code span `span` names a repository path to check.
fn is_checked_path(span: &str) -> bool {
    ROOTS.iter().any(|root| span.starts_with(root))
        && !span.contains(['*', '{', '}'])
        && !span.ends_with(".journal.jsonl")
}

#[test]
fn every_path_the_documents_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for (line, span) in code_spans(&text) {
            if !is_checked_path(span) {
                continue;
            }
            checked += 1;
            if !root.join(span).exists() {
                missing.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(checked > 0, "no paths found: the scan is broken");
    assert!(
        missing.is_empty(),
        "documents name missing paths: {missing:#?}"
    );
}
