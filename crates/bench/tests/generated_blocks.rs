//! Every figure has exactly one generated block in `docs/results/`, and
//! every block names a figure, so no figure ships ungenerated and no block
//! outlives its figure. `scripts/figures.sh` rewrites the blocks and
//! `scripts/ci.sh` checks that rewriting them changes nothing.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use xprs_bench::figures::FIGURES;

/// Every block as `(figure name, file)`. Panics on a marker that is not
/// exactly `<!-- generated: <name> -->` or `<!-- /generated -->`, a block
/// opened inside another, a close with no open block, and a block never
/// closed.
fn blocks() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results");
    let mut blocks = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("docs/results is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|ext| ext != "md") {
            continue;
        }
        let file = path.file_name().expect("a file name").to_string_lossy().into_owned();
        let mut open: Option<String> = None;
        for (i, line) in std::fs::read_to_string(&path).expect("results file").lines().enumerate() {
            let at = format!("{file}:{}", i + 1);
            if !(line.starts_with("<!-- generated") || line.starts_with("<!-- /generated")) {
                continue;
            }
            if line == "<!-- /generated -->" {
                let name = open.take().unwrap_or_else(|| panic!("{at}: closes no open block"));
                blocks.push((name, file.clone()));
                continue;
            }
            let name = line.strip_prefix("<!-- generated: ").and_then(|rest| rest.strip_suffix(" -->"));
            let name = name
                .filter(|n| !n.is_empty() && n.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')))
                .unwrap_or_else(|| panic!("{at}: malformed marker `{line}`"));
            assert!(open.is_none(), "{at}: opens a block inside `{}`'s", open.unwrap_or_default());
            open = Some(name.to_string());
        }
        assert!(open.is_none(), "{file}: block `{}` is never closed", open.unwrap_or_default());
    }
    blocks
}

#[test]
fn every_figure_has_exactly_one_block_and_every_block_names_a_figure() {
    let blocks = blocks();
    let mut seen = BTreeSet::new();
    for (name, file) in &blocks {
        assert!(seen.insert(name.as_str()), "{file}: a second block for `{name}`");
        assert_eq!(file, &format!("{name}.md"), "`{name}`'s block belongs in docs/results/{name}.md");
    }
    let registry: BTreeSet<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    assert_eq!(seen, registry, "block names vs the figures registry");
}

#[test]
fn an_unknown_figure_fails_and_names_the_known_ones() {
    let figures = Command::new(env!("CARGO_BIN_EXE_figures")).arg("no_such_figure").output();
    let out = figures.expect("figures runs");
    assert!(!out.status.success(), "an unknown name must fail");
    assert!(out.stdout.is_empty(), "an unknown name prints no figure");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no_such_figure"), "{err}");
    for (name, _) in FIGURES {
        assert!(err.contains(name), "the usage message lists `{name}`: {err}");
    }
}
