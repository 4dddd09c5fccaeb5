//! Doc-rot check: every backticked `semcom_<crate>::…` path in README.md,
//! DESIGN.md and EXPERIMENTS.md names items that exist.
//!
//! Each segment after the crate name must be declared somewhere under
//! `crates/<crate>/src/` as a module (`mod name`) or an item (`fn`,
//! `struct`, `enum`, `trait`, `type`, `const`, `static`). A rename that leaves a document pointing at a
//! deleted type fails here. Generic arguments (`Name<F: Frontend>`) end the
//! path.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Item keywords a segment may follow in a definition.
const KEYWORDS: [&str; 8] = [
    "mod ", "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ",
];

/// Every `semcom_*::…` path that opens a backticked span of `text` outside
/// fenced code blocks, cut at the first character that cannot belong to a
/// path.
fn backticked_paths(text: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: String = text
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect::<Vec<_>>()
        .join("\n");
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.starts_with("semcom_"))
        .map(|span| {
            span.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == ':')
                .collect::<String>()
        })
        .filter(|path| path.contains("::"))
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `sources` define `name` as an item or declare it as a module.
fn defines(sources: &[String], name: &str) -> bool {
    let is_item = |line: &str| {
        KEYWORDS.iter().any(|k| {
            line.split(k).skip(1).any(|rest| {
                rest.strip_prefix(name).is_some_and(|tail| {
                    !tail.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            })
        })
    };
    sources.iter().any(|s| s.lines().any(is_item))
}

#[test]
fn every_documented_crate_path_names_an_existing_item() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("readable document");
        for path in backticked_paths(&text) {
            let mut segments = path.split("::").filter(|s| !s.is_empty());
            let krate = segments.next().expect("a crate segment");
            let src = root
                .join("crates")
                .join(krate.trim_start_matches("semcom_"))
                .join("src");
            if !src.is_dir() {
                missing.push(format!("{doc}: `{path}`: no crate directory {src:?}"));
                continue;
            }
            let mut files = Vec::new();
            rust_files(&src, &mut files);
            let sources: Vec<String> = files
                .iter()
                .map(|f| fs::read_to_string(f).expect("readable source"))
                .collect();
            for name in segments {
                if !defines(&sources, name) {
                    missing.push(format!("{doc}: `{path}`: no `{name}` in {src:?}"));
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} documented paths found");
    assert!(missing.is_empty(), "stale documented paths: {missing:#?}");
}

#[test]
fn path_extraction_stops_at_generics_and_skips_bare_crates_and_code_blocks() {
    let text = "see `semcom_codec::KnowledgeBase<F>` and `semcom_par` or `x::y`\n\
                ```\nuse semcom_nn::Tensor;\n```\n`semcom_nn::quant`";
    assert_eq!(
        backticked_paths(text),
        ["semcom_codec::KnowledgeBase", "semcom_nn::quant"]
    );
}
