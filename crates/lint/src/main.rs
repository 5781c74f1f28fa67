//! cb-lint: the workspace concurrency linter.
//!
//! Run as `cargo run -p lint` (or `scripts/lint.sh`). Scans every `.rs`
//! file in the product tree — `crates/` and the root `src/` — and enforces
//! the seven rules documented in [`rules`]. `vendor/` and `target/` are
//! never scanned: the vendored stand-ins are third-party API surface, and
//! the sanitizer inside `vendor/parking_lot` legitimately uses `std::sync`
//! primitives to avoid recursing into itself.
//!
//! Exit status: 0 when clean, 1 when any violation is found, 2 on I/O or
//! usage errors. Output is one line per violation:
//!
//! ```text
//! L003 crates/anna/src/elastic.rs:181: `Instant::now` is ambient nondeterminism; …
//! ```
//!
//! The dynamic half of the same contract — the `CB_SANITIZE=1` lock-order
//! sanitizer — lives in `vendor/parking_lot`; the `// lock-rank:`
//! annotations this linter demands (L002) are the declared hierarchy that
//! sanitizer checks at runtime.

mod lexer;
mod rules;

use rules::{ConfigField, FileCtx, KnobSet, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The rules the summary line reports escape counts for (every one, zero
/// or not, so a count reaching zero stays visible).
const RULES: [&str; 7] = ["L001", "L002", "L003", "L004", "L005", "L006", "L007"];

fn main() {
    let root = match workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cb-lint: {e}");
            std::process::exit(2);
        }
    };
    match run(&root) {
        Ok(0) => std::process::exit(0),
        Ok(_) => std::process::exit(1),
        Err(e) => {
            eprintln!("cb-lint: {e}");
            std::process::exit(2);
        }
    }
}

/// Explicit root argument, else two levels up from this crate's manifest.
fn workspace_root() -> Result<PathBuf, String> {
    if let Some(arg) = std::env::args().nth(1) {
        let p = PathBuf::from(&arg);
        if !p.is_dir() {
            return Err(format!("not a directory: {arg}"));
        }
        return Ok(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root".into())
}

fn run(root: &Path) -> Result<usize, String> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    files.sort();

    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md"))
        .map_err(|e| format!("read ARCHITECTURE.md: {e}"))?;
    let knob_index = knob_index_section(&arch);

    let mut all: Vec<(String, Violation)> = Vec::new();
    let mut config_fields: Vec<(String, ConfigField)> = Vec::new();
    let mut knob_sets: Vec<KnobSet> = Vec::new();
    let mut escapes: BTreeMap<String, usize> = RULES.iter().map(|r| (r.to_string(), 0)).collect();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let ctx = FileCtx::new(&rel, &src);
        for v in ctx
            .escape_violations()
            .into_iter()
            .chain(ctx.l001_std_locks())
            .chain(ctx.l002_lock_rank())
            .chain(ctx.l003_nondeterminism())
            .chain(ctx.l005_channel_unwraps())
            .chain(ctx.l006_thread_spawns())
            .chain(ctx.l007_unsafe())
        {
            all.push((rel.clone(), v));
        }
        for f in ctx.l004_config_fields() {
            config_fields.push((rel.clone(), f));
        }
        knob_sets.extend(ctx.knob_sets());
        for (rule, n) in ctx.escape_counts() {
            *escapes.entry(rule).or_insert(0) += n;
        }
    }

    // L004: every pub Config field must appear, backticked, in the
    // per-knob index section of ARCHITECTURE.md.
    for (rel, f) in &config_fields {
        let struct_listed = knob_index.contains(&format!("`{}`", f.strukt));
        let field_listed = knob_index.contains(&format!("`{}`", f.field));
        if !struct_listed {
            all.push((
                rel.clone(),
                Violation {
                    line: f.line,
                    rule: "L004",
                    msg: format!(
                        "`{}` is not documented in ARCHITECTURE.md's per-knob index",
                        f.strukt
                    ),
                },
            ));
        } else if !field_listed {
            all.push((
                rel.clone(),
                Violation {
                    line: f.line,
                    rule: "L004",
                    msg: format!(
                        "knob `{}.{}` is missing from ARCHITECTURE.md's per-knob index",
                        f.strukt, f.field
                    ),
                },
            ));
        }
    }
    // …and the reverse: a `### `Name`` heading in the index that names a
    // struct no longer in the tree is documentation rot.
    let known: std::collections::BTreeSet<&str> = config_fields
        .iter()
        .map(|(_, f)| f.strukt.as_str())
        .collect();
    for heading in knob_index_struct_headings(&knob_index) {
        if heading.ends_with("Config") && !known.contains(heading.as_str()) {
            all.push((
                "ARCHITECTURE.md".into(),
                Violation {
                    line: 0,
                    rule: "L004",
                    msg: format!(
                        "per-knob index documents `{heading}` but no such pub Config struct exists"
                    ),
                },
            ));
        }
    }

    // Report-only: knobs set nowhere but their declaration and `Default`
    // impl, counting the callers outside the linted tree too.
    let mut callers = Vec::new();
    for dir in ["tests", "examples", "benchmark/src"] {
        collect_rs_files(&root.join(dir), &mut callers);
    }
    for file in &callers {
        let src =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        knob_sets.extend(FileCtx::new(&file.to_string_lossy(), &src).knob_sets());
    }
    let unvaried = never_varied(&config_fields, &knob_sets);

    all.sort_by(|a, b| (&a.0, a.1.line, a.1.rule).cmp(&(&b.0, b.1.line, b.1.rule)));
    all.dedup();
    for (rel, v) in &all {
        println!("{} {}:{}: {}", v.rule, rel, v.line, v.msg);
    }
    println!(
        "cb-lint: {} files, {} config knobs checked, escapes {}, {} violation(s)",
        files.len(),
        config_fields.len(),
        escape_summary(&escapes),
        all.len()
    );
    println!(
        "cb-lint: {} knob(s) never varied (report only): {}",
        unvaried.len(),
        unvaried.join(" ")
    );
    Ok(all.len())
}

/// `Struct.field` for every config knob that no [`KnobSet`] sets, in
/// declaration order.
fn never_varied(fields: &[(String, ConfigField)], sets: &[KnobSet]) -> Vec<String> {
    fields
        .iter()
        .filter(|(_, f)| {
            !sets.iter().any(|s| match s {
                KnobSet::Field(field) => *field == f.field,
                KnobSet::Literal { strukt, field } => *strukt == f.strukt && *field == f.field,
            })
        })
        .map(|(_, f)| format!("{}.{}", f.strukt, f.field))
        .collect()
}

/// `L001=0 L002=1 …`: escapes per rule, in rule order.
fn escape_summary(escapes: &BTreeMap<String, usize>) -> String {
    escapes
        .iter()
        .map(|(rule, n)| format!("{rule}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The `## Per-knob index` section, up to the next `## ` heading.
fn knob_index_section(arch: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in arch.lines() {
        if let Some(h) = line.strip_prefix("## ") {
            inside = h.to_lowercase().contains("per-knob index");
            continue;
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Struct names from `### `Name` — …` headings inside the knob index.
fn knob_index_struct_headings(section: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in section.lines() {
        let Some(rest) = line.strip_prefix("### `") else {
            continue;
        };
        if let Some(end) = rest.find('`') {
            out.push(rest[..end].to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCH_FIXTURE: &str = "\
# ARCHITECTURE

## Something else

`decoy` text.

## Per-knob index

### `FooConfig` — `crates/foo/src/lib.rs`

| knob | default | effect |
|---|---|---|
| `alpha` | 1 | does alpha |

### `GoneConfig` — `crates/gone/src/lib.rs`

| `old_knob` | — | … |

## After

`not_a_knob`
";

    #[test]
    fn knob_section_is_bounded_by_h2_headings() {
        let s = knob_index_section(ARCH_FIXTURE);
        assert!(s.contains("`alpha`"));
        assert!(!s.contains("`decoy`"));
        assert!(!s.contains("`not_a_knob`"));
    }

    #[test]
    fn escape_summary_lists_every_rule_in_order() {
        let mut escapes: BTreeMap<String, usize> =
            RULES.iter().map(|r| (r.to_string(), 0)).collect();
        escapes.insert("L003".into(), 28);
        assert_eq!(
            escape_summary(&escapes),
            "L001=0 L002=0 L003=28 L004=0 L005=0 L006=0 L007=0"
        );
    }

    #[test]
    fn never_varied_lists_knobs_no_site_sets() {
        let field = |strukt: &str, field: &str| {
            let f = ConfigField {
                strukt: strukt.into(),
                field: field.into(),
                line: 1,
            };
            (String::new(), f)
        };
        let fields = [
            field("FooConfig", "alpha"),
            field("FooConfig", "beta"),
            field("BarConfig", "alpha"),
            field("BarConfig", "gamma"),
        ];
        let sets = [
            KnobSet::Literal {
                strukt: "FooConfig".into(),
                field: "alpha".into(),
            },
            KnobSet::Field("gamma".into()),
        ];
        assert_eq!(
            never_varied(&fields, &sets),
            ["FooConfig.beta", "BarConfig.alpha"]
        );
    }

    #[test]
    fn struct_headings_are_extracted() {
        let s = knob_index_section(ARCH_FIXTURE);
        assert_eq!(knob_index_struct_headings(&s), ["FooConfig", "GoneConfig"]);
    }
}
