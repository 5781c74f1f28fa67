//! cb-lint: the workspace concurrency linter.
//!
//! Run as `cargo run -p lint` (or `scripts/lint.sh`). Scans every `.rs`
//! file in the product tree — `crates/` and the root `src/` — and enforces
//! the six rules documented in [`rules`]: the ones no compiler knows (the
//! retired L001, L003 and L007 are clippy and rustc lints; see there).
//! `vendor/` and `target/` are never scanned: the vendored stand-ins are
//! third-party API surface.
//!
//! Exit status: 0 when clean, 1 when any violation is found, 2 on I/O or
//! usage errors. Output is one line per violation:
//!
//! ```text
//! L005 crates/net/src/transport.rs:181: `.send(…).unwrap()` on a channel/lock result panics on disconnect; …
//! ```
//!
//! The dynamic half of the same contract — the `CB_SANITIZE=1` lock-order
//! sanitizer — lives in `vendor/parking_lot`; the `// lock-rank:`
//! annotations this linter demands (L002) are the declared hierarchy that
//! sanitizer checks at runtime.

mod lexer;
mod rules;

use rules::{ConfigField, FileCtx, KnobSet, Violation, RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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
    // Every rule's escape count, zero or not, so a count reaching zero
    // stays visible in the summary.
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
            .chain(ctx.l002_lock_rank())
            .chain(ctx.l005_channel_unwraps())
            .chain(ctx.l006_thread_spawns())
            .chain(ctx.l009_key_maps())
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
    all.extend(l004_stale_index(&knob_index, &config_fields));

    // L008: knobs set nowhere but their declaration and `Default` impl,
    // counting the callers outside the linted tree too.
    let mut callers = Vec::new();
    for dir in ["tests", "examples", "benchmark/src"] {
        collect_rs_files(&root.join(dir), &mut callers);
    }
    for file in &callers {
        let src =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        knob_sets.extend(FileCtx::new(&file.to_string_lossy(), &src).knob_sets());
    }
    all.extend(l008_never_varied(&config_fields, &knob_sets));

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
    Ok(all.len())
}

/// L004's reverse check: a `### `Name`` heading in the per-knob index
/// that names a struct no longer in the tree, or a row under a live
/// heading that names a field no longer in its struct, is documentation
/// rot.
fn l004_stale_index(section: &str, fields: &[(String, ConfigField)]) -> Vec<(String, Violation)> {
    let live = |strukt: &str| fields.iter().any(|(_, f)| f.strukt == strukt);
    let gone_structs = knob_index_struct_headings(section)
        .into_iter()
        .filter(|h| h.ends_with("Config") && !live(h))
        .map(|h| format!("per-knob index documents `{h}` but no such pub Config struct exists"));
    let gone_fields = knob_index_rows(section)
        .into_iter()
        .filter(|(s, field)| {
            live(s)
                && !fields
                    .iter()
                    .any(|(_, f)| f.strukt == *s && f.field == *field)
        })
        .map(|(s, field)| {
            format!("per-knob index documents knob `{s}.{field}` but `{s}` has no such pub field")
        });
    gone_structs
        .chain(gone_fields)
        .map(|msg| {
            let v = Violation {
                line: 0,
                rule: "L004",
                msg,
            };
            ("ARCHITECTURE.md".to_string(), v)
        })
        .collect()
}

/// L008: a knob that no [`KnobSet`] sets is a constant dressed as a knob,
/// unless an escape on its declaration argues why it stays. An escape on a
/// knob that *is* varied is stale and reported too, so the escaped set can
/// only shrink.
fn l008_never_varied(
    fields: &[(String, ConfigField)],
    sets: &[KnobSet],
) -> Vec<(String, Violation)> {
    let mut out = Vec::new();
    for (rel, f) in fields {
        let varied = sets.iter().any(|s| match s {
            KnobSet::Field(field) => *field == f.field,
            KnobSet::Literal { strukt, field } => *strukt == f.strukt && *field == f.field,
        });
        let msg = match (varied, f.escaped) {
            (false, false) => format!(
                "knob `{}.{}` is never set to a non-default value: delete or derive it",
                f.strukt, f.field
            ),
            (true, true) => format!(
                "knob `{}.{}` is varied; its L008 escape is stale",
                f.strukt, f.field
            ),
            _ => continue,
        };
        out.push((
            rel.clone(),
            Violation {
                line: f.line,
                rule: "L008",
                msg,
            },
        ));
    }
    out
}

/// `L002=1 L004=0 …`: escapes per rule, in rule order.
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

/// `(struct, field)` for every knob a table row under a `### `Name``
/// heading documents: the backticked names of the row's first cell, which
/// may list several (`` `a` / `b` ``). Header and separator rows name none.
fn knob_index_rows(section: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut strukt = None;
    for line in section.lines() {
        if line.starts_with("### ") {
            strukt = knob_index_struct_headings(line).pop();
            continue;
        }
        let (Some(strukt), Some(row)) = (&strukt, line.strip_prefix('|')) else {
            continue;
        };
        let cell = row.split('|').next().unwrap_or_default();
        for name in cell.split('`').skip(1).step_by(2) {
            out.push((strukt.clone(), name.to_string()));
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
        escapes.insert("L008".into(), 3);
        assert_eq!(
            escape_summary(&escapes),
            "L002=0 L004=0 L005=0 L006=0 L008=3 L009=0"
        );
    }

    fn field(strukt: &str, field: &str, escaped: bool) -> (String, ConfigField) {
        let f = ConfigField {
            strukt: strukt.into(),
            field: field.into(),
            line: 1,
            escaped,
        };
        ("crates/foo/src/lib.rs".into(), f)
    }

    fn flagged(violations: &[(String, Violation)]) -> Vec<&str> {
        violations
            .iter()
            .map(|(_, v)| {
                assert_eq!(v.rule, "L008");
                v.msg.split('`').nth(1).unwrap_or_default()
            })
            .collect()
    }

    #[test]
    fn never_varied_lists_knobs_no_site_sets() {
        let fields = [
            field("FooConfig", "alpha", false),
            field("FooConfig", "beta", false),
            field("BarConfig", "alpha", false),
            field("BarConfig", "gamma", false),
        ];
        let sets = [
            KnobSet::Literal {
                strukt: "FooConfig".into(),
                field: "alpha".into(),
            },
            KnobSet::Field("gamma".into()),
        ];
        assert_eq!(
            flagged(&l008_never_varied(&fields, &sets)),
            ["FooConfig.beta", "BarConfig.alpha"]
        );
    }

    #[test]
    fn l008_escape_keeps_an_unvaried_knob_and_goes_stale_once_varied() {
        let fields = [
            field("FooConfig", "kept", true),
            field("FooConfig", "varied", true),
        ];
        let sets = [KnobSet::Field("varied".into())];
        let v = l008_never_varied(&fields, &sets);
        assert_eq!(flagged(&v), ["FooConfig.varied"]);
        assert!(v[0].1.msg.contains("stale"));
    }

    #[test]
    fn l008_is_clean_when_every_knob_is_varied() {
        let fields = [field("FooConfig", "alpha", false)];
        let sets = [KnobSet::Field("alpha".into())];
        assert!(l008_never_varied(&fields, &sets).is_empty());
    }

    #[test]
    fn struct_headings_are_extracted() {
        let s = knob_index_section(ARCH_FIXTURE);
        assert_eq!(knob_index_struct_headings(&s), ["FooConfig", "GoneConfig"]);
    }

    #[test]
    fn knob_rows_are_extracted_under_their_heading() {
        let section = "\
Intro `not_a_row`.

### `FooConfig` — `crates/foo/src/lib.rs`

| knob | default | effect |
|---|---|---|
| `alpha` | `1` | does `beta` |
| `gamma` / `delta` | 1 / 2 | a pair |

### `BarConfig`

| `eps` | — | … |
";
        let rows: Vec<String> = knob_index_rows(section)
            .into_iter()
            .map(|(s, f)| format!("{s}.{f}"))
            .collect();
        assert_eq!(
            rows,
            [
                "FooConfig.alpha",
                "FooConfig.gamma",
                "FooConfig.delta",
                "BarConfig.eps"
            ]
        );
    }

    #[test]
    fn stale_index_flags_gone_structs_and_gone_fields_of_live_ones() {
        let section = knob_index_section(ARCH_FIXTURE);
        let flagged = |fields: &[(String, ConfigField)]| -> Vec<String> {
            l004_stale_index(&section, fields)
                .into_iter()
                .map(|(_, v)| {
                    assert_eq!(v.rule, "L004");
                    v.msg.split('`').nth(1).unwrap_or_default().to_string()
                })
                .collect()
        };
        // `FooConfig.alpha` is documented and live: only the gone struct.
        assert_eq!(
            flagged(&[field("FooConfig", "alpha", false)]),
            ["GoneConfig"]
        );
        // `alpha` renamed away: its row is stale too; `GoneConfig`'s rows
        // are covered by its heading.
        assert_eq!(
            flagged(&[field("FooConfig", "beta", false)]),
            ["GoneConfig", "FooConfig.alpha"]
        );
    }
}
