//! The six cb-lint rules, as patterns over the [`crate::lexer`] stream.
//! They are the rules no compiler knows: each reads a comment, a document
//! or the whole tree, or is scoped by crate in a way one clippy list cannot
//! express.
//!
//! | rule | meaning |
//! |------|---------|
//! | L002 | every long-lived `Mutex`/`RwLock` field declares `// lock-rank: <N> <name>` (the sanitizer's hierarchy contract) |
//! | L004 | every `pub` field of every `pub struct *Config` appears in ARCHITECTURE.md's per-knob index |
//! | L005 | no `.unwrap()`/`.expect(…)` on channel/lock results in non-test code |
//! | L006 | no `thread::spawn`/`thread::Builder` outside `crates/runtime` — actors and fabric deliveries run on the shared work-stealing pool |
//! | L008 | every config knob is set to a non-default value somewhere (product, tests, examples or the benchmark); a knob nothing varies is a constant — delete or derive it |
//! | L009 | no `HashMap<Key, …>`/`HashSet<Key>` with the default hasher in product code — use `KeyMap`/`KeySet`, which bucket by the hash the key already carries |
//!
//! The numbers L001, L003 and L007 are retired; the compiler checks those
//! rules by resolved path. `clippy.toml` bans `std::sync::{Mutex, RwLock}`
//! (L001, `disallowed_types`) and `Instant::now`/`SystemTime::now` (L003,
//! `disallowed_methods`); every crate outside `vendor/` but `crates/runtime`
//! forbids `unsafe_code`, and the runtime denies
//! `clippy::undocumented_unsafe_blocks` (L007). See the `[lints]` tables in
//! the `Cargo.toml`s.
//!
//! ## Escapes
//!
//! A violation is suppressed by an inline `//` comment (not a doc comment)
//! on the same line or the line(s) immediately above the offending code:
//!
//! ```text
//! // lint: allow(L005): reason the exception is sound
//! ```
//!
//! The reason is mandatory, and the escape must name rules of [`RULES`]:
//! an escape without a reason, or naming a rule that does not exist (a
//! typo, or a retired number), is itself an `L000` violation. L006 takes
//! no escape at all: a new component must be an actor, so an L006 escape
//! in a product crate is itself a violation. Structural exemptions are
//! limited to: test code (files under `tests/`, `#[cfg(test)]` regions)
//! for L002/L005/L006/L009; `crates/bench` for L006 and L009 (its load
//! drivers model external clients that by definition live off the pool);
//! and `crates/runtime` for L006 (it *is* the thread layer everything else
//! is forbidden from reimplementing).

use crate::lexer::{lex, Kind, Tok};
use std::collections::{BTreeMap, BTreeSet};

/// The rules this linter defines, in report order. An escape must name
/// one of them.
pub const RULES: [&str; 6] = ["L002", "L004", "L005", "L006", "L008", "L009"];

/// One reported violation. The file path is attached by the caller.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

/// A `pub` field of a `pub struct *Config`, for the cross-file L004 and
/// L008 checks.
#[derive(Debug, Clone)]
pub struct ConfigField {
    pub strukt: String,
    pub field: String,
    pub line: u32,
    /// Whether an L008 escape argues the declaration (a knob kept although
    /// nothing varies it).
    pub escaped: bool,
}

/// A place a config knob is given a value other than its default (see
/// [`FileCtx::knob_sets`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobSet {
    /// `<expr>.field = …`: the receiver's type is unknown at token level,
    /// so this counts for a field of that name on every Config struct.
    Field(String),
    /// `field: …` or shorthand `field` in a literal of `strukt`.
    Literal { strukt: String, field: String },
}

/// An `impl` block's body span (code indices) and what it implements.
struct ImplBlock {
    open: usize,
    close: usize,
    self_ty: String,
    is_default: bool,
}

/// Everything the per-file rules need, computed once per file.
pub struct FileCtx {
    /// Repo-relative path with forward slashes (`crates/net/src/transport.rs`).
    pub path: String,
    toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
    /// line → comment texts on that line.
    comments: BTreeMap<u32, Vec<String>>,
    /// Lines containing at least one code token.
    code_lines: BTreeSet<u32>,
    /// Lines whose first code token is `#` (attribute lines).
    attr_lines: BTreeSet<u32>,
    /// Line ranges (inclusive) of `#[cfg(test)]` items.
    test_regions: Vec<(u32, u32)>,
    /// rule → lines where an allow escape applies.
    allows: BTreeMap<String, BTreeSet<u32>>,
    /// Every well-formed escape: (rule, line of the escape comment).
    escapes: Vec<(String, u32)>,
    /// Malformed escapes, already phrased as `L000` violations.
    bad_escapes: Vec<Violation>,
}

impl FileCtx {
    pub fn new(path: &str, src: &str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();

        let mut comments: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        let mut code_lines = BTreeSet::new();
        let mut attr_lines = BTreeSet::new();
        for t in &toks {
            if t.is_comment() {
                comments.entry(t.line).or_default().push(t.text.clone());
            } else {
                if !code_lines.contains(&t.line) && t.is_punct('#') {
                    attr_lines.insert(t.line);
                }
                code_lines.insert(t.line);
            }
        }

        let mut ctx = FileCtx {
            path: path.to_string(),
            toks,
            code,
            comments,
            code_lines,
            attr_lines,
            test_regions: Vec::new(),
            allows: BTreeMap::new(),
            escapes: Vec::new(),
            bad_escapes: Vec::new(),
        };
        ctx.find_test_regions();
        ctx.find_allows();
        ctx
    }

    fn ct(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    fn code_len(&self) -> usize {
        self.code.len()
    }

    /// `#[cfg(test)] <item> { … }` regions, by line span.
    fn find_test_regions(&mut self) {
        let n = self.code_len();
        let mut i = 0;
        while i + 3 < n {
            // Match `# [ cfg ( … test … ) ]`.
            if self.ct(i).is_punct('#')
                && self.ct(i + 1).is_punct('[')
                && self.ct(i + 2).is_ident("cfg")
                && self.ct(i + 3).is_punct('(')
            {
                let start_line = self.ct(i).line;
                // Scan the attribute group for the ident `test`.
                let mut j = i + 4;
                let mut depth = 1usize;
                let mut has_test = false;
                while j < n && depth > 0 {
                    let t = self.ct(j);
                    if t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct(')') {
                        depth -= 1;
                    } else if depth == 1 && t.is_ident("test") {
                        has_test = true;
                    }
                    j += 1;
                }
                // Expect the closing `]`.
                if has_test && j < n && self.ct(j).is_punct(']') {
                    j += 1;
                    // Skip further attributes on the same item.
                    while j + 1 < n && self.ct(j).is_punct('#') && self.ct(j + 1).is_punct('[') {
                        let mut d = 0usize;
                        j += 1;
                        while j < n {
                            if self.ct(j).is_punct('[') {
                                d += 1;
                            } else if self.ct(j).is_punct(']') {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                    // The item body: first `{` before any top-level `;`.
                    let mut k = j;
                    let mut found_body = None;
                    while k < n {
                        let t = self.ct(k);
                        if t.is_punct('{') {
                            found_body = Some(k);
                            break;
                        }
                        if t.is_punct(';') {
                            break; // e.g. `#[cfg(test)] mod tests;`
                        }
                        k += 1;
                    }
                    if let Some(open) = found_body {
                        let mut d = 0usize;
                        let mut m = open;
                        while m < n {
                            if self.ct(m).is_punct('{') {
                                d += 1;
                            } else if self.ct(m).is_punct('}') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            m += 1;
                        }
                        let end_line = if m < n { self.ct(m).line } else { u32::MAX };
                        self.test_regions.push((start_line, end_line));
                        i = m;
                    }
                }
            }
            i += 1;
        }
    }

    /// Parse `lint: allow(LXXX[, LYYY]): reason` escapes out of comments.
    /// An escape covers its own line and the next line with code on it.
    /// Doc comments (`///`, `//!`) document escapes; they never are one.
    /// An escape with no rule, no reason or a rule outside [`RULES`] is
    /// recorded as a violation and covers nothing.
    fn find_allows(&mut self) {
        const MALFORMED: &str = "lint escape must name rule(s) and give a reason: \
                                 `// lint: allow(LXXX): why this site is sound`";
        let entries: Vec<(u32, String)> = self
            .comments
            .iter()
            .flat_map(|(&line, texts)| texts.iter().map(move |t| (line, t.clone())))
            .filter(|(_, t)| !t.starts_with('/') && !t.starts_with('!'))
            .collect();
        for (line, text) in entries {
            let Some(at) = text.find("lint: allow(") else {
                continue;
            };
            let rest = &text[at + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else {
                self.bad_escape(line, MALFORMED.into());
                continue;
            };
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let after = rest[close + 1..].trim_start();
            let reason_ok = after.starts_with(':') && !after[1..].trim().is_empty();
            if rules.is_empty() || !reason_ok {
                self.bad_escape(line, MALFORMED.into());
                continue;
            }
            if let Some(r) = rules.iter().find(|r| !RULES.contains(&r.as_str())) {
                let msg = format!(
                    "lint escape names `{r}`, which is no cb-lint rule (it defines {})",
                    RULES.join(", ")
                );
                self.bad_escape(line, msg);
                continue;
            }
            let mut covered: BTreeSet<u32> = BTreeSet::new();
            covered.insert(line);
            if let Some(&next_code) = self.code_lines.iter().find(|&&l| l > line) {
                covered.insert(next_code);
            }
            for r in rules {
                self.allows
                    .entry(r.clone())
                    .or_default()
                    .extend(covered.iter());
                self.escapes.push((r, line));
            }
        }
    }

    fn bad_escape(&mut self, line: u32, msg: String) {
        self.bad_escapes.push(Violation {
            line,
            rule: "L000",
            msg,
        });
    }

    /// Escapes in non-test code, per rule — the number of argued
    /// exceptions each rule carries.
    pub fn escape_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for (rule, line) in &self.escapes {
            if !self.in_test(*line) {
                *counts.entry(rule.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(rule).is_some_and(|s| s.contains(&line))
    }

    /// True inside a `#[cfg(test)]` region or a test-only file.
    fn in_test(&self, line: u32) -> bool {
        self.is_test_file()
            || self
                .test_regions
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }

    fn is_test_file(&self) -> bool {
        self.path.split('/').any(|c| c == "tests") || self.path.ends_with("_test.rs")
    }

    fn is_bench_crate(&self) -> bool {
        self.path.starts_with("crates/bench/")
    }

    /// Malformed escapes are violations in their own right: the whole
    /// point of per-site escapes is that each one argues its case, for a
    /// rule that exists.
    pub fn escape_violations(&self) -> Vec<Violation> {
        self.bad_escapes.clone()
    }

    fn report(&self, out: &mut Vec<Violation>, rule: &'static str, line: u32, msg: String) {
        if !self.allowed(rule, line) {
            out.push(Violation { line, rule, msg });
        }
    }

    // ---------------------------------------------------------------- L002

    /// Every `Mutex`/`RwLock` struct field (or enum-variant payload) must
    /// carry a `// lock-rank: <N> <name>` annotation. The annotation is the
    /// human-readable half of the contract the sanitizer enforces at
    /// runtime; a lock without one is a lock nobody placed in the
    /// hierarchy.
    pub fn l002_lock_rank(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let n = self.code_len();
        let mut i = 0;
        while i < n {
            let t = self.ct(i);
            if (t.is_ident("struct") || t.is_ident("enum")) && i + 1 < n {
                if let Some(next) = self.body_of_item(i) {
                    self.check_body_fields(next, &mut out);
                    i = next.1; // resume after the body
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    /// For an item starting at `struct`/`enum` keyword index `ki`, find its
    /// body `{…}` or tuple `(…)` span as (open, close) code indices.
    /// Returns None for unit structs / items without a body.
    fn body_of_item(&self, ki: usize) -> Option<(usize, usize)> {
        let n = self.code_len();
        let mut j = ki + 1;
        // Scan the header for the first `{`, `(`, or `;` outside generics.
        let mut angle = 0i32;
        while j < n {
            let t = self.ct(j);
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // Don't let `->` in fn-pointer generic args close an angle.
                if !(j > 0 && self.ct(j - 1).is_punct('-')) {
                    angle -= 1;
                }
            } else if angle <= 0 {
                if t.is_punct(';') {
                    return None;
                }
                if t.is_punct('{') || t.is_punct('(') {
                    break;
                }
            }
            j += 1;
        }
        if j >= n {
            return None;
        }
        let (open_c, close_c) = if self.ct(j).is_punct('{') {
            ('{', '}')
        } else {
            ('(', ')')
        };
        let mut d = 0usize;
        let mut k = j;
        while k < n {
            let t = self.ct(k);
            if t.is_punct(open_c) {
                d += 1;
            } else if t.is_punct(close_c) {
                d -= 1;
                if d == 0 {
                    return Some((j, k));
                }
            }
            k += 1;
        }
        None
    }

    /// Split a struct/enum body into top-level comma-separated chunks and
    /// flag any chunk whose type tokens mention `Mutex`/`RwLock` but whose
    /// attached comments lack a `lock-rank:` annotation.
    fn check_body_fields(&self, (open, close): (usize, usize), out: &mut Vec<Violation>) {
        let mut chunk_start = open + 1;
        let mut depth = 0i32; // (), [], {} nesting inside the body
        let mut angle = 0i32;
        let mut j = open + 1;
        while j <= close {
            let t = self.ct(j);
            let at_end = j == close;
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && self.ct(j - 1).is_punct('-')) {
                angle -= 1;
            }
            let chunk_ends = at_end || (t.is_punct(',') && depth <= 0 && angle <= 0);
            if chunk_ends {
                if chunk_start < j {
                    self.check_field_chunk(chunk_start, j, out);
                }
                chunk_start = j + 1;
                angle = 0;
            }
            j += 1;
        }
    }

    fn check_field_chunk(&self, start: usize, end: usize, out: &mut Vec<Violation>) {
        // Does the chunk mention a lock type at all?
        let mut lock_tok: Option<&Tok> = None;
        let mut name: Option<&str> = None;
        let mut seen_colon_at_zero = false;
        let mut depth = 0i32;
        let mut angle = 0i32;
        for j in start..end {
            let t = self.ct(j);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && self.ct(j - 1).is_punct('-')) {
                angle -= 1;
            } else if t.is_punct(':')
                && depth == 0
                && angle == 0
                && !seen_colon_at_zero
                // `::` paths: a colon adjacent to another colon isn't the
                // field separator.
                && !(j + 1 < end && self.ct(j + 1).is_punct(':'))
                && !(j > start && self.ct(j - 1).is_punct(':'))
            {
                seen_colon_at_zero = true;
                // Field name = last ident before the separating colon.
                name = (start..j)
                    .rev()
                    .map(|k| self.ct(k))
                    .find(|u| u.kind == Kind::Ident)
                    .map(|u| u.text.as_str());
            } else if (t.is_ident("Mutex") || t.is_ident("RwLock")) && lock_tok.is_none() {
                lock_tok = Some(t);
            }
        }
        let Some(lock) = lock_tok else { return };
        let first_line = self.ct(start).line;
        let last_line = self.ct(end.saturating_sub(1)).line.max(first_line);
        if self.in_test(first_line) {
            return;
        }
        if self.has_lock_rank_annotation(first_line, last_line) {
            return;
        }
        let label = name.unwrap_or("<variant>");
        self.report(
            out,
            "L002",
            first_line,
            format!(
                "field `{}` holds a {} but has no `// lock-rank: <N> <name>` annotation \
                 (and the matching `::ranked(N, \"name\", …)` constructor)",
                label, lock.text
            ),
        );
    }

    /// Look for `lock-rank: <digits> <name>` in comments trailing the field
    /// lines or in the contiguous comment/attribute block above it.
    fn has_lock_rank_annotation(&self, first_line: u32, last_line: u32) -> bool {
        let check = |line: u32| -> bool {
            self.comments
                .get(&line)
                .is_some_and(|cs| cs.iter().any(|c| comment_has_lock_rank(c)))
        };
        for l in first_line..=last_line {
            if check(l) {
                return true;
            }
        }
        // Walk upward through pure-comment and attribute lines.
        let mut l = first_line.saturating_sub(1);
        while l >= 1 {
            let has_code = self.code_lines.contains(&l);
            let is_attr = self.attr_lines.contains(&l);
            let has_comment = self.comments.contains_key(&l);
            if has_code && !is_attr {
                break;
            }
            if check(l) {
                return true;
            }
            if !has_code && !has_comment {
                break; // blank line ends the attached block
            }
            l -= 1;
        }
        false
    }

    // ---------------------------------------------------------------- L004

    /// Collect `pub` fields of `pub struct *Config` items. The cross-file
    /// check against ARCHITECTURE.md happens in `main`.
    pub fn l004_config_fields(&self) -> Vec<ConfigField> {
        let mut out = Vec::new();
        let n = self.code_len();
        for i in 0..n {
            if !self.ct(i).is_ident("struct") {
                continue;
            }
            // `pub struct` (possibly `pub(crate) struct` — skip those, the
            // knob index documents the public surface).
            if i == 0 || !self.ct(i - 1).is_ident("pub") {
                continue;
            }
            let Some(name_tok) = (i + 1 < n).then(|| self.ct(i + 1)) else {
                continue;
            };
            if name_tok.kind != Kind::Ident || !name_tok.text.ends_with("Config") {
                continue;
            }
            if self.in_test(name_tok.line) {
                continue;
            }
            let Some((open, close)) = self.body_of_item(i) else {
                continue;
            };
            if !self.ct(open).is_punct('{') {
                continue; // tuple Config structs have no named knobs
            }
            // Find `pub <ident> :` at field level.
            let mut depth = 0i32;
            let mut angle = 0i32;
            for j in open + 1..close {
                let t = self.ct(j);
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') && !self.ct(j - 1).is_punct('-') {
                    angle -= 1;
                } else if depth == 0
                    && angle == 0
                    && t.is_ident("pub")
                    && j + 2 < close
                    && self.ct(j + 1).kind == Kind::Ident
                    && self.ct(j + 2).is_punct(':')
                    && !(j + 3 < close && self.ct(j + 3).is_punct(':'))
                {
                    let line = self.ct(j + 1).line;
                    out.push(ConfigField {
                        strukt: name_tok.text.clone(),
                        field: self.ct(j + 1).text.clone(),
                        line,
                        escaped: self.allowed("L008", line),
                    });
                }
            }
        }
        out
    }

    // ----------------------------------------------------- knob audit

    /// Places this file sets a config knob: `<expr>.field = …` (or a
    /// compound assignment), and `field: …` or shorthand `field` inside a
    /// `FooConfig { … }` literal — or a `Self { … }` literal in an `impl`
    /// of `FooConfig`.
    /// Literals inside `impl Default for FooConfig` are the declaration of
    /// the defaults, not a variation, and are skipped. Type-blind: an
    /// assignment through a field access marks that field name on every
    /// Config struct, so L008 can only under-report.
    pub fn knob_sets(&self) -> Vec<KnobSet> {
        let n = self.code_len();
        let impls = self.impl_blocks();
        let mut out = Vec::new();
        for i in 1..n {
            let t = self.ct(i);
            if t.kind != Kind::Ident {
                continue;
            }
            if self.ct(i - 1).is_punct('.') && self.is_assignment_after(i) {
                out.push(KnobSet::Field(t.text.clone()));
                continue;
            }
            if !(i + 1 < n && self.ct(i + 1).is_punct('{')) {
                continue;
            }
            // `struct FooConfig {`, `impl … for FooConfig {` and a fn body
            // after `-> Self` open items or bodies, not literals.
            let prev = self.ct(i - 1);
            if prev.is_ident("struct")
                || prev.is_ident("enum")
                || prev.is_ident("trait")
                || prev.is_ident("impl")
                || prev.is_ident("for")
                || prev.is_punct('>')
            {
                continue;
            }
            let enclosing = impls
                .iter()
                .filter(|b| b.open < i && i < b.close)
                .max_by_key(|b| b.open);
            let strukt = match t.text.as_str() {
                "Self" => match enclosing {
                    Some(b) => b.self_ty.clone(),
                    None => continue,
                },
                name if name.ends_with("Config") => name.to_string(),
                _ => continue,
            };
            if enclosing.is_some_and(|b| b.is_default && b.self_ty == strukt) {
                continue;
            }
            let Some(close) = self.matching_close(i + 1) else {
                continue;
            };
            let mut depth = 0i32;
            for j in i + 2..close {
                let f = self.ct(j);
                if f.is_punct('(') || f.is_punct('[') || f.is_punct('{') {
                    depth += 1;
                } else if f.is_punct(')') || f.is_punct(']') || f.is_punct('}') {
                    depth -= 1;
                } else if depth == 0
                    && f.kind == Kind::Ident
                    && (self.ct(j - 1).is_punct('{') || self.ct(j - 1).is_punct(','))
                    && ((self.ct(j + 1).is_punct(':') && !self.ct(j + 2).is_punct(':'))
                        || self.ct(j + 1).is_punct(',')
                        || j + 1 == close)
                {
                    out.push(KnobSet::Literal {
                        strukt: strukt.clone(),
                        field: f.text.clone(),
                    });
                }
            }
        }
        out
    }

    /// Whether the field access ending at code token `i` is the target of
    /// `=` or a compound assignment (`+=`, `|=`, …), not a comparison.
    fn is_assignment_after(&self, i: usize) -> bool {
        let n = self.code_len();
        let mut j = i + 1;
        if j < n && "+-*/%|&^".chars().any(|c| self.ct(j).is_punct(c)) {
            j += 1;
        }
        j + 1 < n
            && self.ct(j).is_punct('=')
            && !self.ct(j + 1).is_punct('=')
            && !self.ct(j + 1).is_punct('>')
    }

    /// The code index of the `}` closing the `{` at code index `open`.
    fn matching_close(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for k in open..self.code_len() {
            if self.ct(k).is_punct('{') {
                depth += 1;
            } else if self.ct(k).is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        None
    }

    /// Every `impl` block: its body's code span, the implementing type's
    /// name (last path segment, generics dropped) and whether it is an
    /// `impl Default for …`.
    fn impl_blocks(&self) -> Vec<ImplBlock> {
        let n = self.code_len();
        let mut out = Vec::new();
        for i in 0..n {
            if !self.ct(i).is_ident("impl") {
                continue;
            }
            let mut angle = 0i32;
            let mut last_ident: Option<&str> = None;
            let mut trait_name: Option<&str> = None;
            let mut j = i + 1;
            while j < n {
                let t = self.ct(j);
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') && !self.ct(j - 1).is_punct('-') {
                    angle -= 1;
                } else if angle == 0 {
                    if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                        break;
                    }
                    if t.is_ident("for") {
                        trait_name = last_ident;
                    } else if t.kind == Kind::Ident {
                        last_ident = Some(&t.text);
                    }
                }
                j += 1;
            }
            let Some(self_ty) = last_ident else {
                continue;
            };
            let Some(open) = (j..n).find(|&k| self.ct(k).is_punct('{')) else {
                continue;
            };
            let Some(close) = self.matching_close(open) else {
                continue;
            };
            out.push(ImplBlock {
                open,
                close,
                self_ty: self_ty.to_string(),
                is_default: trait_name == Some("Default"),
            });
        }
        out
    }

    // ---------------------------------------------------------------- L005

    /// `.unwrap()`/`.expect(…)` directly on a channel or lock operation in
    /// non-test code turns a peer shutting down into a panic in an
    /// unrelated thread. Handle the `Err`/`None` (usually: shut down
    /// quietly) or argue the exception inline.
    pub fn l005_channel_unwraps(&self) -> Vec<Violation> {
        const METHODS: &[&str] = &[
            "send",
            "try_send",
            "recv",
            "try_recv",
            "recv_timeout",
            "recv_deadline",
            "lock",
            "try_lock",
            "try_read",
            "try_write",
        ];
        let mut out = Vec::new();
        let n = self.code_len();
        for i in 2..n {
            let t = self.ct(i);
            if !(t.is_ident("unwrap") || t.is_ident("expect")) || !self.ct(i - 1).is_punct('.') {
                continue;
            }
            // Walk back over the receiver's argument list: `meth ( … )`.
            if !self.ct(i - 2).is_punct(')') {
                continue;
            }
            let mut d = 0usize;
            let mut k = i - 2;
            loop {
                if self.ct(k).is_punct(')') {
                    d += 1;
                } else if self.ct(k).is_punct('(') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return out; // unbalanced; give up on this file
                }
                k -= 1;
            }
            if k < 2 {
                continue;
            }
            let meth = self.ct(k - 1);
            if meth.kind == Kind::Ident
                && METHODS.contains(&meth.text.as_str())
                && self.ct(k - 2).is_punct('.')
            {
                if self.in_test(t.line) {
                    continue;
                }
                self.report(
                    &mut out,
                    "L005",
                    t.line,
                    format!(
                        "`.{}(…).{}()` on a channel/lock result panics on disconnect; \
                         handle the failure or argue the exception inline",
                        meth.text, t.text
                    ),
                );
            }
        }
        out
    }

    // ---------------------------------------------------------------- L006

    /// No raw OS threads in product crates. Actors are mailbox-driven and
    /// run on the shared work-stealing pool (`cloudburst_runtime::Runtime`),
    /// which is what keeps actor count decoupled from thread count — a
    /// stray `thread::spawn` reintroduces exactly the thread-per-actor
    /// scaling wall the runtime exists to remove. Structurally exempt:
    /// `crates/runtime` (the pool itself, whose timer heap also carries
    /// the fabric's deliveries), `crates/bench` (load drivers model
    /// external clients), and test code. Nothing else can argue its way
    /// out: an L006 escape is reported as a violation of its own, and does
    /// not suppress the spawn it sits on.
    pub fn l006_thread_spawns(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.path.starts_with("crates/runtime/") || self.is_bench_crate() {
            return out;
        }
        for (rule, line) in &self.escapes {
            if rule == "L006" && !self.in_test(*line) {
                out.push(Violation {
                    line: *line,
                    rule: "L006",
                    msg: "L006 takes no escape: a new component must be an actor on the \
                          shared runtime pool"
                        .into(),
                });
            }
        }
        let n = self.code_len();
        for i in 3..n {
            let t = self.ct(i);
            // `thread :: spawn` and `thread :: Builder` (the latter catches
            // every `Builder::new().name(…).spawn(…)` chain at its root,
            // including the `use std::thread::Builder;` import form).
            let hit = (t.is_ident("spawn") || t.is_ident("Builder"))
                && self.ct(i - 1).is_punct(':')
                && self.ct(i - 2).is_punct(':')
                && self.ct(i - 3).is_ident("thread");
            if !hit || self.in_test(t.line) {
                continue;
            }
            out.push(Violation {
                line: t.line,
                rule: "L006",
                msg: format!(
                    "`thread::{}` spawns a raw OS thread; product actors run on the \
                     shared runtime pool (`cloudburst_runtime::Runtime::start`) so \
                     actor count stays decoupled from thread count",
                    t.text
                ),
            });
        }
        out
    }

    // ---------------------------------------------------------------- L009

    /// One way to key a map by `Key`: a `HashMap<Key, V>` or `HashSet<Key>`
    /// with the default hasher SipHashes the key text on every lookup,
    /// although the key already carries its hash. Product code names
    /// `KeyMap<V>`/`KeySet` instead. A map that names its own hasher
    /// (`HashMap<Key, V, S>`) is not this rule's business. Test code and
    /// `crates/bench` are exempt.
    pub fn l009_key_maps(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.is_bench_crate() {
            return out;
        }
        let n = self.code_len();
        for i in 0..n {
            let t = self.ct(i);
            let (want_args, alias) = if t.is_ident("HashMap") {
                (2, "KeyMap<V>")
            } else if t.is_ident("HashSet") {
                (1, "KeySet")
            } else {
                continue;
            };
            if self.in_test(t.line) {
                continue;
            }
            // `HashMap<…>` or the turbofish `HashMap::<…>`.
            let mut j = i + 1;
            if j + 1 < n && self.ct(j).is_punct(':') && self.ct(j + 1).is_punct(':') {
                j += 2;
            }
            if j >= n || !self.ct(j).is_punct('<') {
                continue;
            }
            // The first type argument: an optional `&`, then a path whose
            // last segment must be `Key`.
            let mut k = j + 1;
            if k < n && self.ct(k).is_punct('&') {
                k += 1;
            }
            let mut last = None;
            while k < n && self.ct(k).kind == Kind::Ident {
                last = Some(k);
                if k + 2 < n && self.ct(k + 1).is_punct(':') && self.ct(k + 2).is_punct(':') {
                    k += 3;
                } else {
                    k += 1;
                    break;
                }
            }
            if !last.is_some_and(|l| self.ct(l).is_ident("Key")) {
                continue;
            }
            // Count the top-level type arguments up to the closing `>`.
            let mut depth = 1usize;
            let mut args = 1usize;
            while k < n && depth > 0 {
                let c = self.ct(k);
                if c.is_punct('<') {
                    depth += 1;
                } else if c.is_punct('>') {
                    depth -= 1;
                } else if c.is_punct(',') && depth == 1 {
                    args += 1;
                }
                k += 1;
            }
            if args == want_args {
                self.report(
                    &mut out,
                    "L009",
                    t.line,
                    format!(
                        "`{}` keyed by `Key` with the default hasher rehashes the key text; \
                         use `{alias}`, which buckets by the hash the key carries",
                        t.text
                    ),
                );
            }
        }
        out
    }
}

/// `lock-rank:` followed by an integer rank and a non-empty name.
fn comment_has_lock_rank(c: &str) -> bool {
    let Some(at) = c.find("lock-rank:") else {
        return false;
    };
    let rest = c[at + "lock-rank:".len()..].trim_start();
    let digits: String = rest.chars().take_while(|ch| ch.is_ascii_digit()).collect();
    if digits.is_empty() {
        // `lock-rank: (caller-declared)`-style deferrals don't count as an
        // annotation; those sites must carry an explicit allow escape.
        return false;
    }
    rest[digits.len()..].split_whitespace().next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/fake/src/lib.rs", src)
    }

    // ------------------------------------------------------------- L002

    #[test]
    fn l002_flags_unannotated_field() {
        let c = ctx("struct S { state: Mutex<u32>, other: u32 }");
        let v = c.l002_lock_rank();
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("`state`"));
    }

    #[test]
    fn l002_accepts_annotation_above() {
        let c = ctx("struct S {\n\
                 /// Doc comment.\n\
                 // lock-rank: 40 cache-shard\n\
                 state: Mutex<u32>,\n\
             }");
        assert!(c.l002_lock_rank().is_empty());
    }

    #[test]
    fn l002_accepts_trailing_annotation() {
        let c = ctx("struct S { state: Mutex<u32>, // lock-rank: 7 s-state\n }");
        assert!(c.l002_lock_rank().is_empty());
    }

    #[test]
    fn l002_flags_enum_variant_payload() {
        let c = ctx("enum E { A, Direct(Arc<Mutex<Option<u32>>>), B }");
        assert_eq!(c.l002_lock_rank().len(), 1);
    }

    #[test]
    fn l002_generic_field_types_do_not_split_fields() {
        // The comma inside HashMap<K, V> must not be taken as a field
        // separator (which would orphan the annotation from the type).
        let c = ctx("struct S {\n\
                 // lock-rank: 3 s-map\n\
                 map: Mutex<HashMap<String, Vec<u8>>>,\n\
             }");
        assert!(c.l002_lock_rank().is_empty());
    }

    #[test]
    fn l002_ignores_test_code_and_guards() {
        let c = ctx(
            "#[cfg(test)]\nmod tests {\n    struct S { m: Mutex<u32> }\n}\n\
             struct T { g: MutexGuard<'static, u32> }",
        );
        assert!(c.l002_lock_rank().is_empty());
    }

    #[test]
    fn l002_rank_annotation_requires_numeric_rank() {
        let c = ctx("struct S {\n\
                 // lock-rank: (deferred)\n\
                 state: Mutex<u32>,\n\
             }");
        assert_eq!(c.l002_lock_rank().len(), 1, "non-numeric rank is no rank");
    }

    // ------------------------------------------------------------- L004

    #[test]
    fn l004_collects_pub_config_fields_only() {
        let c = ctx(
            "pub struct FooConfig { pub alpha: u32, beta: u32, pub gamma: bool }\n\
             struct PrivConfig { pub hidden: u32 }\n\
             pub struct NotAKnob { pub x: u32 }",
        );
        let fields = c.l004_config_fields();
        let names: Vec<&str> = fields.iter().map(|f| f.field.as_str()).collect();
        assert_eq!(names, ["alpha", "gamma"]);
        assert!(fields.iter().all(|f| f.strukt == "FooConfig"));
    }

    #[test]
    fn l004_fields_record_their_l008_escape() {
        let c = ctx("pub struct FooConfig {\n\
             /// Documented.\n\
             // lint: allow(L008): read by an external harness\n\
             pub alpha: u32,\n\
             pub beta: u32,\n\
             }");
        let escaped: Vec<(String, bool)> = c
            .l004_config_fields()
            .into_iter()
            .map(|f| (f.field, f.escaped))
            .collect();
        assert_eq!(
            escaped,
            [("alpha".to_string(), true), ("beta".to_string(), false)]
        );
    }

    #[test]
    fn l004_skips_test_configs() {
        let c = ctx("#[cfg(test)]\nmod tests {\n pub struct TestConfig { pub x: u32 }\n}");
        assert!(c.l004_config_fields().is_empty());
    }

    // ------------------------------------------------------- knob audit

    #[test]
    fn knob_sets_skip_the_declaration_and_default_impl() {
        let c = ctx("pub struct FooConfig { pub alpha: u32, pub beta: u32 }\n\
             impl Default for FooConfig {\n\
                 fn default() -> Self { Self { alpha: 1, beta: 2 } }\n\
             }\n\
             impl FooConfig {\n\
                 pub fn fast() -> Self { Self { alpha: 0, ..Self::default() } }\n\
             }\n\
             fn f(mut c: FooConfig, b: &mut BarConfig) -> BarConfig {\n\
                 c.gamma = 3; b.delta += 1;\n\
                 if c.alpha == 2 || c.beta != 1 || c.beta <= 4 {}\n\
                 let theta = 1;\n\
                 BarConfig { eps: vec![Pair { zeta: 1 }], theta, ..BarConfig::default() }\n\
             }");
        assert_eq!(
            c.knob_sets(),
            [
                KnobSet::Literal {
                    strukt: "FooConfig".into(),
                    field: "alpha".into()
                },
                KnobSet::Field("gamma".into()),
                KnobSet::Field("delta".into()),
                KnobSet::Literal {
                    strukt: "BarConfig".into(),
                    field: "eps".into()
                },
                KnobSet::Literal {
                    strukt: "BarConfig".into(),
                    field: "theta".into()
                },
            ]
        );
    }

    // ------------------------------------------------------------- L005

    #[test]
    fn l005_flags_channel_unwrap_and_expect() {
        let c = ctx("fn f(tx: Sender<u32>) { tx.send(1).unwrap(); tx.send(2).expect(\"x\"); }");
        assert_eq!(c.l005_channel_unwraps().len(), 2);
    }

    #[test]
    fn l005_flags_recv_and_try_lock_with_nested_args() {
        let c =
            ctx("fn f() { let v = rx.recv_timeout(dur(5, 6)).unwrap(); m.try_lock().unwrap(); }");
        assert_eq!(c.l005_channel_unwraps().len(), 2);
    }

    #[test]
    fn l005_ignores_other_unwraps_and_tests() {
        let c = ctx("fn f() { let x = parse(input).unwrap(); opt.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn g() { tx.send(1).unwrap(); } }");
        assert!(c.l005_channel_unwraps().is_empty());
    }

    #[test]
    fn l005_allow_escape() {
        let c = ctx("fn f(tx: Sender<u32>) {\n\
             // lint: allow(L005): receiver outlives all senders by construction\n\
             tx.send(1).unwrap();\n}");
        assert!(c.l005_channel_unwraps().is_empty());
    }

    // ------------------------------------------------------------- L006

    #[test]
    fn l006_flags_spawn_and_builder_in_product_code() {
        let c = ctx("fn f() { std::thread::spawn(|| {}); }\n\
             fn g() { thread::Builder::new().name(n).spawn(|| {}).unwrap(); }");
        let v = c.l006_thread_spawns();
        assert_eq!(v.len(), 2);
        assert!(v[0].msg.contains("thread::spawn"));
        assert!(v[1].msg.contains("thread::Builder"));
    }

    #[test]
    fn l006_exempts_runtime_bench_and_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        for path in [
            "crates/runtime/src/lib.rs",
            "crates/bench/src/fig7.rs",
            "crates/anna/tests/cluster.rs",
            "crates/net/tests/parallel_delivery.rs",
        ] {
            let c = FileCtx::new(path, src);
            assert!(c.l006_thread_spawns().is_empty(), "{path} must be exempt");
        }
        let c = ctx("#[cfg(test)]\nmod tests {\n fn f() { std::thread::spawn(|| {}); }\n}");
        assert!(c.l006_thread_spawns().is_empty());
    }

    #[test]
    fn l006_flags_spawns_in_the_fabric() {
        // The fabric delivers on the runtime's timer heap; it owns no
        // threads of its own any more.
        let src = "fn f() { std::thread::Builder::new().spawn(|| {}).unwrap(); }";
        let v = FileCtx::new("crates/net/src/transport.rs", src).l006_thread_spawns();
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("thread::Builder"));
    }

    #[test]
    fn l006_allow_escape_with_reason() {
        // Even a reasoned escape is refused: the spawn is still reported,
        // and so is the escape itself.
        let c = ctx("fn f() {\n\
             // lint: allow(L006): long-lived monitor loop; never scales with actors\n\
             std::thread::spawn(|| {});\n}");
        let v = c.l006_thread_spawns();
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].line, v[1].line), (2, 3));
        assert!(v[0].msg.contains("takes no escape"));
    }

    #[test]
    fn l006_escape_outside_product_scope_is_harmless() {
        let src = "fn f() {\n// lint: allow(L006): the pool itself\nstd::thread::spawn(|| {});\n}";
        let c = FileCtx::new("crates/runtime/src/lib.rs", src);
        assert!(c.l006_thread_spawns().is_empty());
        let c = ctx(&format!("#[cfg(test)]\nmod tests {{\n{src}\n}}"));
        assert!(c.l006_thread_spawns().is_empty());
    }

    // ------------------------------------------------------------ escapes

    #[test]
    fn escape_counts_are_per_rule_and_skip_tests_and_docs() {
        let c = ctx(
            "//! lint: allow(L005): documents the syntax, is not an escape\n\
             fn f() {\n\
             // lint: allow(L005): one\n\
             tx.send(1).unwrap();\n\
             // lint: allow(L005, L009): two rules, one comment\n\
             let m: HashMap<Key, u8> = tx.send(2).unwrap();\n\
             // lint: allow(L002)\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             // lint: allow(L005): test code needs no escape\n\
             }",
        );
        let counts = c.escape_counts();
        assert_eq!(counts.get("L005"), Some(&2));
        assert_eq!(counts.get("L009"), Some(&1));
        assert_eq!(
            counts.get("L002"),
            None,
            "an escape without a reason is no escape"
        );
    }

    #[test]
    fn escape_without_reason_is_a_violation() {
        let c = ctx("fn f() {\n// lint: allow(L005)\ntx.send(1).unwrap();\n}");
        assert_eq!(c.l005_channel_unwraps().len(), 1, "escape must not apply");
        let v = c.escape_violations();
        assert_eq!(v.len(), 1, "and is itself reported");
        assert_eq!((v[0].rule, v[0].line), ("L000", 2));
    }

    #[test]
    fn escape_covers_only_the_next_code_line() {
        let c = ctx("// lint: allow(L009): keyed by an external API's hash\n\
             struct S { a: HashSet<Key> }\n\
             struct T { b: HashSet<Key> }\n");
        let v = c.l009_key_maps();
        assert_eq!(v.len(), 1, "allow covers only the next code line");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn escape_naming_an_unknown_rule_is_refused() {
        // A typo, and the numbers of rules the compiler now enforces: each
        // is reported, and none suppresses anything, even beside a real rule.
        for rules in ["L03", "L001", "L003", "L007", "L005, L003"] {
            let c = ctx(&format!(
                "fn f() {{\n// lint: allow({rules}): argued\ntx.send(1).unwrap();\n}}"
            ));
            let v = c.escape_violations();
            assert_eq!(v.len(), 1, "{rules}");
            assert_eq!((v[0].rule, v[0].line), ("L000", 2));
            assert!(v[0].msg.contains("no cb-lint rule"), "{}", v[0].msg);
            assert!(c.escape_counts().is_empty(), "{rules}");
            assert_eq!(c.l005_channel_unwraps().len(), 1, "{rules}");
        }
    }

    #[test]
    fn l006_ignores_pool_spawn_and_unrelated_idents() {
        let c = ctx(
            "fn f(rt: &Runtime) { rt.spawn(\"a\", actor); scope.spawn(|| {}); \
             let b = Builder::new(); }",
        );
        assert!(c.l006_thread_spawns().is_empty());
    }

    // -------------------------------------------------------- test regions

    #[test]
    fn integration_test_paths_are_test_context() {
        let c = FileCtx::new(
            "crates/net/tests/fabric.rs",
            "fn f() { let m: HashSet<Key> = tx.send(1).unwrap(); }",
        );
        assert!(c.l005_channel_unwraps().is_empty());
        assert!(c.l009_key_maps().is_empty());
    }

    // ------------------------------------------------------------- L009

    #[test]
    fn l009_flags_default_hasher_key_maps_in_product_code() {
        let c = ctx(
            "struct S { cache: HashMap<Key, Vec<(u8, u8)>>, seen: HashSet<Key> }\n\
             fn f() { let m = HashMap::<cloudburst_lattice::Key, u32>::new(); }",
        );
        let v = c.l009_key_maps();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].msg.contains("KeyMap<V>"));
        assert!(v[1].msg.contains("KeySet"));
        assert_eq!(v[2].line, 2);
    }

    #[test]
    fn l009_allows_key_maps_other_keys_and_named_hashers() {
        let c = ctx(
            "struct S { a: KeyMap<u32>, b: KeySet, c: HashMap<VmId, KeySet>,\n\
             d: HashMap<(Key, Timestamp), u8>, e: HashMap<Key, u8, MyHasher>,\n\
             f: HashMap<KeyId, u8> }",
        );
        assert!(c.l009_key_maps().is_empty());
    }

    #[test]
    fn l009_exempts_tests_and_bench() {
        let c = ctx("#[cfg(test)]\n\
             mod tests {\n\
                 fn t() { let m: HashMap<Key, u32> = HashMap::new(); }\n\
             }");
        assert!(c.l009_key_maps().is_empty());
        for path in ["crates/core/tests/runtime.rs", "crates/bench/src/fig11.rs"] {
            let c = FileCtx::new(path, "struct S { m: HashMap<Key, u32> }");
            assert!(c.l009_key_maps().is_empty(), "{path} must be exempt");
        }
    }

    #[test]
    fn cfg_test_region_spans_nested_braces() {
        let c = ctx("fn prod() { tx.send(1).unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn a() { if x { tx.send(2).unwrap(); } }\n\
                 fn b() { tx.send(3).unwrap(); }\n\
             }");
        let v = c.l005_channel_unwraps();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }
}
