#!/usr/bin/env bash
# cb-lint: token-level concurrency linter for the whole workspace.
# See crates/lint/src/rules.rs for the rule set (L002, L004–L006, L008,
# L009) and escape syntax; L001, L003 and L007 are compiler lints, run by
# `cargo clippy --all-targets -- -D warnings`.
# Exit 0 = clean, 1 = violations, 2 = usage/IO error.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run -q -p lint -- "$@"
