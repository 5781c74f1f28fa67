#!/usr/bin/env bash
# cb-lint: token-level concurrency linter for the whole workspace.
# See crates/lint/src/main.rs for the rule set (L001–L009) and escape
# syntax. Exit 0 = clean, 1 = violations, 2 = usage/IO error.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run -q -p lint -- "$@"
