#!/usr/bin/env bash
# Build the yardstick (benchmark/) of one git revision into one binary, at a
# build path that is the same for every revision.
#
# The build directory alone moves the yardstick's µs metrics: paths embedded
# in the binary (panic locations, debug info) change its layout, and two
# builds of identical source in two directories have read chain_inline
# call_p50_us ~7-9 % apart. So both sides of a yardstick_pairs.sh comparison
# should come from this script: it exports <rev> into one fixed scratch
# directory, $TMPDIR/cb-yardstick (default /tmp), whose path does not depend
# on <rev>, builds benchmark/ offline with that directory remapped to /cb,
# and copies the binary to <out>. The directory is removed afterwards.
#
# The path is fixed, not merely the same length: cargo hashes RUSTFLAGS,
# and so the remap's path, into every crate's metadata, which steers symbol
# hashes and codegen-unit partitioning. With a fixed path two builds of one
# revision are byte-identical. One build runs at a time; a leftover
# directory from a killed build must be removed by hand.
#
#   scripts/build_yardstick.sh <rev> <out>
#
# <rev> is anything `git rev-parse` accepts in this repository.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: build_yardstick.sh <rev> <out>" >&2; exit 2; }
rev="$(git -C "$(dirname "$0")/.." rev-parse --verify "$1^{commit}")"
out="$2"
repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"

scratch="${TMPDIR:-/tmp}/cb-yardstick"
mkdir "$scratch" || { echo "$scratch exists: another build is running, or remove it" >&2; exit 1; }
trap 'rm -rf "$scratch"' EXIT

mkdir "$scratch/src"
git -C "$repo" archive "$rev" | tar -x -C "$scratch/src"
CARGO_TARGET_DIR="$scratch/target" \
  RUSTFLAGS="--remap-path-prefix=$scratch=/cb" \
  cargo build --release --offline --quiet --manifest-path "$scratch/src/benchmark/Cargo.toml"

mkdir -p "$(dirname "$out")"
cp "$scratch/target/release/cloudburst-benchmark" "$out"
echo "built $rev -> $out"
