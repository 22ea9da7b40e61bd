#!/usr/bin/env bash
# Builds the benchmark together with the `ufc-node` worker that
# `sockets_week` spawns (`cargo run` would build only the benchmark), then
# runs it with the given arguments, e.g. from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload paper_week --seed 1
#
# The build goes to $CARGO_TARGET_DIR when set, else to `target` in the
# current directory.
#
# The run, its threads and the workers it spawns all share CPU 0. On a
# shared 2-vCPU VM a socket run spread over both vCPUs waits for the host
# to wake the other vCPU at every message, and that wait swung socket
# timings by up to 1.7x over minutes; on one CPU a message is a local
# context switch, so the run measures the protocol's own cost. In-process
# workloads time the same pinned or not.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path "$(dirname "$0")/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/benchmark"
if command -v taskset >/dev/null; then
    exec taskset -c 0 "$bin" "$@"
fi
echo "run.sh: taskset not found, running unpinned" >&2
exec "$bin" "$@"
