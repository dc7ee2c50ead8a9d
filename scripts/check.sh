#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# `--locked` everywhere a lockfile is read: a change that would rewrite
# Cargo.lock or benchmark/Cargo.lock fails here instead of passing
# silently.
cargo build --workspace --release --locked
cargo build --release -p fusion3d-lint
cargo test --workspace -q
# Repo-specific invariants (determinism, panic-freedom, allocation-
# freedom of the hot path, accounting casts): exit 0 = clean,
# 1 = any finding, 2 = harness error. Fix the code or add a reasoned
# `// lint: allow(rule): why`.
cargo run --release -q -p fusion3d-lint
cargo clippy --workspace --all-targets -- -D warnings
# `--all` also checks the path dependencies, so the vendored stand-ins
# stay rustfmt-clean too; `benchmark/` is not reached.
cargo fmt --all --check
# Docs are tier-1 too: broken intra-doc links or missing crate docs
# fail the build, and every doc example must keep compiling + passing.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo test --workspace --doc -q
# The benchmark package (benchmark/) is not a workspace member, so the
# workspace commands above never build it; test it on its own so a
# library API change cannot break it unnoticed.
cargo test -q --locked --manifest-path benchmark/Cargo.toml
# Its tests run the workloads at smoke size only, so also run three of
# them at full size for a one-second window: a failed op check or an
# error exits nonzero. Each loop finishes whole orbits or passes before
# it reads the clock, so the checks hold for any window length.
# `train_recon` is left out: its PSNR floor is a median over however
# many reconstructions fit the window, so a short window checks it on
# fewer reconstructions than a full run does.
for workload in render_orbit serve_zipf chip_eval; do
  cargo run --release -q --locked --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seconds 1 > /dev/null \
    || { echo "benchmark workload $workload failed at full size"; exit 1; }
done
# Keep the throughput harness runnable; the smoke run takes ~a second
# and writes its report under target/ (full runs write BENCH_perf.json).
cargo run --release -q -p fusion3d-bench --bin perf -- --smoke --out target/BENCH_perf_smoke.json
# Serving harness smoke: run the same short trace at 1 and 4 kernel
# workers and hold the reports byte-identical (the serve determinism
# contract, docs/SERVING.md), then assert the schema keys are present.
cargo run --release -q -p fusion3d-bench --bin serve -- --smoke --threads 1 --out target/BENCH_serve_smoke.json > /dev/null
cargo run --release -q -p fusion3d-bench --bin serve -- --smoke --threads 4 --out target/BENCH_serve_smoke_t4.json > /dev/null
cmp target/BENCH_serve_smoke.json target/BENCH_serve_smoke_t4.json \
  || { echo "BENCH_serve smoke diverges between 1 and 4 threads"; exit 1; }
for key in '"schema": "fusion3d-serve-v1"' p50_latency_cycles p99_latency_cycles \
           throughput_rps hit_rate response_checksum scene_table; do
  grep -q "$key" target/BENCH_serve_smoke.json \
    || { echo "BENCH_serve smoke missing key: $key"; exit 1; }
done
# Training determinism at the CLI: 100 iterations cross the occupancy
# refreshes at steps 48, 72 and 96, and the trained containers must be
# byte-identical at 1 and 4 worker threads.
for threads in 1 4; do
  FUSION3D_THREADS=$threads cargo run --release -q --bin fusion3d -- \
    train --scene lego --iters 100 --out "target/train_lego_t$threads.f3dm" > /dev/null
done
cmp target/train_lego_t1.f3dm target/train_lego_t4.f3dm \
  || { echo "CLI training diverges between 1 and 4 threads"; exit 1; }
# MoE training runs on the same sharded step: the Fig. 8 map (300 steps
# of a four-expert MoE, under a second per run) must print
# byte-identically at 1 and 4 worker threads.
for threads in 1 4; do
  FUSION3D_THREADS=$threads cargo run --release -q -p fusion3d-bench --bin fig8 \
    > "target/fig8_t$threads.txt"
done
cmp target/fig8_t1.txt target/fig8_t4.txt \
  || { echo "MoE training diverges between 1 and 4 threads"; exit 1; }
# The paper tables cannot move silently: regenerate every table and
# figure (~15 s on two threads) and hold the output byte-identical to
# the committed BENCH_tables.txt.
cargo run --release -q -p fusion3d-bench --bin all_experiments > target/BENCH_tables.txt
cmp target/BENCH_tables.txt BENCH_tables.txt \
  || { echo "paper tables changed: regenerate BENCH_tables.txt with"
       echo "  cargo run --release -q -p fusion3d-bench --bin all_experiments > BENCH_tables.txt"
       echo "and give the reason for every changed line in the PR"; exit 1; }
# Docs must not rot: every relative link in the Markdown tree resolves.
./scripts/check_doc_links.sh
echo "All tier-1 checks passed."
