#!/bin/sh
# Local CI: the same gates as .github/workflows/ci.yml, in order.
set -eux

cargo build --release
cargo test -q
# Shard-equivalence gate: sharded replay must be bit-identical to serial
# for every scheme, on random traces and the pinned workbench matrix.
cargo test -q -p dircc-sim --test sharding
# Golden replay gate: every batch source of the one replay loop must
# reproduce the recorded counters of every scheme, serial and sharded,
# finite caches, windows and verifier included.
cargo test -q -p dircc-sim --test replay
# Correctness gate: bounded exhaustive model check of every protocol,
# plus the serial-vs-sharded replay equivalence check it ends with, at
# the smoke bounds and at the default bounds users run (3 cpus x 2
# blocks, depth 8; ~10-15 s single-threaded on a 2-vCPU host).
./target/release/dircc check --smoke
./target/release/dircc check
# Counter-drift gate: write the sharded smoke report, then compare its
# per-run counter digests and per-trace v2 sizes against the checked-in
# baseline, field by field and byte for byte (every field is
# deterministic). The bench replays with no window, so its runs take the
# loop's quiet body, and running it at --shards 2 makes the shard merge
# itself part of the drift surface. Wall-clock performance is
# perfbench's job (below).
./target/release/dircc bench --smoke --shards 2 --out /tmp/BENCH_smoke.json
./target/release/dircc benchcmp --smoke --shards 2 --in BENCH_smoke.json
diff /tmp/BENCH_smoke.json BENCH_smoke.json
# Paper-output gate: `dircc all` at the default scale and seed must
# print exactly the archived output.
./target/release/dircc all | diff - experiments_full_output.txt
# Observability smoke: windowed time series + span profile of the
# scalability work list; then the headline schemes' windowed series
# (every window's counters and cycles/ref) must equal the checked-in
# PROFILE_smoke.jsonl byte for byte.
./target/release/dircc profile scaling --smoke \
    --out /tmp/PROFILE_timeseries.jsonl --spans /tmp/PROFILE_spans.json
./target/release/dircc profile headline --smoke --window 5000 \
    --out /tmp/PROFILE_headline.jsonl --spans /tmp/PROFILE_headline_spans.json
diff /tmp/PROFILE_headline.jsonl PROFILE_smoke.jsonl
# Streaming round-trip gate: a recorded chunked v2 trace streamed from
# disk must print byte-identical results to the in-memory replay of the
# same profile, serial and block-sharded, verifier on. The first trace
# is one 20,000-record chunk (larger than a replay batch); the second is
# recorded in 1,000-record chunks (smaller than one).
./target/release/dircc record --profile thor --refs 20000 --out /tmp/smoke_v2.dcct
./target/release/dircc replay --in /tmp/smoke_v2.dcct --verify > /tmp/replay_file.txt
./target/release/dircc replay --profile thor --refs 20000 --verify > /tmp/replay_mem.txt
diff /tmp/replay_file.txt /tmp/replay_mem.txt
./target/release/dircc replay --profile thor --refs 20000 --verify --shards 3 \
    > /tmp/replay_sharded.txt
diff /tmp/replay_file.txt /tmp/replay_sharded.txt
./target/release/dircc record --profile thor --refs 20000 --chunk 1000 \
    --out /tmp/smoke_v2_small.dcct
./target/release/dircc replay --in /tmp/smoke_v2_small.dcct --verify > /tmp/replay_file_small.txt
diff /tmp/replay_file_small.txt /tmp/replay_mem.txt
# A multi-chunk file: 300,000 references in five default 65,536-record
# chunks, each full one decoded in 16 batches with the checksum folded
# across them.
./target/release/dircc record --profile pops --refs 300000 --out /tmp/smoke_v2_pops.dcct
./target/release/dircc replay --in /tmp/smoke_v2_pops.dcct --verify > /tmp/replay_file_pops.txt
./target/release/dircc replay --profile pops --refs 300000 --verify > /tmp/replay_mem_pops.txt
diff /tmp/replay_file_pops.txt /tmp/replay_mem_pops.txt
# Trace example gate: the example writes a generated trace as chunked v2,
# streams it back and asserts the round trip is lossless.
cargo run --release --example trace_tools
# Every other example runs to completion (each well under a second).
for example in quickstart spin_lock_study scalability_sweep protocol_shootout \
    effective_processors; do
    cargo run --release --example "$example" > /dev/null
done
# Serve gate: the HTTP daemon on an ephemeral port — served /run
# responses diffed byte-for-byte against `dircc replay --json` (cache
# miss, cache hit, sharded), 400 /run requests from four concurrent
# `dircc submit` clients with every cache outcome and body asserted, a
# request-ID log/span join, an exact /metrics reconciliation against the
# scripted load (scrape kept as SERVE_metrics.prom), a `dircc top --once`
# snapshot check (kept as SERVE_top.txt), a /series over MAX_WINDOWS
# rejected with a field 'window' 400, then a graceful /shutdown drain
# with an orphan check. The timeout is the hard ceiling on a hang.
timeout 300 ./ci_serve_gate.sh
# Benchmark package: it builds the `dircc` CLI from this source and uses
# the public APIs of six crates, so an API change breaks it here first.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --all-targets -- -D warnings
cargo fmt --check
# Docs gate: every library's rustdoc builds without a warning (`--lib`:
# the `dircc` library and the `dircc` binary would collide in target/doc).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib
