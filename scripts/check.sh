#!/usr/bin/env bash
# Repo health gate: the tier-1 acceptance commands plus lint and docs.
#
#   scripts/check.sh            # fmt + build + test + parity + perfbench
#                               # + clippy + docs + smoke
#   scripts/check.sh --fast     # skip the release build (debug test run only)
#   scripts/check.sh --quick    # skip the bench-sweep smoke steps
#   scripts/check.sh --bench    # also run the engine bench (quick mode),
#                               # writing machine-readable BENCH_engine.json
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
quick=0
bench=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --quick) quick=1 ;;
    --bench) bench=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

# The tracing layer's tier-1 guarantees, run explicitly so a filtered or
# partial test invocation can't silently skip them: parallel traces must
# be byte-identical to serial, and attribution must close the Δd budget.
echo "==> cargo test -q --test trace_parity"
cargo test -q --test trace_parity

# The impairment subsystem's guarantees: fault rates compose, lossy
# cells exclude retransmitted rounds without breaking the attribution
# closure, and impaired cells stay bit-identical across schedulers.
echo "==> cargo test -q --test impairment"
cargo test -q --test impairment

# The multi-client scenario layer's guarantees: a hand-built one-session
# scenario is byte-identical to the runner's one-client repetition (on
# the paper's link and under a server-link rate override), per-session
# results are keyed by id (not insertion order), and contended cells
# keep the executor's serial/parallel bit parity.
echo "==> cargo test -q --test scenario_parity"
cargo test -q --test scenario_parity

# The streaming post-processing pipeline's guarantees: streaming
# capture consumption and parallel per-session matching are both
# bit-identical to the batch/serial paths, for reliable and WebRTC
# datagram cells alike (both feed one marker index; datagram samples
# included), bounded retention sketches stay within their error bound,
# and the frame pool's high-water mark stays flat per client.
echo "==> cargo test -q --test streaming_parity"
cargo test -q --test streaming_parity

# The continuous-monitoring layer's guarantees: windowed sketch
# quantiles agree with exact batch quantiles within the documented
# bound, windows rotate exactly at pan boundaries, snapshots are
# scheduling-independent, and a 1,000-round run's footprint stays flat.
echo "==> cargo test -q --test monitor_parity"
cargo test -q --test monitor_parity

# The datagram (WebRTC) method's guarantees: per-probe verdicts, read
# from the marker index, match the wire-truth marker counts of a full
# scan of both rebuilt taps exactly, measured loss tracks the injected
# rate instead of excluding rounds, attribution closes the Δd budget on
# delivered probes, and datagram cells keep the executor's
# serial/parallel bit parity.
echo "==> cargo test -q --test webrtc_parity"
cargo test -q --test webrtc_parity

# The link-dynamics layer's guarantees: an all-static shape stays
# bit-identical to the fixed-rate path, the bufferbloat scenario pair
# shows the Δd inflation the AQM variant relieves, CoDel bounds the
# engine-level standing queue, and shaped cells plus the whole scored
# battery keep the executor's serial/parallel bit parity.
echo "==> cargo test -q --test dynamics_parity"
cargo test -q --test dynamics_parity

# The benchmark's self-test: all four workloads at reduced size, their
# output checks, and a replay of every repetition through the public
# layer APIs asserted equal, rep by rep, to `run_rep_traced` and
# `run_bulk_rep`. Built in the benchmark's own target directory.
echo "==> perfbench self-test (replay parity on all four workloads)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Bench-sweep smoke: one tiny contention sweep end to end (run, CSV
# rows). `--quick` skips it, and `--fast` implies it (no release binary
# to run).
if [[ $quick -eq 0 && $fast -eq 0 ]]; then
  echo "==> bench smoke: contend (2 reps, capped at 4 clients)"
  smoke_csv=$(./target/release/bnm contend --clients 4 --reps 2 --format csv)
  rows=$(printf '%s\n' "$smoke_csv" | wc -l)
  if [[ $rows -lt 4 ]]; then
    echo "contend smoke produced $rows rows, expected >= 4" >&2
    exit 1
  fi

  # Datagram crowd smoke: WebRTC at 1..64 clients on a 2 Mb/s link, one
  # rep — seven tiers, every one with probes on the wire. Datagram
  # matching is linear in clients, so this takes well under a second.
  echo "==> datagram crowd smoke: contend webrtc, 64 clients"
  dgram_csv=$(./target/release/bnm contend --method webrtc --clients 64 --rate-mbps 2 --reps 1 --format csv)
  rows=$(($(printf '%s\n' "$dgram_csv" | wc -l) - 1))
  if [[ $rows -lt 7 ]]; then
    echo "datagram crowd smoke printed $rows data rows, expected >= 7" >&2
    exit 1
  fi
  sent_col=$(printf '%s\n' "$dgram_csv" | head -1 | tr ',' '\n' | grep -nx dgram_sent | cut -d: -f1)
  if [[ -z $sent_col ]] || printf '%s\n' "$dgram_csv" | tail -n +2 | cut -d, -f"$sent_col" | grep -qvE '^[1-9][0-9]*$'; then
    echo "datagram crowd smoke: a row has no dgram_sent > 0" >&2
    exit 1
  fi

  # Serve smoke: a 2 s virtual-time monitored run polled once, with the
  # snapshot JSON spot-checked for the schema's required keys.
  echo "==> serve smoke: 2s monitored run, one JSON snapshot"
  serve_json=$(./target/release/bnm serve --duration 2 --every 2 --format json)
  for key in '"label"' '"windows"' '"p50"' '"rounds"'; do
    if ! printf '%s' "$serve_json" | grep -q "$key"; then
      echo "serve snapshot JSON missing key $key" >&2
      exit 1
    fi
  done

  # Battery smoke: the scored suite at quick depth, with the report JSON
  # spot-checked for the schema's required keys and every scenario
  # family present.
  echo "==> battery smoke: quick scored suite, JSON report"
  battery_json=$(./target/release/bnm battery --quick --format json)
  for key in '"battery"' '"scenarios"' '"verdict"' '"score"' '"bufferbloat"' '"bufferbloat-aqm"' '"time-varying"'; do
    if ! printf '%s' "$battery_json" | grep -q "$key"; then
      echo "battery report JSON missing key $key" >&2
      exit 1
    fi
  done

  # CLI input errors: a bad flag is a typed error that exits 2 before
  # anything runs (never a silent default), and the bench impair sweep
  # built on the shared sweep writes its whole grid.
  echo "==> CLI input errors: bad flags exit 2; bench impair writes its grid"
  for args in "impair --loss abc" "contend --rep 2"; do
    code=0
    # shellcheck disable=SC2086 # the flags are meant to split
    ./target/release/bnm $args >/dev/null 2>&1 || code=$?
    if [[ $code -ne 2 ]]; then
      echo "bnm $args exited $code, expected 2" >&2
      exit 1
    fi
  done
  impair_dir=$(mktemp -d)
  cargo run --release -q -p bnm-bench --bin impair -- --reps 1 --results "$impair_dir" >/dev/null
  rows=$(($(wc -l < "$impair_dir/impair.csv") - 1))
  rm -rf "$impair_dir"
  if [[ $rows -lt 20 ]]; then
    echo "bench impair wrote $rows rows, expected >= 20" >&2
    exit 1
  fi
fi

# Benchmarks, quick mode: one timed crowd run per configuration —
# engine (wheel+pool vs the reference BinaryHeap) and the streaming
# post-processing pipeline (streaming vs batch at the 1,000-client
# impaired tier) — written to BENCH_engine.json / BENCH_pipeline.json
# at the repo root, then gated against the committed baselines.
if [[ $bench -eq 1 ]]; then
  echo "==> engine bench (quick mode) -> BENCH_engine.json"
  BNM_BENCH_QUICK=1 BNM_BENCH_OUT="$PWD/BENCH_engine.json" \
    cargo bench -p bnm-bench --bench engine
  echo "==> pipeline bench (quick mode) -> BENCH_pipeline.json"
  BNM_BENCH_QUICK=1 BNM_BENCH_PIPELINE_OUT="$PWD/BENCH_pipeline.json" \
    cargo bench -p bnm-bench --bench pipeline
  echo "==> serve bench (quick mode) -> BENCH_serve.json"
  BNM_BENCH_QUICK=1 BNM_BENCH_SERVE_OUT="$PWD/BENCH_serve.json" \
    cargo bench -p bnm-bench --bench serve
  echo "==> webrtc bench (quick mode) -> BENCH_webrtc.json"
  BNM_BENCH_QUICK=1 BNM_BENCH_WEBRTC_OUT="$PWD/BENCH_webrtc.json" \
    cargo bench -p bnm-bench --bench webrtc
  echo "==> battery bench (quick mode) -> BENCH_battery.json"
  BNM_BENCH_QUICK=1 BNM_BENCH_BATTERY_OUT="$PWD/BENCH_battery.json" \
    cargo bench -p bnm-bench --bench battery
  echo "==> bench regression gate"
  scripts/bench_compare.sh
fi

echo "OK"
