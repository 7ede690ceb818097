#!/usr/bin/env bash
# bench.sh — record or compare the gated layer benchmarks (VM
# execution, wire upload, and the root package's success-trace
# diagnosis and trace decode) with a fixed, repeatable discipline (one
# pattern per package, -count=6, -benchmem), so any two result files
# are comparable by benchstat or scripts/benchgate.
#
# Usage:
#   scripts/bench.sh record [out.txt]           write fresh numbers (default bench-new.txt)
#   scripts/bench.sh compare <old.txt> [new.txt] record new.txt if missing, then compare
#   scripts/bench.sh fleet [out.json]           record fleet-tier load numbers (default BENCH_fleet.json)
#
# Knobs (env): BENCH_COUNT (default 6), BENCH_PATTERN (default
# ^BenchmarkVMExecute$), BENCH_PKG (default ./internal/vm),
# WIRE_PATTERN (default ^BenchmarkWireUpload$; empty skips the wire
# record), WIRE_PKG (default ./internal/shard);
# for fleet: FLEET_AGENTS (default 1000), FLEET_PORT_BASE (default 7100).
#
# The perf CI lane records bench-head.txt, renders a benchstat report
# artifact against the checked-in .github/bench-baseline.txt, and
# gates with scripts/benchgate (>10% normalized regression at p<0.05
# fails the lane, wire upload and the root benchmarks included, as does
# losing the bytecode engine's >=3x speedup).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-6}"
PATTERN="${BENCH_PATTERN:-^BenchmarkVMExecute$}"
PKG="${BENCH_PKG:-./internal/vm}"
WIRE_PATTERN="${WIRE_PATTERN-^BenchmarkWireUpload$}"
WIRE_PKG="${WIRE_PKG:-./internal/shard}"
# The root package's layer benchmarks: success-trace diagnosis and
# trace decode. A sub-benchmark pattern skips benchmarks that have no
# sub-benchmarks, so each gets its own run.
ROOT_PATTERNS=('^BenchmarkDiagnoseManySuccesses$/^serial$' '^BenchmarkTraceDecode$')

# bench_one <pattern> <pkg> appends one package's benchmark run to $out.
bench_one() {
  echo "recording: go test -run '^\$' -bench '$1' -count $COUNT -benchmem $2" >&2
  go test -run '^$' -bench "$1" -count "$COUNT" -benchmem "$2" | tee -a "$out"
}

record() {
  out="${1:-bench-new.txt}"
  : >"$out"
  bench_one "$PATTERN" "$PKG"
  if [ -n "$WIRE_PATTERN" ]; then
    bench_one "$WIRE_PATTERN" "$WIRE_PKG"
  fi
  for pat in "${ROOT_PATTERNS[@]}"; do
    bench_one "$pat" .
  done
}

compare() {
  local old="${1:?usage: bench.sh compare <old.txt> [new.txt]}"
  local new="${2:-bench-new.txt}"
  [ -f "$new" ] || record "$new" >/dev/null
  if command -v benchstat >/dev/null 2>&1; then
    benchstat "$old" "$new"
  else
    echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);" >&2
    echo "falling back to scripts/benchgate's table." >&2
  fi
  go run ./scripts/benchgate -old "$old" -new "$new" \
    -norm 'BenchmarkVMExecute/loop/treewalk' -threshold 0.10 -alpha 0.05 \
    -ratio 'BenchmarkVMExecute/loop/treewalk,BenchmarkVMExecute/loop/bytecode,3.0'
}

# fleet — stand up the sharded fleet tier (2 durable shards behind the
# router) and drive the load generator through it, recording the
# headline numbers (accepted traces/s, reports/min, directive p50/p99)
# to a BENCH_fleet.json entry.
fleet() {
  local out="${1:-BENCH_fleet.json}"
  local agents="${FLEET_AGENTS:-1000}"
  local port="${FLEET_PORT_BASE:-7100}"
  local tmp; tmp="$(mktemp -d)"
  local bin="$tmp/snorlax"
  echo "building cmd/snorlax..." >&2
  go build -o "$bin" ./cmd/snorlax

  # Deliberately not `local`: the EXIT trap fires after this function
  # has returned, and must still see the pids to reap.
  fleet_pids=()
  cleanup() {
    trap - EXIT INT TERM
    [ "${#fleet_pids[@]}" -gt 0 ] && kill "${fleet_pids[@]}" 2>/dev/null
    wait 2>/dev/null
    true
  }
  trap cleanup EXIT INT TERM

  "$bin" -serve "127.0.0.1:$((port + 1))" -fleet -state-dir "$tmp/s0" -case-base 0 >"$tmp/s0.log" 2>&1 &
  fleet_pids+=($!)
  "$bin" -serve "127.0.0.1:$((port + 2))" -fleet -state-dir "$tmp/s1" -case-base 4294967296 >"$tmp/s1.log" 2>&1 &
  fleet_pids+=($!)

  wait_port() {
    for _ in $(seq 1 100); do
      if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then exec 3>&- 3<&-; return 0; fi
      sleep 0.1
    done
    echo "port $1 never came up" >&2
    return 1
  }
  wait_port "$((port + 1))"
  wait_port "$((port + 2))"

  "$bin" -route "127.0.0.1:$port" \
    -shards "s0=127.0.0.1:$((port + 1)),s1=127.0.0.1:$((port + 2))" >"$tmp/router.log" 2>&1 &
  fleet_pids+=($!)
  wait_port "$port"

  echo "driving $agents agents through the router..." >&2
  "$bin" -loadgen "127.0.0.1:$port" -load-agents "$agents" -bench-out "$out"
}

case "${1:-}" in
  record)  shift; record "$@" ;;
  compare) shift; compare "$@" ;;
  fleet)   shift; fleet "$@" ;;
  *) echo "usage: $0 {record [out.txt] | compare <old.txt> [new.txt] | fleet [out.json]}" >&2; exit 2 ;;
esac
