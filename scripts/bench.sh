#!/usr/bin/env bash
# bench.sh — record or compare the gated layer benchmarks (VM
# execution, a triggered success run and an untriggered failing run
# through the PT encoder, wire upload, the root package's
# success-trace diagnosis and trace decode, the store's WAL append,
# recovery replay and snapshot, registration: IR print and parse and
# proto's RegisterProgram, and proto's fleet restore) with a
# fixed, repeatable discipline (one pattern per package, -count=6,
# -benchmem), so any two result files are comparable by benchstat or
# scripts/benchgate.
#
# Usage:
#   scripts/bench.sh record [out.txt]           write fresh numbers (default bench-new.txt)
#   scripts/bench.sh compare <old.txt> [new.txt] record new.txt if missing, then compare
#
# Knob (env): BENCH_COUNT (default 6), the samples per benchmark. The
# benchmark set itself is fixed, so every record is comparable with
# .github/bench-baseline.txt.
#
# The perf CI lane records bench-head.txt, renders a benchstat report
# artifact against the checked-in .github/bench-baseline.txt, and
# gates with scripts/benchgate (>10% normalized regression at p<0.05
# fails the lane, the traced runs, wire upload, the root, the store,
# the registration and the restore benchmarks included, as does
# losing the bytecode engine's >=3x speedup or the one-pass printer's
# >=4x speedup over its fmt-based reference).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-6}"
# The gated benchmarks, as (pattern, package) pairs. A sub-benchmark
# pattern skips benchmarks that have no sub-benchmarks, so each root
# benchmark gets its own run.
BENCHES=(
  '^BenchmarkVMExecute$' ./internal/vm
  '^BenchmarkTracedRun(Failing)?$' ./internal/pt
  '^BenchmarkWireUpload$' ./internal/shard
  '^BenchmarkDiagnoseManySuccesses$/^serial$' .
  '^BenchmarkTraceDecode$' .
  '^Benchmark(WALAppend|RecoveryReplay|WALSnapshot)$' ./internal/store
  '^Benchmark(Print|Parse)$' ./internal/ir
  '^Benchmark(RegisterProgram|FleetRestore)$' ./internal/proto
)

record() {
  out="${1:-bench-new.txt}"
  : >"$out"
  local i
  for ((i = 0; i < ${#BENCHES[@]}; i += 2)); do
    echo "recording: go test -run '^\$' -bench '${BENCHES[i]}' -count $COUNT -benchmem ${BENCHES[i + 1]}" >&2
    go test -run '^$' -bench "${BENCHES[i]}" -count "$COUNT" -benchmem "${BENCHES[i + 1]}" | tee -a "$out"
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
    -ratio 'BenchmarkVMExecute/loop/treewalk,BenchmarkVMExecute/loop/bytecode,3.0' \
    -ratio 'BenchmarkPrint/reference,BenchmarkPrint/onepass,4.0'
}

case "${1:-}" in
  record)  shift; record "$@" ;;
  compare) shift; compare "$@" ;;
  *) echo "usage: $0 {record [out.txt] | compare <old.txt> [new.txt]}" >&2; exit 2 ;;
esac
