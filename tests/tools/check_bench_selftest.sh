#!/usr/bin/env bash
# Self-test of tools/check_bench.sh: the committed baselines must pass, and
# each of these must fail, on a scratch copy of bench/:
#   * a deleted baseline;
#   * a malformed artifact;
#   * a fresh artifact whose gate, passing in its baseline, now fails;
#   * a fresh artifact that lacks a gate its baseline passes.
# A fresh artifact that writes that gate as a row must pass.
# Registered as the `check_bench_selftest` ctest.
set -u

repo="$(cd "$(dirname "$0")/../.." && pwd)"
check="$repo/tools/check_bench.sh"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

failures=0
# expect <exit: pass|fail> <message the output must contain> <what>
expect() {
  local output status
  output=$("$check" "$scratch" 2>&1)
  status=$?
  if [ "$1" = pass ] && [ "$status" -ne 0 ]; then
    echo "FAIL: $3: check_bench exited $status"; echo "$output"
    failures=$((failures + 1))
  elif [ "$1" = fail ] && [ "$status" -ne 1 ]; then
    echo "FAIL: $3: check_bench exited $status, expected 1"; echo "$output"
    failures=$((failures + 1))
  elif ! grep -qF -- "$2" <<<"$output"; then
    echo "FAIL: $3: output lacks \"$2\""; echo "$output"
    failures=$((failures + 1))
  else
    echo "ok: $3"
  fi
}

reset() {
  rm -rf "${scratch:?}"/*
  mkdir -p "$scratch/bench"
  cp "$repo"/bench/*.cpp "$scratch/bench/"
  cp -r "$repo/bench/baselines" "$scratch/bench/"
}

reset
expect pass "check_bench: ok" "the committed baselines"

# A baseline with a passing gate, and that gate broken in a fresh copy.
baseline=""
for f in "$scratch"/bench/baselines/BENCH_*.json; do
  if jq -e 'any(.gates[]; .pass)' "$f" >/dev/null; then baseline="$f"; break; fi
done
if [ -z "$baseline" ]; then
  echo "FAIL: no committed baseline has a passing gate"
  exit 1
fi
name="$(basename "$baseline")"
baseline="$repo/bench/baselines/$name"  # reset() rewrites the scratch copy

cp "$baseline" "$scratch/$name"
expect pass "holds every gate its baseline passes" "an unchanged fresh artifact"

jq '(first(.gates[] | select(.pass))) |= (
      .value = (if .op == ">" or .op == "<" then .bound
                elif .op == ">=" then .bound - 1 else .bound + 1 end)
      | .pass = false)
    | .pass = false' "$baseline" >"$scratch/$name"
expect fail "passes in its baseline (" "a fresh artifact with a regressed gate"

jq '(first(.gates[] | select(.pass)).name) as $n
    | .gates |= map(select(.name != $n))
    | .pass = ([.gates[].pass] | all)' "$baseline" >"$scratch/$name"
expect fail "is neither a gate nor a row" "a fresh artifact that lacks a gate"

jq '(first(.gates[] | select(.pass))) as $g
    | .gates |= map(select(.name != $g.name))
    | .rows += [{name: $g.name, value: $g.value, unit: "x"}]
    | .pass = ([.gates[].pass] | all)' "$baseline" >"$scratch/$name"
expect pass "holds every gate its baseline passes" "a fresh artifact that writes a gate as a row"

reset
rm "$scratch/bench/baselines/$name"
expect fail "has no committed baseline" "a deleted baseline"

reset
head -c 40 "$baseline" >"$scratch/bench/baselines/$name"
expect fail "is not valid JSON" "a truncated baseline"

reset
: >"$scratch/bench/baselines/$name"
expect fail "holds 0 JSON documents" "an empty baseline"

reset
jq '.pass = (.pass | not)' "$baseline" >"$scratch/bench/baselines/$name"
expect fail "not the AND of its gates" "a baseline whose pass is not its gates' AND"

[ "$failures" -eq 0 ] || exit 1
echo "check_bench_selftest: ok"
