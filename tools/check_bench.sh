#!/usr/bin/env bash
# Bench-artifact check, with no per-bench knowledge. Every perf bench
# builds one bench::Report (bench/report.h) and writes BENCH_<name>.json;
# bench/baselines/ holds the committed artifact of each. This script fails
# when
#
#   * a bench (a `bench::Report report("<name>")` in bench/*.cpp) has no
#     committed baseline bench/baselines/BENCH_<name>.json, or a file
#     there belongs to no bench;
#   * an artifact, committed or fresh, is malformed: not JSON, missing its
#     host facts, a row without {name, value, unit}, a gate without
#     {name, value, op, bound, pass}, a duplicate gate name, a gate whose
#     pass is not `value op bound`, or a top-level pass that is not the AND
#     of its gates;
#   * a fresh BENCH_<name>.json at the root fails a gate that its baseline
#     passes, or lacks it (as a gate and as a row). Each gate's bound is
#     its tolerance band.
#
# Usage: tools/check_bench.sh [ROOT]   (ROOT defaults to the repository
# root). Registered as the `check_bench` ctest; `check_bench_selftest`
# runs it against broken copies of the baselines.
set -u

root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

if ! command -v jq >/dev/null 2>&1; then
  echo "check_bench: jq not found on PATH" >&2
  exit 2
fi

# Prints one line per schema violation of the artifact on stdin (slurped).
read -r -d '' schema <<'JQ'
def num: type == "number";
def str: type == "string";
def holds($op; $v; $b):
  if $op == ">=" then $v >= $b elif $op == ">" then $v > $b
  elif $op == "<=" then $v <= $b elif $op == "<" then $v < $b
  elif $op == "==" then $v == $b else null end;
if length != 1 then "holds \(length) JSON documents, expected one" else
.[0] | if type != "object" then "not a JSON object" else
  (if .bench == $name then empty
   else "\"bench\" is \(.bench | tojson), expected \"\($name)\"" end),
  (if (.host | type) == "object" and (.host.hardware_threads | num)
      and (.host.compiler | str) and (.host.build_type | str) then empty
   else "host facts missing (hardware_threads, compiler, build_type)" end),
  (if (.rows | type) == "array" then
     (.rows[] | select((type != "object") or ((.name | str) and
        ((.value | num) or .value == null) and (.unit | str) | not))
      | "malformed row \(tojson)")
   else "\"rows\" is not an array" end),
  (if (.gates | type) == "array" then
     (.gates[] | select((type != "object") or ((.name | str) and
        (.value | num) and (.bound | num) and (.pass | type == "boolean")
        and (holds(.op; .value; .bound) != null) | not))
      | "malformed gate \(tojson)"),
     (.gates[] | select(type == "object" and (.value | num) and (.bound | num))
      | holds(.op; .value; .bound) as $h | select($h != null and $h != .pass)
      | "gate \(.name): pass is \(.pass) but \(.value) \(.op) \(.bound) is \($h)"),
     ([.gates[] | .name?] | group_by(.) | .[] | select(length > 1)
      | "duplicate gate \(.[0])"),
     (if .pass == ([.gates[] | .pass? == true] | all) then empty
      else "\"pass\" is \(.pass | tojson), not the AND of its gates" end)
   else "\"gates\" is not an array" end)
end end
JQ

# Prints one line per gate that passes in $base but fails in the fresh
# artifact on stdin, or is missing from it. A gate may come back as a row
# of the same name (a gate a host cannot check, such as a parallel speedup
# on one core, is written as a row).
read -r -d '' regressions <<'JQ'
(.gates | map({key: .name, value: .}) | from_entries) as $fresh
| [.rows[].name] as $rows
| $base[0].gates[] | select(.pass) | $fresh[.name] as $f
| if $f == null then
    select(.name as $n | any($rows[]; . == $n) | not)
    | "gate \(.name) passes in its baseline but is neither a gate nor a row here"
  elif ($f.pass | not) then
    "gate \(.name) passes in its baseline (\(.value) \(.op) \(.bound)) but fails here (\($f.value) \($f.op) \($f.bound))"
  else empty end
JQ

failures=0
fail() {
  echo "check_bench: $*" >&2
  failures=$((failures + 1))
}

# Artifact $1 must be well-formed for bench $2.
check_schema() {
  local errors
  if ! errors=$(jq -r -s --arg name "$2" "$schema" "$1" 2>&1); then
    fail "$1 is not valid JSON"
    return 1
  fi
  if [ -n "$errors" ]; then
    while IFS= read -r line; do fail "$1: $line"; done <<<"$errors"
    return 1
  fi
}

benches=$(grep -ho 'bench::Report report("[a-z_]*")' bench/*.cpp 2>/dev/null |
          sed 's/.*("\(.*\)")/\1/' | sort -u)
if [ -z "$benches" ]; then
  fail "no bench::Report found in bench/*.cpp"
fi
for name in $benches; do
  baseline="bench/baselines/BENCH_$name.json"
  if [ ! -f "$baseline" ]; then
    fail "bench \"$name\" has no committed baseline $baseline"
  elif check_schema "$baseline" "$name"; then
    echo "check_bench: $baseline ok (pass=$(jq -r .pass "$baseline"))"
  fi
done

shopt -s nullglob
for baseline in bench/baselines/*; do
  name="${baseline#bench/baselines/BENCH_}"
  grep -qx "${name%.json}" <<<"$benches" ||
    fail "$baseline belongs to no bench::Report in bench/*.cpp"
done
for fresh in BENCH_*.json; do
  name="${fresh#BENCH_}"
  name="${name%.json}"
  baseline="bench/baselines/BENCH_$name.json"
  check_schema "$fresh" "$name" || continue
  if [ ! -f "$baseline" ]; then
    fail "$fresh has no committed baseline $baseline"
    continue
  fi
  lines=$(jq -r --slurpfile base "$baseline" "$regressions" "$fresh" 2>&1)
  if [ -n "$lines" ]; then
    while IFS= read -r line; do fail "$fresh: $line"; done <<<"$lines"
  else
    echo "check_bench: $fresh holds every gate its baseline passes"
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "check_bench: $failures failure(s)" >&2
  exit 1
fi
echo "check_bench: ok"
