#!/usr/bin/env bash
# Bench-artifact shape check: every BENCH_*.json a perf binary emitted at the
# repository root must be a well-formed result file —
#
#   * valid JSON with the required top-level keys: "bench" (non-empty
#     string), "cases" (non-empty array), "pass" (boolean);
#   * every case is an object with a numeric "n";
#   * the n-sweep is monotone non-decreasing across cases, so downstream
#     trajectory tooling can diff runs case-by-case without re-sorting.
#
# Finding no BENCH_*.json at all passes with a note: benches are run on
# demand (`build/bench/perf_scale` etc.), not as part of the test suite.
# Registered as the `check_bench` ctest; run manually from the repository
# root as `tools/check_bench.sh`.
set -u

cd "$(dirname "$0")/.." || exit 2

if ! command -v jq >/dev/null 2>&1; then
  echo "check_bench: jq not found on PATH" >&2
  exit 2
fi

shopt -s nullglob
files=(BENCH_*.json)
if [ "${#files[@]}" -eq 0 ]; then
  echo "check_bench: no BENCH_*.json artifacts present (run the perf benches to emit them) — nothing to validate"
  exit 0
fi

failures=0
for f in "${files[@]}"; do
  if ! jq empty "$f" 2>/dev/null; then
    echo "check_bench: $f is not valid JSON" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! jq -e '(.bench | type == "string" and length > 0)
              and (.cases | type == "array" and length > 0)
              and (.pass | type == "boolean")' "$f" >/dev/null; then
    echo "check_bench: $f lacks the required shape (string \"bench\", non-empty array \"cases\", boolean \"pass\")" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! jq -e '.cases | all(type == "object" and (.n | type == "number"))' "$f" >/dev/null; then
    echo "check_bench: $f has a case without a numeric \"n\"" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! jq -e '[.cases[].n] | . == sort' "$f" >/dev/null; then
    echo "check_bench: $f case sizes are not monotone non-decreasing: $(jq -c '[.cases[].n]' "$f")" >&2
    failures=$((failures + 1))
    continue
  fi
  # Bench-specific schema: the engine hot-path artifact carries the cold and
  # warm p50, the ranked-head answer count, and the byte-identity verdict
  # per case (perf_engine's self-gated targets).
  if [ "$(jq -r '.bench' "$f")" = "engine" ]; then
    if ! jq -e '.cases | all((.cold_p50_us | type == "number")
                             and (.warm_p50_us | type == "number")
                             and (.head_answers | type == "number")
                             and (.identical | type == "boolean"))' "$f" >/dev/null; then
      echo "check_bench: $f lacks the engine case schema (numeric cold_p50_us/warm_p50_us/head_answers, boolean identical)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.cases | all(.identical)' "$f" >/dev/null; then
      echo "check_bench: $f reports a case where warm plans diverged from a fresh engine's (identical=false)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.cases | all(.head_answers > 0)' "$f" >/dev/null; then
      echo "check_bench: $f reports a case where the ranked-head check never engaged (head_answers=0)" >&2
      failures=$((failures + 1))
      continue
    fi
  fi
  # Bench-specific schema: the service artifact carries throughput and tail
  # latencies per client-count case plus the subscriber-overhead block
  # (streaming telemetry must not cost the plan path more than 5%).
  if [ "$(jq -r '.bench' "$f")" = "service" ]; then
    if ! jq -e '.cases | all((.clients | type == "number")
                             and (.req_per_s | type == "number")
                             and (.p50_us | type == "number")
                             and (.p99_us | type == "number")
                             and (.p999_us | type == "number")
                             and (.mismatches == 0))' "$f" >/dev/null; then
      echo "check_bench: $f lacks the service case schema (numeric clients/req_per_s/p50_us/p99_us/p999_us, mismatches == 0)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.subscribers | type == "object"
                and (.subscribers | type == "number")
                and (.interval_ms | type == "number")
                and (.baseline_req_per_s | type == "number")
                and (.with_subscribers_req_per_s | type == "number")
                and (.overhead_pct | type == "number")
                and (.ticks_received | type == "number")
                and (.pass | type == "boolean")' "$f" >/dev/null; then
      echo "check_bench: $f lacks the subscriber-overhead block (object \"subscribers\" with numeric subscribers/interval_ms/baseline_req_per_s/with_subscribers_req_per_s/overhead_pct/ticks_received, boolean pass)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.subscribers | (.overhead_pct <= 5) and .pass' "$f" >/dev/null; then
      echo "check_bench: $f reports subscriber overhead above the 5% budget (overhead_pct=$(jq -r '.subscribers.overhead_pct' "$f"))" >&2
      failures=$((failures + 1))
      continue
    fi
  fi
  # Bench-specific schema: the chaos artifact carries goodput per
  # client-count case, the fired-fault counts, the retry histogram, and the
  # degraded-plan reproducibility verdict (perf_chaos's self-gated targets:
  # goodput >= 95% with faults firing, and a fault never corrupts bytes).
  if [ "$(jq -r '.bench' "$f")" = "chaos" ]; then
    if ! jq -e '.cases | all((.clients | type == "number")
                             and (.calls | type == "number")
                             and (.succeeded | type == "number")
                             and (.goodput_pct | type == "number")
                             and (.retried_calls | type == "number")
                             and (.mismatches == 0))' "$f" >/dev/null; then
      echo "check_bench: $f lacks the chaos case schema (numeric clients/calls/succeeded/goodput_pct/retried_calls, mismatches == 0)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '(.goodput_pct | type == "number" and . >= 95)
                and (.cases | all(.goodput_pct >= 95))' "$f" >/dev/null; then
      echo "check_bench: $f reports goodput below the 95% floor (goodput_pct=$(jq -r '.goodput_pct' "$f"))" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.drops | type == "object"
                and (.dropped_connections | type == "number")
                and (.delayed_reads | type == "number")
                and (.truncated_writes | type == "number")
                and (.stalled_solves | type == "number")' "$f" >/dev/null; then
      echo "check_bench: $f lacks the fired-fault counts (object \"drops\" with numeric dropped_connections/delayed_reads/truncated_writes/stalled_solves)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.retry_histogram | type == "array" and length > 0
                and all((.attempts | type == "number")
                        and (.calls | type == "number"))' "$f" >/dev/null; then
      echo "check_bench: $f lacks the retry histogram (non-empty array of {attempts, calls})" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! jq -e '.reproducible == true' "$f" >/dev/null; then
      echo "check_bench: $f reports a degraded plan that did not reproduce bit-for-bit (reproducible=$(jq -r '.reproducible' "$f"))" >&2
      failures=$((failures + 1))
      continue
    fi
  fi
  echo "check_bench: $f ok ($(jq -r '.bench' "$f"), $(jq '.cases | length' "$f") cases, pass=$(jq -r '.pass' "$f"))"
done

if [ "$failures" -gt 0 ]; then
  echo "check_bench: $failures malformed artifact(s)" >&2
  exit 1
fi
echo "check_bench: ${#files[@]} artifact(s) validated"
