#!/usr/bin/env bash
# Docs drift check: every inline-code reference in the docs — file paths,
# coolopt:: symbols, CLI flags, metric names, test/field identifiers — must
# resolve against the tree, or the check fails. Registered as the `check_docs`
# ctest; run manually from the repository root as `tools/check_docs.sh`
# (optionally passing an explicit list of markdown files).
#
# What is checked, per inline `code` span:
#   * `--some-flag ...`        -> the flag string appears in src/tools/bench
#   * `path/to/file.ext`,
#     `profiling/foo.*`        -> exists (repo-relative, or under src/)
#   * `path/to/file.ext:Name`  -> the file exists and contains Name as a word
#   * `a.dotted.name`          -> appears verbatim (metric / schema names)
#   * `Ns::Type::member`       -> each distinctive component appears as a word
#                                 in src/tools/bench/examples (not tests/: a
#                                 gtest suite may keep a deleted class's name)
#   * `snake_case` / `CamelCase` identifiers -> appear as a word, tests/ too
#                                 (test names are references)
# Math snippets, short tokens (< 4 chars) and plain lowercase words are
# deliberately ignored — they are prose, not references.
set -u

cd "$(dirname "$0")/.." || exit 2

DOCS=("$@")
if [ ${#DOCS[@]} -eq 0 ]; then
  DOCS=(README.md DESIGN.md EXPERIMENTS.md CONTRIBUTING.md
        docs/README.md docs/model.md docs/simulator.md
        docs/consolidation.md docs/observability.md docs/architecture.md
        docs/evaluation.md docs/robustness.md docs/service.md
        docs/scale.md)
fi

CODE_DIRS=(src tests bench tools examples)
SYMBOL_DIRS=(src tools bench examples)
failures=0

fail() {
  echo "check_docs: $1: unresolved reference: $2" >&2
  failures=$((failures + 1))
}

grep_in() {  # grep_in <dirs-array-name> <extra-grep-args...> -e <pattern>
  local -n dirs="$1"
  shift
  grep -rq --include='*.h' --include='*.cpp' --include='*.sh' \
      --include='CMakeLists.txt' "$@" "${dirs[@]}"
}

grep_code() { grep_in CODE_DIRS "$@"; }
grep_symbol() { grep_in SYMBOL_DIRS "$@"; }

check_path() {  # repo-relative path, possibly a `base.*` glob or extensionless
  local doc="$1" p="$2" g="${2%\*}"
  if [[ "$p" =~ ^([^:]+):([A-Za-z_][A-Za-z0-9_]*)$ ]]; then
    # `file:Name`: the file exists and names Name as a word.
    [ -f "${BASH_REMATCH[1]}" ] &&
      grep -qw -e "${BASH_REMATCH[2]}" "${BASH_REMATCH[1]}" && return 0
  elif compgen -G "${g}*" > /dev/null || compgen -G "src/${g}*" > /dev/null; then
    return 0
  fi
  fail "$doc" "$p"
}

check_ident() {  # check_ident <doc> <id> [grep_code|grep_symbol]
  # One identifier component; silently skips non-references.
  local doc="$1" id="$2" search="${3:-grep_code}"
  [[ "$id" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]] || return 0
  [ "${#id}" -ge 4 ] || return 0
  if [[ "$id" != *_* ]]; then
    # No underscore: only check CamelCase (mixed upper/lower) names.
    [[ "$id" =~ [A-Z] && "$id" =~ [a-z] ]] || return 0
  fi
  "$search" -w -e "$id" || fail "$doc" "$id"
}

check_token() {
  local doc="$1" tok="$2"
  tok="${tok#\"}"; tok="${tok%\"}"           # strip surrounding quotes
  tok="$(printf '%s' "$tok" | sed -E 's/\([^()]*\)$//')"  # drop arg lists

  if [[ "$tok" == --* ]]; then               # CLI flag (maybe with operands)
    local flag
    flag="$(printf '%s' "$tok" | sed -E 's/^(--[A-Za-z0-9-]+).*/\1/')"
    grep_code -F -e "$flag" || fail "$doc" "$flag"
    return
  fi

  # Anything with spaces or math symbols is prose/formula, not a reference.
  [[ "$tok" =~ ^[A-Za-z0-9_.:/*-]+$ ]] || return 0

  if [[ "$tok" == */* ]]; then
    check_path "$doc" "$tok"
  elif [[ "$tok" == *::* ]]; then
    local part
    for part in ${tok//::/ }; do
      check_ident "$doc" "$part" grep_symbol
    done
  elif [[ "$tok" =~ ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$ ]]; then
    grep_code -F -e "$tok" || fail "$doc" "$tok"
  else
    check_ident "$doc" "$tok"
  fi
}

# No orphan pages: every docs/*.md must be in the registered list above,
# or it would silently escape the drift check (and the docs/README.md
# index). Only enforced for the default list — an explicit argument list
# is a deliberate subset.
if [ $# -eq 0 ]; then
  for page in docs/*.md; do
    registered=0
    for doc in "${DOCS[@]}"; do
      [ "$page" = "$doc" ] && registered=1 && break
    done
    if [ "$registered" -eq 0 ]; then
      fail "$page" "(page not registered in check_docs.sh DOCS list)"
    fi
  done
fi

for doc in "${DOCS[@]}"; do
  if [ ! -f "$doc" ]; then
    fail "$doc" "(file missing)"
    continue
  fi
  while IFS= read -r span; do
    check_token "$doc" "$span"
  done < <(grep -o '`[^`]*`' "$doc" | sed 's/^`//; s/`$//')
done

if [ "$failures" -gt 0 ]; then
  echo "check_docs: $failures unresolved reference(s)" >&2
  exit 1
fi
echo "check_docs: OK (${DOCS[*]})"
