#!/usr/bin/env bash
# Trace-hash goldens (docs/DETERMINISM.md): replay every default-schedule
# chaos plan and every scenario builtin and record the determinism trace
# hash each one ends with, in tests/golden/trace_hashes.txt.
#
# Usage:
#   scripts/repin_goldens.sh [--check] [BUILD_DIR] [ENTRY...]
#
#   --check    compare the whole corpus against the committed one instead
#              of writing it: print a unified diff of every entry that
#              moved and exit 1 (the TraceHashGoldens ctest runs this form)
#   BUILD_DIR  cmake build directory holding tests/chaos_test and
#              tests/scenario_test (default: build)
#   ENTRY      "SUITE PLAN SEED" prefixes (e.g. "chaos EventualConsistency:torn")
#              to re-pin; every other line keeps its committed hash. Without
#              entries the whole corpus is regenerated.
#
# Corpus: chaos plans (every --list-plans fault class x the three modes the
# suites sweep, seeds 1-2; brownout and midflush ignore the mode) and
# scenario builtins (every --list-scenarios name, seed 1). One line each:
#   SUITE PLAN SEED TRACE_HASH
# Replays run in parallel under CTEST_PARALLEL_LEVEL (default 2).
set -u
export LC_ALL=C

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
BUILD_DIR="${1:-build}"
shift || true
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GOLDEN="${ROOT}/tests/golden/trace_hashes.txt"
CHAOS="${BUILD_DIR}/tests/chaos_test"
SCENARIO="${BUILD_DIR}/tests/scenario_test"
JOBS="${CTEST_PARALLEL_LEVEL:-2}"

for binary in "${CHAOS}" "${SCENARIO}"; do
  if [[ ! -x "${binary}" ]]; then
    echo "repin_goldens: ${binary} not found; build first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 2
  fi
done

# The corpus, one "SUITE PLAN SEED" per line, in a fixed order.
corpus() {
  local fault mode seed
  for fault in $("${CHAOS}" --list-plans); do
    for mode in MultiPrimariesConsistency PrimaryBackupConsistency \
                EventualConsistency; do
      if [[ "${fault}" == brownout || "${fault}" == midflush ]]; then
        [[ "${mode}" == EventualConsistency ]] || continue
        mode=any
      fi
      for seed in 1 2; do echo "chaos ${mode}:${fault} ${seed}"; done
    done
  done
  for name in $("${SCENARIO}" --list-scenarios); do
    echo "scenario ${name} 1"
  done
}

# replay SUITE PLAN SEED: print the entry with the hash its replay ends with
# (MISSING when the replay printed none, e.g. it crashed). The replay's own
# exit status is the oracle's business, not the golden's.
replay() {
  local suite="$1" plan="$2" seed="$3" out hash
  if [[ "${suite}" == chaos ]]; then
    out="$("${CHAOS}" --seed "${seed}" --plan "${plan}" 2>/dev/null)"
  else
    out="$("${SCENARIO}" --seed "${seed}" --scenario "${plan}" 2>/dev/null)"
  fi
  hash="$(grep -o 'trace=0x[0-9a-f]*' <<<"${out}" | head -n 1 | cut -d= -f2)"
  echo "${suite} ${plan} ${seed} ${hash:-MISSING}"
}
export -f replay
export CHAOS SCENARIO

selected() {
  local line="$1" entry
  (( $# == 1 )) && return 0
  shift
  for entry in "$@"; do
    [[ "${line}" == "${entry}"* ]] && return 0
  done
  return 1
}

FRESH="$(mktemp)"
trap 'rm -f "${FRESH}" "${FRESH}.new"' EXIT
corpus | while read -r line; do
  if selected "${line}" "$@"; then
    echo "${line}"
  fi
done | xargs -P "${JOBS}" -L 1 bash -c 'replay "$@"' _ | sort -k1,1 -k2,2 -k3,3n \
  >"${FRESH}"

HEADER="# Determinism trace hashes: SUITE PLAN SEED TRACE_HASH.
# Regenerate with scripts/repin_goldens.sh; see docs/DETERMINISM.md."

if (( CHECK )); then
  if diff -u --label committed --label current \
      <(grep -v '^#' "${GOLDEN}") "${FRESH}"; then
    echo "trace-hash goldens: $(wc -l <"${FRESH}") entries match"
    exit 0
  fi
  echo "trace-hash goldens moved (lines above: - committed, + current)." >&2
  echo "If the change is intended, re-pin only the moved entries:" >&2
  echo "  scripts/repin_goldens.sh ${BUILD_DIR} 'SUITE PLAN SEED' ..." >&2
  exit 1
fi

mkdir -p "$(dirname "${GOLDEN}")"
if (( $# > 0 )) && [[ -f "${GOLDEN}" ]]; then
  # Partial re-pin: replace only the selected lines.
  awk 'NR == FNR { fresh[$1" "$2" "$3] = $4; next }
       /^#/ { next }
       { k = $1" "$2" "$3; print k, ((k in fresh) ? fresh[k] : $4) }' \
    "${FRESH}" "${GOLDEN}" >"${FRESH}.new"
  mv "${FRESH}.new" "${FRESH}"
fi
{ echo "${HEADER}"; cat "${FRESH}"; } >"${GOLDEN}"
echo "wrote $(wc -l <"${FRESH}") entries to ${GOLDEN}"
