#!/usr/bin/env bash
# Seed sweep driver for the oracle suites: runs a suite's gtest filters over
# many seeds, fails on any combination that exits nonzero (failed assertion,
# crash or abort alike), and replays every failing seed with its telemetry.
#
# Usage:
#   scripts/sweep.sh SUITE [SEEDS] [BUILD_DIR] [ARTIFACT_DIR]
#
#   SUITE         chaos | scenario | gray | obs (the rows of SUITES below)
#   SEEDS         seeds per combination (default 50 for chaos, else 20);
#                 exported as WIERA_CHAOS_SEED_COUNT and
#                 WIERA_SCENARIO_SEED_COUNT
#   BUILD_DIR     cmake build directory holding tests/<binary> (default: build)
#   ARTIFACT_DIR  where stats.txt (every run's *-STATS line, green or red),
#                 failing-seed dumps with their .timeseries.json and
#                 .attribution.txt sidecars, and the obs samples are written
#                 (default: none)
#
# Each test a row's filter matches runs as its own process, at most
# CTEST_PARALLEL_LEVEL (default 1) at a time. Every failing-run marker line,
#   CHAOS-FAIL seed=<n> mode=<mode> fault=<class> trace=0x<hash>
#   SCENARIO-FAIL seed=<n> scenario=<name> fault=<class> trace=0x<hash>
# is echoed with its exact reproducer, e.g.
#   <build>/tests/chaos_test --seed <n> --plan <mode>:<class>
# and replayed with --dump-telemetry --dump-timeseries; the replay's output
# from the row's dump marker on is inlined into the log. The *-STATS lines
# of failing combinations are inlined too. Replay semantics are in
# docs/FAULTS.md, docs/SCENARIOS.md and docs/HEALTH.md; the dump blocks in
# docs/OBSERVABILITY.md and docs/METRICS_PIPELINE.md.
set -u
shopt -s nullglob

# suite|binary|fail tag|replay flag|replay spec|dump marker|gtest filter
SUITES="\
chaos|chaos_test|CHAOS-FAIL|--plan|mode:fault|TELEMETRY-SNAPSHOT|AllModesAllFaults/*:AllModesAllCorruptionFaults/*:AllModesAllGrayFaults/*:ChaosBrownoutTest.EveryRequest*
scenario|scenario_test|SCENARIO-FAIL|--scenario|scenario:fault|SCENARIO-TIMELINE|ScenarioSweepTest.*:ScenarioDeterminismTest.*:ScenarioMutationTest.*
gray|chaos_test|CHAOS-FAIL|--plan|mode:fault|TELEMETRY-SNAPSHOT|AllModesAllGrayFaults/*:ChaosRegressionTest.FlapDampingAbsorbsOneDroppedPingRound:ChaosDeterminismTest.SameSeedSameTraceHashWithHealthDetectionArmed
gray|scenario_test|SCENARIO-FAIL|--scenario|scenario:fault|SCENARIO-TIMELINE|ScenarioSweepTest.GrayPrimaryUnderDiurnalHoldsTheInflationBound:ScenarioSweepTest.FlakyLinkDuringFlashCrowdStaysConvergent:ScenarioMutationTest.DisabledHealthDetectionTripsTheInflationClause
obs|scenario_test|SCENARIO-FAIL|--scenario|scenario:fault|SCENARIO-TIMELINE|ScenarioMutationTest.BurnRateAlertFiresBeforeTheSloClauseTrips:AttributionSweepTest.ReportNamesTheFaultAndTheHotKeyAcrossSeeds"

# The vocabulary each binary advertises must equal the one swept here, so a
# fault class or scenario added on one side only fails before any seed runs.
declare -A VOCAB=(
  [chaos_test]="--list-plans partition crash drop spike bitrot torn msgcorrupt stutter flakylink slownode brownout midflush"
  [scenario_test]="--list-scenarios diurnal zipfshift flashcrowd tenantmix evacuation addregion rolling grayprimary graylink"
)

SUITE="${1:-}"
ROWS="$(grep "^${SUITE}|" <<<"${SUITES}")"
if [[ -z "${SUITE}" || -z "${ROWS}" ]]; then
  echo "usage: $0 chaos|scenario|gray|obs [SEEDS] [BUILD_DIR] [ARTIFACT_DIR]" >&2
  exit 2
fi
if [[ "${SUITE}" == chaos ]]; then SEEDS="${2:-50}"; else SEEDS="${2:-20}"; fi
BUILD_DIR="${3:-build}"
ARTIFACT_DIR="${4:-}"
JOBS="${CTEST_PARALLEL_LEVEL:-1}"
export WIERA_CHAOS_SEED_COUNT="${SEEDS}" WIERA_SCENARIO_SEED_COUNT="${SEEDS}"
LOGDIR="$(mktemp -d)"
trap 'rm -rf "${LOGDIR}"' EXIT
[[ -n "${ARTIFACT_DIR}" ]] && mkdir -p "${ARTIFACT_DIR}"

# field LINE KEY: the value of "KEY=value" in a marker line.
field() { sed -n "s/.* $2=\([^ ]*\).*/\1/p" <<<" $1"; }

# extract_timeseries LOG OUT / extract_attribution LOG OUT: copy the
# TIMESERIES-SNAPSHOT JSON (with the KEYSTATS lines as a JSON-lines tail) or
# the ATTRIBUTION-REPORT block of a replay log into OUT; no block, no file.
extract_timeseries() {
  awk '/^TIMESERIES-SNAPSHOT$/ {grab=1; next} grab {print; grab=0}
       /^KEYSTATS instance=/ {print}' "$1" >"$2"
  [[ -s "$2" ]] || rm -f "$2"
}
extract_attribution() {
  sed -n '/^ATTRIBUTION-REPORT/,/^END-ATTRIBUTION-REPORT/p' "$1" >"$2"
  [[ -s "$2" ]] || rm -f "$2"
}

row=0
while IFS='|' read -r _ binary _ _ _ _ filter; do
  row=$((row + 1))
  bin="${BUILD_DIR}/tests/${binary}"
  if [[ ! -x "${bin}" ]]; then
    echo "sweep: ${bin} not found; build first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 2
  fi
  read -r flag tokens <<<"${VOCAB[${binary}]}"
  if ! diff <(tr ' ' '\n' <<<"${tokens}" | sort) <("${bin}" "${flag}" | sort) \
      >"${LOGDIR}/vocab.diff"; then
    echo "sweep: ${bin} ${flag} differs from the swept vocabulary" \
      "(< swept only, > advertised only):" >&2
    cat "${LOGDIR}/vocab.diff" >&2
    exit 2
  fi
  tests="$("${bin}" --gtest_list_tests --gtest_filter="${filter}" \
    | awk '/^[^ ]/ {suite=$1} /^  / {print suite $1}')"
  if [[ -z "${tests}" ]]; then
    echo "sweep: no test in ${bin} matches ${filter}" >&2
    exit 2
  fi
  sed "s|^|${row} ${bin} |" <<<"${tests}"
done <<<"${ROWS}" >"${LOGDIR}/jobs"

echo "sweep ${SUITE}: ${SEEDS} seeds x $(wc -l <"${LOGDIR}/jobs")" \
  "combinations (${JOBS} parallel)"
running=0
while read -r row bin test; do
  log="${LOGDIR}/${row}_$(tr '/.' '__' <<<"${test}").log"
  ( "${bin}" --gtest_filter="${test}" --gtest_color=no >"${log}" 2>&1
    echo "$? ${test}" >"${log}.rc" ) &
  if (( ++running >= JOBS )); then
    wait -n
    running=$((running - 1))
  fi
done <"${LOGDIR}/jobs"
wait

FAILED=0
for rc_file in "${LOGDIR}"/*.log.rc; do
  log="${rc_file%.rc}"
  read -r rc test <"${rc_file}"
  if (( rc == 0 )); then
    echo "  [ OK ] ${test}"
    continue
  fi
  FAILED=$((FAILED + 1))
  echo "  [ FAILED exit=${rc} ] ${test}"
  grep -hE '^\[  FAILED  \] |^[A-Z]+-STATS ' "${log}" | sed 's/^/    /'
  # A crash or abort prints no gtest verdict: show where the run stopped.
  grep -q '^\[  FAILED  \]' "${log}" || tail -n 20 "${log}" | sed 's/^/    | /'
done
if [[ -n "${ARTIFACT_DIR}" ]]; then
  cat "${LOGDIR}"/*.log | grep -E '^[A-Z]+-STATS ' >"${ARTIFACT_DIR}/stats.txt"
fi

declare -A SEEN=()
row=0
while IFS='|' read -r _ binary tag flag spec marker _; do
  row=$((row + 1))
  bin="${BUILD_DIR}/tests/${binary}"
  while read -r line; do
    seed="$(field "${line}" seed)"
    plan=""
    for part in ${spec//:/ }; do
      plan+="${plan:+:}$(field "${line}" "${part}")"
    done
    key="${bin} ${seed} ${plan}"
    [[ -n "${SEEN[${key}]:-}" ]] && continue
    SEEN[${key}]=1
    echo "  ${line}"
    echo "    reproduce: ${bin} --seed ${seed} ${flag} ${plan}"
    dump="${LOGDIR}/dump_${binary}_${seed}_${plan//:/_}"
    "${bin}" --seed "${seed}" "${flag}" "${plan}" \
      --dump-telemetry --dump-timeseries >"${dump}.log" 2>&1
    sed -n "/^${marker}/,\$p" "${dump}.log" | sed 's/^/    /'
    if [[ -n "${ARTIFACT_DIR}" ]]; then
      out="${ARTIFACT_DIR}/$(basename "${dump}")"
      cp "${dump}.log" "${out}.log"
      extract_timeseries "${dump}.log" "${out}.timeseries.json"
      extract_attribution "${dump}.log" "${out}.attribution.txt"
    fi
  done < <(grep -h "^${tag} " "${LOGDIR}/${row}"_*.log 2>/dev/null)
done <<<"${ROWS}"

# The obs suite also keeps a sample attribution report and an armed green
# replay's time-series snapshot (docs/METRICS_PIPELINE.md), so every run
# shows the current shape of both; an empty snapshot fails the sweep.
if [[ "${SUITE}" == obs ]]; then
  out="${ARTIFACT_DIR:-${LOGDIR}}"
  scenario="${BUILD_DIR}/tests/scenario_test"
  echo "sweep obs: sample attribution report (seed 7):"
  "${scenario}" --attribution-sample --seed 7 \
    >"${out}/ATTRIBUTION-REPORT.sample.txt" || FAILED=$((FAILED + 1))
  sed 's/^/  /' "${out}/ATTRIBUTION-REPORT.sample.txt"
  "${scenario}" --seed 7 --scenario diurnal --dump-timeseries \
    >"${LOGDIR}/sample.log" 2>&1
  extract_timeseries "${LOGDIR}/sample.log" \
    "${out}/TIMESERIES-SNAPSHOT.sample.json"
  if [[ ! -s "${out}/TIMESERIES-SNAPSHOT.sample.json" ]]; then
    echo "sweep obs: armed diurnal replay produced no time-series snapshot" >&2
    FAILED=$((FAILED + 1))
  fi
fi

if (( FAILED > 0 || ${#SEEN[@]} > 0 )); then
  echo "sweep ${SUITE}: ${FAILED} failing combination(s), ${#SEEN[@]}" \
    "failing seed(s)"
  exit 1
fi
echo "sweep ${SUITE}: all seeds green"
