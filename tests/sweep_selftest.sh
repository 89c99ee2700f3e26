#!/usr/bin/env bash
# Self-test of the sweep driver: a combination whose process crashes after
# "[ RUN ]" prints neither a gtest verdict nor a CHAOS-FAIL line, and must
# still fail the sweep (exit 1); the same sweep over a passing stub exits 0.
#
#   tests/sweep_selftest.sh SWEEP_SH
set -u
SWEEP="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "${DIR}"' EXIT
PLANS="$(sed -n 's/.*\[chaos_test\]="--list-plans \(.*\)"/\1/p' "${SWEEP}")"

# stub BUILD_DIR BODY: a tests/chaos_test advertising the swept plans, with
# one test whose run executes BODY.
stub() {
  mkdir -p "$1/tests"
  cat >"$1/tests/chaos_test" <<EOF
#!/usr/bin/env bash
case "\$1" in
  --list-plans) printf '%s\n' ${PLANS} ;;
  --gtest_list_tests) printf 'StubSuite.\n  Seeds\n' ;;
  *) echo '[ RUN      ] StubSuite.Seeds'; $2 ;;
esac
EOF
  chmod +x "$1/tests/chaos_test"
}

stub "${DIR}/crash" 'kill -SEGV $$'
stub "${DIR}/pass" "echo '[       OK ] StubSuite.Seeds (0 ms)'"

status=0
bash "${SWEEP}" chaos 1 "${DIR}/crash"
rc=$?
if (( rc != 1 )); then
  echo "selftest: sweep over a crashing binary exited ${rc}, want 1" >&2
  status=1
fi
bash "${SWEEP}" chaos 1 "${DIR}/pass"
rc=$?
if (( rc != 0 )); then
  echo "selftest: sweep over a passing binary exited ${rc}, want 0" >&2
  status=1
fi
exit "${status}"
