"""Journal-armed chaos run (docs/OBSERVABILITY.md).

Runs CHAOS_TEST with a gtest filter while the structured journal is armed
(the WIERA_JOURNAL path and the seed count come from the test's
environment), then checks the JSONL it wrote: every line parses as JSON and
carries ts_us, component and event, and every failed client op carries a
nonzero distributed-trace id so an error event leads to its span tree.

    python3 tests/journal_check.py CHAOS_TEST GTEST_FILTER
"""
import json
import os
import subprocess
import sys


def main():
    binary, gtest_filter = sys.argv[1], sys.argv[2]
    journal = os.environ["WIERA_JOURNAL"]
    # The journal appends, so start from an empty file.
    if os.path.exists(journal):
        os.remove(journal)
    run = subprocess.run([binary, "--gtest_filter=" + gtest_filter])
    if run.returncode != 0:
        sys.exit(f"journal_check: {binary} exited {run.returncode}")

    lines = 0
    failed_ops = 0
    with open(journal) as fh:
        for line in fh:
            event = json.loads(line)
            lines += 1
            assert "ts_us" in event and "component" in event and \
                "event" in event, event
            if event["component"] == "client" and \
                    event["event"] == "op_failed":
                failed_ops += 1
                trace = event.get("trace", "")
                assert trace.startswith("0x") and int(trace, 16) != 0, event
    assert lines > 0, "the armed run journaled nothing"
    print(f"journal: {lines} events parsed, "
          f"{failed_ops} failed client ops, all with trace ids")


if __name__ == "__main__":
    main()
