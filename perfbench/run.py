#!/usr/bin/env python3
"""Repository benchmark for the Wiera simulator (see perfbench/README.md).

Builds perfbench/ together with the library sources in src/ (CMake, into
.bench_build/ at the checkout root) and runs one workload in its own
process:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the result as one JSON object; it is
printed only when every correctness check passed. Other modes:

  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
      every workload, each in its own process, one after another
  python3 perfbench/run.py --selftest [--seconds S]
      determinism checks and the resolution probe on every workload
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "wiera_perfbench")
WORKLOADS = [
    "eventual_small_reads",
    "multiprimary_4k_updates",
    "primarybackup_sampled_spill",
    "rubis_remote_memory",
]
# A run must end within 180 s; leave room for the build check and start-up.
RUN_TIMEOUT_S = 170
# Metrics that depend only on the seed and the window length.
SIM_SIDE = [
    "sim_put_p50_ms",
    "sim_put_p99_ms",
    "sim_get_p50_ms",
    "sim_get_p99_ms",
    "sim_ops_per_s",
    "wan_bytes_per_op",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_workload(args, capture=False):
    """Run the benchmark binary once; returns (exit code, stdout text)."""
    cmd = [EXE, "--workload", args["workload"], "--seed", str(args["seed"]),
           "--seconds", str(args["seconds"]), "--trace", str(args["trace"])]
    for flag in ("probe_us", "probe_setup_us"):
        if args.get(flag) is not None:
            cmd += ["--" + flag.replace("_", "-"), str(args[flag])]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1, ""
    return proc.returncode, proc.stdout or ""


def parse(stdout):
    """Result JSON, per-metric values and digests of one captured run."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = {}
    for line in lines:
        if line.startswith("# sim_digest="):
            for part in line[2:].split():
                key, value = part.split("=")
                digests[key] = value
    metrics = {}
    for line in lines:
        if line.startswith("# metric "):
            fields = line.split()
            metrics[fields[2]] = float(fields[3])
    return result, metrics, digests


def selftest(seconds):
    """Determinism checks and the resolution probe (README.md)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    failures = []

    def expect(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        base = {"workload": w, "seed": 7, "seconds": seconds, "trace": 0}
        runs = {}
        for name, extra in [("a", {}), ("traced", {"trace": 1}),
                            ("other_seed", {"seed": 8}), ("b", {})]:
            code, out = run_workload(dict(base, **extra), capture=True)
            if code != 0:
                expect(False, f"{w}: run {name} exited {code}")
                break
            runs[name] = parse(out)
        if len(runs) < 4:
            continue
        (ra, ma, da), (rb, mb, db) = runs["a"], runs["b"]
        same = all(ma[m] == mb[m] for m in SIM_SIDE)
        same = same and (ra["attempted"], ra["failed"]) == (
            rb["attempted"], rb["failed"])
        expect(same and da == db,
               f"{w}: same seed gives identical sim-side metrics and counts")
        rt, _, dt = runs["traced"]
        expect(dt["sim_digest"] == da["sim_digest"] and
               (rt["attempted"], rt["failed"]) == (ra["attempted"],
                                                   ra["failed"]),
               f"{w}: traced run gives identical sim-side results")
        expect(runs["other_seed"][2]["key_digest"] != da["key_digest"],
               f"{w}: a different seed changes the key stream")

        # Resolution probe: busy time of twice the bound per measured op
        # and per preload op must move host_ops_per_s and setup_s past
        # their bounds. The baseline is the mean of the two plain runs.
        host = (ma["host_ops_per_s"] + mb["host_ops_per_s"]) / 2
        setup = (ma["setup_s"] + mb["setup_s"]) / 2
        b_host, b_setup = bounds["host_ops_per_s"], bounds["setup_s"]
        preload_ops = ma["setup_preload_ops"]
        probe = dict(base, probe_us=2 * b_host * 1e6 / host,
                     probe_setup_us=2 * b_setup * setup * 1e6 / preload_ops)
        code, out = run_workload(probe, capture=True)
        if code != 0:
            expect(False, f"{w}: probe run exited {code}")
            continue
        _, mp, _ = parse(out)
        d_host = 1 - mp["host_ops_per_s"] / host
        d_setup = mp["setup_s"] / setup - 1
        expect(d_host > b_host,
               f"{w}: probe drops host_ops_per_s by {d_host:.1%} "
               f"(bound {b_host:.0%})")
        expect(d_setup > b_setup,
               f"{w}: probe raises setup_s by {d_setup:.1%} "
               f"(bound {b_setup:.0%})")
    log(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("give --workload, --all or --selftest")

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log(f"build check took {time.monotonic() - started:.1f}s")
    if args.selftest:
        return selftest(min(args.seconds, 2))
    names = WORKLOADS if args.all else [args.workload]
    status = 0
    for name in names:
        code, _ = run_workload({"workload": name, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace})
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
