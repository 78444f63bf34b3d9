#!/usr/bin/env python3
"""Builds and runs the ACE end-to-end benchmark (see README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload room_control --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke      # every workload, short; checks that
                                        # every metric in BENCHMARK.json is emitted
  python3 perfbench/run.py --selftest   # unit tests of the statistics code

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory. The last line of stdout is the result object; build output and
diagnostics go to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ("room_control", "checkpoint_store", "campus_directory")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run_once(out, workload, seed, seconds, trace):
    """Runs one benchmark process; returns (stdout lines, result dict)."""
    cmd = [os.path.join(out, "ace_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s-%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s" % (workload,
                                                            RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("perfbench: %s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return lines, result


def smoke(out):
    """Short run of every workload in both modes against BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            _, result = run_once(out, workload, 1, 2, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in want if k in got and got[k] != want[k])
            bad = (missing or extra or units or not result["correct"]
                   or result["failed"])
            print("%-17s %-10s %s" % (workload, key,
                                      "FAIL" if bad else "ok"))
            for label, names in (("missing", missing), ("unexpected", extra),
                                 ("unit mismatch", units)):
                if names:
                    print("  %s: %s" % (label, ", ".join(names)))
            if not result["correct"] or result["failed"]:
                print("  correct=%s failed=%d of %d" % (
                    result["correct"], result["failed"], result["attempted"]))
            ok = ok and not bad
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.smoke or args.selftest):
        p.error("one of --workload, --smoke or --selftest is required")

    out = build()
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_stats_test")]
                              ).returncode
    if args.smoke:
        return smoke(out)
    lines, _ = run_once(out, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
