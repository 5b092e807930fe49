#!/usr/bin/env python3
"""Self-tests of the control-loop benchmark (see README.md).

    python3 loopbench/selftest.py

Run from the root of a checkout; builds through run.py like any run. Checks:
  * the same seed generates byte-identical inputs and another seed
    different ones (input digests);
  * every output oracle fails, naming its check, when one defect is
    injected: a report dropped, or a command not routed;
  * the simulated-time metrics repeat exactly between two runs of a seed.
Exits 1 if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("per_tti_ingest", "closed_loop_sched", "sharded_fleet")
EXACT = ("rib_age_tti_p50", "rib_age_tti_p99", "delivered_ratio", "allocs_per_report")
DEFECTS = (("per_tti_ingest", "drop_report"), ("sharded_fleet", "drop_report"),
           ("sharded_fleet", "unrouted_command"), ("closed_loop_sched", "unrouted_command"))

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def digest(workload, seed):
    proc = run("--workload", workload, "--seed", str(seed), "--hash-inputs")
    if proc.returncode != 0:
        sys.exit(f"selftest: --hash-inputs failed for {workload}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def metrics(workload, seed):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1")
    check(proc.returncode == 0, f"{workload}: clean run (seed {seed}) passes its checks")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    for workload in WORKLOADS:
        first, again, other = digest(workload, 1), digest(workload, 1), digest(workload, 2)
        check(first == again, f"{workload}: seed 1 inputs are byte-identical ({first})")
        check(first != other, f"{workload}: seed 2 inputs differ ({other})")

    for workload, defect in DEFECTS:
        proc = run("--workload", workload, "--seed", "5", "--seconds", "1", "--inject", defect)
        named = [line for line in proc.stderr.splitlines() if "check failed" in line]
        check(proc.returncode == 1 and bool(named),
              f"{workload}: oracle catches {defect}" + (f" ({named[0]})" if named else ""))

    for workload in WORKLOADS:
        a, b = metrics(workload, 3), metrics(workload, 3)
        for name in EXACT:
            check(name in a and a.get(name) == b.get(name),
                  f"{workload}: {name} repeats exactly ({a.get(name)} vs {b.get(name)})")

    print(f"selftest: {len(failures)} failed" if failures else "selftest: all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
