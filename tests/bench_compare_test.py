#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py's failure handling.

The comparator is a CI gate: when it is fed a damaged bench JSON it must
fail with a clear message and a nonzero exit, never with a traceback (a
traceback reads as "the gate is broken", not "the bench regressed").
Each case builds a tiny baseline/current pair in a temp dir and asserts
on the exit code and on what the output does (and does not) contain.

Usage: bench_compare_test.py [/path/to/bench_compare.py]
"""

import json
import os
import subprocess
import sys
import tempfile

GOOD_STORE = {
    "pass": True,
    "recovery_max_ratio": 1.0,
    "group_commit_speedup": 1.2,
}


def run_compare(script, baseline, current):
    return subprocess.run(
        [sys.executable, script,
         "--baseline-dir", baseline, "--current-dir", current],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=60)


def write(dirname, name, payload):
    path = os.path.join(dirname, name)
    with open(path, "w") as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            json.dump(payload, f)
    return path


def case(script, name, baseline_doc, current_doc, want_exit, want_text,
         bench="BENCH_store.json"):
    with tempfile.TemporaryDirectory(prefix="eric-bench-compare-") as work:
        baseline_dir = os.path.join(work, "baseline")
        current_dir = os.path.join(work, "current")
        os.makedirs(baseline_dir)
        os.makedirs(current_dir)
        write(baseline_dir, bench, baseline_doc)
        write(current_dir, bench, current_doc)
        result = run_compare(script, baseline_dir, current_dir)
    ok = result.returncode == want_exit
    if "Traceback" in result.stdout:
        print("FAIL %s: comparator raised a traceback:\n%s" %
              (name, result.stdout))
        return False
    if want_text and want_text not in result.stdout:
        print("FAIL %s: output lacks %r:\n%s" %
              (name, want_text, result.stdout))
        return False
    if not ok:
        print("FAIL %s: exit %d, wanted %d:\n%s" %
              (name, result.returncode, want_exit, result.stdout))
        return False
    print("ok   %s" % name)
    return True


def fig7_doc(script, drift=0):
    """A BENCH_fig7_exec.json with the committed baseline's shape and
    numbers, sha's plain_cycles moved by `drift` cycles."""
    baseline = os.path.join(os.path.dirname(os.path.abspath(script)), "..",
                            "bench", "baselines", "BENCH_fig7_exec.json")
    with open(baseline) as f:
        doc = json.load(f)
    for workload in doc["workloads"]:
        if workload["name"] == "sha":
            workload["plain_cycles"] += drift
    return doc


def main():
    script = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "tools",
        "bench_compare.py")

    bad_metric = dict(GOOD_STORE)
    del bad_metric["recovery_max_ratio"]
    non_numeric = dict(GOOD_STORE, group_commit_speedup="fast")
    non_numeric_base = dict(GOOD_STORE, recovery_max_ratio=True)

    results = [
        case(script, "clean pair passes", GOOD_STORE, GOOD_STORE, 0, "PASS"),
        case(script, "missing metric in fresh output", GOOD_STORE,
             bad_metric, 1, "vanished from fresh output"),
        case(script, "non-numeric fresh metric", GOOD_STORE, non_numeric, 1,
             "is not numeric"),
        case(script, "non-numeric (bool) baseline metric", non_numeric_base,
             GOOD_STORE, 1, "is not numeric"),
        case(script, "malformed fresh JSON", GOOD_STORE, "{not json",
             1, "unreadable JSON"),
        case(script, "non-object baseline JSON", [1, 2, 3], GOOD_STORE,
             1, "expected a JSON object"),
        case(script, "bench self-reported failure", GOOD_STORE,
             dict(GOOD_STORE, **{"pass": False}), 1,
             "acceptance criterion"),
        case(script, "regression beyond threshold", GOOD_STORE,
             dict(GOOD_STORE, recovery_max_ratio=5.0), 1, "REGRESSION"),
        # The scannable summary line: present on clean runs (nothing
        # moved) and naming the worst metric when something regressed.
        case(script, "summary line on clean run", GOOD_STORE, GOOD_STORE, 0,
             "summary: 2 metric(s) compared, no metric moved in the bad "
             "direction"),
        case(script, "summary line names worst regression", GOOD_STORE,
             dict(GOOD_STORE, recovery_max_ratio=5.0), 1,
             "summary: 2 metric(s) compared, worst regression +400.0% "
             "(BENCH_store.json recovery_max_ratio)"),
        # A small regression inside the threshold still shows up in the
        # summary while the run passes.
        case(script, "summary reports sub-threshold movement", GOOD_STORE,
             dict(GOOD_STORE, recovery_max_ratio=1.2), 0,
             "worst regression +20.0%"),
        # Simulator cycle counts are gated exactly, per kernel, through
        # list entries matched by name: one cycle either way fails.
        case(script, "unchanged kernel cycles pass", fig7_doc(script),
             fig7_doc(script), 0, "workloads.sha.plain_cycles: baseline "
             "195128 -> current 195128", bench="BENCH_fig7_exec.json"),
        case(script, "one-cycle drift up fails", fig7_doc(script),
             fig7_doc(script, drift=1), 1,
             "workloads.sha.plain_cycles: 195128 -> 195129",
             bench="BENCH_fig7_exec.json"),
        case(script, "one-cycle drift down fails", fig7_doc(script),
             fig7_doc(script, drift=-1), 1,
             "workloads.sha.plain_cycles: 195128 -> 195127",
             bench="BENCH_fig7_exec.json"),
        case(script, "kernel row missing from fresh output",
             fig7_doc(script),
             dict(fig7_doc(script), workloads=[
                 w for w in fig7_doc(script)["workloads"]
                 if w["name"] != "sha"]), 1,
             "workloads.sha.plain_cycles vanished from fresh output",
             bench="BENCH_fig7_exec.json"),
    ]
    if all(results):
        print("PASS: %d bench_compare self-test cases" % len(results))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
