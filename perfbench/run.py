#!/usr/bin/env python3
"""Fleet rollout benchmark: build, run one workload, or report steadiness.

Run from the repository root:

  python3 perfbench/run.py --workload suite_sim --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --steadiness 10 --seconds 40

The first form builds the library and the benchmark from this checkout's
sources (into $CARGO_TARGET_DIR, default .bench_build), runs one workload,
and relays its output: human-readable metric lines, then one JSON line.
The second repeats every workload over consecutive seeds and prints each
end-to-end metric's median and quartile spread beside its bound from
BENCHMARK.json. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite_sim", "rollout_durable")
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds fleet_bench; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "fleet_bench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "fleet_bench")


def expected_cycles():
    """(isa/kernel) -> plain + HDE cycles from the committed baselines."""
    baselines = os.path.join(ROOT, "bench", "baselines")
    with open(os.path.join(baselines, "BENCH_isa.json")) as f:
        isa = json.load(f)
    with open(os.path.join(baselines, "BENCH_fig7_exec.json")) as f:
        fig7 = json.load(f)
    table = {}
    for name in ("rv64gc", "rv32i"):
        for w in isa[name]["workloads"]:
            table[f"{name}/{w['name']}"] = w["plain_cycles"] + w["hde_cycles"]
    for w in fig7["workloads"]:
        key = f"rv64gc/{w['name']}"
        cycles = w["plain_cycles"] + w["hde_cycles"]
        if table.setdefault(key, cycles) != cycles:
            raise SystemExit(f"baselines disagree on {key}")
    return ",".join(f"{k}={v}" for k, v in sorted(table.items()))


def run_once(binary, workload, seed, seconds, trace, cycles):
    """Runs one workload; returns (exit code, stdout)."""
    state = os.path.join(build_root(), "state")
    shutil.rmtree(state, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-dir", state, "--expected-cycles", cycles]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"{workload} seed {seed}: timed out\n")
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return 1, out
    finally:
        shutil.rmtree(state, ignore_errors=True)


def spread(values):
    """Quartile spread (Q3 - Q1) as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def steadiness(binary, args, cycles):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    steady = True
    for workload in workloads:
        samples, probes = {}, []
        for i in range(args.steadiness):
            seed = args.seed + i
            code, out = run_once(binary, workload, seed, args.seconds, 0, cycles)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                sys.stderr.write(f"{workload} seed {seed}: run failed\n{out}")
                return 1
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            probes += [float(l.split()[1]) for l in lines
                       if l.strip().startswith("host.spin_probe_ms")]
        print(f"{workload}: {args.steadiness} runs of {args.seconds} s, "
              f"seeds {args.seed}..{args.seed + args.steadiness - 1}, "
              f"spin probe median {statistics.median(probes):.1f} ms")
        print(f"  {'metric':28} {'median':>16} {'spread':>8} {'bound':>6}")
        for name, values in samples.items():
            median, share = spread(values)
            bound = bounds.get(name, 0)
            # setup_s is held to its bound only median-to-median.
            verdict = ("ok" if share <= bound / 3 else
                       "within bound" if share <= bound else "WIDE")
            if name != "setup_s" and share > bound:
                steady = False
            print(f"  {name:28} {median:16.6g} {share:8.4f} {bound:6.3f}  {verdict}")
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="repeat each workload over N seeds and report spreads")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload is required unless --steadiness is given")

    try:
        binary = build()
        cycles = expected_cycles()
    except (OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        sys.stderr.write(f"build failed: {e}\n")
        return 2
    if args.steadiness:
        return steadiness(binary, args, cycles)
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace, cycles)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
