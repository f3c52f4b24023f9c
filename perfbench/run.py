#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run: builds perfbench/perfbench.exe with dune, runs it, and
        passes its output and exit code through. The last stdout line is
        the JSON result.

    python3 perfbench/run.py --steady K [--workload NAME] [--sets 2]
        Steadiness: K runs per workload (seeds 1..K, or --seed onwards),
        then per end-to-end metric the median, quartiles, min and max, and
        the quartile spread as a share of the median against the metric's
        bound in BENCHMARK.json. With --sets 2 the K seeds run twice and the
        second set's median is compared with the first's.

    python3 perfbench/run.py --smoke
        The benchmark's own test: tiny campaigns on every workload prove
        that every metric BENCHMARK.json names is printed with its unit, and
        that a deliberately falsified record list makes the run fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT = 180


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    # The benchmark links the ferrite libraries, so it needs the whole source
    # tree; a directory holding only the benchmark files cannot build it.
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die("not at the root of a ferrite checkout (missing %s)" % path)
    # no shared build cache: the build writes only inside the checkout
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stdin=subprocess.DEVNULL,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run_exe(args):
    """Run the benchmark executable; return its exit code, its result (the
    last stdout line parsed as JSON, or None) and its stderr."""
    r = subprocess.run(
        [EXE] + args, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=RUN_TIMEOUT,
    )
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r.returncode, result, r.stderr


def run_args(workload, seed, seconds, trace, extra=()):
    return [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + list(extra)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steady(spec, workloads, k, first_seed, seconds, sets):
    metrics = spec["end_to_end"]
    ok = True
    for wl in workloads:
        runs = []
        for s in range(sets):
            values = {m["name"]: [] for m in metrics}
            for seed in range(first_seed, first_seed + k):
                code, result, _ = run_exe(run_args(wl, seed, seconds, 0))
                if code != 0 or result is None or not result["correct"]:
                    print("%s seed %d: run failed (exit %d)" % (wl, seed, code))
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(
                    "%s set %d seed %d: %s" % (wl, s + 1, seed, " ".join(
                        "%s=%.6g" % (m["name"], values[m["name"]][-1]) for m in metrics)),
                    flush=True,
                )
            runs.append(values)
        print("\n%s: %d runs per set" % (wl, k))
        print("%-18s %12s %12s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for s, values in enumerate(runs):
                vs = values[name]
                if not vs:
                    continue
                q1, med, q3 = quartiles(vs)
                spread = (q3 - q1) / med if med else float("inf")
                if spread < bound / 3:
                    verdict = "steady (< bound/3)"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "OVER BOUND"
                    ok = False
                print("%-18s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.2f  %s%s" % (
                    name, med, q1, q3, min(vs), max(vs), spread, bound, verdict,
                    "" if sets == 1 else " (set %d)" % (s + 1)))
            if sets == 2 and runs[0][name] and runs[1][name]:
                m1 = statistics.median(runs[0][name])
                m2 = statistics.median(runs[1][name])
                worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                agree = worse <= bound
                ok = ok and agree
                print("%-18s second median %+.4f of the first, worse by at most %.2f: %s" % (
                    name, (m2 - m1) / m1, bound, "agree" if agree else "DISAGREE"))
    return ok


def smoke(spec):
    failures = []
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run_exe(run_args(wl, 1, 1, trace, ["--smoke"]))
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s trace %d: run failed (exit %d)" % (wl, trace, code))
                continue
            got = result["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    failures.append("%s trace %d: metric %s missing" % (wl, trace, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    failures.append("%s trace %d: metric %s has unit %s, BENCHMARK.json says %s" % (
                        wl, trace, m["name"], got[m["name"]]["unit"], m["unit"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                failures.append("%s trace %d: metrics not in BENCHMARK.json: %s" % (
                    wl, trace, sorted(extra)))
        code, result, err = run_exe(run_args(wl, 1, 1, 0, ["--smoke", "--corrupt-records"]))
        if (code == 0 or result is None or result["correct"]
                or "MISMATCH: traced records differ" not in err):
            failures.append("%s: a falsified record list was not caught" % wl)
    for f in failures:
        print("FAIL: " + f)
    print("smoke: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return not failures


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    spec = load_spec()
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.smoke:
        sys.exit(0 if smoke(spec) else 1)
    if a.steady:
        names = [w["name"] for w in spec["workloads"]]
        workloads = [a.workload] if a.workload else names
        sys.exit(0 if steady(spec, workloads, a.steady, a.seed, seconds, a.sets) else 1)
    if not a.workload:
        die("--workload is required")
    cmd = [EXE] + run_args(a.workload, a.seed, seconds, a.trace)
    sys.exit(subprocess.run(cmd, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT).returncode)


if __name__ == "__main__":
    main()
