#!/usr/bin/env python3
"""Benchmark of record for MergePath-SpMM: builds and drives mps_e2e.

One run of one workload, in fresh processes (untraced, one measuring for
the whole run plus SETUPS - 1 that only time the cold set-up; traced,
one); the last stdout line is the result
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). An
invalid measurement (load generator late) still prints its result, with
a warning on stderr:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Every workload, each in fresh processes, untraced then traced; prints
every metric with unit and sample count, leaves invalid records out of
the summary, exits 1 if any output failed its fp64 reference check:

    python3 bench/e2e/run.py [--seed N] [--seconds S] [--repeat R]
                             [--out results.json]

Toy-size run of every workload checking each BENCHMARK.json metric and
unit (the mps_e2e_smoke ctest):

    python3 bench/e2e/run.py --smoke [--binary PATH]

Compare two suite results (exits 1 on a regression, 2 when the results
come from different host fingerprints or ran with MPS_* variables set):

    python3 bench/e2e/run.py diff old.json new.json

The binary builds from the checkout's sources into .bench_build/e2e.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 120
# setup_s of an untraced run is the median cold set-up of this many fresh
# processes: the measuring one and SETUPS - 1 that only set up.
SETUPS = 3

# BENCHMARK.json lists the metrics every workload reports that repeat
# within their bound on a shared host. These are reported by some
# workloads only, repeat worse than that (serve tails), or vary with the
# seed's inputs more than a share of the median can bound; `diff` guards
# them too. An "abs_bound" is in the metric's unit instead of a share of
# the median.
F32_WORKLOADS = ["gcn-powerlaw-f32", "serve-cora", "serve-pubmed-churn"]
EXTRA_METRICS = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "latency_tail_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "update_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.1, "workloads": ["serve-pubmed-churn"]},
    {"name": "update_p99_ms", "unit": "ms", "better": "lower",
     "bound": 0.1, "workloads": ["serve-pubmed-churn"]},
    {"name": "rel_err", "unit": "ratio", "better": "lower",
     "abs_bound": 1e-5, "workloads": F32_WORKLOADS},
    {"name": "rel_err", "unit": "ratio", "better": "lower",
     "abs_bound": 1e-3, "workloads": ["gcn-amazon-bf16"]},
]


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build mps_e2e; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no library sources under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mps_e2e",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return BUILD / "mps_e2e"


def run_binary(binary, workload, seed, seconds, mode, smoke):
    """One workload in a fresh process: (exit code, record or None)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", *mode]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    record = json.loads(lines[-1]) if lines else None
    return proc.returncode, record


def measure(binary, workload, seed, seconds, traced, smoke=False):
    """One run of a workload: (exit code, record or None). Traced, one
    process. Untraced, one process measures the whole run, and its
    setup_s becomes the median of its own cold set-up and those of
    SETUPS - 1 set-up-only processes, whose first results are checked
    too."""
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace = traces / f"{workload}-seed{seed}.json"
        return run_binary(binary, workload, seed, seconds,
                          ["--traced", f"--trace-out={trace}"], smoke)
    rc, record = run_binary(binary, workload, seed, seconds, [], smoke)
    if rc != 0 or record is None:
        return rc, record
    setups = [record["metrics"]["setup_s"]["value"]]
    for _ in range(SETUPS - 1):
        rc, r = run_binary(binary, workload, seed, seconds, ["--setup-only"],
                           smoke)
        if rc != 0 or r is None:
            return rc, r
        record["attempted"] += r["attempted"]
        record["failed"] += r["failed"]
        record["correct"] = record["correct"] and r["correct"]
        setups.append(r["metrics"]["setup_s"]["value"])
    record["metrics"]["setup_s"].update(value=statistics.median(setups),
                                        samples=len(setups))
    return 0, record


def select(record, specs):
    """The record's metrics named in @p specs, checked for unit."""
    out = {}
    for spec in specs:
        m = record["metrics"].get(spec["name"])
        if m is None:
            raise KeyError(f"{record['workload']}: no metric {spec['name']}")
        if m["unit"] != spec["unit"]:
            raise KeyError(f"{record['workload']}: {spec['name']} in "
                           f"{m['unit']}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def single_main(args, bench):
    binary = build()
    rc, record = measure(binary, args.workload, args.seed, args.seconds,
                         args.trace == 1)
    if rc == 2 and record is not None:
        fail("MPS_* variables set, record not comparable: "
             f"{record['env']}", 2)
    if rc != 0 or record is None:
        fail(f"mps_e2e exited with {rc}")
    if not record["valid"]:
        # Still a measurement: latency counts from each request's due
        # time, so the generator's lateness is in it. Suites and `diff`
        # leave such records out.
        print("run.py: warning: invalid measurement: "
              + "; ".join(record["invalid_reasons"]), file=sys.stderr)
    specs = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    try:
        metrics = select(record, specs)
    except KeyError as e:
        fail(str(e))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    """Per workload and mode, each metric's n / median / quartiles over
    the valid records."""
    groups = {}
    for r in (r for r in records if r["valid"]):
        mode = "traced" if r["traced"] else "untraced"
        for name, m in r["metrics"].items():
            key = (r["workload"], mode, name)
            groups.setdefault(key, {"unit": m["unit"], "values": []})
            groups[key]["values"].append(m["value"])
    summary = {}
    for (workload, mode, name), g in sorted(groups.items()):
        q1, med, q3 = quartiles(g["values"])
        summary.setdefault(workload, {}).setdefault(mode, {})[name] = {
            "unit": g["unit"], "n": len(g["values"]), "median": med,
            "q1": q1, "q3": q3}
    return summary


def print_record(r):
    mode = "traced" if r["traced"] else "untraced"
    print(f"== {r['workload']} seed={r['seed']} {mode}: "
          f"correct={r['correct']} attempted={r['attempted']} "
          f"failed={r['failed']}"
          + ("" if r["valid"] else f" INVALID {r['invalid_reasons']}"))
    for name, m in r["metrics"].items():
        print(f"   {name:<28} {m['value']:>14.6g} {m['unit']:<8} "
              f"n={m['samples']}")


def suite_main(args, bench):
    binary = Path(args.binary) if args.binary else build()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    records, ok, comparable = [], True, True
    for rep in range(args.repeat):
        for w in workloads:
            for traced in (False, True):
                rc, r = measure(binary, w, args.seed + rep, seconds, traced)
                if r is None:
                    fail(f"{w}: mps_e2e exited with {rc}")
                print_record(r)
                records.append(r)
                ok = ok and rc == 0 and r["correct"]
                comparable = comparable and r["comparable"]
    invalid = sum(not r["valid"] for r in records)
    if invalid:
        print(f"run.py: {invalid} invalid record(s), left out of the "
              "summary and of `diff`", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": "mps_e2e.results/1",
                       "host": records[0]["host"],
                       "summary": summarize(records),
                       "records": records}, f, indent=1)
            f.write("\n")
    if not comparable:
        fail("MPS_* variables set: records are not comparable", 2)
    if not ok:
        fail("an output failed its reference check")


def smoke_main(args, bench):
    binary = Path(args.binary) if args.binary else build()
    problems = []
    for w in bench["workloads"]:
        for traced in (False, True):
            rc, r = measure(binary, w["name"], 1, 0.5, traced, smoke=True)
            where = f"{w['name']} {'traced' if traced else 'untraced'}"
            if rc != 0 or r is None:
                problems.append(f"{where}: exit {rc}")
                continue
            if not r["correct"]:
                problems.append(f"{where}: {r['failed']} of "
                                f"{r['attempted']} outputs failed")
            for key in ("nproc", "cpu_model", "isa", "detected_llc_bytes",
                        "compiler", "build_type", "build_flags"):
                if key not in r["host"]:
                    problems.append(f"{where}: host fingerprint lacks {key}")
            try:
                select(r, bench["per_layer" if traced else "end_to_end"])
            except KeyError as e:
                problems.append(str(e))
            print(f"{where}: attempted={r['attempted']} "
                  f"failed={r['failed']} metrics={len(r['metrics'])}")
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


# ---------------------------------------------------------------- diff

# The smallest change, as a share of the median, that `diff` reports from
# fully separated runs when it is inside the metric's bound.
RESOLVED_FLOOR = 0.05


def diff_metric(old, new, better, bound, absolute=False):
    """Verdict for one metric: ('regression'|'improved'|'same'|
    'unresolved', change). The change is a share of the old median, or
    in the metric's unit when @p absolute; worse is positive.

    A change past the bound counts unless either side's runs spread
    wider than the bound (unresolved). When every run on one side beats
    every run on the other and the medians differ by more than either
    side's spread and by more than RESOLVED_FLOOR, the data resolve the
    change even inside the bound."""
    _, m_old, _ = quartiles(old)
    _, m_new, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0

    def scaled(delta, base):
        if absolute:
            return delta
        return delta / abs(base) if base else 0.0

    def spread(values):
        q1, med, q3 = quartiles(values)
        return scaled(q3 - q1, med)

    change = sign * scaled(m_new - m_old, m_old)
    noise = max(spread(old), spread(new))
    # Changes the runs resolve inside the bound; none for absolute bounds.
    resolved = bound if absolute else max(noise, RESOLVED_FLOOR)
    # "Worse" is larger for lower-better metrics, smaller otherwise.
    all_worse = min(sign * v for v in new) > max(sign * v for v in old)
    all_better = max(sign * v for v in new) < min(sign * v for v in old)
    if all_worse and change > resolved:
        return "regression", change
    if all_better and -change > resolved:
        return "improved", change
    if noise > bound:
        return "unresolved", change
    if change > bound:
        return "regression", change
    if change < -bound:
        return "improved", change
    return "same", change


def incomparable(old, new):
    """Why two suite results cannot be compared, or None."""
    for side, results in (("old", old), ("new", new)):
        if not all(r.get("comparable", True) for r in results["records"]):
            return f"{side} has records run with MPS_* variables set"
    hosts = {json.dumps(r.get("host"), sort_keys=True)
             for results in (old, new) for r in results["records"]}
    if len(hosts) > 1:
        return "the records come from different host fingerprints"
    return None


def diff_results(old, new, bench):
    """Rows (workload, metric, verdict, change, absolute, old median,
    new median). Invalid records are left out."""
    specs = list(bench["end_to_end"]) + EXTRA_METRICS

    def values(results, workload, name):
        return [r["metrics"][name]["value"] for r in results["records"]
                if r["workload"] == workload and not r["traced"]
                and r.get("valid", True) and name in r["metrics"]]

    rows = []
    workloads = sorted({r["workload"] for r in old["records"]} &
                       {r["workload"] for r in new["records"]})
    for w in workloads:
        for spec in specs:
            if w not in spec.get("workloads", [w]):
                continue
            a, b = values(old, w, spec["name"]), values(new, w, spec["name"])
            if not a or not b:
                continue
            absolute = "abs_bound" in spec
            verdict, change = diff_metric(
                a, b, spec["better"],
                spec["abs_bound"] if absolute else spec["bound"], absolute)
            rows.append((w, spec["name"], verdict, change, absolute,
                         statistics.median(a), statistics.median(b)))
    return rows


def diff_main(paths, bench):
    with open(paths[0]) as f:
        old = json.load(f)
    with open(paths[1]) as f:
        new = json.load(f)
    reason = incomparable(old, new)
    if reason:
        fail(f"not comparable: {reason}", 2)
    rows = diff_results(old, new, bench)
    for w, name, verdict, change, absolute, m_old, m_new in rows:
        shown = f"{change:+9.3g}" if absolute else f"{change:+9.2%}"
        print(f"{w:<20} {name:<18} {verdict:<11} {shown} "
              f"{m_old:>12.6g} -> {m_new:<12.6g}")
    if any(r[2] == "regression" for r in rows):
        sys.exit(1)


def main():
    bench = load_benchmark()
    if len(sys.argv) > 1 and sys.argv[1] == "diff":
        if len(sys.argv) != 4:
            fail("usage: run.py diff old.json new.json")
        diff_main(sys.argv[2:], bench)
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload; print the result line")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", help="write suite records + summary here")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="use this mps_e2e instead of building")
    args = p.parse_args()
    if args.smoke:
        smoke_main(args, bench)
    elif args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        single_main(args, bench)
    else:
        suite_main(args, bench)


if __name__ == "__main__":
    main()
