#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, report.

    python3 perfbench/run.py --workload longtrace|query|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds perfbench_driver
(Release) under $CARGO_TARGET_DIR, or .bench_build when that is unset.
Each workload runs in a fresh driver process with every ODRIPS_*
variable removed from its environment and a fresh work directory (the
query workload's result store lives there), so no run sees a warm memo
or the operator's shell settings.

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The lines before it name every metric with its unit, the environment
stamp and, when traced, the span table. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("longtrace", "query", "fleet")

# The workload-specific names of the generic end-to-end metrics.
NAMED = {
    "longtrace": {"ops_per_s": "cycles_per_s",
                  "latency_ms_p50": "cycle_ms_p50",
                  "latency_ms_tail": "cycle_ms_p90"},
    "query": {"ops_per_s": "queries_per_s",
              "latency_ms_p50": "batch_ms_p50",
              "latency_ms_tail": "batch_ms_p90"},
    "fleet": {"ops_per_s": "device_days_per_s",
              "latency_ms_p50": "campaign_ms_p50",
              "latency_ms_tail": "campaign_ms_p90"},
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The caller's environment without any ODRIPS_* setting."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ODRIPS_")}


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    """Configure once, then bring perfbench_driver up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("simulator sources not found next to perfbench/")
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_root(), "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench_driver")


def run_driver(binary, workload, seed, seconds, trace):
    """One workload in a fresh process and work directory."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_root())
    try:
        proc = subprocess.run(
            [binary, "--workload=" + workload, "--seed=%d" % seed,
             "--seconds=%s" % seconds, "--trace=%d" % trace,
             "--workdir=" + workdir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=clean_env(), timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired:
        fail("%s: driver timed out" % workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s: driver exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check(run, reference):
    """Apply the reference digest (default seed only) to a driver run.
    A mismatch fails every op of the run."""
    failed = run["failed"]
    problems = list(run["violations"])
    expect = reference["digests"].get(run["workload"])
    if run["seed"] == reference["seed"] and expect is not None \
            and run["digest"] != expect:
        problems.append("output digest %s != reference %s"
                        % (run["digest"], expect))
        failed = run["attempted"]
    return failed, problems


def spec_names(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(run, trace, reference):
    failed, problems = check(run, reference)
    metrics = run["metrics"]
    attempted = run["attempted"]
    for p in problems:
        print("check failed: " + p)
    for k, v in sorted(run["env"].items()):
        print("env %s = %s" % (k, v))
    named = dict(NAMED[run["workload"]])
    for name, m in sorted(metrics.items()):
        alias = named.get(name)
        print("metric %s = %.6g %s%s" % (name, m["value"], m["unit"],
                                         " (%s)" % alias if alias else ""))
    print("metric failed_ratio = %.6g ratio (%d of %d ops)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    for name, s in sorted(run["spans"].items()):
        print("span %-22s calls=%d calls/op=%.4g total_ms=%.4g self_ms=%.4g "
              "p50_us=%.4g p99_us=%.4g"
              % (name, s["calls"], s["calls_per_op"], s["total_ns"] / 1e6,
                 s["self_ns"] / 1e6, s["p50_ns"] / 1e3, s["p99_ns"] / 1e3))
    missing = [n for n in spec_names(trace) if n not in metrics]
    if missing:
        fail("driver did not report: " + ", ".join(missing))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]}
                    for n in spec_names(trace)},
    }
    print(json.dumps(result))


def selftest(binary, reference):
    """Short runs: every metric present with its unit, a perturbed
    digest fails every op, two seeds give different inputs."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    errors = []
    for w in WORKLOADS:
        runs = {t: run_driver(binary, w, reference["seed"], 1, t)
                for t in (0, 1)}
        for t, r in runs.items():
            for n in spec_names(t):
                got = r["metrics"].get(n)
                if got is None or got["unit"] != units[n]:
                    errors.append("%s trace=%d: %s missing or unit %r"
                                  % (w, t, n, got and got["unit"]))
            failed, problems = check(r, reference)
            if failed or problems:
                errors.append("%s trace=%d: %s" % (w, t, problems))
        perturbed = {"seed": reference["seed"],
                     "digests": {w: "0" * 16}}
        failed, _ = check(runs[0], perturbed)
        if failed != runs[0]["attempted"]:
            errors.append("%s: perturbed digest did not fail every op" % w)
        other = run_driver(binary, w, reference["seed"] + 1, 1, 0)
        if other["input_digest"] == runs[0]["input_digest"]:
            errors.append("%s: two seeds generated the same inputs" % w)
        print("selftest %s: %s" % (w, "ok" if not errors else "FAIL"))
    for e in errors:
        print("selftest error: " + e)
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    reference = load_json(REFERENCE)
    if args.selftest:
        sys.exit(selftest(binary, reference))
    if args.workload is None:
        ap.error("--workload is required")
    run = run_driver(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    report(run, args.trace, reference)


if __name__ == "__main__":
    main()
