#!/usr/bin/env python3
"""omnivar benchmark: process-fresh end-to-end runs plus a traced
per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sched-dynamic --seed 0 \
        --seconds 45 --trace 0

It builds omnivar (and, for --trace 1, the omvtrace tracer) under
.bench_build/, then

  * --trace 0: invokes the real `omnivar` driver on the workload's
    selection, process-fresh and back to back, until --seconds have
    passed, and reports the medians of the end-to-end metrics;
  * --trace 1: runs the same selection once untraced and once inside
    omvtrace, which spans the calls into each layer, and reports the
    per-layer metrics.

Every line but the last is a human-readable report; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.

Runs are hermetic: every OMNIVAR_* variable is removed from the
environment and the worker count is passed explicitly. Timed runs always
use the paper's Dardel+Vera default; a non-zero --seed also checks
omnivar on a held-out pair of catalog scenarios at the quick protocol
(correctness only, untimed). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import omvbench as ob  # noqa: E402
import trace_run  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OMNIVAR_BUILD = os.path.join(BUILD, "omnivar")
TRACE_BUILD = os.path.join(BUILD, "trace")
OMNIVAR = os.path.join(OMNIVAR_BUILD, "bench", "omnivar")
TRACER = os.path.join(TRACE_BUILD, "omvtrace")
SCRATCH = os.path.join(BUILD, "work")

# --plan is milliseconds of work, so set-up time is the median of many
# invocations, spread over the run: a few before each timed invocation, so
# that a short burst of host load cannot decide the median.
SETUP_PER_INVOCATION = 5

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("reps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("shape_ok_frac", "ratio", "higher"),
    ("ok_frac", "ratio", "higher"),
)


def log(msg):
    print(f"[perfbench] {msg}", flush=True)


def hermetic_env(quick=False):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OMNIVAR_")}
    if quick:
        env["OMNIVAR_QUICK"] = "1"
    return env


def build(with_tracer):
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", OMNIVAR_BUILD,
         "-DCMAKE_BUILD_TYPE=Release", "-DOMNIVAR_BUILD_TESTS=OFF",
         "-DOMNIVAR_BUILD_EXAMPLES=OFF", "-DOMNIVAR_WERROR=OFF"],
        ["cmake", "--build", OMNIVAR_BUILD, "--target", "omnivar",
         "-j", jobs],
    ]
    if with_tracer:
        steps += [
            ["cmake", "-S", os.path.join(HERE, "trace"), "-B", TRACE_BUILD,
             "-DCMAKE_BUILD_TYPE=Release", f"-DOMNIVAR_ROOT={ROOT}",
             f"-DOMNIVAR_BUILD_DIR={OMNIVAR_BUILD}"],
            ["cmake", "--build", TRACE_BUILD, "-j", jobs],
        ]
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        for cmd in steps:
            subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                           env=hermetic_env(), check=True)


def spawn(argv, env, stdout_path):
    """Runs argv to completion; returns (rc, wall_s, cpu_s, peak_rss_mb)
    measured on that one child."""
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (p.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def fresh_dir(name):
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def invoke(workload, scenarios, env, out_dir=None):
    """One process-fresh omnivar run of the workload."""
    stdout_path = os.path.join(SCRATCH, "stdout.txt")
    rc, wall, cpu, rss = spawn(
        [OMNIVAR] + ob.omnivar_args(workload, scenarios, out_dir),
        env, stdout_path)
    with open(stdout_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    ok, bad = ob.count_verdicts(text)
    failed_lines = len(ob.failed_cell_lines(text))
    inv = {"rc": rc, "wall": wall, "cpu": cpu, "rss": rss, "stdout": text,
           "digest": ob.digest(text), "ok": ok, "bad": bad,
           "failed_lines": failed_lines, "quarantined": failed_lines}
    if out_dir is not None:
        camp = os.path.join(out_dir, "campaign.json")
        if os.path.exists(camp):
            with open(camp, encoding="utf-8") as f:
                inv["quarantined"] = max(
                    failed_lines, ob.read_campaign(f.read())["quarantined"])
        else:
            inv["rc"] = inv["rc"] or 1
    return inv


def plan(workload, env):
    """(cells, reps, wall) of one --plan invocation."""
    stdout_path = os.path.join(SCRATCH, "plan.tsv")
    rc, wall, _, _ = spawn(
        [OMNIVAR] + ob.omnivar_args(workload, (), plan=True),
        env, stdout_path)
    if rc != 0:
        raise RuntimeError(f"omnivar --plan exited {rc}")
    with open(stdout_path, encoding="utf-8") as f:
        cells, reps = ob.plan_totals(f.read())
    return cells, reps, wall


def provenance(env):
    ver = subprocess.run([OMNIVAR, "--version"], capture_output=True,
                         text=True, env=env).stdout.strip()
    compiler = ""
    cache = os.path.join(OMNIVAR_BUILD, "CMakeCache.txt")
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                compiler = subprocess.run(
                    [cxx, "--version"], capture_output=True,
                    text=True).stdout.splitlines()[0]
    return {"omnivar_version": " | ".join(ver.splitlines()),
            "nproc": os.cpu_count(), "compiler": compiler}


def held_out_check(workload, seed, env_quick):
    """Quick-protocol run of the seed's held-out scenario pair: True when
    it exits 0 with no quarantined cell and at least one verdict."""
    pair = ob.held_out_pair(seed)
    if not pair:
        return True
    inv = invoke(workload, pair, env_quick)
    good = (inv["rc"] == 0 and inv["quarantined"] == 0
            and inv["ok"] + inv["bad"] > 0)
    log(f"held-out check {' + '.join(pair)} (quick protocol): "
        f"exit {inv['rc']}, verdicts {inv['ok']} ok / {inv['bad']} "
        f"mismatch, stdout sha256 {inv['digest']} -> "
        f"{'ok' if good else 'FAILED'}")
    return good


def run_untraced(workload, seconds, env):
    # One untimed warm-up invocation first: its output is checked with the
    # others', its times are not used.
    checked = [invoke(workload, (), env)]
    plans = []
    invs = []
    t0 = time.perf_counter()
    while not invs or time.perf_counter() - t0 < seconds:
        plans += [plan(workload, env)
                  for _ in range(SETUP_PER_INVOCATION)]
        invs.append(invoke(workload, (), env))
    checked += invs
    if len({p[:2] for p in plans}) != 1:
        raise RuntimeError("omnivar --plan is not deterministic")
    cells, reps, _ = plans[0]
    setup = statistics.median([p[2] for p in plans])
    attempted, failed = ob.invocation_failures(checked, cells)
    first = invs[0]
    verdicts = first["ok"] + first["bad"]
    wall = statistics.median([i["wall"] for i in invs])
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median([i["cpu"] for i in invs]),
        "reps_per_s": reps / wall,
        "setup_s": setup,
        "peak_rss_mb": statistics.median([i["rss"] for i in invs]),
        "shape_ok_frac": first["ok"] / verdicts if verdicts else 0.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    digests = sorted({i["digest"] for i in checked})
    log(f"1 warm-up and {len(invs)} timed invocations, {cells} cells and "
        f"{reps:.0f} repetitions each; exit codes "
        f"{sorted({i['rc'] for i in checked})}")
    log("wall per timed invocation "
        + " ".join(f"{i['wall']:.4f}" for i in invs))
    log(f"stdout sha256 {' '.join(digests)}")
    log(f"verdicts {first['ok']} [SHAPE-OK] / {first['bad']} "
        f"[SHAPE-MISMATCH]; FAILED cell lines "
        f"{sum(i['failed_lines'] for i in checked)}")
    log(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
        f"cells)")
    for name, unit, better in END_TO_END:
        log(f"{name:<24} {metrics[name]:.6g} {unit} ({better} is better)")
    correct = (failed == 0 and len(digests) == 1 and verdicts > 0)
    details = {"wall_s": [i["wall"] for i in invs],
               "cpu_s": [i["cpu"] for i in invs],
               "setup_s": [p[2] for p in plans], "stdout_sha256": digests}
    return correct, attempted, failed, metrics, details


def run_workload(workload, args, env, prov):
    """Runs one workload; returns its result object."""
    log(f"workload {workload}, seed {args.seed}, inputs Dardel+Vera (paper)")
    if args.trace:
        correct, attempted, failed, metrics = trace_run.run(
            workload, env, invoke, fresh_dir, TRACER, log)
        details = {}
    else:
        correct, attempted, failed, metrics, details = run_untraced(
            workload, args.seconds, env)
    correct &= held_out_check(workload, args.seed, hermetic_env(quick=True))
    units = (trace_run.UNITS if args.trace
             else {n: u for n, u, _ in END_TO_END})
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(BUILD, f"result-{workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, "samples": details, **result}, f,
                  indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(ob.WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another "
                         "(the last line then names metrics workload/name)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build(with_tracer=bool(args.trace))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed ({e}); see .bench_build/build.log",
              file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    env = hermetic_env()
    prov = provenance(env)
    log(f"omnivar {prov['omnivar_version']}; nproc {prov['nproc']}; "
        f"compiler {prov['compiler']}")
    if args.workload != "all":
        result = run_workload(args.workload, args, env, prov)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for w in ob.WORKLOADS:
            r = run_workload(w, args, env, prov)
            result["correct"] &= r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            result["metrics"].update(
                (f"{w}/{k}", v) for k, v in r["metrics"].items())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
