"""Parsing and statistics helpers of the omnivar benchmark.

Everything here is a pure function over text the omnivar driver prints or
writes, so the benchmark's bookkeeping is testable on fixture outputs
(test_omvbench.py) without building or running the program.
"""

import hashlib
import json
import re
import statistics

# name -> (harness selection, worker count of the timed invocations,
# worker count of the traced campaign). sync-stream's traced campaign runs
# on 2 workers so that the per-layer run still measures the cli cell
# scheduler and ParallelRunner doing parallel work.
WORKLOADS = {
    "sched-dynamic": (("table2",), 1, 1),
    "sync-stream": (("fig1", "fig2"), 1, 2),
}

# Catalog presets other than the paper's two platforms: the pool that
# non-zero seeds draw their held-out scenario pairs from.
HELD_OUT_POOL = (
    "biglittle", "dvfs-dippy", "epyc-like", "lopsided-numa",
    "noisy-cloud", "quiet-hpc",
)

_VERDICT_OK = "[SHAPE-OK]"
_VERDICT_BAD = "[SHAPE-MISMATCH]"
_FAILED_CELL = re.compile(r"^\[omnivar\] FAILED cell ")


def held_out_pair(seed):
    """Scenario pair of a workload seed: () for seed 0 (the paper's
    Dardel+Vera default), else two distinct presets of HELD_OUT_POOL,
    fixed by the seed."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed == 0:
        return ()
    pairs = [(a, b) for i, a in enumerate(HELD_OUT_POOL)
             for b in HELD_OUT_POOL[i + 1:]]
    return pairs[(seed - 1) % len(pairs)]


def omnivar_args(workload, scenarios=(), out_dir=None, plan=False):
    """omnivar arguments of one invocation of `workload`. The worker count
    is always explicit, so a change of omnivar's default cannot change
    what a workload runs."""
    only, jobs, _ = WORKLOADS[workload]
    args = []
    for name in only:
        args += ["--only", name]
    args += ["--jobs", str(jobs)]
    for s in scenarios:
        args += ["--scenario", s]
    if plan:
        args.append("--plan")
    elif out_dir is not None:
        args += ["--out", out_dir]
    return args


def count_verdicts(stdout):
    """(ok, mismatch) counts of the harnesses' verdict lines."""
    ok = bad = 0
    for line in stdout.splitlines():
        if line.startswith(_VERDICT_OK):
            ok += 1
        elif line.startswith(_VERDICT_BAD):
            bad += 1
    return ok, bad


def failed_cell_lines(stdout):
    """The "[omnivar] FAILED cell ..." lines of quarantined cells."""
    return [l for l in stdout.splitlines() if _FAILED_CELL.match(l)]


def plan_totals(plan_tsv):
    """(cells, repetitions) of a --plan listing: one line per cell, the
    fifth tab-separated column its cost, runs x (warmup + reps)."""
    cells = 0
    reps = 0.0
    for n, line in enumerate(plan_tsv.splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ValueError(f"plan line {n}: expected 5 columns, got "
                             f"{len(cols)}")
        cost = float(cols[4])
        if cost <= 0:
            raise ValueError(f"plan line {n}: non-positive cost {cols[4]}")
        cells += 1
        reps += cost
    if cells == 0:
        raise ValueError("plan lists no cells")
    return cells, reps


def read_campaign(text):
    """Summary of a campaign.json: computed and cached cells, quarantined
    cells and each harness's seconds."""
    doc = json.loads(text)
    harnesses = doc["harnesses"]
    return {
        "cells_computed": sum(h["cells_computed"] for h in harnesses),
        "cells_cached": sum(h["cells_cached"] for h in harnesses),
        "quarantined": sum(len(h["failures"]) for h in harnesses),
        "seconds": {h["name"]: float(h["seconds"]) for h in harnesses},
    }


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def invocation_failures(invocations, cells):
    """Failed cells of a set of invocations of one selection of `cells`
    cells. Each invocation is a dict with `rc`, `digest` and `quarantined`.
    An invocation that exits non-zero or whose stdout differs from the
    set's most common stdout fails as a whole (all its cells); otherwise
    its quarantined cells fail. Returns (attempted, failed)."""
    if not invocations:
        raise ValueError("no invocations")
    digests = [inv["digest"] for inv in invocations]
    common = max(sorted(set(digests)), key=digests.count)
    failed = 0
    for inv in invocations:
        if inv["rc"] != 0 or inv["digest"] != common:
            failed += cells
        else:
            failed += min(inv["quarantined"], cells)
    return cells * len(invocations), failed


def iqr_share(values):
    """Quartile distance over the median: the spread of a set of runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
