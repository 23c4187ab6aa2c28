"""The traced run: per-layer metrics from omvtrace (perfbench/trace).

run() makes one untraced process-fresh omnivar invocation and one omvtrace
invocation on the same selection, then turns omvtrace's spans and counters
and the campaign directories it leaves behind into the per-layer metrics.
Numbers from replays (see omvtrace.cpp) are checked against the harness
they stand for: every replayed cell's mean, spanned or not, must equal the
mean the cold campaign cached for that cell, and the Simulator::exec replay
must end where a real ompsim::for_loop ends.
"""

import json
import os
import statistics
import subprocess

import omvbench as ob

# trace.overhead_s above this share of the unspanned replays is reported:
# the spans then distort the per-layer times.
OVERHEAD_WARN_SHARE = 0.10

# name -> unit; every per-layer metric of BENCHMARK.json.
UNITS = {
    "sim.exec.calls": "count",
    "sim.exec.ns_per_call": "ns",
    "sim.exec_batch.calls": "count",
    "sim.exec_batch.ns_per_thread": "ns",
    "sim.query_share": "ratio",
    "omp.for_loop.calls": "count",
    "omp.grabs": "count",
    "omp.ns_per_grab": "ns",
    "omp.sync_episode.calls": "count",
    "omp.ns_per_sync_thread": "ns",
    "protocol.runs": "count",
    "protocol.reps": "count",
    "protocol.busy_s": "s",
    "protocol.begin_run_s": "s",
    "protocol.us_per_rep": "us",
    "cli.cells": "count",
    "cli.cells_computed": "count",
    "cli.cache_bytes": "bytes",
    "cli.cache_files": "count",
    "cli.worker_util": "ratio",
    "cli.critical_path_s": "s",
    "cli.sched_overhead_s": "s",
    "cli.warm_rerun_s": "s",
    "core.stats_s": "s",
    "scenario.materialize_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _csv_mean(path):
    """Mean of the timed repetitions of a cached RunMatrix CSV."""
    total = 0.0
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or line.startswith("run,"):
                continue
            total += float(line.rsplit(",", 1)[1])
            n += 1
    return total / n


def replay_mismatches(out_dir, replay_means):
    """Replayed cells whose mean differs from the campaign's cached one."""
    cached = {}
    for harness in {m["harness"] for m in replay_means}:
        art = _load(os.path.join(out_dir, f"{harness}.json"))
        for cell in art["cells"]:
            cached[(harness, cell["label"])] = os.path.join(out_dir,
                                                            cell["csv"])
    bad = []
    for m in replay_means:
        path = cached.get((m["harness"], m["label"]))
        want = _csv_mean(path) if path else None
        if want is None or abs(m["mean"] - want) > 1e-9 * abs(want):
            bad.append(f"{m['harness']} {m['label']}"
                       + ("" if m["spanned"] else " (unspanned)"))
    return bad


def protocol_totals(out_dir, harnesses):
    """(runs, repetitions incl. warmup) over the artifacts' cells."""
    runs = reps = 0
    for h in harnesses:
        for cell in _load(os.path.join(out_dir, f"{h}.json"))["cells"]:
            runs += cell["runs"]
            reps += cell["runs"] * (cell["warmup"] + cell["reps"])
    return runs, reps


def cache_usage(cache_dir):
    files = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
    return len(files), sum(os.path.getsize(f) for f in files)


def run(workload, env, invoke, fresh_dir, tracer, log):
    only, _, jobs = ob.WORKLOADS[workload]
    base = invoke(workload, (), env, fresh_dir("untraced"))

    work = fresh_dir("trace")
    result_path = os.path.join(work, "result.json")
    stdout_path = os.path.join(work, "stdout.txt")
    argv = [tracer, "--result", result_path, "--work", work,
            "--jobs", str(jobs)]
    for h in only:
        argv += ["--only", h]
    if jobs > 1:
        argv.append("--serial")
    stderr_path = os.path.join(work, "stderr.txt")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        rc = subprocess.run(argv, stdout=out, stderr=err, env=env).returncode
    if rc != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as f:
            tail = f.read().strip().splitlines()[-1:]
        raise RuntimeError(f"omvtrace exited {rc}: {' '.join(tail)}")
    res = _load(result_path)
    spans = res["spans"]
    c = res["counters"]
    cli = res["cli"]
    cold = os.path.join(work, "cold")

    cold_campaign = os.path.join(work, "cold.campaign.json")
    camp = ob.read_campaign(open(cold_campaign, encoding="utf-8").read())
    serial_campaign = (os.path.join(work, "serial", "campaign.json")
                       if jobs > 1 else cold_campaign)
    serial = ob.read_campaign(open(serial_campaign,
                                   encoding="utf-8").read())["seconds"]
    cache_files, cache_bytes = cache_usage(os.path.join(cold, "cache"))
    runs, reps = protocol_totals(cold, only)
    critical = max(serial.values())
    cold_wall = cli["cold"]["wall_s"]
    grabs = c["omp.grabs"]
    for_loop_s = spans["omp.for_loop"]["total_s"]
    ns_per_call = 1e9 * _ratio(spans["sim.exec.replay"]["total_s"],
                               c["sim.exec.replay_calls"])
    self_total = sum(s["self_s"] for s in spans.values())
    spanned_s = spans["bench_suite.run_protocol"]["total_s"]
    unspanned_s = spans["trace.unspanned_replay"]["total_s"]

    metrics = {
        "sim.exec.calls": grabs,
        "sim.exec.ns_per_call": ns_per_call,
        "sim.exec_batch.calls": c["sim.exec_batch.calls"],
        "sim.exec_batch.ns_per_thread": 1e9 * _ratio(
            spans["sim.exec_batch.replay"]["total_s"],
            c["sim.exec_batch.replay_threads"]),
        "sim.query_share": _ratio(grabs * ns_per_call * 1e-9, for_loop_s),
        "omp.for_loop.calls": c["omp.for_loop.calls"],
        "omp.grabs": grabs,
        "omp.ns_per_grab": 1e9 * _ratio(for_loop_s, grabs),
        "omp.sync_episode.calls": c["omp.sync_episode.calls"],
        "omp.ns_per_sync_thread": 1e9 * _ratio(
            spans["omp.sync_episode"]["self_s"],
            c["omp.sync_episode.threads"]),
        "protocol.runs": runs,
        "protocol.reps": reps,
        "protocol.busy_s": spanned_s,
        "protocol.begin_run_s": spans["protocol.begin_run"]["total_s"],
        "protocol.us_per_rep": 1e6 * _ratio(spanned_s,
                                            c["protocol.replayed_reps"]),
        "cli.cells": camp["cells_computed"] + camp["cells_cached"],
        "cli.cells_computed": camp["cells_computed"],
        "cli.cache_bytes": cache_bytes,
        "cli.cache_files": cache_files,
        "cli.worker_util": _ratio(cli["cold"]["cpu_s"], cold_wall * jobs),
        "cli.critical_path_s": critical,
        # --jobs shards the runs of each cell over the workers, so no
        # harness is a serial unit: the ideal makespan is Σ serial ÷ workers.
        "cli.sched_overhead_s": cold_wall - sum(serial.values()) / jobs,
        "cli.warm_rerun_s": cli["warm"]["wall_s"],
        "core.stats_s": spans["core.stats"]["total_s"],
        "scenario.materialize_s": statistics.median(res["materialize_s"]),
        "trace.overhead_s": spanned_s - unspanned_s,
        "trace.unattributed_s": res["wall_s"] - self_total,
    }

    # The tracer's stdout is its cold, warm (and serial) campaigns' reports,
    # each of which must equal the untraced invocation's.
    n_cli = 3 if jobs > 1 else 2
    with open(stdout_path, encoding="utf-8", errors="replace") as f:
        traced_ok = f.read() == base["stdout"] * n_cli
    rcs = [cli[k]["rc"] for k in ("cold", "warm")]
    if jobs > 1:
        rcs.append(cli["serial"]["rc"])
    cells = metrics["cli.cells"]
    attempted = cells * (1 + len(rcs))
    failed = sum(cells for r in rcs if r != 0)
    failed += cells if base["rc"] != 0 else min(base["quarantined"], cells)
    mismatches = replay_mismatches(cold, res["replay_means"])
    chain_bad = c["sim.exec.replay_chain_mismatches"]
    overhead_share = _ratio(metrics["trace.overhead_s"], unspanned_s)

    log(f"untraced wall {base['wall']:.6g} s, traced cold campaign "
        f"{cold_wall:.6g} s, warm {cli['warm']['wall_s']:.6g} s")
    log(f"traced stdout {'matches' if traced_ok else 'DIFFERS from'} the "
        f"untraced stdout (sha256 {base['digest']})")
    log(f"{len(res['replay_means'])} replayed cells (spanned and "
        f"unspanned), {len(mismatches)} differ from the cached cells"
        + (": " + ", ".join(mismatches) if mismatches else ""))
    log(f"{chain_bad} Simulator::exec replay chains end elsewhere than "
        f"ompsim::for_loop")
    log(f"replays {spanned_s:.6g} s spanned, {unspanned_s:.6g} s unspanned: "
        f"spans add {100 * overhead_share:.3g}%")
    if overhead_share > OVERHEAD_WARN_SHARE:
        log(f"WARNING: spans add more than {100 * OVERHEAD_WARN_SHARE:.0f}% "
            f"to the replays; the replayed per-layer times are inflated")
    log(f"failed_frac {_ratio(failed, attempted):.6g} ({failed} of "
        f"{attempted} cells)")
    for name, value in metrics.items():
        log(f"{name:<30} {value:.6g} {UNITS[name]}")
    correct = (failed == 0 and traced_ok and not mismatches
               and chain_bad == 0 and base["ok"] + base["bad"] > 0)
    return correct, attempted, failed, metrics
