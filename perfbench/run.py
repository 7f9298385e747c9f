#!/usr/bin/env python3
"""Repository benchmark: builds the workload runner from source, runs one
workload and prints every metric by name with its unit. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics of
the traced run (--trace 1). Run from the repository root:

    python3 perfbench/run.py --workload fig15_paper --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("fig15_paper", "service_zipf", "dense_feedback")

END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_jobs_per_s": "jobs/s",
    "norm_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
    "norm_req_p50_ms": "ms",
    "norm_req_tail_ms": "ms",
}

# The host probe's figure (stats.probe_ms) on an unloaded host: a 4-vCPU
# Intel Xeon virtual machine, GCC 12 Release build. Every time the
# benchmark reports is scaled to the host speed where the probe takes this
# long (see README.md, "Host-speed normalization"). It is a fixed unit,
# the same for every commit, so it cancels out of any comparison.
PROBE_NOMINAL_MS = 0.21

PER_LAYER_UNITS = {
    "workloads.build_ms": "ms",
    "net.topology_build_ms": "ms",
    "net.messages": "count",
    "net.broadcasts": "count",
    "compiler.compile_ms": "ms",
    "compiler.compile_share": "ratio",
    "compiler.instructions": "count",
    "compiler.swaps_inserted": "count",
    "compiler.cache.lookups": "count",
    "compiler.cache.misses": "count",
    "compiler.cache.hit_ratio": "ratio",
    "runtime.machine_build_ms": "ms",
    "runtime.run_ms": "ms",
    "runtime.run_share": "ratio",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "core.instructions": "count",
    "core.instr_per_event": "ratio",
    "core.ns_per_instruction": "ns",
    "core.pause_cycles": "cycles",
    "common.telf_records": "count",
    "common.telf_per_event": "ratio",
    "quantum.gates": "count",
    "quantum.measurements": "count",
    "quantum.backend_ms": "ms",
    "quantum.ns_per_gate": "ns",
    "service.submit_ms": "ms",
    "service.overhead_ms": "ms",
    "trace.overhead": "ratio",
}

# Per-layer metrics that do not apply to a workload, and why. They are
# reported as 0.
NOT_APPLICABLE = {
    "fig15_paper": {
        "compiler.cache.lookups": "compile cache off: every pass compiles",
        "compiler.cache.misses": "compile cache off: every pass compiles",
        "compiler.cache.hit_ratio": "compile cache off: every pass compiles",
        "quantum.backend_ms": "timing-only device, no functional backend",
        "quantum.ns_per_gate": "timing-only device, no functional backend",
        "service.submit_ms": "no JobServer in this workload",
        "service.overhead_ms": "no JobServer in this workload",
    },
    "dense_feedback": {
        "compiler.cache.lookups": "compile cache off: every pass compiles",
        "compiler.cache.misses": "compile cache off: every pass compiles",
        "compiler.cache.hit_ratio": "compile cache off: every pass compiles",
        "service.submit_ms": "no JobServer in this workload",
        "service.overhead_ms": "no JobServer in this workload",
    },
    "service_zipf": {
        "quantum.backend_ms": "timing-only device, no functional backend",
        "quantum.ns_per_gate": "timing-only device, no functional backend",
    },
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build the runner (incremental); False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_runner",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def run_workload(args):
    cmd = [str(RUNNER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=min(170, 3 * args.seconds + 90))
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return None
    if proc.returncode != 0:
        log("perfbench: runner exited with", proc.returncode)
        return None
    return json.loads(proc.stdout)


def committed_digests(workload, seed):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def record_digests(workload, seed, jobs):
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = {
        job_id: job["digest"] for job_id, job in sorted(jobs.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def ratio(num, den):
    return num / den if den else 0.0


def untraced(doc):
    return [p for p in doc["passes"] if not p["traced"]]


def traced(doc):
    return [p for p in doc["passes"] if p["traced"]]


def normalized(p):
    """The pass's job latencies in ms at the nominal host speed."""
    return stats.host_normalized(p["latency_ms"], p["probes"],
                                 PROBE_NOMINAL_MS)


def pass_scale(p):
    """Nominal over measured host speed, over one pass: the factor that
    turns the pass's wall times into times at the nominal speed."""
    return sum(normalized(p)) / sum(p["latency_ms"])


def replay_scale(doc):
    """The same factor for the untimed replays, from the probes taken
    right before and after them."""
    return PROBE_NOMINAL_MS / statistics.median(
        stats.probe_ms(probe) for probe in doc["replay_probes"])


def rate(passes):
    """Completed jobs per second of the passes' summed latency at the
    nominal host speed. Unlike a median over passes, it moves in
    proportion to the time a slower state covers instead of jumping to
    the state that covers most of the run."""
    return (sum(p["jobs"] for p in passes)
            / sum(sum(normalized(p)) for p in passes) * 1e3)


def wall_rate(passes):
    """Completed jobs per second of the passes' summed wall latency."""
    return (sum(p["jobs"] for p in passes)
            / sum(sum(p["latency_ms"]) for p in passes) * 1e3)


def pass_instructions(doc, p):
    """Simulated core instructions of one pass. The service workload sees
    only JobResults, so its count comes from the catalog replay."""
    if doc["workload"] != "service_zipf":
        return p["counters"]["core_instructions"]
    units = doc["units"]
    return sum(units[j]["counters"]["core_instructions"]
               for j in doc["stream"])


def end_to_end(doc):
    passes = untraced(doc)
    groups = [normalized(p) for p in passes]
    latencies = [v for g in groups for v in g]
    norm_seconds = sum(latencies) / 1e3
    # The tail percentile follows from the smallest sample a run can
    # have (the runner's minimum pass count), so it is the same on every
    # run of a workload. Like the median, it is taken per pass.
    floor = doc["min_passes"] * len(passes[0]["latency_ms"])
    tail_q = stats.tail_percentile(floor)
    setups = stats.host_normalized(doc["setup_s"], doc["setup_probes"],
                                   PROBE_NOMINAL_MS)
    probes = [stats.probe_ms(q) for p in passes for q in p["probes"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "norm_jobs_per_s": rate(passes),
        "norm_minstr_per_s": sum(pass_instructions(doc, p) for p in passes)
                             / norm_seconds / 1e6,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "norm_req_p50_ms": stats.mean_of_medians(groups),
        "norm_req_tail_ms": stats.mean_of_percentiles(groups, tail_q),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "norm_jobs_per_s": "%d passes" % len(passes),
        "norm_minstr_per_s": "%d passes" % len(passes),
        "norm_req_p50_ms": "mean over passes of the pass median, %d "
                           "samples" % len(latencies),
        "norm_req_tail_ms": "mean over passes of the pass p%.4g (ten "
                            "samples beyond it in %d)" % (float(tail_q),
                                                          floor),
    }
    # The same figures at wall speed, under the issue's names; printed,
    # not listed in BENCHMARK.json (see README.md).
    wall_groups = [p["latency_ms"] for p in passes]
    wall_seconds = sum(map(sum, wall_groups)) / 1e3
    wall = {
        "wall_setup_s": (statistics.median(doc["setup_s"]), "s"),
        "jobs_per_s": (wall_rate(passes), "jobs/s"),
        "sim_minstr_per_s": (sum(pass_instructions(doc, p) for p in passes)
                             / wall_seconds / 1e6, "Minstr/s"),
        "req_p50_ms": (stats.mean_of_medians(wall_groups), "ms"),
        "req_tail_ms": (stats.mean_of_percentiles(wall_groups, tail_q),
                        "ms"),
        "host_probe_ms": (statistics.median(probes), "ms"),
    }
    notes["host_probe_ms"] = "median of %d probes; nominal %.4g ms" % (
        len(probes), PROBE_NOMINAL_MS)
    return metrics, notes, wall


def ms(ns):
    return ns / 1e6


def direct_layers(doc, p):
    """Per-layer metrics of one traced pass of fig15_paper or
    dense_feedback, from the spans around each layer call, at the nominal
    host speed."""
    spans = p["spans"]
    scale = pass_scale(p)
    own = {k: ms(v) * scale for k, v in stats.self_times(spans).items()}
    job_ms = ms(stats.durations(spans, "job")) * scale
    run_ms = own.get("run", 0.0)
    c = p["counters"]
    m = {
        "compiler.compile_ms": own.get("compile", 0.0),
        "runtime.machine_build_ms": own.get("machine_build", 0.0),
        "runtime.run_ms": run_ms,
        "compiler.compile_share": ratio(own.get("compile", 0.0), job_ms),
        "runtime.run_share": ratio(run_ms, job_ms),
        "service.submit_ms": 0.0,
        "service.overhead_ms": 0.0,
        "quantum.backend_ms": 0.0,
    }
    if "timing_replay_ms" in doc:
        m["quantum.backend_ms"] = run_ms - sum(
            doc["timing_replay_ms"].values()) * replay_scale(doc)
    return m, c


def service_layers(doc, p):
    """Per-layer metrics of one traced pass of service_zipf: submit spans
    measured, layer times attributed per request from the catalog
    replay's unit costs, all at the nominal host speed."""
    units = doc["units"]
    submit_ms = ms(stats.durations(p["spans"], "submit")) * pass_scale(p)
    unit_scale = replay_scale(doc)
    layer = {"build_ms": 0.0, "topology_ms": 0.0, "compile_ms": 0.0,
             "machine_build_ms": 0.0, "run_ms": 0.0}
    overhead = 0.0
    counters = {k: 0 for k in units[0]["counters"]}
    for (job, miss), latency in zip(p["requests"], normalized(p)):
        u = {k: v * unit_scale for k, v in units[job].items()
             if k.endswith("_ms")}
        compile_ms = u["cold_compile_ms"] if miss else u["cached_compile_ms"]
        cost = (u["build_ms"] + u["topology_ms"] + compile_ms
                + u["machine_build_ms"] + u["run_ms"])
        overhead += latency - cost
        layer["build_ms"] += u["build_ms"]
        layer["topology_ms"] += u["topology_ms"]
        layer["compile_ms"] += compile_ms
        layer["machine_build_ms"] += u["machine_build_ms"]
        layer["run_ms"] += u["run_ms"]
        for k, v in units[job]["counters"].items():
            counters[k] += v
    counters["cache_lookups"] = p["counters"]["cache_lookups"]
    counters["cache_misses"] = p["counters"]["cache_misses"]
    m = {
        "workloads.build_ms": layer["build_ms"],
        "net.topology_build_ms": layer["topology_ms"],
        "compiler.compile_ms": layer["compile_ms"],
        "runtime.machine_build_ms": layer["machine_build_ms"],
        "runtime.run_ms": layer["run_ms"],
        "compiler.compile_share": ratio(layer["compile_ms"], submit_ms),
        "runtime.run_share": ratio(layer["run_ms"], submit_ms),
        "service.submit_ms": submit_ms,
        "service.overhead_ms": overhead,
        "quantum.backend_ms": 0.0,
    }
    return m, counters


def per_layer(doc):
    workload = doc["workload"]
    # The spans are those of the first set-up.
    setup_scale = stats.host_normalized(
        doc["setup_s"][:1], doc["setup_probes"],
        PROBE_NOMINAL_MS)[0] / doc["setup_s"][0]
    setup_own = {k: ms(v) * setup_scale
                 for k, v in stats.self_times(doc["setup_spans"]).items()}
    rows = []
    for p in traced(doc):
        if workload == "service_zipf":
            m, c = service_layers(doc, p)
        else:
            m, c = direct_layers(doc, p)
            # Inputs are generated once, in set-up (see setup_s).
            m["workloads.build_ms"] = setup_own.get("build", 0.0)
            m["net.topology_build_ms"] = setup_own.get("topology", 0.0)
        run_ns = m["runtime.run_ms"] * 1e6
        m.update({
            "net.messages": c["messages"],
            "net.broadcasts": c["broadcasts"],
            "compiler.instructions": c["compiled_instructions"],
            "compiler.swaps_inserted": c["swaps_inserted"],
            "compiler.cache.lookups": c["cache_lookups"],
            "compiler.cache.misses": c["cache_misses"],
            "compiler.cache.hit_ratio": ratio(
                c["cache_lookups"] - c["cache_misses"], c["cache_lookups"]),
            "sim.events": c["events"],
            "sim.ns_per_event": ratio(run_ns, c["events"]),
            "core.instructions": c["core_instructions"],
            "core.instr_per_event": ratio(c["core_instructions"],
                                          c["events"]),
            "core.ns_per_instruction": ratio(run_ns, c["core_instructions"]),
            "core.pause_cycles": c["pause_cycles"],
            "common.telf_records": c["telf_records"],
            "common.telf_per_event": ratio(c["telf_records"], c["events"]),
            "quantum.gates": c["gates"],
            "quantum.measurements": c["measurements"],
            "quantum.ns_per_gate": ratio(m["quantum.backend_ms"] * 1e6,
                                         c["gates"]),
        })
        rows.append(m)
    # median_low: the value of one traced pass, so counts stay whole.
    metrics = {name: statistics.median_low([row[name] for row in rows])
               for name in rows[0]}
    metrics["trace.overhead"] = rate(traced(doc)) / rate(untraced(doc))
    notes = {name: "n/a: " + why
             for name, why in NOT_APPLICABLE[workload].items()}
    for name in ("workloads.build_ms", "net.topology_build_ms"):
        notes.setdefault(name, "one set-up" if workload != "service_zipf"
                         else "per request, from catalog replay")
    notes["trace.overhead"] = "traced / untraced norm_jobs_per_s"
    return {name: metrics[name] for name in PER_LAYER_UNITS}, notes


def check(doc, args):
    """Outcome checks: (attempted, failed, messages)."""
    committed = (None if args.record_digests
                 else committed_digests(args.workload, args.seed))
    attempted, failed, reasons = stats.count_failures(doc["jobs"], committed)
    if committed is not None:
        reasons.append("outcome digests checked against the committed "
                       "ones for seed %d" % args.seed)
    else:
        reasons.append("no committed digests for seed %d: checked health "
                       "and run-to-run agreement" % args.seed)
    for i, u in enumerate(doc.get("units", [])):
        if "error" in u:
            failed += 1
            reasons.append("catalog job %d failed in replay: %s"
                           % (i, u["error"]))
    consistency = doc.get("consistency")
    if consistency is not None:
        failed += consistency["mismatched"]
        reasons.append("cache-off replay: %d of %d cached results (one "
                       "miss and one hit per catalog job) byte-identical "
                       "to it" % (
                           consistency["checked"] - consistency["mismatched"],
                           consistency["checked"]))
    return attempted, failed, reasons


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's outcome digests as the "
                             "committed ones for its seed")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    started = time.monotonic()
    doc = run_workload(args)
    if doc is None:
        return 1
    log("perfbench: runner ran %.1f s" % (time.monotonic() - started))

    attempted, failed, reasons = check(doc, args)
    wall = {}
    if args.trace:
        metrics, notes = per_layer(doc)
        units = PER_LAYER_UNITS
    else:
        metrics, notes, wall = end_to_end(doc)
        units = END_TO_END_UNITS

    print("perfbench %s seed=%d seconds=%d trace=%d: %d untraced and %d "
          "traced passes" % (args.workload, args.seed, args.seconds,
                             args.trace, len(untraced(doc)),
                             len(traced(doc))))
    for name, value in metrics.items():
        note = notes.get(name)
        print("  %-26s %14.6g %-9s%s" % (name, value, units[name],
                                         "  (%s)" % note if note else ""))
    if wall:
        print("  at wall speed (printed only):")
    for name, (value, unit) in wall.items():
        note = notes.get(name)
        print("  %-26s %14.6g %-9s%s" % (name, value, unit,
                                         "  (%s)" % note if note else ""))
    print("  %-26s %14.6g %-9s  (%d of %d job runs)" % (
        "failed_frac", ratio(failed, attempted), "ratio", failed, attempted))
    for reason in reasons:
        print("  check: " + reason)

    correct = failed == 0
    if args.record_digests:
        if correct:
            record_digests(args.workload, args.seed, doc["jobs"])
            print("  recorded %d outcome digests for seed %d"
                  % (len(doc["jobs"]), args.seed))
        else:
            print("  not recording digests of a failing run")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
