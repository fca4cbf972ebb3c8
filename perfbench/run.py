#!/usr/bin/env python3
"""The repository benchmark: times the TUBE control loop end to end and,
with --trace 1, layer by layer.

    python3 perfbench/run.py --workload fleet_day|horizon_week|storm_week
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first call configures and builds the
program and perfbench/worker.cpp into .bench_build/ (Release). Each
repetition then runs the worker in fresh processes, one per thread count
and trace mode, until --seconds have passed, checks the outputs, and
prints the medians. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones (see perfbench/README.md). --seed picks the population and
fault seeds, so the same seed gives the same inputs.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "perfbench", "perfbench_worker")

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
import analysis  # noqa: E402

# Defaults of the worker's --pop-seed / --fault-seed. --seed N selects the
# INPUTS input sets N*INPUTS .. N*INPUTS+INPUTS-1, offsets to both seeds;
# repetition r runs input set r mod INPUTS. Pooling a few populations and
# fault draws per run keeps one unlucky draw from deciding a run's medians.
POP_SEED = 20110611
FAULT_SEED = 424242
INPUTS = 8

# Every input set runs at least once, which also gives fleet_day (94
# ordinary periods a day) enough samples for a p95 with MIN_TAIL beyond it.
# Eight sets fit horizon_week's ~4.5 s repetitions into one run.
MIN_REPS = INPUTS
MAX_REPS = 40
HARD_STOP_S = 140.0  # leave room under the 180 s exit limit
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "loop_s": "s", "loop_1t_s": "s",
    "period_p50_ms": "ms", "rollover_p50_ms": "ms",
    "peak_rss_mb": "MB", "p2a_reduction": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_dir = os.path.join(BUILD, "perfbench")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(os.path.join(BUILD, "build.log"), "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "perfbench_worker", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError("build failed (%s): see %s" %
                                 (" ".join(cmd[:2]), out.name))


# ---- one worker process -----------------------------------------------------------

def run_worker(workload, threads, seed, traced=False, checks=True):
    """Run one worker process on input set `seed`; returns its BENCH_JSON
    fields (plus parsed spans when traced)."""
    tmp = os.path.join(BUILD, "tmp", uuid.uuid4().hex)
    os.makedirs(tmp)
    spans_path = os.path.join(tmp, "spans.txt")
    cmd = [WORKER, "--workload", workload, "--threads", str(threads),
           "--pop-seed", str(POP_SEED + seed),
           "--fault-seed", str(FAULT_SEED + seed),
           "--tmpdir", tmp, "--checks", "1" if checks else "0"]
    if traced:
        cmd += ["--trace", spans_path]
    # Pool workers pinned one per core: unpinned, a fresh process now and
    # then runs all its workers at serial speed (README.md, open defects).
    env = dict(os.environ, TDP_PIN_THREADS="1")
    try:
        with open(os.path.join(BUILD, "worker.log"), "a") as err:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=WORKER_TIMEOUT_S,
                                  env=env)
        if proc.returncode != 0:
            raise BenchError("worker exited %d: %s" %
                             (proc.returncode, " ".join(cmd)))
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith("BENCH_JSON ")]
        if not lines:
            raise BenchError("worker printed no result: " + " ".join(cmd))
        result = json.loads(lines[-1][len("BENCH_JSON "):])
        if traced:
            with open(spans_path) as f:
                result["spans"] = analysis.parse_spans(f.read())
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---- the measured run ---------------------------------------------------------------

class Tally:
    """Operations attempted and failed: each worker process, and each output
    check, is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def process(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (BenchError, subprocess.TimeoutExpired, OSError,
                ValueError) as e:
            self.failed += 1
            self.notes.append(str(e))
            return None


def compare_digests(tally, what, expected, actual):
    bad = analysis.digest_mismatches(expected, actual or [])
    tally.check(not bad, "%s: digests differ at %s" % (what, bad))


def one_rep(workload, seed, trace, rep, tally):
    """One repetition on input set `seed`: the processes of one cell set, in
    a rotating order. Returns {role: result}."""
    nproc = os.cpu_count() or 1
    if trace:
        plan = [("plain", nproc, False), ("traced", nproc, True)]
    elif workload == "fleet_day":
        plan = [("plain", nproc, False), ("serial", 1, False),
                ("traced", nproc, True)]
    else:
        plan = [("plain", nproc, False), ("serial", 1, False)]
    shift = rep % len(plan)
    plan = plan[shift:] + plan[:shift]
    out = {}
    for role, threads, traced in plan:
        # The serial cell is there for its loop time and digests.
        checks = role != "serial"
        res = tally.process(run_worker, workload, threads, seed, traced,
                            checks)
        if res is not None:
            out[role] = res
    plain = out.get("plain")
    if plain is None:
        return out
    for role in ("serial", "traced"):
        if role in out:
            compare_digests(tally, "%s vs plain" % role, plain["digests"],
                            out[role]["digests"])
    for res in (r for role, r in out.items() if role != "serial"):
        if "restored_digests" in res:
            compare_digests(tally, "restored continuation", plain["digests"],
                            res["restored_digests"])
        if "recovered_digests" in res:
            compare_digests(tally, "recovered newest commit",
                            plain["digests"], res["recovered_digests"])
        if "estimation_replay_match" in res:
            tally.check(res["estimation_replay_match"] == "yes",
                        "estimation replay differs from the loop's fits")
    return out


def step_latencies(workload, res):
    """(ordinary, rollover) period latencies in ms from one process."""
    if workload == "fleet_day":
        ordinary, rollover = analysis.fleet_period_latencies(
            res["spans"], res["main_tid"], res["periods"])
        return [x / 1e6 for x in ordinary], [x / 1e6 for x in rollover]
    ordinary = [ms for ms, t in zip(res["step_ms"], res["step_tags"])
                if t != "r"]
    rollover = [ms for ms, t in zip(res["step_ms"], res["step_tags"])
                if t == "r"]
    return ordinary, rollover


def pooled_latencies(workload, reps):
    """(ordinary, rollover) period latencies in ms, pooled over the run.
    They come from the untraced loop where the public API exposes single
    periods (MultiDayDriver::step_period); FleetDriver exposes only run_day,
    so fleet_day reads its traced processes' fleet.period spans."""
    role = "traced" if workload == "fleet_day" else "plain"
    ordinary, rollover = [], []
    for r in reps:
        if role in r:
            o, ro = step_latencies(workload, r[role])
            ordinary += o
            rollover += ro
    return ordinary, rollover


def end_to_end(workload, reps):
    plain = [r["plain"] for r in reps if "plain" in r]
    serial = [r["serial"] for r in reps if "serial" in r]
    full = [r[k] for r in reps for k in ("plain", "traced") if k in r]
    ordinary, rollover = pooled_latencies(workload, reps)
    return {
        "setup_s": analysis.median([r["setup_s"] for r in full]),
        "loop_s": analysis.median([r["loop_s"] for r in plain]),
        "loop_1t_s": analysis.median([r["loop_s"] for r in serial]),
        "period_p50_ms": analysis.median(ordinary),
        "rollover_p50_ms": analysis.median(rollover),
        "peak_rss_mb": analysis.median([r["vm_hwm_mb"] for r in plain]),
        "p2a_reduction": p2a_reduction(reps),
    }


def p2a_reduction(reps):
    """Mean over the input sets of their (deterministic) P2A reduction."""
    by_input = {}
    for r in reps:
        for res in r.values():
            by_input[res["pop_seed"]] = res["p2a_reduction"]
    return sum(by_input[k] for k in sorted(by_input)) / len(by_input)


def check_p2a(reps, tally):
    """Every process of one input set must report the same P2A reduction."""
    by_input = {}
    for r in reps:
        for res in r.values():
            by_input.setdefault(res["pop_seed"], set()).add(
                res["p2a_reduction"])
    for seed, values in sorted(by_input.items()):
        tally.check(len(values) == 1, "p2a_reduction differs across "
                    "processes of pop seed %d: %s" % (seed, sorted(values)))


def traced_layers(res):
    """Per-layer metrics from one traced process."""
    roots = analysis.build_forest(res["spans"], res["main_tid"])
    nodes = list(analysis.walk(roots))
    spans = res["spans"]

    def total(name):
        return sum(s.end - s.begin for s in spans if s.name == name) / 1e9

    def on_main(name):
        return [n for n in nodes if n.span.name == name]

    counters = res["counters"]
    threads = res["threads_used"]
    loop_s = res["loop_s"]
    charge = analysis.attribute_layers(roots)
    rollover_self = sum(analysis.self_time(n)
                        for n in on_main("bench.step.rollover")) / 1e9
    # The §IV fit has no span inside the program. Its time, replayed after
    # the loop, is moved from the rollover steps that ran it to
    # `estimation`; the replay is a second timing of the same work, so it
    # is capped at the rollover self time it stands in for.
    fit_s = res.get("estimation_fit_s", 0.0)
    estimation_s = min(fit_s, rollover_self)
    charge["horizon"] = charge.get("horizon", 0) - estimation_s * 1e9
    charge["estimation"] = charge.get("estimation", 0) + estimation_s * 1e9
    phases = {p: total("fleet." + p) for p in
              ("simulate", "pricer", "table", "publish", "aggregate")}
    busy = total("fleet.shard")
    observe = [n.duration for n in on_main("pricer.observe")]
    steps = {t: [ms for ms, tag in zip(res.get("step_ms", []),
                                       res.get("step_tags", "")) if tag == t]
             for t in "ocr"}
    hits = counters["kernel.memo_hits"]
    misses = counters["kernel.memo_misses"]
    fits = res.get("estimation_fits", 0)
    m = {
        "fleet.simulate_s": phases["simulate"],
        "fleet.pricer_s": phases["pricer"],
        "fleet.table_s": phases["table"],
        "fleet.publish_s": phases["publish"],
        "fleet.aggregate_s": phases["aggregate"],
        "fleet.coverage": sum(phases.values()) / loop_s,
        "pool.shard_busy_s": busy,
        "pool.idle_frac": (1.0 - busy / (threads * phases["simulate"])
                           if phases["simulate"] else 0.0),
        "pricer.observe_n": len(observe),
        "pricer.observe_s": sum(observe) / 1e9,
        "pricer.observe_p50_us": (analysis.median(observe) / 1e3
                                  if observe else 0.0),
        "pricer.skipped_updates_n": counters["pricer.skipped_updates"],
        "kernel.plan_builds_n": counters["kernel.plan_builds"],
        "kernel.memo_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "solver.dynamic_n": sum(s.name == "solver.dynamic" for s in spans),
        "solver.dynamic_s": total("solver.dynamic"),
        "fista.iterations_n": counters["fista.iterations"],
        "fista.backtracks_n": counters["fista.backtracks"],
        "estimation.fits_n": fits,
        "estimation.fit_s": fit_s,
        "horizon.step_s": sum(sum(v) for v in steps.values()) / 1e3,
        "horizon.rollover_self_s": rollover_self - estimation_s,
        "horizon.reanchor_n": counters["horizon.reanchors"],
        "horizon.reanchor_adopt_ratio": (counters["horizon.reanchors"] / fits
                                         if fits else 0.0),
        "horizon.frozen_days_n": res.get("frozen_days", 0),
        "horizon.plain_step_p50_ms": (analysis.median(steps["o"])
                                      if steps["o"] else 0.0),
        "ckpt.bytes": res.get("ckpt_bytes", 0),
        "ckpt.encode_ms": res.get("encode_ms", 0.0),
        "ckpt.commits_n": counters["horizon.stream_commits"],
        "ckpt.commit_step_p50_ms": (analysis.median(steps["c"])
                                    if steps["c"] else 0.0),
        "ckpt.recover_ms": res.get("recover_ms", 0.0),
        "ckpt.restore_ms": res.get("restore_ms", 0.0),
        "channel.fallback_periods_n": counters["channel.fallback_periods"],
        "guard.gaps_filled_n": counters["guard.gaps_filled"],
        "incident.alerts_n": res.get("incident_alerts", 0),
        "incident.opened_n": res.get("incidents_opened", 0),
        "trace.loop_s": loop_s,
    }
    for layer in analysis.LAYERS:
        m["self.%s_s" % layer] = charge.get(layer, 0) / 1e9
    m["trace.coverage"] = sum(charge.values()) / 1e9 / loop_s
    return m


PER_LAYER_UNITS_SUFFIX = [("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                          ("_n", "count"), ("bytes", "B")]


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "ratio"


def per_layer(workload, reps):
    traced = [traced_layers(r["traced"]) for r in reps
              if "traced" in r]
    plain = [r["plain"]["loop_s"] for r in reps if "plain" in r]
    out = {k: analysis.median([t[k] for t in traced]) for k in traced[0]}
    out["trace.overhead_frac"] = out["trace.loop_s"] / analysis.median(
        plain) - 1.0
    # The tail of period latency follows the host's scheduling noise more
    # than the program, so it is reported here, without a bound.
    ordinary, _ = pooled_latencies(workload, reps)
    p95 = analysis.tail_percentile(ordinary, 95.0)
    if p95 is None:
        raise BenchError("too few periods for a p95 (%d)" % len(ordinary))
    out["step.period_p95_ms"] = p95
    return out


def provenance(reps):
    first = next(r["plain"] for r in reps if "plain" in r)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "host_isa": first["host_isa"], "simd_mode": first["simd_mode"],
        "threads": first["threads_used"], "pinned": first["pinned"],
        "build_type": first["build_type"], "git_sha": first["git_sha"],
        "pop_seeds": sorted({r["plain"]["pop_seed"] for r in reps
                             if "plain" in r}),
        "fault_seeds": sorted({r["plain"]["fault_seed"] for r in reps
                               if "plain" in r}),
        "repetitions": len(reps),
    }


def print_layer_table(metrics):
    print("%-28s %14s" % ("per-layer metric", "median"))
    for name in sorted(metrics):
        print("%-28s %14.6g %s" % (name, metrics[name], unit_of(name)))


def main():
    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet_day", "horizon_week", "storm_week"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2

    tally = Tally()
    reps = []
    start = time.monotonic()
    rep_s = 0.0
    while len(reps) < MAX_REPS:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and (
                elapsed + rep_s > args.seconds or elapsed > HARD_STOP_S):
            break
        rep_start = time.monotonic()
        reps.append(one_rep(args.workload,
                            args.seed * INPUTS + len(reps) % INPUTS,
                            args.trace, len(reps), tally))
        rep_s = time.monotonic() - rep_start

    try:
        if args.trace:
            metrics = per_layer(args.workload, reps)
            units = {k: unit_of(k) for k in metrics}
        else:
            metrics = end_to_end(args.workload, reps)
            units = END_TO_END_UNITS
        check_p2a(reps, tally)
    except (BenchError, KeyError, IndexError, StopIteration) as e:
        log("perfbench: cannot summarize: %r; %s" % (e, tally.notes))
        return 1

    for note in tally.notes:
        log("perfbench: FAILED %s" % note)
    print("provenance " + json.dumps(provenance(reps), sort_keys=True))
    if args.trace:
        print_layer_table(metrics)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
