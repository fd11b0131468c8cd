#!/usr/bin/env python3
"""histwalk's closed-loop benchmark: one command, three workloads.

    python3 perfbench/run.py --workload hot_walk --seed 1 --seconds 15 --trace 0

Run from the root of a histwalk checkout. The script builds the harness
(perfbench/CMakeLists.txt, Release) into .bench_build, runs one workload
for about --seconds seconds of rounds, checks every output against the
correctness gate, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (measured with tracing off);
--trace 1 reports the per-layer metrics of a traced run. Everything else
(provenance, the metric table with units, the gate verdicts) goes to the
lines before it and to .bench_build/results/. --quick runs tiny sizes: a
schema and gate check, not a measurement. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_walk", "cold_crawl", "tenant_mix")
# Wall-time budget for all harness processes of one command after the
# build; the whole command must end within 180 s.
HARNESS_BUDGET_S = 165
MAX_ROUNDS = 64
# Workloads whose critical path is a chain of cross-thread handoffs run
# on one vCPU. On a shared VM a handoff that wakes a thread on another
# vCPU costs about 3x more, and swings with host load; on one vCPU the
# same crawl repeats within a few percent (see README.md).
SINGLE_CPU = {"cold_crawl", "tenant_mix"}
# The statistical sanity bound on estimates (the bit-exact checks against
# the reference walks are the real gate; this one catches a gross bias in
# the reference path itself).
ESTIMATE_TOLERANCE = 0.25
# Profiler sites reported per layer: walker, cache, pipeline, store.
PROF_SITES = ("walker/step", "cache/get", "pipeline/enqueue",
              "pipeline/deliver", "store/append")

NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    # $CARGO_TARGET_DIR, when set, names the build directory (the same
    # variable other benchmark runners use for theirs).
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(out_dir):
    """Configures (once) and builds the harness; returns its path."""
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target",
                    "histwalk_perfbench", "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(out_dir, "histwalk_perfbench")


def source_sha256():
    """Content hash of everything compiled into the harness."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(HERE, "harness")]
    files = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(HERE, "CMakeLists.txt")]
    for root in roots:
        for dirpath, _, names in os.walk(root):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unavailable"


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a
    fraction q of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def steps_per_s(rounds):
    """Aggregate walker steps per timed wall second. Summing over rounds
    (rather than taking the median round) averages out the per-round
    drift (host CPU speed) that moves a single round by up to 35% on a
    shared 4-vCPU virtual machine."""
    timed_s = sum(r["timed_ns"] for r in rounds) / NS_PER["s"]
    return sum(r["steps"] for r in rounds) / timed_s if timed_s else 0.0


def attempted_failed(doc):
    """Runs and sessions attempted and failed, the warm-up round's too."""
    rounds = [doc["warmup"]] + doc["rounds"]
    return (sum(r["attempted"] for r in rounds),
            sum(r["failed"] for r in rounds))


def ok_sessions(rounds, key="sessions"):
    return [s for r in rounds for s in r.get(key, []) if s["ok"]]


# ---- metrics --------------------------------------------------------------

def end_to_end(doc):
    """End-to-end metrics: medians over the untraced rounds."""
    rounds = [r for r in doc["rounds"] if not r["traced"]]
    return {
        "setup_s": (median([r["setup_ns"] for r in rounds]) / NS_PER["s"],
                    "s"),
        "steps_per_s": (steps_per_s(rounds), "1/s"),
        "charged_queries": (median([r["charged_queries"] for r in rounds]),
                            "count"),
        "peak_rss_mb": (median([r["peak_rss_kb"] for r in rounds]) * 1024
                        / 1e6, "MB"),
    }


def tenant_facing(rounds):
    """Session latency, session rate and simulated wire time: what a tenant
    of tenant_mix sees (0 where a workload has no sessions or no wire)."""
    sessions = ok_sessions(rounds)
    client_ms = [s["client_ns"] / NS_PER["ms"] for s in sessions]
    timed_s = sum(r["timed_ns"] for r in rounds) / NS_PER["s"]
    return {
        "sim_wall_s": (median([r["sim_wall_us"] for r in rounds]) / 1e6,
                       "s"),
        "session_ms_p50": (median(client_ms), "ms"),
        "session_ms_p95": (percentile(client_ms, 0.95), "ms"),
        "sessions_per_s": (len(sessions) / timed_s if sessions else 0.0,
                           "1/s"),
    }


def per_layer(doc):
    """Per-layer metrics from the traced rounds (and, where a metric
    compares with tracing off, the untraced rounds of the same run)."""
    traced = [r for r in doc["rounds"] if r["traced"]]
    untraced = [r for r in doc["rounds"] if not r["traced"]]

    def med(fn, rounds=traced):
        return median([fn(r) for r in rounds])

    def hit_rate(r):
        lookups = r["cache"]["hits"] + r["cache"]["misses"]
        return r["cache"]["hits"] / lookups if lookups else 0.0

    def per_miss_ns(r):
        misses = r["cache"]["misses"]
        return r["timed_ns"] / misses if misses else 0.0

    def mean_batch(r):
        p = r["pipeline"]
        return p["wire_items"] / p["wire_requests"] if p["wire_requests"] \
            else 0.0

    def wal_per_record(r):
        st = r.get("store", {})
        return st["wal_bytes"] / st["appended_records"] \
            if st.get("appended_records") else 0.0

    def call_ns(key):
        # hot_walk / cold_crawl time their one timed Run; tenant_mix times
        # every session's Run (the Submit RPC) and Wait.
        def fn(r):
            if "sessions" in r:
                return median([s[key] for s in r["sessions"] if s["ok"]])
            return r[key]
        return fn

    # Both sides without probes: remote sessions of the untraced rounds,
    # and the in-process sessions traced rounds run after their probes
    # are off.
    remote_p50 = median([s["client_ns"] for s in ok_sessions(untraced)])
    direct = ok_sessions(traced, "direct_sessions")
    direct_p50 = median([s["client_ns"] for s in direct])
    attempted, failed = attempted_failed(doc)

    metrics = {
        "cache.hit_rate": (med(hit_rate), "ratio"),
        "cache.misses": (med(lambda r: r["cache"]["misses"]), "count"),
        "cache.insertions": (med(lambda r: r["cache"]["insertions"]),
                             "count"),
        "cache.evictions": (med(lambda r: r["cache"]["evictions"]), "count"),
        "backend.fetch_calls": (med(lambda r: r["backend"]["calls"]),
                                "count"),
        "backend.fetch_items": (med(lambda r: r["backend"]["items"]),
                                "count"),
        "backend.fetch_us_p50": (
            med(lambda r: r["backend"]["p50_ns"]) / NS_PER["us"], "us"),
        "miss.real_us": (med(per_miss_ns, untraced) / NS_PER["us"], "us"),
        "pipeline.wire_requests": (
            med(lambda r: r["pipeline"]["wire_requests"]), "count"),
        "pipeline.mean_batch": (med(mean_batch), "items/req"),
        "pipeline.dedup_joins": (med(lambda r: r["pipeline"]["dedup_joins"]),
                                 "count"),
        "pipeline.late_hits": (med(lambda r: r["pipeline"]["late_hits"]),
                               "count"),
        "pipeline.max_queue_depth": (
            med(lambda r: r["pipeline"]["max_queue_depth"]), "count"),
        "wire.requests": (med(lambda r: r["wire"]["requests"]), "count"),
        "store.appended_records": (
            med(lambda r: r.get("store", {}).get("appended_records", 0)),
            "count"),
        "store.append_failures": (
            med(lambda r: r.get("store", {}).get("append_failures", 0)),
            "count"),
        "store.flush_ms": (
            med(lambda r: r.get("store", {}).get("flush_ns", 0))
            / NS_PER["ms"], "ms"),
        "store.wal_bytes_per_record": (med(wal_per_record), "B/record"),
        "service.session_ms_p50": (direct_p50 / NS_PER["ms"], "ms"),
        "service.sim_session_ms_p50": (
            median([s["daemon_us"] for s in ok_sessions(traced)]) / 1e3,
            "ms"),
        "rpc.overhead_ms_p50": (
            (remote_p50 - direct_p50) / NS_PER["ms"] if direct else 0.0,
            "ms"),
        "rpc.requests": (med(lambda r: r.get("rpc", {}).get("requests", 0)),
                         "count"),
        "rpc.protocol_errors": (
            med(lambda r: r.get("rpc", {}).get("protocol_errors", 0)),
            "count"),
        "service.admission_refusals": (
            med(lambda r: r.get("service", {}).get("admission_refusals", 0)),
            "count"),
        "api.build_ms": (med(lambda r: r["build_ns"]) / NS_PER["ms"], "ms"),
        "api.run_call_us": (med(call_ns("run_call_ns")) / NS_PER["us"],
                            "us"),
        "api.wait_ms": (med(call_ns("wait_ns")) / NS_PER["ms"], "ms"),
        "process.cpu_utilization": (
            med(lambda r: r["cpu"]["cpu_ns"] / r["timed_ns"], untraced),
            "ratio"),
        "obs.trace_overhead": (
            1.0 - steps_per_s(traced) / steps_per_s(untraced), "ratio"),
        "failed_frac": (failed / attempted if attempted else 0.0, "ratio"),
    }
    for site in PROF_SITES:
        name = "prof." + site.replace("/", "_") + "_self_ms"
        metrics[name] = (
            med(lambda r: r["prof"].get(site, 0)) / NS_PER["ms"], "ms")
    metrics.update(tenant_facing(untraced))
    return metrics


# ---- correctness gate -------------------------------------------------------

def reference_key(doc):
    """Canonical hash of the reference walks, compared with the value
    recorded for this seed in expected.json."""
    canon = json.dumps(doc["reference"], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def gate(doc, expected):
    """Returns the list of failed checks (empty = correct)."""
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)

    ref = doc["reference"]
    truth = ref["true_average_degree"]
    check(doc["rounds"], "no rounds ran")
    # The warm-up round's outputs are checked like a measured round's.
    rounds = [("warm-up round", doc["warmup"])] + [
        (f"round {i}", r) for i, r in enumerate(doc["rounds"])]
    if "walk" in ref:
        walk = ref["walk"]
        check(abs(walk["estimate"] - truth) <= ESTIMATE_TOLERANCE * truth,
              f"reference estimate {walk['estimate']} far from truth {truth}")
        for name, r in rounds:
            check(r["digest"] == walk["digest"],
                  f"{name}: trace digest {r['digest']} != reference "
                  f"{walk['digest']}")
            check(r["estimate"] == walk["estimate"],
                  f"{name}: estimate {r['estimate']!r} != reference "
                  f"{walk['estimate']!r}")
            check(r["steps"] == walk["steps"],
                  f"{name}: {r['steps']} steps != reference "
                  f"{walk['steps']}")
    else:
        walks = ref["sessions"]
        mean = statistics.fmean(w["estimate"] for w in walks)
        check(abs(mean - truth) <= ESTIMATE_TOLERANCE * truth,
              f"mean reference session estimate {mean} far from truth "
              f"{truth}")
        for name, r in rounds:
            for key in ("sessions", "direct_sessions"):
                for s in r[key]:
                    if not s["ok"]:
                        continue
                    want = walks[s["index"]]
                    check(s["digest"] == want["digest"] and
                          s["estimate"] == want["estimate"] and
                          s["steps"] == want["steps"],
                          f"{name} {key} {s['index']}: walk differs from "
                          f"the reference")
    for name, r in rounds:
        # Every lookup is one cache probe; the pipeline's late-hit probes
        # are the only other Get() calls.
        c = r["cache"]
        check(c["hits"] + c["misses"] ==
              r["lookups"] + r["pipeline"]["late_hits"],
              f"{name}: cache hits + misses != lookups + late hits")
        if "store" in r:
            check(r["store"]["appended_records"] == c["insertions"],
                  f"{name}: journaled records != cache insertions")
        if r["traced"]:
            check(r["charged_queries"] == r["backend"]["items"],
                  f"{name}: charged_queries {r['charged_queries']} != "
                  f"backend.fetch_items {r['backend']['items']}")
    digests = {r.get("digest") for _, r in rounds}
    check(len(digests) == 1, "traced and untraced rounds walked differently")

    recorded = expected.get("quick" if doc["quick"] else "full", {}) \
        .get(doc["workload"], {}).get(str(doc["seed"]))
    if recorded is not None:
        check(recorded == reference_key(doc),
              f"reference walks differ from the values recorded for seed "
              f"{doc['seed']}")
    return failures


# ---- rounds -----------------------------------------------------------------

class HarnessError(Exception):
    pass


def harness(binary, flags, cpus, deadline):
    """Runs one harness process restricted to `cpus`; returns its JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time")
    try:
        proc = subprocess.run([binary, *flags], stdout=subprocess.PIPE,
                              text=True, timeout=remaining,
                              preexec_fn=lambda: os.sched_setaffinity(0,
                                                                      cpus))
    except subprocess.TimeoutExpired:
        raise HarnessError("harness timed out")
    if proc.returncode != 0:
        raise HarnessError(f"harness exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_rounds(binary, args, scratch):
    """Runs a warm-up round, then rounds, one process each, until --seconds
    have passed, then the reference walks. A fresh process per round gives
    every round the same allocator state, and makes its peak RSS the
    process peak."""
    deadline = time.monotonic() + HARNESS_BUDGET_S
    all_cpus = os.sched_getaffinity(0)
    cpus = {max(all_cpus)} if args.workload in SINGLE_CPU else all_cpus
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--quick={'true' if args.quick else 'false'}"]

    def one_round(index, traced):
        round_dir = os.path.join(scratch, f"round{index}")
        os.makedirs(round_dir)
        out = harness(binary, common + [
            f"--traced={'true' if traced else 'false'}",
            f"--scratch-dir={round_dir}"], cpus, deadline)
        shutil.rmtree(round_dir, ignore_errors=True)
        return out["round"]

    min_rounds = 4 if args.trace else 3
    start = time.monotonic()
    # The warm-up round is gated but not measured: the first round after
    # the build or the previous run's reference walks ran up to 1.4x off
    # the run's median (see README.md). It counts towards --seconds.
    warmup = one_round("warmup", False)
    rounds = []
    while len(rounds) < MAX_ROUNDS and (
            len(rounds) < min_rounds or
            time.monotonic() - start < args.seconds):
        # Traced runs alternate untraced and traced rounds, so both sides
        # of obs.trace_overhead see the same machine conditions.
        rounds.append(one_round(len(rounds),
                                args.trace == 1 and len(rounds) % 2 == 1))
    os.makedirs(scratch, exist_ok=True)
    ref = harness(binary, common + ["--reference=true",
                                    f"--scratch-dir={scratch}"],
                  all_cpus, deadline)
    return {"workload": args.workload, "seed": args.seed,
            "quick": args.quick, "warmup": warmup, "rounds": rounds,
            "reference": ref["reference"], "build": ref["build"],
            "hardware_threads": ref["hardware_threads"]}


# ---- main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: schema and gate check only")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="recorded reference values per seed")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's reference values in "
                             "--expected instead of checking them")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_before = os.getloadavg()[0]
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    scratch = os.path.join(out_dir, "scratch", str(os.getpid()))
    try:
        doc = run_rounds(binary, args, scratch)
    except HarnessError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = {}
    if os.path.exists(args.expected):
        with open(args.expected) as f:
            expected = json.load(f)
    if args.record:
        mode = "quick" if args.quick else "full"
        expected.setdefault(mode, {}).setdefault(args.workload, {})[
            str(args.seed)] = reference_key(doc)
        with open(args.expected, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    failures = gate(doc, expected)

    if args.trace:
        chosen = per_layer(doc)
        shown = chosen
    else:
        chosen = end_to_end(doc)
        untraced = [r for r in doc["rounds"] if not r["traced"]]
        shown = {**chosen, **tenant_facing(untraced)}
    attempted, failed = attempted_failed(doc)
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "build_type": doc["build"]["build_type"],
        "cxx_flags": doc["build"]["cxx_flags"],
        "compiler": doc["build"]["compiler"],
        "nproc": os.cpu_count(),
        "hardware_threads": doc["hardware_threads"],
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }

    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    mode = "quick-" if args.quick else ""
    path = os.path.join(results_dir, f"{mode}{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "shown_metrics": {n: {"value": v, "unit": u}
                                     for n, (v, u) in shown.items()},
                   "gate_failures": failures, "raw": doc}, f, indent=1)

    print("provenance " + json.dumps(provenance))
    print(f"{args.workload} seed={args.seed} rounds={len(doc['rounds'])} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:>18.6f} {unit}")
    for message in failures:
        print(f"GATE FAILED: {message}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
