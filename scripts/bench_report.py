#!/usr/bin/env python3
"""Distill the micro benchmarks into tracked BENCH_*.json trajectory files.

Runs bench_micro_cache and bench_micro_pipeline with
--benchmark_format=json, extracts the per-benchmark medians, and writes one
compact JSON file per bench at the repo root:

    BENCH_cache.json     hot-path cache numbers + the contended speedup of
                         the striped-clock design over the verbatim
                         splice-under-mutex LRU baseline
    BENCH_pipeline.json  request-pipeline micro numbers

The files are committed, so the perf trajectory of the hot path is visible
in review diffs the same way test results are. CI's bench-smoke job runs
this script (short min_time) and fails if either bench emits JSON this
script cannot parse — the schema contract between the benches and the
trajectory files cannot silently rot.

Usage:
    scripts/bench_report.py --build-dir build [--out-dir .]
        [--min-time 0.5] [--repetitions 3] [--smoke] [--scrape FILE]
    scripts/bench_report.py --attach-scrape FILE [--out-dir .]

--smoke drops min_time/repetitions to CI-friendly values; the numbers are
noise, but the parse + schema path is fully exercised.

Each file's "hardware" block records histwalk's provenance next to
libbenchmark's library_build_type: CMAKE_BUILD_TYPE and CMAKE_CXX_FLAGS
from --build-dir's CMakeCache.txt, and the checkout's git sha ("-dirty"
when tracked files have uncommitted changes).

--scrape FILE ingests a crawl_cli --metrics-out Prometheus scrape and
attaches its cache-tier hit-rate and wire-request-attribution summary to
BENCH_cache.json (and validates the scrape's required metrics + the
miss-attribution identity, so bench-smoke catches a rotted exposition
format). When the scrape carries ANY hw_est_* gauge the FULL estimate
family is required and its convergence summary is attached too;
--expect-estimate makes the family's absence an error (CI passes it for
scrapes taken from estimand-selected crawls). --attach-scrape FILE does
the same to an EXISTING BENCH_cache.json without re-running the benches,
and stamps hardware.multicore_at_scrape.

--profile additionally folds the scrape's hw_prof_* wall-clock profiler
family into the attached summary: the top sites ranked by self time
(what the crawl's hardware actually spent, nested scopes excluded) plus
cache shard-lock contention ratios when the scrape carries them. The
flag hard-fails when the scrape has no hw_prof_* samples (crawl not run
with --serve) or when the family is present but recorded zero scopes —
a silently dead profiler must not pass CI.

--convergence FILE validates a bench_convergence --json-out document
(schema, stop rule latched on every row, warm arm strictly cheaper) and
writes it as BENCH_convergence.json in --out-dir, so the committed
trajectory file can only ever hold a result whose self-checks held.
"""

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# The contended speedup is the tentpole acceptance metric: batched clock
# reads vs the splice-LRU baseline, both at 8 threads on zipf-hot keys.
# Measured from the same interleaved run so frequency drift cancels.
SPEEDUP_PAIRS = {
    "contended_get_speedup": (
        "BM_ContendedGetBatchClock/real_time/threads:8",
        "BM_ContendedGetHitSpliceLru/real_time/threads:8",
    ),
    "contended_step_speedup": (
        "BM_ContendedStepBatchClock/real_time/threads:8",
        "BM_ContendedStepSpliceLru/real_time/threads:8",
    ),
}


def run_bench(binary, min_time, repetitions):
    """Runs one bench binary in JSON mode and returns the parsed document."""
    cmd = [
        str(binary),
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if repetitions > 1:
        cmd += [
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_enable_random_interleaving=true",
            "--benchmark_report_aggregates_only=true",
        ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{binary.name} exited {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        raise RuntimeError(f"{binary.name} emitted unparseable JSON: {err}")


# Nanoseconds per Google Benchmark time_unit; a bench registered with
# ->Unit(benchmark::kMillisecond) reports real_time/cpu_time in ms.
NS_PER_TIME_UNIT = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}


def distill(doc, repetitions):
    """Per-benchmark medians: {name: {items_per_second, cpu_ns, real_ns}}."""
    rows = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            # With report_aggregates_only we get mean/median/stddev/cv rows;
            # keep only the median and strip its suffix so names are stable
            # whether or not repetitions were requested.
            if bench.get("aggregate_name") != "median":
                continue
            name = bench["run_name"]
        else:
            name = bench["name"]
        unit = bench.get("time_unit")
        if unit not in NS_PER_TIME_UNIT:
            raise RuntimeError(
                f"benchmark {name}: unknown time_unit {unit!r}")
        scale = NS_PER_TIME_UNIT[unit]
        entry = {
            "real_ns": round(bench["real_time"] * scale, 3),
            "cpu_ns": round(bench["cpu_time"] * scale, 3),
        }
        if "items_per_second" in bench:
            entry["items_per_second"] = round(bench["items_per_second"])
        if "bytes_per_second" in bench:
            entry["bytes_per_second"] = round(bench["bytes_per_second"])
        rows.setdefault(name, []).append(entry)
    # A name can legally appear once; collapse multi-entries via median of
    # real_ns (defensive — current benches register each name once).
    out = {}
    for name, entries in sorted(rows.items()):
        if len(entries) == 1:
            out[name] = entries[0]
        else:
            pick = sorted(entries, key=lambda e: e["real_ns"])
            out[name] = pick[len(pick) // 2]
    if not out:
        raise RuntimeError("bench produced no benchmark rows")
    return out


def speedups(rows):
    """Computes the tracked ratio metrics where both sides are present."""
    ratios = {}
    for metric, (new, base) in SPEEDUP_PAIRS.items():
        a, b = rows.get(new), rows.get(base)
        if not a or not b:
            continue
        if "items_per_second" in a and "items_per_second" in b:
            ratios[metric] = round(
                a["items_per_second"] / b["items_per_second"], 3)
        else:
            ratios[metric] = round(b["real_ns"] / a["real_ns"], 3)
    return ratios


def cmake_cache_value(build_dir, key):
    """One entry of build_dir/CMakeCache.txt ("KEY:TYPE=value"), or None."""
    try:
        lines = (Path(build_dir) / "CMakeCache.txt").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        name, sep, value = line.partition("=")
        if sep and name.split(":", 1)[0] == key:
            return value
    return None


@functools.lru_cache(maxsize=None)
def git_sha():
    """HEAD of the checkout this script lives in, "-dirty" when the tree
    has uncommitted changes; None outside a git checkout. Read once, before
    this run rewrites any tracked BENCH_*.json."""
    root = Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=root,
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def hardware_context(doc, build_dir):
    ctx = doc.get("context", {})
    if ctx.get("num_cpus") is None:
        # The PR-6 single-core caveat hangs off this field; a bench run
        # that stops reporting it must fail loudly, not record null.
        raise RuntimeError("benchmark context is missing num_cpus")
    return {
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
        # libbenchmark's own build type, not histwalk's; histwalk's build
        # type, flags and revision follow.
        "library_build_type": ctx.get("library_build_type"),
        "histwalk_build_type": cmake_cache_value(build_dir,
                                                 "CMAKE_BUILD_TYPE"),
        "histwalk_cxx_flags": cmake_cache_value(build_dir, "CMAKE_CXX_FLAGS"),
        "histwalk_git_sha": git_sha(),
        "host": platform.machine(),
    }


def print_core_caveat(num_cpus):
    if num_cpus == 1:
        print("note: single-core host — the contended_* speedups measure "
              "lock overhead only; reader parallelism cannot show (the "
              "PR-6 BENCH_cache.json caveat). Re-measure on a multi-core "
              "box before citing them.")


# The attribution metrics every crawl_cli --metrics-out scrape must carry;
# the miss-attribution identity below is over exactly these.
REQUIRED_SCRAPE_METRICS = [
    "hw_access_cache_hits_total",
    "hw_access_cache_misses_total",
    "hw_net_singleflight_joins_total",
    "hw_net_wire_fetches_total",
    "hw_access_budget_refusals_total",
    "hw_access_fetch_errors_total",
    "hw_access_charged_queries_total",
]

# The online-convergence gauge family an estimand-selected crawl exposes.
# All-or-nothing: one hw_est_* gauge present means the whole family must
# be, so a half-wired tracker cannot pass silently.
ESTIMATE_SCRAPE_METRICS = [
    "hw_est_estimate",
    "hw_est_std_error",
    "hw_est_ci_half_width",
    "hw_est_confidence",
    "hw_est_ess",
    "hw_est_r_hat",
    "hw_est_steps",
    "hw_est_num_batches",
]


def parse_scrape(path):
    """Parses a Prometheus-text scrape into {metric_name: value}.

    Only unlabelled scalar lines are collected — the attribution metrics
    are all unlabelled, and histogram series keep their _bucket/_sum
    suffixed names so nothing collides. Raises when a required metric is
    absent (the exposition format rotted) or a value fails to parse.
    """
    metrics = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or "{" in parts[0]:
                continue
            name, value = parts
            try:
                metrics[name] = int(value)
            except ValueError:
                try:
                    metrics[name] = float(value)
                except ValueError:
                    raise RuntimeError(
                        f"scrape {path}: unparseable value for {name}: "
                        f"{value!r}")
    missing = [m for m in REQUIRED_SCRAPE_METRICS if m not in metrics]
    if missing:
        raise RuntimeError(
            f"scrape {path} is missing required metrics: "
            + ", ".join(missing))
    return metrics


def check_estimate_family(metrics, path, expect_estimate):
    """Enforces the all-or-nothing hw_est_* contract on one scrape."""
    present = [m for m in metrics if m.startswith("hw_est_")]
    if not present:
        if expect_estimate:
            raise RuntimeError(
                f"scrape {path}: --expect-estimate but no hw_est_* gauges "
                "(was the crawl run with an estimand selected?)")
        return None
    missing = [m for m in ESTIMATE_SCRAPE_METRICS if m not in metrics]
    if missing:
        raise RuntimeError(
            f"scrape {path} exposes hw_est_* but is missing: "
            + ", ".join(missing))
    return {m: metrics[m] for m in ESTIMATE_SCRAPE_METRICS}


def scrape_summary(metrics):
    """Cache-tier hit rates + wire attribution from one scrape.

    identity_residual MUST be 0: the access layer attributes every cache
    miss to exactly one of wire fetch / singleflight join / budget refusal
    / fetch error.
    """
    hits = metrics["hw_access_cache_hits_total"]
    misses = metrics["hw_access_cache_misses_total"]
    joins = metrics["hw_net_singleflight_joins_total"]
    wire = metrics["hw_net_wire_fetches_total"]
    refused = metrics["hw_access_budget_refusals_total"]
    errors = metrics["hw_access_fetch_errors_total"]
    lookups = hits + misses
    residual = misses - (wire + joins + refused + errors)
    if residual != 0:
        raise RuntimeError(
            f"miss-attribution identity violated: {misses} misses != "
            f"{wire} wire + {joins} joins + {refused} refused + "
            f"{errors} errors (residual {residual})")
    return {
        "cache_tier": {
            "lookups": lookups,
            "memory_hits": hits,
            "wire_fetches": wire,
            "memory_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "wire_rate": round(wire / lookups, 4) if lookups else 0.0,
        },
        "wire_attribution": {
            "cache_misses": misses,
            "wire_fetches": wire,
            "singleflight_joins": joins,
            "budget_refusals": refused,
            "fetch_errors": errors,
            "identity_residual": residual,
        },
        "charged_queries": metrics["hw_access_charged_queries_total"],
    }


def _unescape_label(value):
    """Reverses the exposition-format escapes: \\\\, \\", \\n."""
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ("\\", '"'):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def parse_labeled_scrape(path):
    """Parses labelled Prometheus lines into [(name, labels, value)].

    Handles quoted label values with exposition-format escapes; unlabelled
    lines are skipped (parse_scrape covers those).
    """
    samples = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or "{" not in line:
                continue
            name, rest = line.split("{", 1)
            labels = {}
            i = 0
            while i < len(rest) and rest[i] != "}":
                eq = rest.index("=", i)
                key = rest[i:eq].lstrip(",")
                if rest[eq + 1] != '"':
                    raise RuntimeError(
                        f"scrape {path}: unquoted label value in {line!r}")
                j = eq + 2
                raw = []
                while j < len(rest) and rest[j] != '"':
                    if rest[j] == "\\" and j + 1 < len(rest):
                        raw.append(rest[j:j + 2])
                        j += 2
                    else:
                        raw.append(rest[j])
                        j += 1
                labels[key] = _unescape_label("".join(raw))
                i = j + 1
            value = rest[i + 1:].strip()
            try:
                samples.append((name, labels, float(value)))
            except ValueError:
                raise RuntimeError(
                    f"scrape {path}: unparseable value in {line!r}")
    return samples


PROFILE_TOP_N = 10


def profile_summary(path):
    """Folds the hw_prof_* family (and shard lock counters) of a scrape.

    Hard-fails when the profiler family is absent (the crawl was not run
    with --serve / an armed profiler) or present but empty (instrumented
    sites exist yet recorded nothing — the macro seam rotted).
    """
    sites = {}
    locks = {}
    for name, labels, value in parse_labeled_scrape(path):
        site = labels.get("site")
        if site is not None and name.startswith("hw_prof_"):
            entry = sites.setdefault(site, {})
            if name == "hw_prof_scope_ns_count":
                entry["count"] = int(value)
            elif name == "hw_prof_scope_ns_sum":
                entry["total_ns"] = int(value)
            elif name == "hw_prof_scope_ns_max":
                entry["max_ns"] = int(value)
            elif name == "hw_prof_self_ns_total":
                entry["self_ns"] = int(value)
        elif name in ("hw_cache_shard_lock_acquires_total",
                      "hw_cache_shard_lock_contended_total"):
            mode = labels.get("mode", "unknown")
            bucket = locks.setdefault(
                mode, {"acquires": 0, "contended": 0})
            key = ("acquires" if name.endswith("acquires_total")
                   else "contended")
            bucket[key] += int(value)
    if not sites:
        raise RuntimeError(
            f"scrape {path}: no hw_prof_* family — was the crawl run with "
            "--serve (or another armed profiler)?")
    total_count = sum(s.get("count", 0) for s in sites.values())
    if total_count == 0:
        raise RuntimeError(
            f"scrape {path}: hw_prof_* family present but empty — "
            f"{len(sites)} sites registered, zero scopes recorded")
    total_self = sum(s.get("self_ns", 0) for s in sites.values())
    ranked = sorted(sites.items(),
                    key=lambda kv: kv[1].get("self_ns", 0), reverse=True)
    top = []
    for site, entry in ranked[:PROFILE_TOP_N]:
        row = {"site": site,
               "count": entry.get("count", 0),
               "total_ns": entry.get("total_ns", 0),
               "self_ns": entry.get("self_ns", 0),
               "max_ns": entry.get("max_ns", 0)}
        row["self_share"] = (round(row["self_ns"] / total_self, 4)
                             if total_self else 0.0)
        if row["count"]:
            row["mean_ns"] = round(row["total_ns"] / row["count"], 1)
        top.append(row)
    summary = {
        "sites_total": len(sites),
        "scopes_recorded": total_count,
        "self_ns_total": total_self,
        "top_sites_by_self_ns": top,
    }
    if locks:
        contention = {}
        for mode, bucket in sorted(locks.items()):
            ratio = (round(bucket["contended"] / bucket["acquires"], 6)
                     if bucket["acquires"] else 0.0)
            contention[mode] = {**bucket, "contention_ratio": ratio}
        summary["cache_lock_contention"] = contention
    return summary


def attach_scrape(bench_path, scrape_path, expect_estimate=False,
                  profile=False):
    """Attaches a scrape summary to an existing BENCH_cache.json."""
    report = json.loads(bench_path.read_text())
    metrics = parse_scrape(scrape_path)
    summary = scrape_summary(metrics)
    estimate = check_estimate_family(metrics, scrape_path, expect_estimate)
    if estimate is not None:
        summary["estimate"] = estimate
    if profile:
        summary["profile"] = profile_summary(scrape_path)
    summary["source"] = str(scrape_path)
    report["scrape"] = summary
    hardware = report.setdefault("hardware", {})
    # Whether THIS host could have exhibited contention when the scrape
    # was taken — the PR-6 caveat, machine-checkable from the file.
    hardware["multicore_at_scrape"] = (os.cpu_count() or 1) > 1
    # Wall-clock profile numbers are only comparable across hosts with the
    # core count on record next to them.
    hardware.setdefault("num_cpus", os.cpu_count() or 1)
    bench_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"attached scrape summary from {scrape_path} to {bench_path}")
    print_core_caveat(report.get("hardware", {}).get("num_cpus"))


CONVERGENCE_POINT_KEYS = [
    "target_ci",
    "cold_steps",
    "warm_steps",
    "cold_charged_queries",
    "warm_charged_queries",
    "charged_savings",
    "cold_sim_wall_seconds",
    "warm_sim_wall_seconds",
    "cold_achieved_ci",
    "warm_achieved_ci",
    "cold_hit_fraction",
    "warm_hit_fraction",
]


def fold_convergence(convergence_path, out_dir):
    """Validates a bench_convergence JSON doc and commits it as
    BENCH_convergence.json.

    Re-checks the bench's own acceptance conditions (the stop rule
    actually latched on every row, and the warm arm paid strictly fewer
    charged queries) so a stale or hand-edited document cannot land in
    the trajectory file.
    """
    doc = json.loads(Path(convergence_path).read_text())
    for key in ("bench", "dataset", "walker", "estimand", "ground_truth",
                "settings", "snapshot", "points"):
        if key not in doc:
            raise RuntimeError(f"{convergence_path}: missing key {key!r}")
    if doc["bench"] != "bench_convergence":
        raise RuntimeError(
            f"{convergence_path}: bench is {doc['bench']!r}, expected "
            "'bench_convergence'")
    points = doc["points"]
    if not points:
        raise RuntimeError(f"{convergence_path}: no convergence points")
    for i, point in enumerate(points):
        missing = [k for k in CONVERGENCE_POINT_KEYS if k not in point]
        if missing:
            raise RuntimeError(
                f"{convergence_path}: point {i} missing " + ", ".join(missing))
        if point["cold_hit_fraction"] <= 0 or point["warm_hit_fraction"] <= 0:
            raise RuntimeError(
                f"{convergence_path}: point {i} (target "
                f"{point['target_ci']}) never latched the stop rule")
        if point["warm_charged_queries"] >= point["cold_charged_queries"]:
            raise RuntimeError(
                f"{convergence_path}: point {i} (target "
                f"{point['target_ci']}): warm arm did not save charged "
                f"queries ({point['warm_charged_queries']} vs "
                f"{point['cold_charged_queries']})")
    out_path = Path(out_dir) / "BENCH_convergence.json"
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    savings = ", ".join(
        f"{p['target_ci']:.3g}->{p['charged_savings']:.1%}" for p in points)
    print(f"wrote {out_path} ({len(points)} targets; charged savings "
          f"{savings})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="cmake build dir holding the bench binaries")
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_*.json files are written")
    parser.add_argument("--min-time", type=float, default=0.5,
                        help="per-benchmark min time in seconds (plain "
                             "double; the bundled benchmark library does "
                             "not accept a trailing 's')")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny min_time, single repetition; "
                             "validates the parse/schema path only")
    parser.add_argument("--scrape", type=Path, default=None,
                        help="crawl_cli --metrics-out scrape to validate "
                             "and fold into BENCH_cache.json")
    parser.add_argument("--attach-scrape", type=Path, default=None,
                        help="attach a scrape summary to the existing "
                             "BENCH_cache.json without re-running benches")
    parser.add_argument("--expect-estimate", action="store_true",
                        help="fail if the scrape carries no hw_est_* "
                             "gauges (for estimand-selected crawls)")
    parser.add_argument("--profile", action="store_true",
                        help="fold the scrape's hw_prof_* wall-clock "
                             "profile (top sites by self time, cache lock "
                             "contention ratios) into BENCH_cache.json; "
                             "fails when the family is absent or empty")
    parser.add_argument("--convergence", type=Path, default=None,
                        help="bench_convergence --json-out document to "
                             "validate and write as BENCH_convergence.json")
    args = parser.parse_args()

    if args.convergence is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            fold_convergence(args.convergence, out_dir)
        except (RuntimeError, json.JSONDecodeError, OSError) as err:
            sys.stderr.write(f"error: {err}\n")
            return 1
        if args.scrape is None and args.attach_scrape is None:
            return 0

    if args.smoke:
        args.min_time = 0.01
        args.repetitions = 1

    build = Path(args.build_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.attach_scrape is not None:
        bench_path = out_dir / "BENCH_cache.json"
        if not bench_path.exists():
            sys.stderr.write(f"error: {bench_path} does not exist; run the "
                             "benches first or pass --scrape instead\n")
            return 1
        try:
            attach_scrape(bench_path, args.attach_scrape,
                          args.expect_estimate, args.profile)
        except (RuntimeError, json.JSONDecodeError, OSError) as err:
            sys.stderr.write(f"error: {err}\n")
            return 1
        return 0

    scrape = None
    if args.scrape is not None:
        try:
            metrics = parse_scrape(args.scrape)
            scrape = scrape_summary(metrics)
            estimate = check_estimate_family(metrics, args.scrape,
                                             args.expect_estimate)
            if estimate is not None:
                scrape["estimate"] = estimate
            if args.profile:
                scrape["profile"] = profile_summary(args.scrape)
            scrape["source"] = str(args.scrape)
        except (RuntimeError, OSError) as err:
            sys.stderr.write(f"error: {err}\n")
            return 1
        print(f"scrape {args.scrape}: required metrics present, "
              "miss-attribution identity holds"
              + (", hw_est_* family complete" if estimate else "")
              + (f"; profile: {scrape['profile']['sites_total']} sites, "
                 f"{scrape['profile']['scopes_recorded']} scopes"
                 if args.profile else ""))
    targets = {
        "BENCH_cache.json": build / "bench_micro_cache",
        "BENCH_pipeline.json": build / "bench_micro_pipeline",
    }
    failed = False
    for out_name, binary in targets.items():
        if not binary.exists():
            sys.stderr.write(f"error: missing bench binary {binary}\n")
            failed = True
            continue
        try:
            doc = run_bench(binary, args.min_time, args.repetitions)
            rows = distill(doc, args.repetitions)
        except RuntimeError as err:
            sys.stderr.write(f"error: {out_name}: {err}\n")
            failed = True
            continue
        report = {
            "bench": binary.name,
            "settings": {
                "min_time_s": args.min_time,
                "repetitions": args.repetitions,
                "statistic": "median" if args.repetitions > 1 else "single",
                "smoke": args.smoke,
            },
            "hardware": hardware_context(doc, build),
            "benchmarks": rows,
        }
        ratios = speedups(rows)
        if ratios:
            report["speedups"] = ratios
        if out_name == "BENCH_cache.json":
            num_cpus = report["hardware"]["num_cpus"]
            report["hardware"]["multicore_at_scrape"] = num_cpus > 1
            if scrape is not None:
                report["scrape"] = scrape
            print_core_caveat(num_cpus)
        out_path = out_dir / out_name
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        summary = ", ".join(f"{k}={v}x" for k, v in ratios.items())
        print(f"wrote {out_path} ({len(rows)} benchmarks"
              + (f"; {summary}" if summary else "") + ")")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
