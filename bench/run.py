"""ncgraph benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke] [--budget B]

Sets the workload up three times in fresh interpreters (setup_s is the median),
then runs timed passes, each in a fresh interpreter, until S seconds have
passed and at least two passes ran.  Every pass's output goes through the
workload's gates; a wrong answer exits non-zero without printing a result.
With --trace 0 the last line reports the end-to-end metrics; with --trace 1
traced and untraced passes alternate and it reports the per-layer metrics.
The lines before it say what ran, where, and with how many samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0   # every run ends well inside the 180 s a run may take


class GateError(Exception):
    """A pass produced a wrong answer."""


# --- workers -------------------------------------------------------------------

def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # One core per pass: no BLAS or OpenMP thread pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, deadline):
    """Run one worker step and return (its JSON result, wall seconds)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run time limit reached before a worker could start")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:3])} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args[:3])} printed no result")
    return json.loads(lines[-1]), elapsed


# --- gates ---------------------------------------------------------------------

def require(cond, message):
    if not cond:
        raise GateError(message)


def check_scan(passes, setup_facts, smoke):
    """Both scans: identical bytes on every pass and no violations.  The
    pinned counts hold for the default config; the pinned digest for
    scan-default only, since scan-warm's report names its cache directory."""
    first = passes[0]["facts"]
    for p in passes:
        require(p["facts"]["sha256"] == first["sha256"],
                "scan report bytes differ between passes")
    require(first["violations"] == 0, f"scan reports {first['violations']} violations")
    if not smoke:
        want = wl.SCAN_EXPECTED
        require(first["entries"] == want["entries"],
                f"scan has {first['entries']} entries, expected {want['entries']}")
        require(first["classes"] == want["classes"],
                f"scan has {first['classes']} classes, expected {want['classes']}")
    if setup_facts is None and not smoke:
        require(first["stripped_sha256"] == wl.SCAN_EXPECTED["stripped_sha256"],
                "scan report (without certificate digests) differs from the pinned digest")
    if setup_facts is not None:
        require(len(set(setup_facts)) == 1, "cold scans in set-up disagree")
        require(first["sha256"] == setup_facts[0],
                "warm-cache scan report differs from the cold scan's")


def check_canon(passes, plan):
    shared = {frozenset(pair) for pair in plan["shared"]}
    for p in passes:
        facts = p["facts"]
        for case, row in facts.items():
            for cert in row["relabeled"]:
                require(cert is None or row["certificate"] is None
                        or cert == row["certificate"],
                        f"{case}: a relabeling changed the certificate")
            for status in row["isomorphisms"]:
                require(status in ("ok", "timeout"),
                        f"{case}: find_isomorphism on a relabeling: {status}")
        cases = list(facts)
        for i, a in enumerate(cases):
            for b in cases[i + 1:]:
                ca, cb = facts[a]["certificate"], facts[b]["certificate"]
                if ca is None or cb is None:
                    continue
                if frozenset((a, b)) in shared:
                    require(ca == cb, f"{a} and {b} should share a certificate")
                else:
                    require(ca != cb, f"{a} and {b} should have different certificates")


def check_tables(passes):
    for p in passes:
        for case, row in p["facts"].items():
            got, want = row["imported"], row["constructed"]
            require(got == want, f"{case}: imported table gives {got}, construct gives {want}")
            require(row["graph_vertices"] == got["order"] - got["center"],
                    f"{case}: graph has {row['graph_vertices']} vertices")
            require(row["rejection"] == "NotAssociative",
                    f"{case}: corrupted table gave {row['rejection']}, not NotAssociative")
            require(row["witness_holds"],
                    f"{case}: the NotAssociative witness is associative in the table")


def check(workload, passes, setup_facts, smoke):
    if workload in ("scan-default", "scan-warm"):
        check_scan(passes, setup_facts, smoke)
    elif workload == "canon-relabeled":
        check_canon(passes, wl.plan(workload, smoke))
    else:
        check_tables(passes)


# --- metrics -------------------------------------------------------------------

def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights.  The pooled latencies come in blocks, one per kind of call, and
    a single order statistic jumps when the percentile sits between two
    blocks; the weighted mean moves smoothly instead.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    p = q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_density = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate(([0.0], np.cumsum(density)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, len(cdf)), cdf)
    return float(np.dot(np.diff(edges), xs))


def call_counts(passes):
    """(attempted, failed) calls over the passes."""
    oks = [ok for p in passes for _, _, ok in p["ops"]]
    return len(oks), oks.count(False)


def end_to_end(setup_times, passes):
    """End-to-end metrics as (value, unit, sample count), from untraced passes."""
    # A stopped call's latency is the time it ran before it was stopped,
    # which is above every completed call, so it misses any latency limit.
    latencies = [seconds for p in passes for _, seconds, _ in p["ops"]]
    attempted, failed = call_counts(passes)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s", len(passes)),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms", attempted),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms", attempted),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB", len(passes)),
        "ok_ratio": (1 - failed / attempted, "ratio", attempted),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from traced passes (median over them)."""
    def one(p):
        t = p["trace"]
        calls, self_s = {}, {}
        from_caller = {}
        for name, caller, n, s in t["spans"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
            from_caller[(name, caller)] = n
        groups = t["groups"]
        gets = calls.get("catalog.cache.get", 0)
        m = {}
        for name in ("cayley.validate", "descriptors.construct", "graphs.build_nc_graph",
                     "canon.certificate", "canon.find_isomorphism",
                     "audits.audit_isomorphic_pair", "audits.same_prime_audit",
                     "cayfile.parse_group"):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in ("audits.centralizer_chain", "audits.large_centralizer_witness",
                     "catalog.scan_pairs", "catalog.enumerate_catalog"):
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m["descriptors.construct_per_group"] = (
            calls.get("descriptors.construct", 0) / groups if groups else 0.0)
        m["graphs.builds_per_group"] = (
            calls.get("graphs.build_nc_graph", 0) / groups if groups else 0.0)
        m["graphs.build_nc_graph.from_catalog"] = from_caller.get(
            ("graphs.build_nc_graph", "catalog"), 0)
        m["graphs.build_nc_graph.from_audits"] = from_caller.get(
            ("graphs.build_nc_graph", "audits"), 0)
        m["canon.certificate.from_catalog"] = from_caller.get(
            ("canon.certificate", "catalog"), 0)
        m["canon.timeouts"] = sum(1 for name, _, ok in p["ops"]
                                  if not ok and name in ("certificate", "find_isomorphism"))
        m["catalog.cache.gets"] = gets
        m["catalog.cache.puts"] = calls.get("catalog.cache.put", 0)
        m["catalog.cache.hit_ratio"] = t["cache_hits"] / gets if gets else 0.0
        m["catalog.cache.self_s"] = (self_s.get("catalog.cache.get", 0.0)
                                     + self_s.get("catalog.cache.put", 0.0))
        m["trace.wall_s"] = t["wall_s"]
        m["trace.accounted_ratio"] = sum(self_s.values()) / t["wall_s"]
        return m

    rows = [one(p) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_group")):
        return "ratio"
    return "count"


# --- environment ---------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncgraph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(argv):
    return {
        "command": " ".join(["python3", "bench/run.py", *argv]),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- main ----------------------------------------------------------------------

def run(args, work, deadline):
    step = ["--workload", args.workload, "--dir", str(work.relative_to(ROOT))]
    setup = ["setup", *step, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    setup_times, setup_facts = [], []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        _, elapsed = run_worker(setup, deadline)
        setup_times.append(elapsed)
        cold = work / "cold_report.json"
        if cold.exists():
            setup_facts.append(hashlib.sha256(cold.read_bytes()).hexdigest())

    budget = args.budget
    if budget is None and args.workload == "canon-relabeled":
        budget = wl.CANON_BUDGET_S
    if budget:
        step += ["--budget", repr(budget)]
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        enough = (time.monotonic() - start >= args.seconds
                  and len(untraced) >= MIN_PASSES // (2 if args.trace else 1)
                  and (traced or not args.trace))
        if enough:
            break
        traced_turn = args.trace and len(traced) < len(untraced)
        result, _ = run_worker(["pass", *step] + (["--trace"] if traced_turn else []),
                               deadline)
        (traced if traced_turn else untraced).append(result)
    passes = untraced + traced
    check(args.workload, passes, setup_facts or None, args.smoke)
    return setup_times, untraced, traced


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    parser.add_argument("--budget", type=float, default=None,
                        help="per-call budget in seconds (canon-relabeled "
                             f"defaults to {wl.CANON_BUDGET_S})")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncgraph" / "__init__.py").is_file():
        print(f"error: no ncgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, untraced, traced = run(args, work, deadline)
    except GateError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    env = environment(argv)
    print(f"# {env['command']}")
    print(f"# seed={args.seed} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']} commit={env['commit']} "
          f"source_sha256={env['source_sha256']}")
    attempted, failed = call_counts(untraced + traced)
    e2e = end_to_end(setup_times, untraced)
    for name, (value, unit, samples) in e2e.items():
        print(f"{name:14s} {value:12.6g} {unit:6s} n={samples}")
    print(f"{'failed_ratio':14s} {failed / attempted:12.6g} {'ratio':6s} "
          f"n={attempted} failed={failed}")
    print("# setup seconds: " + " ".join(f"{s:.4f}" for s in setup_times))
    print("# pass seconds: " + " ".join(f"{p['wall_s']:.4f}" for p in untraced)
          + (" traced: " + " ".join(f"{p['wall_s']:.4f}" for p in traced) if traced else ""))
    if args.trace:
        layers = per_layer(traced, untraced)
        for name, value in layers.items():
            print(f"{name:42s} {value:12.6g} {layer_unit(name)} n={len(traced)}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in e2e.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
