"""One step of the benchmark in a fresh interpreter.

    python3 bench/worker.py setup --workload W --seed N --dir D [--smoke]
    python3 bench/worker.py pass  --workload W --dir D [--trace] [--budget S]

``setup`` writes a workload's inputs into D (and, for scan-warm, fills the
certificate cache with a cold scan).  ``pass`` loads them, times one pass of
public ncgraph calls, and prints one JSON line: pass wall time, per-call
latencies, peak RSS, the facts the runner's output gates check, and with
``--trace`` the per-layer call counts and self times.  bench/run.py starts
one worker per step, so no in-process cache carries from one pass to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ncgraph  # noqa: E402
from ncgraph import audits, catalog, cayfile, descriptors  # noqa: E402
from ncgraph.catalog import CatalogConfig, CertificateCache  # noqa: E402

TIMEOUT = object()  # result of a call stopped by the per-call budget


class BudgetExceeded(Exception):
    """Raised from SIGALRM inside a call that ran past its budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# --- tracing ---------------------------------------------------------------------

# (object the name is bound in, attribute, span name, calling layer).  Each
# public function is wrapped where its caller looks it up, so calls are
# counted per caller and a layer's own internal calls stay in its self time.
BOUND_CALLS = (
    (descriptors, "validate", "cayley.validate", "descriptors"),
    (cayfile, "validate", "cayley.validate", "cayfile"),
    (catalog, "construct", "descriptors.construct", "catalog"),
    (catalog, "build_nc_graph", "graphs.build_nc_graph", "catalog"),
    (audits, "build_nc_graph", "graphs.build_nc_graph", "audits"),
    (catalog, "certificate", "canon.certificate", "catalog"),
    (audits, "certificate", "canon.certificate", "audits"),
    (catalog, "find_isomorphism", "canon.find_isomorphism", "catalog"),
    (catalog, "audit_isomorphic_pair", "audits.audit_isomorphic_pair", "catalog"),
    (catalog, "same_prime_audit", "audits.same_prime_audit", "catalog"),
    (catalog, "enumerate_catalog", "catalog.enumerate_catalog", "catalog"),
    (CertificateCache, "get", "catalog.cache.get", "catalog"),
    (CertificateCache, "put", "catalog.cache.put", "catalog"),
)

# The calls this benchmark makes itself, with their span names.
BENCH_CALLS = {
    "scan_pairs": (catalog.scan_pairs, "catalog.scan_pairs"),
    "construct": (ncgraph.construct, "descriptors.construct"),
    "build_nc_graph": (ncgraph.build_nc_graph, "graphs.build_nc_graph"),
    "relabeled": (ncgraph.relabeled, "graphs.relabeled"),
    "certificate": (ncgraph.certificate, "canon.certificate"),
    "find_isomorphism": (ncgraph.find_isomorphism, "canon.find_isomorphism"),
    "parse_group": (ncgraph.parse_group, "cayfile.parse_group"),
    "centralizer_chain": (ncgraph.centralizer_chain, "audits.centralizer_chain"),
    "large_centralizer_witness": (ncgraph.large_centralizer_witness,
                                  "audits.large_centralizer_witness"),
}


class Tracer:
    """Call counts and self times per (span name, calling layer).

    A span's self time is its duration minus the time of the spans it
    encloses, so the self times of all spans add up to the traced time.
    """

    def __init__(self):
        self.stack = []
        self.spans = {}       # (name, caller) -> [calls, self seconds]
        self.groups = set()   # descriptors of groups constructed or imported
        self.cache_hits = 0

    def wrap(self, fn, name, caller):
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = spans.setdefault((name, caller), [0, 0.0])
                rec[0] += 1
                rec[1] += dt - inner
            self._note(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note(self, name, result):
        if name in ("descriptors.construct", "cayfile.parse_group"):
            self.groups.add(result.descriptor)
        elif name == "catalog.cache.get" and result is not None:
            self.cache_hits += 1

    def install(self):
        for owner, attr, name, caller in BOUND_CALLS:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, caller))

    def summary(self, wall_s):
        rows = [[name, caller, calls, self_s]
                for (name, caller), (calls, self_s) in sorted(self.spans.items())]
        return {"spans": rows, "groups": len(self.groups),
                "cache_hits": self.cache_hits, "wall_s": wall_s}


def bench_api(tracer):
    fns = {}
    for key, (fn, name) in BENCH_CALLS.items():
        fns[key] = tracer.wrap(fn, name, "bench") if tracer else fn
    return SimpleNamespace(**fns)


# --- timed calls -----------------------------------------------------------------

class Ops:
    """Latency of each public call in a pass; a call over budget is stopped
    and recorded as failed, an expected exception is a successful result."""

    def __init__(self, budget):
        self.budget = budget
        self.records = []     # [name, seconds, ok]
        if budget:
            signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, name, fn, *args, expect=(), **kwargs):
        t0 = time.perf_counter()
        try:
            if self.budget:
                signal.setitimer(signal.ITIMER_REAL, self.budget)
            try:
                result = fn(*args, **kwargs)
            finally:
                if self.budget:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            result = TIMEOUT
        except expect as exc:
            result = exc
        self.records.append([name, time.perf_counter() - t0, result is not TIMEOUT])
        return result


# --- scan-default / scan-warm ----------------------------------------------------

def scan_config(inputs):
    kwargs = dict(inputs["config"] or {})
    if "families" in kwargs:
        kwargs["families"] = tuple(kwargs["families"])
    if inputs.get("cache_dir"):
        kwargs["cache_dir"] = inputs["cache_dir"]
    return CatalogConfig(**kwargs)


def report_facts(report):
    text = report.to_json()
    doc = json.loads(text)
    for part in doc["entries"] + doc["classes"]:
        part.pop("certificate_sha256")
    return {
        "sha256": sha256(text),
        "stripped_sha256": sha256(json.dumps(doc, indent=2)),
        "entries": len(report.entries),
        "classes": len(report.classes),
        "violations": report.violations,
    }


def scan_pass(api, ops, inputs):
    config = scan_config(inputs)
    report = ops.call("scan_pairs", api.scan_pairs, config)
    return lambda: report_facts(report)


# --- canon-relabeled -------------------------------------------------------------

def adjacency(graph):
    n = graph.num_vertices
    nbytes = (n + 7) // 8
    rows = [np.frombuffer(m.to_bytes(nbytes, "little"), dtype=np.uint8) for m in graph.adj]
    return np.unpackbits(np.array(rows).reshape(n, nbytes), axis=1,
                         bitorder="little")[:, :n].astype(bool)


def iso_status(phi, a, b):
    """Check a returned isomorphism independently of ncgraph's own check."""
    if phi is TIMEOUT:
        return "timeout"
    if not isinstance(phi, ncgraph.Isomorphism):
        return f"not an Isomorphism: {phi!r}"
    m = np.array(phi.mapping, dtype=np.int64)
    if sorted(phi.mapping) != list(range(a.num_vertices)):
        return "mapping is not a bijection"
    if not np.array_equal(adjacency(b)[np.ix_(m, m)], adjacency(a)):
        return "mapping does not preserve adjacency"
    return "ok"


def cert_digest(cert):
    return None if cert is TIMEOUT else sha256(cert)


def canon_pass(api, ops, inputs):
    results = []
    for case in inputs["cases"]:
        a = api.build_nc_graph(api.construct(case))
        cert_a = ops.call("certificate", api.certificate, a)
        rel = []
        for perm in inputs["perms"][case]:
            b = api.relabeled(a, perm)
            rel.append((b, ops.call("find_isomorphism", api.find_isomorphism, a, b)))
        results.append((case, a, cert_a, rel))

    def facts():
        # find_isomorphism labelled each relabeling, so certificate() answers
        # from the labeling cache unless the call was stopped.
        return {case: {
            "certificate": cert_digest(cert_a),
            "relabeled": [None if phi is TIMEOUT else cert_digest(ncgraph.certificate(b))
                          for b, phi in rel],
            "isomorphisms": [iso_status(phi, a, b) for b, phi in rel],
        } for case, a, cert_a, rel in results}

    return facts


# --- tables-import ---------------------------------------------------------------

def class_profile(g):
    sizes = sorted(len(c) for c in ncgraph.conjugacy_classes(g))
    return [[s, sizes.count(s)] for s in sorted(set(sizes))]


def group_facts(g):
    return {"order": g.order, "center": len(ncgraph.center(g)),
            "classes": class_profile(g)}


def table_from_text(text):
    values = np.array(text.split(), dtype=np.int64)
    n = int(values[0])
    return values[1:].reshape(n, n)


def table_pass(api, ops, inputs):
    results = []
    for case, good, bad in inputs["texts"]:
        h = ops.call("parse_group", api.parse_group, good, descriptor=case)
        graph = ops.call("build_nc_graph", api.build_nc_graph, h)
        ops.call("centralizer_chain", api.centralizer_chain, h)
        ops.call("large_centralizer_witness", api.large_centralizer_witness, h)
        g = ops.call("construct", api.construct, case, max_order=wl.TABLE_MAX_ORDER)
        rejected = ops.call("parse_group", api.parse_group, bad,
                            descriptor=f"corrupted {case}",
                            expect=ncgraph.NotAssociative)
        results.append((case, h, graph, g, bad, rejected))

    def facts():
        out = {}
        for case, h, graph, g, bad, rejected in results:
            row = {"imported": group_facts(h), "constructed": group_facts(g),
                   "graph_vertices": graph.num_vertices,
                   "rejection": type(rejected).__name__, "witness_holds": False}
            if isinstance(rejected, ncgraph.NotAssociative):
                t = table_from_text(bad)
                i, j, k = rejected.witness
                row["witness_holds"] = bool(t[t[i, j], k] != t[i, t[j, k]])
            out[case] = row
        return out

    return facts


PASSES = {
    "scan-default": scan_pass,
    "scan-warm": scan_pass,
    "canon-relabeled": canon_pass,
    "tables-import": table_pass,
}


# --- setup -------------------------------------------------------------------------

def relabel_table(table, rng):
    """The same group with element i renamed p[i]; the identity (0) moves."""
    n = table.shape[0]
    p = rng.permutation(n)
    if p[0] == 0:
        p[[0, 1]] = p[[1, 0]]
    q = np.argsort(p)
    return p[table[np.ix_(q, q)]]


def corrupt(t, rng):
    """A Latin square with the same identity that is not associative.

    Take w of prime order k and rows x and x*w: in the columns w^i*u the two
    rows hold the same k values, so exchanging them keeps every row and
    column a permutation (for k = 2 this is an intercalate swap).  With x
    outside {e, w^-1}, u outside <w> and u outside {x, x*w}, the product
    (x*u)*c differs from x*(u*c) for any c with u*c outside <w>*u.
    """
    n = t.shape[0]
    e = int(np.nonzero((t == np.arange(n)).all(axis=1))[0][0])
    powers = None
    for w in rng.permutation(n).tolist():
        if w == e:
            continue
        cyc = [e]
        while True:
            nxt = int(t[cyc[-1], w])
            if nxt == e:
                break
            cyc.append(nxt)
        k = len(cyc)
        if all(k % d for d in range(2, int(k ** 0.5) + 1)):
            powers = cyc
            break
    w = powers[1]
    w_inv = powers[-1]
    coset = set(powers)
    candidates = rng.permutation(n).tolist()
    x = next(v for v in candidates if v not in (e, w_inv))
    xw = int(t[x, w])
    u = next(v for v in candidates if v not in coset and v not in (x, xw))
    cols = [int(t[p, u]) for p in powers]
    bad = t.copy()
    bad[x, cols], bad[xw, cols] = t[xw, cols], t[x, cols]
    c = next(v for v in candidates if int(t[u, v]) not in set(cols))
    if bad[bad[x, u], c] == bad[x, bad[u, c]]:
        raise RuntimeError("corruption left the planned triple associative")
    return bad


def table_text(t):
    return f"{t.shape[0]}\n" + "\n".join(" ".join(map(str, row)) for row in t.tolist()) + "\n"


def setup(workload, seed, work, smoke):
    plan = wl.plan(workload, smoke)
    inputs = {"workload": workload}
    if workload in ("scan-default", "scan-warm"):
        inputs["config"] = plan["config"]
        if workload == "scan-warm":
            inputs["cache_dir"] = str(work / "cache")
            report = catalog.scan_pairs(scan_config(inputs))
            (work / "cold_report.json").write_text(report.to_json())
    elif workload == "canon-relabeled":
        perms = {}
        for case, count in plan["cases"].items():
            n = ncgraph.build_nc_graph(ncgraph.construct(case)).num_vertices
            perms[case] = []
            for i in range(count):
                perm = list(range(n))
                random.Random(f"{seed}:{case}:{i}").shuffle(perm)
                perms[case].append(perm)
        inputs.update(cases=list(plan["cases"]), perms=perms)
    else:
        files = []
        for index, case in enumerate(plan["cases"]):
            rng = np.random.default_rng([seed, index])
            g = ncgraph.construct(case, max_order=wl.TABLE_MAX_ORDER)
            good = relabel_table(g.table.astype(np.int64), rng)
            stem = work / f"table{index}"
            stem.with_suffix(".cay").write_text(table_text(good))
            stem.with_suffix(".bad.cay").write_text(table_text(corrupt(good, rng)))
            files.append([case, stem.with_suffix(".cay").name,
                          stem.with_suffix(".bad.cay").name])
        inputs["files"] = files
    (work / "inputs.json").write_text(json.dumps(inputs))


# --- one pass --------------------------------------------------------------------

def run_pass(work, trace, budget):
    inputs = json.loads((work / "inputs.json").read_text())
    if "files" in inputs:
        inputs["texts"] = [[case, (work / good).read_text(), (work / bad).read_text()]
                           for case, good, bad in inputs["files"]]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    api = bench_api(tracer)
    ops = Ops(budget)
    t0 = time.perf_counter()
    facts = PASSES[inputs["workload"]](api, ops, inputs)
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = tracer.summary(wall_s) if tracer else None
    return {"wall_s": wall_s, "ops": ops.records, "rss_mb": rss_mb,
            "facts": facts(), "trace": trace}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (setup)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget", type=float, default=None)
    args = parser.parse_args(argv)
    if not Path(ncgraph.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"ncgraph imported from {ncgraph.__file__}, not from {SRC}")
    if args.step == "setup":
        setup(args.workload, args.seed, args.dir, args.smoke)
        print(json.dumps({"ok": True}))
    else:
        print(json.dumps(run_pass(args.dir, args.trace, args.budget)))


if __name__ == "__main__":
    main()
