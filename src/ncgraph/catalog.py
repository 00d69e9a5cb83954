"""Catalog enumeration, certificate caching, and the all-pairs graph scan.

A catalog is a deterministic list of non-abelian groups: requested base
families plus their direct products with small abelian cofactors.  The scan
groups catalog entries by graph certificate, verifies every same-certificate
pair with an explicit bijection and the full pair audit, and renders the
headline verdict: among nilpotent groups with irregular graphs, equal
certificates must mean equal orders.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field

from .audits import audit_isomorphic_pair, same_prime_audit
from .canon import CERT_VERSION, certificate, find_isomorphism
from .cayley import (
    center,
    conjugacy_classes,
    is_ac_group,
    is_nilpotent,
    is_prime,
    sylow_decomposition,
)
from .descriptors import (
    GroupDescriptor,
    construct,
    descriptor_order,
    parse_descriptor,
)
from .errors import (
    BadDescriptor,
    CapExceeded,
    InternalInconsistency,
    PrimeMismatch,
    RegularGraph,
    WrongShape,
)
from .graphs import build_nc_graph, relabeled

DEFAULT_FAMILIES = (
    "dihedral(3..16)",
    "dicyclic(2..8)",
    "heisenberg(2,1)",
    "heisenberg(3,1)",
    "heisenberg(3,2)",
)

_BARE_FAMILIES = ("dihedral", "dicyclic", "heisenberg")
_RANGE_RE = re.compile(r"(dihedral|dicyclic)\((\d+)\.\.(\d+)\)")


@dataclass(frozen=True)
class CatalogConfig:
    """What to enumerate: base families, order cap, and abelian cofactors."""

    families: tuple = DEFAULT_FAMILIES
    max_order: int = 256
    cofactor_max: int = 9
    coprime_cofactors: bool = True
    cache_dir: str = None

    def to_dict(self):
        return {
            "families": list(self.families),
            "max_order": self.max_order,
            "cofactor_max": self.cofactor_max,
            "coprime_cofactors": self.coprime_cofactors,
            "cache_dir": self.cache_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogConfig":
        """Config from parsed JSON; a key of the wrong type is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            expected, ok = _CONFIG_TYPES[key]
            if not ok(value):
                raise ValueError(f"config {key!r} must be {expected}, got {value!r}")
        kwargs = dict(data)
        if "families" in kwargs:
            kwargs["families"] = tuple(kwargs["families"])
        return cls(**kwargs)


# each config key's JSON type: its name in messages, and a test (bools are
# ints in Python, so they are kept out of the integer keys explicitly)
_CONFIG_TYPES = {
    "families": ("a list of strings", lambda v: isinstance(v, list)
                 and all(isinstance(f, str) for f in v)),
    "max_order": ("an integer", lambda v: type(v) is int),
    "cofactor_max": ("an integer", lambda v: type(v) is int),
    "coprime_cofactors": ("true or false", lambda v: type(v) is bool),
    "cache_dir": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


class CertificateCache:
    """Content-addressed certificate store: one file per descriptor string
    and certificate version, written via a temp file and an atomic rename."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, descriptor: str) -> str:
        key = f"v{CERT_VERSION}:{descriptor}"
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.directory, digest + ".cert")

    def get(self, descriptor: str):
        try:
            with open(self._path(descriptor), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def put(self, descriptor: str, cert: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(cert)
            os.replace(tmp, self._path(descriptor))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _family_instances(request: str, max_order: int) -> list:
    """Expand one family request into descriptors within the order cap.

    Three forms: a bare family name auto-ranges over everything fitting the
    cap; a range like dihedral(3..16) clips to the cap; any explicit
    descriptor is taken literally and over-cap instances are an error.
    """
    request = request.strip()
    if request in ("dihedral", "dicyclic"):
        start = 3 if request == "dihedral" else 2
        per = 2 if request == "dihedral" else 4
        out = []
        k = start
        while per * k <= max_order:
            out.append(GroupDescriptor(request, (k,)))
            k += 1
        return out
    if request == "heisenberg":
        out = []
        p = 2
        while p ** 3 <= max_order:
            if is_prime(p):
                k = 1
                while p ** (2 * k + 1) <= max_order:
                    out.append(GroupDescriptor("heisenberg", (p, k)))
                    k += 1
            p += 1
        out.sort(key=lambda d: (descriptor_order(d), d.args))
        return out
    m = _RANGE_RE.fullmatch(request)
    if m:
        name, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        minimum = 3 if name == "dihedral" else 2
        if lo < minimum or hi < lo:
            raise BadDescriptor(f"bad range in family request {request!r}")
        per = 2 if name == "dihedral" else 4
        return [GroupDescriptor(name, (k,))
                for k in range(lo, hi + 1) if per * k <= max_order]
    desc = parse_descriptor(request)
    if descriptor_order(desc) > max_order:
        raise CapExceeded(
            f"{request} has order {descriptor_order(desc)}, above the catalog "
            f"cap {max_order}"
        )
    return [desc]


def _abelian_chains(order: int) -> list:
    """All invariant-factor chains (d1, d2, ...) with product = order and
    each factor dividing the previous one."""
    def rec(remaining, limit):
        if remaining == 1:
            return [()]
        out = []
        for d in range(2, min(remaining, limit) + 1):
            if remaining % d == 0 and limit % d == 0:
                for rest in rec(remaining // d, d):
                    out.append((d,) + rest)
        return out

    # the first factor has no divisibility constraint from above
    chains = []
    for d in range(2, order + 1):
        if order % d == 0:
            for rest in rec(order // d, d):
                chains.append((d,) + rest)
    return chains


def _cofactor_descriptors(max_cofactor: int) -> list:
    out = []
    for order in range(2, max_cofactor + 1):
        for chain in _abelian_chains(order):
            out.append((order, GroupDescriptor("abelian", chain)))
    return out


@dataclass(frozen=True)
class CatalogEntry:
    """Everything the scan needs to know about one group, recomputable from
    the descriptor alone; the certificate bytes ride along in memory."""

    descriptor: str
    order: int
    center_size: int
    nilpotent: bool
    nilpotency_class: object
    regular: bool
    degree_profile: tuple       # (degree, count) ascending
    class_profile: tuple        # (class size, count) over non-trivial classes
    multipartite_parts: object  # tuple or None
    ac: bool
    nonabelian_sylow_count: object
    nonabelian_sylow_prime: object
    certificate: bytes = field(repr=False, compare=False)
    certificate_sha256: str = ""

    def to_dict(self):
        return {
            "descriptor": self.descriptor,
            "order": self.order,
            "center_size": self.center_size,
            "nilpotent": self.nilpotent,
            "nilpotency_class": self.nilpotency_class,
            "regular": self.regular,
            "degree_profile": [list(p) for p in self.degree_profile],
            "class_profile": [list(p) for p in self.class_profile],
            "multipartite_parts": (list(self.multipartite_parts)
                                   if self.multipartite_parts is not None else None),
            "ac": self.ac,
            "nonabelian_sylow_count": self.nonabelian_sylow_count,
            "nonabelian_sylow_prime": self.nonabelian_sylow_prime,
            "certificate_sha256": self.certificate_sha256,
        }


def _rle(values) -> tuple:
    out = []
    for v in sorted(values):
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return tuple((v, c) for v, c in out)


def _build_entry(desc: GroupDescriptor, max_order: int, cache) -> tuple:
    g = construct(desc, max_order=max_order)
    if g.is_abelian:
        raise BadDescriptor(
            f"{desc}: abelian groups have no non-commuting graph and cannot "
            f"be catalog entries"
        )
    graph = build_nc_graph(g)
    key = str(desc)
    cert = cache.get(key) if cache is not None else None
    if cert is None:
        cert = certificate(graph)
        if cache is not None:
            cache.put(key, cert)
    nilp, nclass = is_nilpotent(g)
    if nilp:
        factors = sylow_decomposition(g)
        na_factors = [f for f in factors if not f.abelian]
        na_count = len(na_factors)
        na_prime = na_factors[0].prime if na_count == 1 else None
    else:
        na_count = None
        na_prime = None
    degrees = graph.degrees()
    class_sizes = [len(c) for c in conjugacy_classes(g) if len(c) > 1]
    return g, CatalogEntry(
        descriptor=key,
        order=g.order,
        center_size=len(center(g)),
        nilpotent=nilp,
        nilpotency_class=nclass,
        regular=graph.is_regular,
        degree_profile=_rle(degrees),
        class_profile=_rle(class_sizes),
        multipartite_parts=graph.multipartite_parts(),
        ac=is_ac_group(g),
        nonabelian_sylow_count=na_count,
        nonabelian_sylow_prime=na_prime,
        certificate=cert,
        certificate_sha256=hashlib.sha256(cert).hexdigest(),
    )


def _enumerate(config: CatalogConfig) -> list:
    """(group, entry) pairs for the catalog, sorted by descriptor."""
    cache = CertificateCache(config.cache_dir) if config.cache_dir else None
    bases = []
    for request in config.families:
        bases.extend(_family_instances(request, config.max_order))
    cofactors = _cofactor_descriptors(config.cofactor_max)
    descriptors = {}
    for base in bases:
        descriptors[str(base)] = base
        base_order = descriptor_order(base)
        for co_order, co_desc in cofactors:
            if base_order * co_order > config.max_order:
                continue
            if config.coprime_cofactors and math.gcd(base_order, co_order) != 1:
                continue
            full = GroupDescriptor("product", (base, co_desc))
            descriptors[str(full)] = full
    return [_build_entry(descriptors[key], config.max_order, cache)
            for key in sorted(descriptors)]


def enumerate_catalog(config: CatalogConfig = None) -> list:
    """Deterministic, duplicate-free entry list for the configured families
    and their coprime abelian-cofactor products, sorted by descriptor."""
    if config is None:
        config = CatalogConfig()
    return [entry for _, entry in _enumerate(config)]


@dataclass(frozen=True)
class IsoClass:
    """Catalog entries sharing one graph certificate, with pair evidence."""

    certificate_sha256: str
    members: tuple            # descriptor strings, sorted
    orders: tuple
    all_nilpotent: bool
    all_irregular: bool
    equal_orders_verdict: str  # pass / violation / not-applicable
    pair_audits: tuple
    same_prime_audits: tuple
    same_prime_skips: tuple    # (descriptor_a, descriptor_b, reason)

    def to_dict(self):
        return {
            "certificate_sha256": self.certificate_sha256,
            "members": list(self.members),
            "orders": list(self.orders),
            "all_nilpotent": self.all_nilpotent,
            "all_irregular": self.all_irregular,
            "nilpotent_irregular_equal_orders": self.equal_orders_verdict,
            "pair_audits": [a.to_dict() for a in self.pair_audits],
            "same_prime_audits": [a.to_dict() for a in self.same_prime_audits],
            "same_prime_skips": [list(s) for s in self.same_prime_skips],
        }


@dataclass(frozen=True)
class ScanReport:
    """Full scan output; to_json() is deterministic byte-for-byte."""

    config: CatalogConfig
    entries: tuple
    classes: tuple
    regular_cross_order_candidates: tuple
    cache_spot_check: dict
    violations: int

    def to_dict(self):
        return {
            "schema": 1,
            "config": self.config.to_dict(),
            "entry_count": len(self.entries),
            "entries": [e.to_dict() for e in self.entries],
            "class_count": len(self.classes),
            "classes": [c.to_dict() for c in self.classes],
            "regular_cross_order_candidates": [
                list(c) for c in self.regular_cross_order_candidates
            ],
            "cache_spot_check": self.cache_spot_check,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def scan_pairs(config: CatalogConfig = None) -> ScanReport:
    """Enumerate the catalog, group entries by certificate, and verify every
    same-certificate pair: explicit bijection, full pair audit, and -- when
    both sides are nilpotent with one non-abelian Sylow factor and irregular
    graphs -- the same-prime shape audit.

    The headline verdict per class: if every member is nilpotent with an
    irregular graph, all member orders must be equal.  Regular classes whose
    member orders differ are logged as cross-order candidates instead of
    violations.  For a deterministic sample of entries the certificate is
    recomputed on the graph with its vertex order reversed: that misses every
    cache, so it checks both the stored certificate and its independence of
    the labeling.
    """
    if config is None:
        config = CatalogConfig()
    built = _enumerate(config)
    entries = [entry for _, entry in built]
    groups = {entry.descriptor: g for g, entry in built}

    by_cert = {}
    for entry in entries:
        by_cert.setdefault(entry.certificate, []).append(entry)

    classes = []
    candidates = []
    violations = 0
    for cert in sorted(by_cert, key=lambda c: by_cert[c][0].descriptor):
        members = sorted(by_cert[cert], key=lambda e: e.descriptor)
        names = tuple(e.descriptor for e in members)
        orders = tuple(e.order for e in members)
        all_nilpotent = all(e.nilpotent for e in members)
        all_irregular = all(not e.regular for e in members)
        if all_nilpotent and all_irregular:
            verdict = "pass" if len(set(orders)) == 1 else "violation"
        else:
            verdict = "not-applicable"
        if verdict == "violation":
            violations += 1
        if all(e.regular for e in members) and len(set(orders)) > 1:
            candidates.append(names)
        pair_audits = []
        sp_audits = []
        sp_skips = []
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                ea, eb = members[i], members[j]
                ga, gb = groups[ea.descriptor], groups[eb.descriptor]
                graph_a, graph_b = build_nc_graph(ga), build_nc_graph(gb)
                phi = find_isomorphism(graph_a, graph_b)
                if phi is None:
                    raise InternalInconsistency(
                        f"equal certificates but no isomorphism found: "
                        f"{ea.descriptor} vs {eb.descriptor}"
                    )
                audit = audit_isomorphic_pair(ga, gb, phi, strict=False)
                if audit.verdict != "consistent":
                    violations += 1
                pair_audits.append(audit)
                qualifies = (
                    ea.nilpotent and eb.nilpotent
                    and not ea.regular and not eb.regular
                    and ea.nonabelian_sylow_count == 1
                    and eb.nonabelian_sylow_count == 1
                )
                if qualifies:
                    try:
                        sp = same_prime_audit(ga, gb, phi, strict=False)
                        if sp.verdict != "consistent":
                            violations += 1
                        sp_audits.append(sp)
                    except (WrongShape, RegularGraph, PrimeMismatch) as exc:
                        sp_skips.append((ea.descriptor, eb.descriptor, str(exc)))
                else:
                    sp_skips.append(
                        (ea.descriptor, eb.descriptor, "shape does not qualify")
                    )
        classes.append(IsoClass(
            certificate_sha256=members[0].certificate_sha256,
            members=names,
            orders=orders,
            all_nilpotent=all_nilpotent,
            all_irregular=all_irregular,
            equal_orders_verdict=verdict,
            pair_audits=tuple(pair_audits),
            same_prime_audits=tuple(sp_audits),
            same_prime_skips=tuple(sp_skips),
        ))

    sample_idx = sorted({0, len(entries) // 2, len(entries) - 1}) if entries else []
    checked = []
    for idx in sample_idx:
        entry = entries[idx]
        graph = build_nc_graph(groups[entry.descriptor])
        fresh = certificate(relabeled(graph, range(graph.num_vertices - 1, -1, -1)))
        if fresh != entry.certificate:
            raise InternalInconsistency(
                f"cached certificate for {entry.descriptor} differs from a "
                f"fresh recomputation"
            )
        checked.append(entry.descriptor)
    spot = {"checked": checked, "ok": True}

    return ScanReport(
        config=config,
        entries=tuple(entries),
        classes=tuple(classes),
        regular_cross_order_candidates=tuple(candidates),
        cache_spot_check=spot,
        violations=violations,
    )


def audit_pair_files(path_a: str, path_b: str) -> dict:
    """CLI backend: import two .cay files, decide isomorphism, run audits.

    Returns a JSON-ready dict; "isomorphic" false carries the failing
    invariant (vertex/edge/degree data or certificate mismatch).
    """
    from .cayfile import import_group
    from .canon import degree_profile

    g_a = import_group(path_a)
    g_b = import_group(path_b)
    graph_a = build_nc_graph(g_a)
    graph_b = build_nc_graph(g_b)
    result = {
        "descriptor_a": g_a.descriptor,
        "descriptor_b": g_b.descriptor,
        "order_a": g_a.order,
        "order_b": g_b.order,
    }
    prof_a, prof_b = degree_profile(graph_a), degree_profile(graph_b)
    if prof_a[:3] != prof_b[:3]:
        result["isomorphic"] = False
        result["reason"] = {
            "invariant": "vertex/edge/degree profile",
            "a": [prof_a[0], prof_a[1], [list(d) for d in _rle(prof_a[2])]],
            "b": [prof_b[0], prof_b[1], [list(d) for d in _rle(prof_b[2])]],
        }
        return result
    phi = find_isomorphism(graph_a, graph_b)
    if phi is None:
        result["isomorphic"] = False
        result["reason"] = {"invariant": "canonical certificate"}
        return result
    result["isomorphic"] = True
    audit = audit_isomorphic_pair(g_a, g_b, phi, strict=False)
    result["pair_audit"] = audit.to_dict()
    try:
        sp = same_prime_audit(g_a, g_b, phi, strict=False)
        result["same_prime_audit"] = sp.to_dict()
    except (WrongShape, RegularGraph, PrimeMismatch) as exc:
        result["same_prime_audit"] = None
        result["same_prime_skip_reason"] = str(exc)
    result["violation"] = (
        audit.verdict != "consistent"
        or (result.get("same_prime_audit") or {}).get("verdict", "consistent")
        != "consistent"
    )
    return result
