"""Catalog enumeration, certificate caching, and the all-pairs graph scan.

A catalog is a deterministic list of non-abelian groups: requested base
families plus their direct products with small abelian cofactors.  The scan
groups catalog entries by graph certificate, verifies every same-certificate
pair with an explicit bijection and the full pair audit, and renders the
headline verdict: among nilpotent groups with irregular graphs, equal
certificates must mean equal orders.

Certificates may come from an on-disk ``CertificateCache``.  A hit is
trusted only once its stored canonical order realises its bytes on the
entry's graph, and it then seeds the graph's canonical form, so pair
searches compose stored orders and a warm scan labels no catalog graph.
Every enumeration then recomputes a cached certificate that fails the
reversed-labeling spot check or that splits a degree profile; either is a
logged reject, and its file is rewritten.  No reject raises out of a scan.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .audits import Record, audit_isomorphic_pair, same_prime_audit
from .canon import (
    CERT_VERSION,
    _canon,
    _certified,
    canonical_order,
    certificate,
    degree_profile,
    find_isomorphism,
)
from .cayfile import import_group
from .cayley import (
    _nonabelian_sylow_factors,
    center,
    conjugacy_classes,
    is_ac_group,
    is_nilpotent,
    is_prime,
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
from .graphs import NcGraph, build_nc_graph, relabeled

log = logging.getLogger("ncgraph")

DEFAULT_FAMILIES = (
    "dihedral(3..16)",
    "dicyclic(2..8)",
    "heisenberg(2,1)",
    "heisenberg(3,1)",
    "heisenberg(3,2)",
)

# (least parameter, group order per unit of parameter) of each ranged family
_RANGED = {"dihedral": (3, 2), "dicyclic": (2, 4)}
_RANGE_RE = re.compile(rf"({'|'.join(_RANGED)})\((\d+)\.\.(\d+)\)")


@dataclass(frozen=True)
class CatalogConfig(Record):
    """What to enumerate: base families, order cap, and abelian cofactors."""

    families: tuple = DEFAULT_FAMILIES
    max_order: int = 256
    cofactor_max: int = 9
    coprime_cofactors: bool = True
    cache_dir: str = None

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogConfig":
        """Config from parsed JSON; a key of the wrong type, or a count below
        1, is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            expected, ok = _CONFIG_TYPES[key]
            if not ok(value):
                raise ValueError(f"config {key!r} must be {expected}, got {value!r}")
            if key in _COUNT_KEYS and value < 1:
                raise ValueError(f"config {key!r} must be a positive integer, got {value!r}")
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
# integer keys that bound a range, so at least 1 (cofactor_max 1: no cofactors)
_COUNT_KEYS = ("max_order", "cofactor_max")


class CertificateCache:
    """Certificate store that proves each hit on the graph it is used for.

    One file per descriptor string and certificate version, written via a
    temp file and an atomic rename.  A file is one frame: magic, certificate
    version, vertex count n, the canonical order (n big-endian uint32), the
    certificate, and a sha256 of all that.  ``get`` trusts a frame only once
    its digest, magic, version and n match and its order, a permutation,
    realises the certificate on the graph: the graph's matrix under that
    order is the certificate's matrix, the O(n^2) step certificates end
    with.  A file that fails a check is a reject: it is logged on the
    ``ncgraph`` logger, and the caller recomputes and rewrites it.

    The limit of the guarantee: realisation does not prove that the bytes
    are the canonical ones.  A forged, well-framed file whose order realises
    its bytes can at most change the digest of an entry with a unique degree
    profile.  It cannot merge two classes, since equal bytes realised on two
    graphs define an isomorphism (and ``Isomorphism`` re-checks every edge),
    and the catalog enumeration recomputes every cached certificate that
    splits a degree profile, so it cannot split one either.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, descriptor: str) -> str:
        key = f"v{CERT_VERSION}:{descriptor}"
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.directory, digest + ".cert")

    def get(self, descriptor: str, graph: NcGraph):
        """The stored (canonical order, certificate) of ``graph``, proved on
        it; None if no file is stored or the stored one is rejected."""
        try:
            with open(self._path(descriptor), "rb") as fh:
                frame = fh.read()
        except FileNotFoundError:
            return None
        form = _read_frame(frame, graph)
        if isinstance(form, str):
            self.reject(descriptor, form)
            return None
        return form

    def put(self, descriptor: str, order, cert: bytes) -> None:
        body = (_MAGIC + CERT_VERSION.to_bytes(4, "big") + len(order).to_bytes(4, "big")
                + np.asarray(order, dtype=">u4").tobytes() + cert)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body + hashlib.sha256(body).digest())
            os.replace(tmp, self._path(descriptor))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def reject(self, descriptor: str, reason: str) -> None:
        log.warning("certificate cache: rejected %s in %s (%s); it is recomputed "
                    "and rewritten", descriptor, self.directory, reason)


_MAGIC = b"NCGC"
_HEAD = 12  # magic, version, n
_DIGEST = 32


def _read_frame(frame: bytes, graph: NcGraph):
    """(order, certificate) from a frame proved on ``graph``, or the reason
    the frame is rejected."""
    body, digest = frame[:-_DIGEST], frame[-_DIGEST:]
    if len(body) < _HEAD or hashlib.sha256(body).digest() != digest:
        return "bad digest"
    if body[:4] != _MAGIC:
        return "bad magic"
    version, n = int.from_bytes(body[4:8], "big"), int.from_bytes(body[8:12], "big")
    if version != CERT_VERSION:
        return f"certificate version {version}, not {CERT_VERSION}"
    if n != graph.num_vertices:
        return f"{n} vertices, the graph has {graph.num_vertices}"
    if len(body) < _HEAD + 4 * n:
        return "bad frame length"
    order = np.frombuffer(body, dtype=">u4", count=n, offset=_HEAD)
    if not np.array_equal(np.sort(order), np.arange(n)):
        return "order is not a permutation"
    form = _certified(graph, tuple(order.tolist()))
    if body[_HEAD + 4 * n:] != form[1]:
        return "order does not realise the certificate"
    return form


def _family_instances(request: str, max_order: int) -> list:
    """Expand one family request into descriptors within the order cap.

    Three forms: a bare family name auto-ranges over everything fitting the
    cap; a range like dihedral(3..16) clips to the cap; any explicit
    descriptor is taken literally and over-cap instances are an error.
    """
    request = request.strip()
    if request in _RANGED:
        start, per = _RANGED[request]
        return [GroupDescriptor(request, (k,)) for k in range(start, max_order // per + 1)]
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
        minimum, per = _RANGED[name]
        if lo < minimum or hi < lo:
            raise BadDescriptor(f"bad range in family request {request!r}")
        return [GroupDescriptor(name, (k,))
                for k in range(lo, hi + 1) if per * k <= max_order]
    desc = parse_descriptor(request)
    if descriptor_order(desc) > max_order:
        raise CapExceeded(
            f"{request} has order {descriptor_order(desc)}, above the catalog "
            f"cap {max_order}"
        )
    return [desc]


def _abelian_chains(order: int, limit: int = 0) -> list:
    """All invariant-factor chains (d1, d2, ...) with product = order and
    each factor dividing the previous one (the first dividing ``limit``, if
    given)."""
    if order == 1:
        return [()]
    limit = limit or order
    return [(d,) + rest for d in range(2, min(order, limit) + 1)
            if order % d == 0 and limit % d == 0
            for rest in _abelian_chains(order // d, d)]


def _cofactor_descriptors(max_cofactor: int) -> list:
    return [(order, GroupDescriptor("abelian", chain))
            for order in range(2, max_cofactor + 1) for chain in _abelian_chains(order)]


@dataclass(frozen=True)
class CatalogEntry(Record):
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


def _rle(values) -> tuple:
    return tuple(sorted(Counter(values).items()))


def _build_entry(desc: GroupDescriptor, max_order: int, cache) -> tuple:
    """(group, entry, whether the certificate came from the cache)."""
    g = construct(desc, max_order=max_order)
    if g.is_abelian:
        raise BadDescriptor(
            f"{desc}: abelian groups have no non-commuting graph and cannot "
            f"be catalog entries"
        )
    graph = build_nc_graph(g)
    key = str(desc)
    form = cache.get(key, graph) if cache is not None else None
    if form is not None:
        graph._memo[_canon.key] = form  # proved on this graph: no labeling needed
        cert = form[1]
    else:
        cert = certificate(graph)
        if cache is not None:
            cache.put(key, canonical_order(graph), cert)
    nilp, nclass = is_nilpotent(g)
    if nilp:
        na_factors = _nonabelian_sylow_factors(g)
        na_count = len(na_factors)
        na_prime = na_factors[0].prime if na_count == 1 else None
    else:
        na_count = na_prime = None
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
    ), form is not None


def _descriptors(config: CatalogConfig) -> list:
    """The catalog's descriptors, sorted by their strings."""
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
    return [descriptors[key] for key in sorted(descriptors)]


def _enumerate(config: CatalogConfig) -> tuple:
    """The catalog's groups keyed by descriptor, its entries sorted by
    descriptor, and the descriptors the spot check sampled.

    Two guards run on the entries.  For a deterministic sample of entries
    the certificate is recomputed on the graph with its vertex order
    reversed, which misses every cache: a mismatch on a cached certificate
    is a reject and a recompute, and on a computed one an
    ``InternalInconsistency`` (the certificate depends on the labeling).
    Then entries with equal degree profiles (so equal vertex counts) but
    different certificates have their cached certificates recomputed, and
    any that differs is a reject: isomorphic graphs share a profile, so no
    cached certificate can split a class.
    """
    cache = CertificateCache(config.cache_dir) if config.cache_dir else None
    built = [_build_entry(desc, config.max_order, cache) for desc in _descriptors(config)]
    groups = {entry.descriptor: g for g, entry, _ in built}
    entries = [entry for _, entry, _ in built]
    cached = [hit for _, _, hit in built]

    def recompute(i, reason):
        """Entry i's certificate from its graph; a cached one that differs
        is rejected, replaced and rewritten."""
        cached[i] = False
        entry = entries[i]
        graph = build_nc_graph(groups[entry.descriptor])
        graph._memo.pop(_canon.key, None)
        cert = certificate(graph)
        if cert != entry.certificate:
            cache.reject(entry.descriptor, reason)
            cache.put(entry.descriptor, canonical_order(graph), cert)
            entries[i] = replace(entry, certificate=cert,
                                 certificate_sha256=hashlib.sha256(cert).hexdigest())

    sample_idx = sorted({0, len(entries) // 2, len(entries) - 1}) if entries else []
    checked = []
    for idx in sample_idx:
        entry = entries[idx]
        graph = build_nc_graph(groups[entry.descriptor])
        fresh = certificate(relabeled(graph, range(graph.num_vertices - 1, -1, -1)))
        if fresh != entry.certificate and cached[idx]:
            recompute(idx, "differs from the reversed-labeling spot check")
        if fresh != entries[idx].certificate:
            raise InternalInconsistency(
                f"certificate of {entry.descriptor} differs from a fresh "
                f"recomputation on the reversed labeling"
            )
        checked.append(entry.descriptor)

    by_profile = {}
    for i, entry in enumerate(entries):
        by_profile.setdefault(entry.degree_profile, []).append(i)
    for idxs in by_profile.values():
        if len({entries[i].certificate for i in idxs}) > 1:
            for i in idxs:
                if cached[i]:
                    recompute(i, "splits entries of one degree profile")
    return groups, entries, checked


def enumerate_catalog(config: CatalogConfig = None) -> list:
    """Deterministic, duplicate-free entry list for the configured families
    and their coprime abelian-cofactor products, sorted by descriptor.
    Cached certificates pass the same two guards as in ``scan_pairs``."""
    if config is None:
        config = CatalogConfig()
    return _enumerate(config)[1]


@dataclass(frozen=True)
class IsoClass(Record):
    """Catalog entries sharing one graph certificate, with pair evidence."""

    certificate_sha256: str
    members: tuple            # descriptor strings, sorted
    orders: tuple
    all_nilpotent: bool
    all_irregular: bool
    nilpotent_irregular_equal_orders: str  # pass / violation / not-applicable
    pair_audits: tuple
    same_prime_audits: tuple
    same_prime_skips: tuple    # (descriptor_a, descriptor_b, reason)


@dataclass(frozen=True)
class ScanReport(Record):
    """Full scan output; to_json() is deterministic byte-for-byte."""

    config: CatalogConfig
    entries: tuple
    classes: tuple
    regular_cross_order_candidates: tuple
    cache_spot_check: dict
    violations: int

    def to_dict(self):
        """The fields, with the schema number and both counts around them."""
        body = super().to_dict()
        return {
            "schema": 1,
            "config": body.pop("config"),
            "entry_count": len(self.entries),
            "entries": body.pop("entries"),
            "class_count": len(self.classes),
            **body,
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
    violations.

    Two guards run before entries are grouped (see ``_enumerate``): the
    reversed-labeling spot check, and a recompute of cached certificates
    that split entries of one degree profile.  A cached certificate that
    fails either is rejected and rewritten; the scan never raises for it.
    """
    if config is None:
        config = CatalogConfig()
    groups, entries, checked = _enumerate(config)
    spot = {"checked": checked, "ok": True}

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
                violations += audit.verdict != "consistent"
                pair_audits.append(audit)
                qualifies = (
                    ea.nilpotent and eb.nilpotent
                    and not ea.regular and not eb.regular
                    and ea.nonabelian_sylow_count == 1
                    and eb.nonabelian_sylow_count == 1
                )
                sp, reason = (_same_prime(ga, gb, phi) if qualifies
                              else (None, "shape does not qualify"))
                if sp is None:
                    sp_skips.append((ea.descriptor, eb.descriptor, reason))
                else:
                    violations += sp.verdict != "consistent"
                    sp_audits.append(sp)
        classes.append(IsoClass(
            certificate_sha256=members[0].certificate_sha256,
            members=names,
            orders=orders,
            all_nilpotent=all_nilpotent,
            all_irregular=all_irregular,
            nilpotent_irregular_equal_orders=verdict,
            pair_audits=tuple(pair_audits),
            same_prime_audits=tuple(sp_audits),
            same_prime_skips=tuple(sp_skips),
        ))

    return ScanReport(
        config=config,
        entries=tuple(entries),
        classes=tuple(classes),
        regular_cross_order_candidates=tuple(candidates),
        cache_spot_check=spot,
        violations=violations,
    )


def _same_prime(g_a, g_b, phi) -> tuple:
    """(the same-prime audit, None), or (None, why the pair's shape was skipped)."""
    try:
        return same_prime_audit(g_a, g_b, phi, strict=False), None
    except (WrongShape, RegularGraph, PrimeMismatch) as exc:
        return None, str(exc)


def audit_pair_files(path_a: str, path_b: str) -> dict:
    """CLI backend: import two .cay files, decide isomorphism, run audits.

    Returns a JSON-ready dict; "isomorphic" false carries the failing
    invariant (vertex/edge/degree data or certificate mismatch).
    """
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
    if prof_a != prof_b:
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
    sp, reason = _same_prime(g_a, g_b, phi)
    result["same_prime_audit"] = sp.to_dict() if sp is not None else None
    if reason is not None:
        result["same_prime_skip_reason"] = reason
    result["violation"] = (audit.verdict != "consistent"
                           or sp is not None and sp.verdict != "consistent")
    return result
