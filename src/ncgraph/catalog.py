"""Catalog enumeration, certificate caching, and the all-pairs graph scan.

A catalog is a deterministic list of non-abelian groups: requested base
families plus their direct products with small abelian cofactors.  The scan
groups catalog entries by graph certificate, verifies every same-certificate
pair with an explicit bijection and the full pair audit, and renders the
headline verdict: among nilpotent groups with irregular graphs, equal
certificates must mean equal orders.  Isomorphic graphs have equal vertex
counts, so the catalog is walked one vertex count at a time, and only that
count's groups are held.

Certificates may come from an on-disk ``CertificateCache`` of canonical
orders.  A hit rebuilds its certificate on the entry's graph and seeds the
graph's canonical form, so a warm scan labels no catalog graph.  An entry
keeps only its certificate's sha256; the bytes stay with the graph, where
each pair of a class is proved.  Every enumeration recomputes a cached
certificate that fails the reversed-labeling spot check or that splits a
degree profile; either is a logged reject, and its file is rewritten.  No
reject raises out of a scan.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations

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
)
from .descriptors import (
    GroupDescriptor,
    construct,
    descriptor_order,
    descriptor_vertex_count,
    family_members,
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

# a bare family name, or one with an argument range: dihedral, dihedral(3..16)
_REQUEST_RE = re.compile(r"\s*(\w+)(?:\((\d+)\.\.(\d+)\))?\s*", re.ASCII)


@dataclass(frozen=True)
class CatalogConfig(Record):
    """What to enumerate: base families, order cap, and abelian cofactors.
    A field of the wrong type, or a count below 1, is a ValueError."""

    families: tuple = DEFAULT_FAMILIES
    max_order: int = 256
    cofactor_max: int = 9
    coprime_cofactors: bool = True
    cache_dir: str = None

    def __post_init__(self):
        for key, (expected, ok) in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"config {key!r} must be {expected}, got {value!r}")
            if key in _COUNT_KEYS and value < 1:
                raise ValueError(f"config {key!r} must be a positive integer, got {value!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogConfig":
        """Config from parsed JSON, whose ``families`` is a list; an unknown
        key is a ValueError, and so is a field that fails the checks above."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "families" in kwargs:
            if not isinstance(kwargs["families"], list):
                expected = _CONFIG_TYPES["families"][0]
                raise ValueError(f"config 'families' must be {expected}, "
                                 f"got {kwargs['families']!r}")
            kwargs["families"] = tuple(kwargs["families"])
        return cls(**kwargs)


# each field's type: its name in messages (JSON's), and a test (bools are
# ints in Python, so they are kept out of the integer keys explicitly)
_CONFIG_TYPES = {
    "families": ("a list of strings", lambda v: isinstance(v, tuple)
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
    version, vertex count n, the canonical order (n big-endian uint32), and
    a sha256 of all that.  ``get`` trusts a frame once its digest, magic,
    version, n and length match and its order is a permutation; the
    certificate is the graph's matrix in that order.  A file that fails a
    check is a reject: it is logged on the ``ncgraph`` logger, and the
    caller recomputes and rewrites it.

    A forged, well-framed permutation that is not canonical can at most
    change the digest of an entry with a unique degree profile.  It cannot
    merge two classes, since equal bytes on two graphs define an isomorphism
    (``Isomorphism`` re-checks every edge), and the enumeration recomputes
    every cached certificate that splits a degree profile.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, descriptor: str) -> str:
        key = f"v{CERT_VERSION}:{descriptor}"
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.directory, digest + ".cert")

    def get(self, descriptor: str, graph: NcGraph):
        """The stored canonical order of ``graph`` and the certificate it
        gives there; None if no file is stored or the stored one is rejected."""
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

    def put(self, descriptor: str, order) -> None:
        body = (_MAGIC + CERT_VERSION.to_bytes(4, "big") + len(order).to_bytes(4, "big")
                + np.asarray(order, dtype=">u4").tobytes())
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
    """(order, certificate) from a frame's order on ``graph``, or the reason
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
    if len(body) != _HEAD + 4 * n:
        return "bad frame length"
    order = np.frombuffer(body, dtype=">u4", offset=_HEAD)
    if not np.array_equal(np.sort(order), np.arange(n)):
        return "order is not a permutation"
    return _certified(graph, tuple(order.tolist()))


def _family_instances(request: str, max_order: int) -> list:
    """Expand one family request into descriptors within the order cap.

    Three forms: a bare family name auto-ranges over everything fitting the
    cap; a range like dihedral(3..16) clips to the cap; any explicit
    descriptor is taken literally and over-cap instances are an error.
    """
    m = _REQUEST_RE.fullmatch(request)
    members = family_members(m[1], max_order) if m else None
    if members is None:
        desc = parse_descriptor(request)
        if descriptor_order(desc) > max_order:
            raise CapExceeded(f"{request} has order {descriptor_order(desc)}, "
                              f"above the catalog cap {max_order}")
        return [desc]
    if m[2] is None:
        return members
    lo, hi = int(m[2]), int(m[3])
    parse_descriptor(f"{m[1]}({lo})")   # the family takes the range's least argument
    if hi < lo:
        raise BadDescriptor(f"bad range in family request {request!r}")
    return [d for d in members if lo <= d.args[0] <= hi]


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
    """What the scan needs to know about one group, recomputable from its descriptor."""

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
    certificate_sha256: str


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
            cache.put(key, canonical_order(graph))
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


def _enumerate(config: CatalogConfig, audit=None) -> tuple:
    """The catalog's entries sorted by descriptor, the descriptors the spot
    check sampled, and the classes ``audit`` made, if it is given.

    The catalog is walked one vertex count |G| - |Z(G)| at a time, in
    ascending order, each count read from the descriptor before anything is
    built (``construct`` checks the closed forms it comes from).  A
    certificate begins with its vertex count, so no class spans two counts:
    each count's groups are built, guarded, handed with their entries to
    ``audit(groups, entries)`` and dropped before the next count's are built.

    Two guards run on each count's entries.  For the first, middle and last
    descriptor of the whole catalog the certificate is recomputed on the
    graph with its vertex order reversed, which misses every cache: a
    mismatch on a cached certificate is a reject and a recompute, and on a
    computed one an ``InternalInconsistency`` (the certificate depends on the
    labeling).  Then entries with equal degree profiles (so of one vertex
    count) but different certificates have their cached certificates
    recomputed, and any that differs is a reject: isomorphic graphs share a
    profile, so no cached certificate can split a class.
    """
    cache = CertificateCache(config.cache_dir) if config.cache_dir else None
    descriptors = _descriptors(config)
    sample = {str(descriptors[i]) for i in (0, len(descriptors) // 2, -1)
              if descriptors}
    by_count = {}
    for desc in descriptors:
        by_count.setdefault(descriptor_vertex_count(desc), []).append(desc)
    entries, classes = [], []
    for n in sorted(by_count):
        got = _enumerate_count(by_count[n], config.max_order, cache, sample, audit)
        entries += got[0]
        classes += got[1]
    return sorted(entries, key=lambda e: e.descriptor), sorted(sample), classes


def _enumerate_count(descriptors: list, max_order: int, cache, sample, audit) -> tuple:
    """(entries, classes) for the descriptors of one vertex count, guarded
    and audited as in ``_enumerate``; the groups built here die with the
    call."""
    built = [_build_entry(desc, max_order, cache) for desc in descriptors]
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
        digest = hashlib.sha256(certificate(graph)).hexdigest()
        if digest != entry.certificate_sha256:
            cache.reject(entry.descriptor, reason)
            cache.put(entry.descriptor, canonical_order(graph))
            entries[i] = replace(entry, certificate_sha256=digest)

    for idx in [i for i, e in enumerate(entries) if e.descriptor in sample]:
        entry = entries[idx]
        graph = build_nc_graph(groups[entry.descriptor])
        backwards = relabeled(graph, range(graph.num_vertices - 1, -1, -1))
        fresh = hashlib.sha256(certificate(backwards)).hexdigest()
        if fresh != entry.certificate_sha256 and cached[idx]:
            recompute(idx, "differs from the reversed-labeling spot check")
        if fresh != entries[idx].certificate_sha256:
            raise InternalInconsistency(
                f"certificate of {entry.descriptor} differs from a fresh "
                f"recomputation on the reversed labeling"
            )

    by_profile = {}
    for i, entry in enumerate(entries):
        by_profile.setdefault(entry.degree_profile, []).append(i)
    for idxs in by_profile.values():
        if len({entries[i].certificate_sha256 for i in idxs}) > 1:
            for i in idxs:
                if cached[i]:
                    recompute(i, "splits entries of one degree profile")
    return entries, audit(groups, entries) if audit else []


def enumerate_catalog(config: CatalogConfig = None) -> list:
    """Deterministic, duplicate-free entry list for the configured families
    and their coprime abelian-cofactor products, sorted by descriptor.
    Cached certificates pass the same two guards as in ``scan_pairs``."""
    if config is None:
        config = CatalogConfig()
    return _enumerate(config)[0]


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
    """Full scan output; write(fp) streams to_json()'s deterministic text."""

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

    def write(self, fp) -> None:
        json.dump(self.to_dict(), fp, indent=2)
        fp.write("\n")

    def to_json(self) -> str:
        out = io.StringIO()
        self.write(out)
        return out.getvalue()


def scan_pairs(config: CatalogConfig = None) -> ScanReport:
    """Enumerate the catalog, group entries by certificate, and verify every
    same-certificate pair: explicit bijection, full pair audit, and -- when
    both sides are nilpotent with one non-abelian Sylow factor and irregular
    graphs -- the same-prime shape audit.

    The headline verdict per class: if every member is nilpotent with an
    irregular graph, all member orders must be equal.  Regular classes whose
    member orders differ are logged as cross-order candidates instead of
    violations.

    The catalog is walked and guarded one vertex count at a time (see
    ``_enumerate``).  A cached certificate that fails a guard, the
    reversed-labeling spot check or the degree-profile recompute, is
    rejected and rewritten; the scan never raises for it.
    """
    if config is None:
        config = CatalogConfig()
    entries, checked, classes = _enumerate(config, _audit_classes)
    classes.sort(key=lambda c: c.members[0])
    regular = {e.descriptor for e in entries if e.regular}
    return ScanReport(
        config=config,
        entries=tuple(entries),
        classes=tuple(classes),
        regular_cross_order_candidates=tuple(
            c.members for c in classes
            if len(set(c.orders)) > 1 and regular.issuperset(c.members)),
        cache_spot_check={"checked": checked, "ok": True},
        violations=sum((c.nilpotent_irregular_equal_orders == "violation")
                       + sum(a.verdict != "consistent"
                             for a in c.pair_audits + c.same_prime_audits)
                       for c in classes),
    )


def _audit_classes(groups: dict, entries: list) -> list:
    """An ``IsoClass`` per certificate among ``entries``, which share one
    vertex count and are sorted by descriptor; ``groups`` holds their groups."""
    by_cert = {}
    for entry in entries:
        by_cert.setdefault(entry.certificate_sha256, []).append(entry)
    classes = []
    for digest, members in by_cert.items():
        names = tuple(e.descriptor for e in members)
        orders = tuple(e.order for e in members)
        all_nilpotent = all(e.nilpotent for e in members)
        all_irregular = all(not e.regular for e in members)
        if all_nilpotent and all_irregular:
            verdict = "pass" if len(set(orders)) == 1 else "violation"
        else:
            verdict = "not-applicable"
        pair_audits = []
        sp_audits = []
        sp_skips = []
        for ea, eb in combinations(members, 2):
            ga, gb = groups[ea.descriptor], groups[eb.descriptor]
            phi = find_isomorphism(build_nc_graph(ga), build_nc_graph(gb))
            if phi is None:
                raise InternalInconsistency(
                    f"equal certificates but no isomorphism found: "
                    f"{ea.descriptor} vs {eb.descriptor}"
                )
            pair_audits.append(audit_isomorphic_pair(ga, gb, phi))
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
                sp_audits.append(sp)
        classes.append(IsoClass(
            certificate_sha256=digest,
            members=names,
            orders=orders,
            all_nilpotent=all_nilpotent,
            all_irregular=all_irregular,
            nilpotent_irregular_equal_orders=verdict,
            pair_audits=tuple(pair_audits),
            same_prime_audits=tuple(sp_audits),
            same_prime_skips=tuple(sp_skips),
        ))
    return classes


def _same_prime(g_a, g_b, phi) -> tuple:
    """(the same-prime audit, None), or (None, why the pair's shape was skipped)."""
    try:
        return same_prime_audit(g_a, g_b, phi), None
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
    audit = audit_isomorphic_pair(g_a, g_b, phi)
    result["pair_audit"] = audit.to_dict()
    sp, reason = _same_prime(g_a, g_b, phi)
    result["same_prime_audit"] = sp.to_dict() if sp is not None else None
    if reason is not None:
        result["same_prime_skip_reason"] = reason
    result["violation"] = (audit.verdict != "consistent"
                           or sp is not None and sp.verdict != "consistent")
    return result
