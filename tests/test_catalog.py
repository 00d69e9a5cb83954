import gc
import hashlib
import json
import re
import weakref
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import ncgraph as ng
from ncgraph import canon, catalog, descriptors
from ncgraph.cayley import is_prime

# sha256 of each default-scan class as [members, equal-orders verdict], in
# report order; the certificate bytes do not enter it
PINNED_CLASSES = "b042df3484bd13d9cac3dba393843da572f7d7119e45fb40734b35296384a772"

SMALL = ng.CatalogConfig(
    families=("dihedral(3..8)", "dicyclic(2..4)"),
    max_order=64,
    cofactor_max=3,
)

# the catalog's family expansion written out by hand: the least argument
# and the order per unit of argument of each ranged family, and the
# Heisenberg groups from a loop over primes p and exponents p^(2k+1)
RANGED = {"dihedral": (3, 2), "dicyclic": (2, 4)}


def closed_form_instances(request, max_order):
    if request in RANGED:
        start, per = RANGED[request]
        return {f"{request}({k})" for k in range(start, max_order // per + 1)}
    if request == "heisenberg":
        out, p = set(), 2
        while p ** 3 <= max_order:
            if is_prime(p):
                k = 1
                while p ** (2 * k + 1) <= max_order:
                    out.add(f"heisenberg({p},{k})")
                    k += 1
            p += 1
        return out
    name, lo, hi = re.fullmatch(r"(\w+)\((\d+)\.\.(\d+)\)", request).groups()
    per = RANGED[name][1]
    return {f"{name}({k})" for k in range(int(lo), int(hi) + 1) if per * k <= max_order}


# the default families widened to order 256 with larger cofactors: a
# catalog in which the headline verdict meets nilpotent irregular entries
# of different orders with equal vertex counts
STRESS = ng.CatalogConfig(
    families=("dihedral(3..128)", "dicyclic(2..64)", "heisenberg(2,1)",
              "heisenberg(3,1)", "heisenberg(3,2)"),
    max_order=256,
    cofactor_max=15,
)


class TestConfig:
    def test_round_trip(self):
        cfg = ng.CatalogConfig(families=("dihedral(3..5)",), max_order=100,
                               cofactor_max=5, coprime_cofactors=False,
                               cache_dir="/tmp/x")
        assert ng.CatalogConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ng.CatalogConfig.from_dict({"max_order": 64, "bogus": 1})

    @pytest.mark.parametrize("data", [
        {"families": "dihedral(3..4)"}, {"families": ["dihedral(4)", 5]},
        {"families": ("dihedral(4)",)}, {"max_order": "64"}, {"max_order": 64.0},
        {"max_order": True}, {"cofactor_max": None}, {"coprime_cofactors": 1},
        {"cache_dir": 3}, ["max_order"], 64, {"max_order": 0}, {"cofactor_max": 0},
    ])
    def test_wrong_types_rejected(self, data):
        with pytest.raises(ValueError, match="config"):
            ng.CatalogConfig.from_dict(data)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_order": -5}, "config 'max_order' must be a positive integer, got -5"),
        ({"max_order": True}, "config 'max_order' must be an integer, got True"),
        ({"max_order": "64"}, "config 'max_order' must be an integer, got '64'"),
        ({"max_order": np.int64(64)}, f"config 'max_order' must be an integer, got {np.int64(64)!r}"),
        ({"cofactor_max": -3}, "config 'cofactor_max' must be a positive integer, got -3"),
        ({"cofactor_max": 2.0}, "config 'cofactor_max' must be an integer, got 2.0"),
        ({"coprime_cofactors": "no"}, "config 'coprime_cofactors' must be true or false, got 'no'"),
        ({"families": "dihedral(3..4)"},
         "config 'families' must be a list of strings, got 'dihedral(3..4)'"),
        ({"families": ("dihedral(4)", 5)},
         "config 'families' must be a list of strings, got ('dihedral(4)', 5)"),
        ({"cache_dir": 3}, "config 'cache_dir' must be a string or null, got 3"),
    ])
    def test_direct_construction_runs_the_same_checks(self, kwargs, message):
        # a config built in Python is checked field by field, as one read
        # from JSON is, and so never reaches a scan
        with pytest.raises(ValueError) as exc:
            ng.scan_pairs(ng.CatalogConfig(**{"families": ("dihedral(3..4)",), **kwargs}))
        assert str(exc.value) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(ng.CatalogConfig(), **kwargs)

    def test_single_cofactor_bound_accepted(self):
        cfg = ng.CatalogConfig.from_dict({"max_order": 1, "cofactor_max": 1})
        assert (cfg.max_order, cfg.cofactor_max) == (1, 1)

    def test_null_cache_dir_accepted(self):
        cfg = ng.CatalogConfig.from_dict({"cache_dir": None, "max_order": 64})
        assert cfg == ng.CatalogConfig(max_order=64)

    def test_defaults(self):
        cfg = ng.CatalogConfig()
        assert cfg.families == ng.DEFAULT_FAMILIES
        assert cfg.max_order == 256
        assert cfg.cofactor_max == 9
        assert cfg.coprime_cofactors


class TestEnumeration:
    def test_small_catalog(self):
        entries = ng.enumerate_catalog(SMALL)
        names = [e.descriptor for e in entries]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert "dihedral(8)" in names
        assert "product(dihedral(4),abelian(3))" in names
        # order cap: dihedral(8) x abelian(3) would have order 48 <= 64, so present;
        # nothing above 64 appears
        assert all(e.order <= 64 for e in entries)

    def test_coprime_filter(self):
        names = {e.descriptor for e in ng.enumerate_catalog(SMALL)}
        assert "product(dihedral(4),abelian(2))" not in names
        loose = ng.CatalogConfig(families=("dihedral(4)",), max_order=64,
                                 cofactor_max=3, coprime_cofactors=False)
        names2 = {e.descriptor for e in ng.enumerate_catalog(loose)}
        assert "product(dihedral(4),abelian(2))" in names2

    def test_bare_family_auto_ranges(self):
        cfg = ng.CatalogConfig(families=("heisenberg",), max_order=200,
                               cofactor_max=1)
        names = [e.descriptor for e in ng.enumerate_catalog(cfg)]
        # orders 8, 32, 128, 27, 125 all fit under 200
        assert names == ["heisenberg(2,1)", "heisenberg(2,2)", "heisenberg(2,3)",
                         "heisenberg(3,1)", "heisenberg(5,1)"]

    def test_range_clips_to_cap(self):
        cfg = ng.CatalogConfig(families=("dihedral(3..40)",), max_order=32,
                               cofactor_max=1)
        entries = ng.enumerate_catalog(cfg)
        assert sorted(e.order for e in entries) == [2 * k for k in range(3, 17)]

    def test_explicit_instance_over_cap_is_an_error(self):
        cfg = ng.CatalogConfig(families=("dihedral(40)",), max_order=32)
        with pytest.raises(ng.CapExceeded):
            ng.enumerate_catalog(cfg)

    def test_abelian_entry_rejected(self):
        cfg = ng.CatalogConfig(families=("cyclic(6)",), max_order=32)
        with pytest.raises(ng.BadDescriptor):
            ng.enumerate_catalog(cfg)

    @pytest.mark.parametrize("request_text, message", [
        ("dihedral(2..5)", "dihedral needs one integer >= 3, got dihedral(2)"),
        ("dihedral(\u0663..\u0665)", "expected an integer or nested descriptor at position 9"),
        ("dihedral(9..3)", "bad range in family request 'dihedral(9..3)'"),
    ], ids=["dihedral(2..5)", "dihedral(\u0663..\u0665)", "dihedral(9..3)"])
    def test_bad_range(self, request_text, message):
        # below the family's least argument; Arabic-Indic digits are not
        # ASCII; reversed
        cfg = ng.CatalogConfig(families=(request_text,), max_order=64)
        with pytest.raises(ng.BadDescriptor, match=re.escape(message)):
            ng.enumerate_catalog(cfg)

    @pytest.mark.parametrize("request_text", [
        "dihedral", "dicyclic", "heisenberg",
        "dihedral(3..16)", "dicyclic(2..8)", "dihedral(5..400)",
    ])
    def test_expansion_matches_the_closed_forms(self, request_text):
        for cap in (1, 5, 8, 24, 200, 256, 512, 1024, 2187):
            got = [str(d) for d in catalog._family_instances(request_text, cap)]
            assert len(got) == len(set(got)), (request_text, cap)
            assert set(got) == closed_form_instances(request_text, cap), (request_text, cap)

    def test_duplicates_collapse(self):
        cfg = ng.CatalogConfig(families=("dihedral(3..4)", "dihedral(4)"),
                               max_order=64, cofactor_max=1)
        assert [e.descriptor for e in ng.enumerate_catalog(cfg)] == [
            "dihedral(3)", "dihedral(4)"]

    def test_cofactor_invariant_factors(self):
        # dihedral(3) has order 6, so only cofactor orders 5 and 7 are coprime
        cfg = ng.CatalogConfig(families=("dihedral(3)",), max_order=256,
                               cofactor_max=9)
        names = {e.descriptor for e in ng.enumerate_catalog(cfg)}
        assert "product(dihedral(3),abelian(5))" in names
        assert "product(dihedral(3),abelian(7))" in names
        assert "product(dihedral(3),abelian(8))" not in names
        # dicyclic(2) has order 8: the order-9 cofactor appears in both
        # invariant-factor shapes, (9) and (3, 3)
        cfg2 = ng.CatalogConfig(families=("dicyclic(2)",), max_order=256,
                                cofactor_max=9)
        names2 = {e.descriptor for e in ng.enumerate_catalog(cfg2)}
        assert "product(dicyclic(2),abelian(9))" in names2
        assert "product(dicyclic(2),abelian(3,3))" in names2

    def test_entry_fields(self):
        entries = {e.descriptor: e for e in ng.enumerate_catalog(SMALL)}
        d16 = entries["dihedral(8)"]
        assert d16.order == 16
        assert d16.center_size == 2
        assert d16.nilpotent and d16.nilpotency_class == 3
        assert not d16.regular
        assert d16.degree_profile == ((8, 6), (12, 8))
        assert d16.class_profile == ((2, 3), (4, 2))
        assert d16.multipartite_parts == (6, 2, 2, 2, 2)
        assert d16.ac
        assert d16.nonabelian_sylow_count == 1
        assert d16.nonabelian_sylow_prime == 2
        assert len(d16.certificate_sha256) == 64
        d6 = entries["dihedral(6)"]
        assert not d6.nilpotent
        assert d6.nonabelian_sylow_count is None


# ten entries; dihedral(8) and dicyclic(4) share a graph, and the spot
# check samples dicyclic(2), dihedral(5) and dihedral(9), not dihedral(8)
PLANT = ng.CatalogConfig(families=("dihedral(3..9)", "dicyclic(2..4)"),
                         max_order=32, cofactor_max=1)


# each file planted in place of dihedral(8)'s, and the reason it is rejected
PLANTED_REASONS = {
    "bit-flip": "bad digest",
    "truncation": "bad digest",
    "other-version": "certificate version 2, not 3",
    "other-graph": "24 vertices, the graph has 14",
    "trailing-byte": "bad frame length",
    "short-order": "bad frame length",
    "certificate-after-order": "bad frame length",
    "natural-order": "splits entries of one degree profile",
}


def framed(body):
    """``body`` followed by its sha256, as every cache file ends."""
    return body + hashlib.sha256(body).digest()


def frame(order, version=canon.CERT_VERSION):
    """A cache file as CertificateCache writes it: magic, version, n, the
    order as big-endian uint32, then a sha256 of all that."""
    n = len(order)
    return framed(b"NCGC" + version.to_bytes(4, "big") + n.to_bytes(4, "big")
                  + np.asarray(order, dtype=">u4").tobytes())


def realised_form(descriptor, reverse=False):
    """The order 0..n-1 of the descriptor's graph, or n-1..0, and the bytes
    it realises."""
    graph = ng.build_nc_graph(ng.construct(descriptor))
    order = range(graph.num_vertices)
    return canon._certified(graph, order[::-1] if reverse else order)


def flip_last_bit(body):
    """A frame without its digest, with the lowest bit of its order's last
    vertex flipped: the order then names a vertex twice, or one past n - 1."""
    out = bytearray(body)
    out[-1] ^= 1
    return bytes(out)


def held_values(value):
    """Every scalar that the records in ``value`` hold, at any depth."""
    if is_dataclass(value):
        for f in fields(value):
            yield from held_values(getattr(value, f.name))
    elif isinstance(value, (tuple, list, dict)):
        for v in (value.values() if isinstance(value, dict) else value):
            yield from held_values(v)
    else:
        yield value


def rejects(caplog):
    return [r for r in caplog.records
            if r.name == "ncgraph" and "certificate cache: rejected" in r.getMessage()]


class TestCache:
    def test_cache_store_and_reuse(self, tmp_path):
        cache = ng.CertificateCache(str(tmp_path))
        graph = ng.build_nc_graph(ng.construct("dihedral(4)"))
        assert cache.get("dihedral(4)", graph) is None
        form = (ng.canonical_order(graph), ng.certificate(graph))
        cache.put("dihedral(4)", form[0])
        (path,) = tmp_path.glob("*.cert")
        assert path.read_bytes() == frame(form[0])
        fresh = ng.build_nc_graph(ng.construct("dihedral(4)"))
        assert cache.get("dihedral(4)", fresh) == form[0]

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        cache = ng.CertificateCache(str(tmp_path))
        order = ng.canonical_order(ng.build_nc_graph(ng.construct("dihedral(4)")))

        def refuse(src, dst):
            raise OSError("no room to rename")

        monkeypatch.setattr(catalog.os, "replace", refuse)
        with pytest.raises(OSError, match="no room to rename"):
            cache.put("dihedral(4)", order)
        assert list(tmp_path.iterdir()) == []

    def test_each_certificate_is_held_once(self, tmp_path):
        # the bytes stay with the graphs: the report holds their sha256
        # and a cache file only the canonical order, n big-endian uint32
        report = ng.scan_pairs(ng.CatalogConfig(cache_dir=str(tmp_path)))
        assert not any(isinstance(v, bytes) for v in held_values(report))
        cache = ng.CertificateCache(str(tmp_path))
        for e in report.entries:
            n = e.order - e.center_size
            assert Path(cache._path(e.descriptor)).stat().st_size == 12 + 4 * n + 32
        assert len(list(tmp_path.glob("*.cert"))) == len(report.entries) == 110

    def test_scan_with_cache_is_stable(self, tmp_path):
        cfg = ng.CatalogConfig(families=("dihedral(3..6)", "dicyclic(2..3)"),
                               max_order=32, cofactor_max=1,
                               cache_dir=str(tmp_path))
        first = ng.scan_pairs(cfg).to_json()
        assert any(p.suffix == ".cert" for p in tmp_path.iterdir())
        second = ng.scan_pairs(cfg).to_json()  # warm cache
        assert first == second

    def test_cache_of_another_certificate_version_is_rewritten(self, tmp_path,
                                                              monkeypatch):
        cfg = ng.CatalogConfig(families=("dihedral(3..6)", "dicyclic(2..3)"),
                               max_order=32, cofactor_max=1,
                               cache_dir=str(tmp_path))
        cold = ng.scan_pairs(cfg).to_json()
        certs = {e.descriptor: e.certificate_sha256
                 for e in ng.enumerate_catalog(replace(cfg, cache_dir=None))}
        names = sorted(certs)
        graphs = {name: ng.build_nc_graph(ng.construct(name)) for name in names}
        for p in tmp_path.glob("*.cert"):
            p.unlink()
        # files of an older version, and of the unversioned layout keyed on
        # the descriptor alone, all holding bytes the current version rejects
        monkeypatch.setattr(catalog, "CERT_VERSION", catalog.CERT_VERSION - 1)
        ng.scan_pairs(cfg)
        monkeypatch.undo()
        for name in names:
            digest = hashlib.sha256(name.encode()).hexdigest()
            (tmp_path / f"{digest}.cert").write_bytes(b"stale")
        stale = sorted(tmp_path.glob("*.cert"))
        assert len(stale) == 2 * len(names)
        for p in stale:
            p.write_bytes(b"stale")
        cache = ng.CertificateCache(str(tmp_path))
        assert all(cache.get(name, graphs[name]) is None for name in names)
        assert ng.scan_pairs(cfg).to_json() == cold
        assert len(list(tmp_path.glob("*.cert"))) == 3 * len(names)
        assert all(p.read_bytes() == b"stale" for p in stale)
        for name in names:
            form = canon._certified(graphs[name], cache.get(name, graphs[name]))
            assert hashlib.sha256(form[1]).hexdigest() == certs[name]

    @pytest.mark.parametrize("plant", list(PLANTED_REASONS))
    def test_planted_cache_file_is_rejected_and_rewritten(self, tmp_path, caplog, plant):
        cfg = replace(PLANT, cache_dir=str(tmp_path))
        cold = ng.scan_pairs(cfg).to_json()
        cache = ng.CertificateCache(str(tmp_path))
        path = Path(cache._path("dihedral(8)"))
        stored = path.read_bytes()
        if plant == "bit-flip":
            planted = flip_last_bit(stored[:-32]) + stored[-32:]
        elif plant == "truncation":
            planted = stored[:len(stored) // 2]
        elif plant == "other-version":
            graph = ng.build_nc_graph(ng.construct("dihedral(8)"))
            planted = frame(ng.canonical_order(graph), version=2)
        elif plant == "other-graph":
            planted = frame(realised_form("heisenberg(3,1)")[0])
        elif plant == "trailing-byte":
            planted = framed(stored[:-32] + b"\x00")
        elif plant == "short-order":
            # a head that claims 14 vertices, then room for 13 of them
            planted = framed(b"NCGC" + canon.CERT_VERSION.to_bytes(4, "big")
                             + (14).to_bytes(4, "big") + bytes(4 * 13))
        elif plant == "certificate-after-order":
            # the earlier layout: the order, then the certificate it realises
            graph = ng.build_nc_graph(ng.construct("dihedral(8)"))
            planted = framed(stored[:-32] + ng.certificate(graph))
        else:
            # a permutation, so only the profile guard can tell that its
            # bytes are not canonical: dicyclic(4) has the same graph
            order, cert = realised_form("dihedral(8)")
            assert cert != ng.certificate(ng.build_nc_graph(ng.construct("dicyclic(4)")))
            planted = frame(order)
        path.write_bytes(planted)
        with caplog.at_level("WARNING", logger="ncgraph"):
            report = ng.scan_pairs(cfg)
        assert report.to_json() == cold
        assert len(report.classes) == 7
        (record,) = rejects(caplog)
        assert "dihedral(8)" in record.getMessage()
        assert PLANTED_REASONS[plant] in record.getMessage()
        graph = ng.build_nc_graph(ng.construct("dihedral(8)"))
        assert cache.get("dihedral(8)", graph) == ng.canonical_order(graph)
        assert len(rejects(caplog)) == 1

    def test_enumeration_guards_cached_certificates_too(self, tmp_path, caplog):
        cfg = replace(PLANT, cache_dir=str(tmp_path))
        cold = ng.enumerate_catalog(cfg)
        path = Path(ng.CertificateCache(str(tmp_path))._path("dihedral(8)"))
        path.write_bytes(frame(realised_form("dihedral(8)")[0]))
        with caplog.at_level("WARNING", logger="ncgraph"):
            warm = ng.enumerate_catalog(cfg)
        assert [e.certificate_sha256 for e in warm] == [e.certificate_sha256 for e in cold]
        assert len(rejects(caplog)) == 1

    def test_spot_check_rejects_a_realised_file_of_a_sampled_entry(self, tmp_path,
                                                                   caplog):
        # dihedral(9) has a degree profile of its own, so only the spot
        # check can see that its planted bytes are not canonical
        cfg = replace(PLANT, cache_dir=str(tmp_path))
        cold = ng.scan_pairs(cfg).to_json()
        cache = ng.CertificateCache(str(tmp_path))
        order, cert = realised_form("dihedral(9)", reverse=True)
        assert cert != ng.certificate(ng.build_nc_graph(ng.construct("dihedral(9)")))
        Path(cache._path("dihedral(9)")).write_bytes(frame(order))
        with caplog.at_level("WARNING", logger="ncgraph"):
            assert ng.scan_pairs(cfg).to_json() == cold
        (record,) = rejects(caplog)
        assert "dihedral(9)" in record.getMessage()
        assert "spot check" in record.getMessage()

    def test_spot_check_catches_a_labeling_dependent_certificate(self, monkeypatch):
        true_certificate = catalog.certificate

        def labeled(graph):
            return true_certificate(graph) + bytes([graph.vertices[0] % 256])

        monkeypatch.setattr(catalog, "certificate", labeled)
        cfg = ng.CatalogConfig(families=("dihedral(3..6)", "dicyclic(2..3)"),
                               max_order=32, cofactor_max=1)
        with pytest.raises(ng.InternalInconsistency,
                           match="differs from a fresh recomputation"):
            ng.scan_pairs(cfg)

    def test_warm_default_scan_labels_only_the_spot_check(self, tmp_path, caplog,
                                                         monkeypatch):
        cfg = ng.CatalogConfig(cache_dir=str(tmp_path))
        cold = ng.scan_pairs(cfg).to_json()
        runs = []
        real_run = canon._QuotientSearch.run

        def counting(search):
            runs.append(search.n)
            return real_run(search)

        monkeypatch.setattr(canon._QuotientSearch, "run", counting)
        with caplog.at_level("WARNING", logger="ncgraph"):
            assert ng.scan_pairs(cfg).to_json() == cold
        assert len(runs) == 3
        assert rejects(caplog) == []
        # a flipped order bit with a digest made to match: the frame is well
        # formed, but its order is no longer a permutation
        path = Path(ng.CertificateCache(str(tmp_path))._path("dihedral(8)"))
        path.write_bytes(framed(flip_last_bit(path.read_bytes()[:-32])))
        with caplog.at_level("WARNING", logger="ncgraph"):
            report = ng.scan_pairs(cfg)
        assert (len(report.classes), report.violations) == (61, 0)
        assert report.to_json() == cold
        (record,) = rejects(caplog)
        assert "order is not a permutation" in record.getMessage()


class TestScan:
    def test_scan_constructs_each_entry_once(self, monkeypatch):
        built = []
        real_construct = catalog.construct

        def counting(descriptor, *args, **kwargs):
            built.append(str(descriptor))
            return real_construct(descriptor, *args, **kwargs)

        monkeypatch.setattr(catalog, "construct", counting)
        report = ng.scan_pairs(SMALL)
        assert any(c.pair_audits for c in report.classes)
        assert sorted(built) == sorted(e.descriptor for e in report.entries)

    @pytest.mark.parametrize("walk", [ng.scan_pairs, ng.enumerate_catalog])
    def test_walk_holds_one_vertex_count_at_a_time(self, walk, monkeypatch):
        # with the cycle collector off, reference counting alone must have
        # freed every group of a smaller vertex count by the time the first
        # group of the next count is built
        built = []   # (vertex count, weak reference) of each group constructed
        real_construct = catalog.construct

        def recording(descriptor, *args, **kwargs):
            g = real_construct(descriptor, *args, **kwargs)
            n = g.order - len(ng.center(g))
            if built and n != built[-1][0]:
                held = [str(ref()) for m, ref in built if m < n and ref() is not None]
                assert not held, f"{descriptor} ({n} vertices) built while {held} live"
            built.append((n, weakref.ref(g)))
            return g

        monkeypatch.setattr(catalog, "construct", recording)
        gc.collect()
        gc.disable()
        try:
            walk(ng.CatalogConfig())
        finally:
            gc.enable()
        counts = [n for n, _ in built]
        assert len(counts) == 110 and counts == sorted(counts) and len(set(counts)) > 20

    @pytest.mark.parametrize("form", ["order", "center"])
    def test_wrong_closed_form_raises_instead_of_splitting_a_class(self, form,
                                                                  monkeypatch):
        # the vertex count a descriptor is filed under comes from these forms
        row = descriptors._FAMILIES["dihedral"]
        wrong = row._replace(**{form: lambda k: getattr(row, form)(k) + 1})
        monkeypatch.setitem(descriptors._FAMILIES, "dihedral", wrong)
        with pytest.raises(ng.InternalInconsistency,
                           match=r"dihedral\(3\): order and centre size \(6, 1\) do not "
                                 "match the family's closed forms"):
            ng.scan_pairs(SMALL)

    def test_small_scan(self):
        report = ng.scan_pairs(SMALL)
        assert report.violations == 0
        classes = {c.members: c for c in report.classes}
        pair16 = classes[("dicyclic(4)", "dihedral(8)")]
        assert pair16.all_nilpotent and pair16.all_irregular
        assert pair16.nilpotent_irregular_equal_orders == "pass"
        assert len(pair16.pair_audits) == 1
        assert len(pair16.same_prime_audits) == 1
        pair12 = classes[("dicyclic(3)", "dihedral(6)")]
        assert not pair12.all_nilpotent
        assert pair12.nilpotent_irregular_equal_orders == "not-applicable"
        pair8 = classes[("dicyclic(2)", "dihedral(4)")]
        assert not pair8.all_irregular
        assert pair8.nilpotent_irregular_equal_orders == "not-applicable"

    def test_report_is_deterministic(self):
        assert ng.scan_pairs(SMALL).to_json() == ng.scan_pairs(SMALL).to_json()

    def test_default_report_bytes_are_pinned(self, default_report):
        # every entry, class, pair audit and witness of the default scan
        digest = hashlib.sha256(default_report.to_json().encode()).hexdigest()
        assert canon.CERT_VERSION == 3
        assert digest == "7efc9b157a06e3f379c5d485bcd80dfa5678c9eb7e232064d0bdc996f10fbce7"

    def test_default_report_without_certificates_is_pinned(self, default_report):
        # the report with every certificate_sha256 removed, serialised as the
        # benchmark's scan gate serialises it: a change of certificate bytes
        # alone leaves this digest where it is
        doc = json.loads(default_report.to_json())
        for part in doc["entries"] + doc["classes"]:
            part.pop("certificate_sha256")
        digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
        assert digest == "13b21b80e3b0540da093d5b479df44df586bd4ecc48fe982f58a958bf893bb1d"

    def test_default_classes_and_verdicts_are_pinned(self, default_report):
        classes = [[list(c.members), c.nilpotent_irregular_equal_orders]
                   for c in default_report.classes]
        assert (len(default_report.entries), len(classes), default_report.violations) == (
            110, 61, 0)
        digest = hashlib.sha256(json.dumps(classes).encode()).hexdigest()
        assert digest == PINNED_CLASSES

    def test_default_pass_verdicts_rest_on_vertex_counts(self, default_report):
        # no two nilpotent irregular entries of different orders share a
        # vertex count |G| - |Z(G)|, so every "pass" is settled by that
        # arithmetic before any graph is compared
        orders = {}
        for e in default_report.entries:
            if e.nilpotent and not e.regular:
                orders.setdefault(e.order - e.center_size, set()).add(e.order)
        assert [n for n, seen in orders.items() if len(seen) > 1] == []
        verdicts = [c.nilpotent_irregular_equal_orders for c in default_report.classes]
        assert verdicts.count("pass") == 9
        # heisenberg(2,1) and dihedral(4) are both D8: one group, two members
        (d8,) = [c for c in default_report.classes if "heisenberg(2,1)" in c.members]
        assert d8.members == ("dicyclic(2)", "dihedral(4)", "heisenberg(2,1)")

    def test_stress_verdicts_meet_shared_vertex_counts(self):
        # here |G| - |Z(G)| alone cannot settle every "pass": two vertex
        # counts are shared across orders, and the graphs tell them apart
        report = ng.scan_pairs(STRESS)
        assert (len(report.entries), len(report.classes), report.violations) == (
            346, 217, 0)
        sides = {}   # vertex count -> (order, edge count) -> certificate digests
        for e in report.entries:
            if e.nilpotent and not e.regular:
                edges = sum(d * c for d, c in e.degree_profile) // 2
                sides.setdefault(e.order - e.center_size, {}).setdefault(
                    (e.order, edges), set()).add(e.certificate_sha256)
        shared = {n: s for n, s in sides.items() if len({o for o, _ in s}) > 1}
        assert {n: sorted(s) for n, s in shared.items()} == {
            126: [(128, 5952), (144, 5832)],
            210: [(224, 16464), (240, 16200)],
        }
        for s in shared.values():
            a, b = s.values()
            assert not a & b   # the two orders fall in different classes

    def test_planted_false_merge_raises(self, monkeypatch):
        # two irregular nilpotent graphs of orders 128 and 144, both on 126
        # vertices, handed one forged certificate: the scan raises instead of
        # reporting the merged class
        true_certificate = catalog.certificate
        merged = {"dihedral(64)", "product(dihedral(8),abelian(9))"}

        def forged(graph):
            if graph.parent_descriptor in merged:
                return b"forged"
            return true_certificate(graph)

        monkeypatch.setattr(catalog, "certificate", forged)
        cfg = ng.CatalogConfig(families=("dihedral(64)", "dihedral(8)"),
                               max_order=144, cofactor_max=9)
        with pytest.raises(ng.InternalInconsistency,
                           match="equal certificates but no isomorphism found: "
                                 r"dihedral\(64\) vs product\(dihedral\(8\),abelian\(9\)\)"):
            ng.scan_pairs(cfg)

    def test_report_schema(self):
        data = json.loads(ng.scan_pairs(SMALL).to_json())
        assert data["schema"] == 1
        assert data["entry_count"] == len(data["entries"])
        assert data["class_count"] == len(data["classes"])
        assert data["violations"] == 0
        assert data["cache_spot_check"]["ok"]
        members = [m for c in data["classes"] for m in c["members"]]
        assert sorted(members) == sorted(e["descriptor"] for e in data["entries"])

    def test_orders_agree_within_classes(self):
        report = ng.scan_pairs(SMALL)
        for cls in report.classes:
            orders = {e for e in cls.orders}
            if cls.all_nilpotent and cls.all_irregular:
                assert len(orders) == 1


class TestAuditPairFiles:
    def test_isomorphic_pair(self, tmp_path):
        a, b = tmp_path / "a.cay", tmp_path / "b.cay"
        ng.export_group(ng.construct("dihedral(8)"), str(a))
        ng.export_group(ng.construct("dicyclic(4)"), str(b))
        result = ng.audit_pair_files(str(a), str(b))
        assert result["isomorphic"]
        assert not result["violation"]
        assert result["pair_audit"]["verdict"] == "consistent"
        assert result["same_prime_audit"]["verdict"] == "consistent"

    def test_non_isomorphic_pair(self, tmp_path):
        a, b = tmp_path / "a.cay", tmp_path / "b.cay"
        ng.export_group(ng.construct("dihedral(4)"), str(a))
        ng.export_group(ng.construct("heisenberg(3,1)"), str(b))
        result = ng.audit_pair_files(str(a), str(b))
        assert result["isomorphic"] is False
        assert result["reason"]["invariant"] == "vertex/edge/degree profile"

    def test_non_nilpotent_pair_skips_shape_audit(self, tmp_path):
        a, b = tmp_path / "a.cay", tmp_path / "b.cay"
        ng.export_group(ng.construct("dihedral(6)"), str(a))
        ng.export_group(ng.construct("dicyclic(3)"), str(b))
        result = ng.audit_pair_files(str(a), str(b))
        assert result["isomorphic"]
        assert result["pair_audit"]["verdict"] == "consistent"
        assert result["same_prime_audit"] is None
        assert result["same_prime_skip_reason"]
        assert not result["violation"]
