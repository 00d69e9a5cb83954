import hashlib
import json
from dataclasses import replace

import pytest

import ncgraph as ng
from ncgraph import catalog

SMALL = ng.CatalogConfig(
    families=("dihedral(3..8)", "dicyclic(2..4)"),
    max_order=64,
    cofactor_max=3,
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
        {"cache_dir": 3}, ["max_order"], 64,
    ])
    def test_wrong_types_rejected(self, data):
        with pytest.raises(ValueError, match="config"):
            ng.CatalogConfig.from_dict(data)

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

    def test_bad_range(self):
        cfg = ng.CatalogConfig(families=("dihedral(2..5)",), max_order=64)
        with pytest.raises(ng.BadDescriptor):
            ng.enumerate_catalog(cfg)

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


class TestCache:
    def test_cache_store_and_reuse(self, tmp_path):
        cache = ng.CertificateCache(str(tmp_path))
        assert cache.get("dihedral(4)") is None
        cache.put("dihedral(4)", b"\x01\x02")
        assert cache.get("dihedral(4)") == b"\x01\x02"

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
        certs = {e.descriptor: e.certificate
                 for e in ng.enumerate_catalog(replace(cfg, cache_dir=None))}
        names = sorted(certs)
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
        assert all(cache.get(name) is None for name in names)
        assert ng.scan_pairs(cfg).to_json() == cold
        assert len(list(tmp_path.glob("*.cert"))) == 3 * len(names)
        assert all(p.read_bytes() == b"stale" for p in stale)
        assert all(cache.get(name) == certs[name] for name in names)

    def test_corrupt_cache_detected(self, tmp_path):
        cfg = ng.CatalogConfig(families=("dihedral(3..6)", "dicyclic(2..3)"),
                               max_order=32, cofactor_max=1,
                               cache_dir=str(tmp_path))
        ng.scan_pairs(cfg)
        cache = ng.CertificateCache(str(tmp_path))
        # poison every stored certificate, then rescan: the spot check
        # recomputes a sample from scratch and must catch the mismatch
        for p in tmp_path.glob("*.cert"):
            p.write_bytes(b"poisoned")
        with pytest.raises(ng.InternalInconsistency):
            ng.scan_pairs(cfg)

    def test_one_poisoned_entry_is_caught_by_the_spot_check(self, tmp_path):
        cfg = ng.CatalogConfig(families=("dihedral(3..6)", "dicyclic(2..3)"),
                               max_order=32, cofactor_max=1,
                               cache_dir=str(tmp_path))
        first = ng.enumerate_catalog(replace(cfg, cache_dir=None))[0]
        # heisenberg(3,1) has 24 vertices, more than any entry here, so the
        # poisoned entry lands in a class of its own and no pair search sees it
        outsider = ng.certificate(ng.build_nc_graph(ng.construct("heisenberg(3,1)")))
        ng.CertificateCache(str(tmp_path)).put(first.descriptor, outsider)
        with pytest.raises(ng.InternalInconsistency,
                           match="differs from a fresh recomputation"):
            ng.scan_pairs(cfg)

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

    def test_small_scan(self):
        report = ng.scan_pairs(SMALL)
        assert report.violations == 0
        classes = {c.members: c for c in report.classes}
        pair16 = classes[("dicyclic(4)", "dihedral(8)")]
        assert pair16.all_nilpotent and pair16.all_irregular
        assert pair16.equal_orders_verdict == "pass"
        assert len(pair16.pair_audits) == 1
        assert len(pair16.same_prime_audits) == 1
        pair12 = classes[("dicyclic(3)", "dihedral(6)")]
        assert not pair12.all_nilpotent
        assert pair12.equal_orders_verdict == "not-applicable"
        pair8 = classes[("dicyclic(2)", "dihedral(4)")]
        assert not pair8.all_irregular
        assert pair8.equal_orders_verdict == "not-applicable"

    def test_report_is_deterministic(self):
        assert ng.scan_pairs(SMALL).to_json() == ng.scan_pairs(SMALL).to_json()

    def test_default_report_bytes_are_pinned(self, default_report):
        # every entry, class, pair audit and witness of the default scan
        digest = hashlib.sha256(default_report.to_json().encode()).hexdigest()
        assert digest == "afdc1eacefec0653f58ae6ae066600e8fe20e3e3ed23e8aafe1d7b6773006531"

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
