"""The report form of records: ``to_dict`` walks the dataclass fields, and the
bytes it gives are pinned to the hand-written field lists it replaced."""

import hashlib
import json
from dataclasses import fields

import pytest

import ncgraph as ng
from ncgraph.audits import Record
from ncgraph.cli import main

PAIR16 = ng.CatalogConfig(families=("dihedral(8)", "dicyclic(4)"), max_order=16,
                          cofactor_max=1)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def report():
    return ng.scan_pairs(PAIR16)


@pytest.fixture(scope="module")
def records(report):
    """One instance of every record type."""
    cls = report.classes[0]
    pair = cls.pair_audits[0]
    return [
        pair.items[0], pair, cls.same_prime_audits[0],
        ng.two_nonabelian_sylow_audit(ng.construct("product(dicyclic(2),heisenberg(3,1))")),
        ng.cross_prime_scan(max_prime=3, max_exp=5, max_cofactor=10),
        report.config, report.entries[0], cls,
    ]


def test_every_record_type_is_covered(records):
    assert {type(r).__name__ for r in records} == {
        "AuditItem", "PairAudit", "SamePrimeAudit", "TwoSylowAudit",
        "CrossPrimeScan", "CatalogConfig", "CatalogEntry", "IsoClass"}
    assert all(isinstance(r, Record) for r in records)


def test_keys_are_the_shown_fields_in_order(records):
    for record in records:
        d = record.to_dict()
        assert list(d) == [f.name for f in fields(record)]
        assert json.loads(json.dumps(d)) == d


def test_scan_report_envelope(report):
    d = report.to_dict()
    assert list(d) == ["schema", "config", "entry_count", "entries", "class_count",
                       "classes", "regular_cross_order_candidates",
                       "cache_spot_check", "violations"]
    assert (d["schema"], d["entry_count"], d["class_count"]) == (1, 2, 1)
    assert d["classes"][0]["nilpotent_irregular_equal_orders"] == "pass"
    assert json.loads(report.to_json()) == d


# sha256 of the output the hand-written to_dict methods gave
@pytest.mark.parametrize("desc_a, desc_b, digest", [
    ("dihedral(8)", "dicyclic(4)",
     "0b43d59de181f34e2608e82330b20a3431d1187c39ffc3197def9350f88f1fef"),
    ("product(dihedral(4),cyclic(3))", "product(dicyclic(2),cyclic(3))",
     "a6e6ebbf23370103b9baceadf51ecd85f6781ace0d8e5c4475f44c6c654879ac"),
])
def test_audit_output_is_pinned(capsys, tmp_path, desc_a, desc_b, digest):
    a, b = tmp_path / "a.cay", tmp_path / "b.cay"
    ng.export_group(ng.construct(desc_a), str(a))
    ng.export_group(ng.construct(desc_b), str(b))
    assert main(["audit", "--a", str(a), "--b", str(b)]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_two_sylow_audit_json_is_pinned():
    audit = ng.two_nonabelian_sylow_audit(
        ng.construct("product(dicyclic(2),heisenberg(3,1))"))
    assert sha256(json.dumps(audit.to_dict())) == (
        "ffa5d2a4f0c200a26f31efeba6b0b0a70eabb845c5e95779391565053831a3c8")


def test_cross_prime_scan_json_is_pinned():
    scan = ng.cross_prime_scan(5, 5, 10)
    assert sha256(json.dumps(scan.to_dict())) == (
        "699df6ed8a12db240d340483ec1f46e86c834b370763c6cac39580c43ace74a7")


# wider boxes, each with 2,000 or more candidates
@pytest.mark.parametrize("box, digest", [
    ((7, 12, 100), "77706906a5ec110542006990d40bdfb5801b70f3390f33dcbfc949c09d7af690"),
    ((13, 8, 100), "720a55c4f02bbd33888e2ac86a6cf10abd86f78e7802a4e16a6322cdaf96e089"),
])
def test_wider_cross_prime_scans_are_pinned(box, digest):
    assert sha256(json.dumps(ng.cross_prime_scan(*box).to_dict())) == digest
