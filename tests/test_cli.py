import dataclasses
import json

import pytest

import ncgraph as ng
from ncgraph.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_writes_file(self, capsys, tmp_path):
        out = tmp_path / "d6.cay"
        code, stdout, _ = run(capsys, "build", "--family", "dihedral(6)",
                              "--out", str(out))
        assert code == 0
        assert stdout == f"wrote dihedral(6) (order 12) to {out}\n"
        g = ng.import_group(str(out))
        assert g.order == 12

    def test_build_bad_family(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "build", "--family", "dihedral(2)",
                              "--out", str(tmp_path / "x.cay"))
        assert code == 1
        assert "dihedral" in stderr

    def test_build_unwritable_path(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "build", "--family", "dihedral(3)",
                              "--out", str(tmp_path / "no" / "dir" / "x.cay"))
        assert code == 1
        assert stderr


class TestAudit:
    def test_isomorphic_pair(self, capsys, tmp_path):
        a, b = tmp_path / "a.cay", tmp_path / "b.cay"
        ng.export_group(ng.construct("dihedral(8)"), str(a))
        ng.export_group(ng.construct("dicyclic(4)"), str(b))
        code, stdout, _ = run(capsys, "audit", "--a", str(a), "--b", str(b))
        assert code == 0
        result = json.loads(stdout)
        assert result["isomorphic"]
        assert result["order_a"] == result["order_b"] == 16
        assert result["pair_audit"]["verdict"] == "consistent"
        assert result["same_prime_audit"]["verdict"] == "consistent"
        assert result["violation"] is False

    def test_non_isomorphic_pair(self, capsys, tmp_path):
        a, b = tmp_path / "a.cay", tmp_path / "b.cay"
        ng.export_group(ng.construct("dihedral(4)"), str(a))
        ng.export_group(ng.construct("dihedral(5)"), str(b))
        code, stdout, _ = run(capsys, "audit", "--a", str(a), "--b", str(b))
        assert code == 0
        result = json.loads(stdout)
        assert result["isomorphic"] is False
        assert result["reason"]["invariant"] == "vertex/edge/degree profile"

    def test_missing_file(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "audit", "--a", str(tmp_path / "no.cay"),
                              "--b", str(tmp_path / "no.cay"))
        assert code == 1
        assert "no.cay" in stderr

    def test_invalid_table_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.cay"
        bad.write_text("2\n0 1\n1 1\n")
        code, _, stderr = run(capsys, "audit", "--a", str(bad), "--b", str(bad))
        assert code == 1
        assert stderr


class TestGoormaghtigh:
    def test_text_output(self, capsys):
        code, stdout, _ = run(capsys, "goormaghtigh",
                              "--max-base", "12", "--max-exp", "20")
        assert code == 0
        assert stdout == "2 5 5 3 31\n"

    def test_json_output(self, capsys):
        code, stdout, _ = run(capsys, "goormaghtigh",
                              "--max-base", "12", "--max-exp", "20", "--json")
        assert code == 0
        assert json.loads(stdout) == [
            {"x": 2, "y": 5, "m": 5, "n": 3, "value": 31}]

    def test_bad_bounds(self, capsys):
        code, _, stderr = run(capsys, "goormaghtigh",
                              "--max-base", "1", "--max-exp", "20")
        assert code == 1
        assert stderr


class TestChain:
    def test_chain_json(self, capsys, tmp_path):
        path = tmp_path / "g.cay"
        ng.export_group(ng.construct("product(dicyclic(2),heisenberg(3,1))"),
                        str(path))
        code, stdout, _ = run(capsys, "chain", "--group", str(path))
        assert code == 0
        out = json.loads(stdout)
        assert out["descriptor"] == "imported(g)"
        assert out["orders"][0] == 216
        assert out["steps"] == len(out["chosen_elements"]) >= 1
        assert out["terminal_is_ac"] is True

    def test_chain_ac_root(self, capsys, tmp_path):
        path = tmp_path / "d12.cay"
        ng.export_group(ng.construct("dihedral(6)"), str(path))
        code, stdout, _ = run(capsys, "chain", "--group", str(path))
        assert code == 0
        out = json.loads(stdout)
        assert out["orders"] == [12]
        assert out["steps"] == 0

    def test_chain_overlong_token(self, capsys, tmp_path):
        # an entry too long for int64 is a parse error, not a traceback
        path = tmp_path / "long.cay"
        path.write_text("2\n0 1\n1 99999999999999999999999\n")
        code, stdout, stderr = run(capsys, "chain", "--group", str(path))
        assert code == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert stderr.startswith("ncgraph chain: line 3: entry 1 ")

    def test_chain_abelian_root(self, capsys, tmp_path):
        path = tmp_path / "c6.cay"
        ng.export_group(ng.construct("cyclic(6)"), str(path))
        code, _, stderr = run(capsys, "chain", "--group", str(path))
        assert code == 1
        assert "non-abelian" in stderr


class TestScan:
    def test_scan_to_file(self, capsys, tmp_path):
        cfg = {"families": ["dihedral(3..6)", "dicyclic(2..3)"],
               "max_order": 32, "cofactor_max": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "scan", "--config", str(cfg_path),
                              "--report", str(report_path))
        assert code == 0
        assert "0 violations" in stdout
        data = json.loads(report_path.read_text())
        assert data["violations"] == 0
        assert data["entry_count"] == 6

    def test_scan_to_stdout(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"families": ["dihedral(4)", "dicyclic(2)"], "max_order": 16,
             "cofactor_max": 1}))
        code, stdout, _ = run(capsys, "scan", "--config", str(cfg_path))
        assert code == 0
        data = json.loads(stdout)
        assert data["class_count"] == 1
        assert data["classes"][0]["members"] == ["dicyclic(2)", "dihedral(4)"]

    def test_scan_streams_the_report_bytes(self, capsys, tmp_path):
        cfg = {"families": ["dihedral(3..6)", "dicyclic(2..3)"],
               "max_order": 32, "cofactor_max": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        report = ng.scan_pairs(ng.CatalogConfig.from_dict(cfg))
        expected = report.to_json()
        assert expected == json.dumps(report.to_dict(), indent=2) + "\n"
        report_path = tmp_path / "report.json"
        run(capsys, "scan", "--config", str(cfg_path), "--report", str(report_path))
        assert report_path.read_bytes() == expected.encode()
        code, stdout, _ = run(capsys, "scan", "--config", str(cfg_path))
        assert (code, stdout) == (0, expected)

    def test_scan_bad_config_key(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_order": 16, "bogus": True}))
        code, _, stderr = run(capsys, "scan", "--config", str(cfg_path))
        assert code == 1
        assert "bogus" in stderr

    @pytest.mark.parametrize("cfg, message", [
        ({"max_order": "64"}, "config 'max_order' must be an integer, got '64'"),
        ({"families": "dihedral(3..4)"},
         "config 'families' must be a list of strings, got 'dihedral(3..4)'"),
        ({"max_order": -5, "families": ["dihedral(3..4)"]},
         "config 'max_order' must be a positive integer, got -5"),
        ({"cofactor_max": -3}, "config 'cofactor_max' must be a positive integer, got -3"),
    ])
    def test_scan_config_of_wrong_type(self, capsys, tmp_path, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, stderr = run(capsys, "scan", "--config", str(cfg_path))
        assert code == 1
        assert stdout == ""
        assert stderr == f"ncgraph scan: {message}\n"

    def test_scan_malformed_json(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code, _, stderr = run(capsys, "scan", "--config", str(cfg_path))
        assert code == 1
        assert stderr


class TestUsage:
    def test_no_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "dihedral(3)"])
        assert exc.value.code == 1
        assert "--out" in capsys.readouterr().err

    def test_non_integer_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["goormaghtigh", "--max-base", "twelve", "--max-exp", "5"])
        assert exc.value.code == 1


class TestViolationExitCode:
    """A violation reaches the user only as an audit's verdict: both commands
    that run the pair audit exit 2 on one."""

    @pytest.fixture
    def violating_pair_audit(self, monkeypatch):
        audit = ng.catalog.audit_isomorphic_pair

        def violating(*args):
            return dataclasses.replace(audit(*args), verdict="violation")

        monkeypatch.setattr(ng.catalog, "audit_isomorphic_pair", violating)

    def test_audit_exits_2(self, capsys, tmp_path, violating_pair_audit):
        a, b = tmp_path / "a.cay", tmp_path / "b.cay"
        ng.export_group(ng.construct("dihedral(8)"), str(a))
        ng.export_group(ng.construct("dicyclic(4)"), str(b))
        code, stdout, _ = run(capsys, "audit", "--a", str(a), "--b", str(b))
        assert code == 2
        result = json.loads(stdout)
        assert result["pair_audit"]["verdict"] == "violation"
        assert result["violation"] is True

    def test_scan_exits_2(self, capsys, tmp_path, violating_pair_audit):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"families": ["dihedral(8)", "dicyclic(4)"], "max_order": 16,
             "cofactor_max": 1}))
        code, stdout, _ = run(capsys, "scan", "--config", str(cfg_path))
        assert code == 2
        assert '"violations": 1' in stdout
        assert json.loads(stdout)["violations"] == 1
