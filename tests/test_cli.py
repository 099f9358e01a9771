"""Console entry points: exit codes, artifacts, determinism."""

import json

import pytest

from nclift import fk3, jordan
from nclift.cli import fk3_main, fulcrum_main, jordan_main, load_presentation
from nclift.ncpoly import F2
from nclift.rewrite import Presentation


PRESENTATION = {
    "alphabet": [
        {"id": "x0", "sort": "module"},
        {"id": "x1", "sort": "module"},
        {"id": "x2", "sort": "module"},
    ],
    "relations": [
        "x0 x0", "x1 x1", "x2 x2",
        "x0 x1 + x2 x0 + x1 x2",
        "x1 x0 + x2 x1 + x0 x2",
    ],
    "degree_cap": 8,
    "field": "f2",
}


def test_nichols_dim_prints_12(capsys):
    assert fk3_main(["nichols-dim"]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_classify_gx_counts(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert fk3_main(["classify", "--group", "gx", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pair_count"] == 32
    assert doc["class_count"] == 10
    assert doc["schema"] == 1


def test_classify_markdown_and_csv(tmp_path):
    md = tmp_path / "t.md"
    assert fk3_main(["classify", "--group", "gx", "--format", "md", "--out", str(md)]) == 0
    assert sum(1 for line in md.read_text().splitlines() if line.startswith("|")) == 34
    csv_path = tmp_path / "t.csv"
    assert fk3_main(["classify", "--group", "gx", "--format", "csv", "--out", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[0] == "lambda,mu,class,dim,galois_r,galois_l"


def test_classify_artifacts_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert fk3_main(["classify", "--group", "gx", "--out", str(a)]) == 0
    assert fk3_main(["classify", "--group", "gx", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_pair_writes_certificate(tmp_path):
    out = tmp_path / "cert.json"
    code = fk3_main(["verify", "--lambda", "000000000", "--mu", "111111111",
                     "--group", "s3", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is True
    assert doc["dim_lifting"] == 72
    assert doc["group_table"]["order"] == 6


def test_verify_artifact_deterministic_across_processes(tmp_path):
    import subprocess
    import sys as _sys
    stub = ("import sys; from nclift.cli import fk3_main; "
            "sys.exit(fk3_main(sys.argv[1:]))")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        cmd = [_sys.executable, "-c", stub, "verify",
               "--lambda", "000101110", "--mu", "100000000",
               "--galois", "--json", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env={**__import__("os").environ, "PYTHONHASHSEED": "random"})
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_invalid_pair_fails():
    assert fk3_main(["verify", "--lambda", "000000000", "--mu", "100000000"]) == 1


def test_classify_certify_annotates_class_representatives(tmp_path):
    out = tmp_path / "certified.json"
    assert fk3_main(["classify", "--group", "gx", "--certify",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    certified = [r for r in doc["pairs"] if r["dim"] is not None]
    assert len(certified) == 10
    assert all(r["dim"] == 72 for r in certified)
    assert all(r["galois_r"] == 5184 and r["galois_l"] == 5184 for r in certified)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        fk3_main(["classify", "--group", "bogus"])
    assert exc.value.code == 2


def test_jordan_verify(tmp_path, capsys):
    out = tmp_path / "jordan.json"
    assert jordan_main(["verify", "--max-len", "3", "--json", str(out)]) == 0
    err = capsys.readouterr().err
    assert "30" in err
    doc = json.loads(out.read_text())
    assert doc["flavors"]["u_jordan"]["ok"] is True
    assert doc["coactions"]["ok"] is True


def test_fulcrum_complete_on_presentation_file(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(PRESENTATION))
    out = tmp_path / "report.json"
    assert fulcrum_main(["complete", str(path), "--max-len", "6", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "CONFLUENT"
    assert doc["irreducible"]["total"] == 12
    assert any(rule["lead"] == "x1*x0*x1" for rule in doc["new_rules"])


def test_fulcrum_complete_reports_where_the_cap_broke(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(dict(PRESENTATION, degree_cap=2)))
    out = tmp_path / "report.json"
    assert fulcrum_main(["complete", str(path), "--json", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["cap exceeded: ambiguity x2*x0*x0 resolves to lead x1*x0*x1 "
                     "of degree 3 > degree_cap 2"]
    doc = json.loads(out.read_text())
    assert doc["status"] == "CAP_EXCEEDED"
    assert sorted(doc) == ["ambiguities_checked", "new_rules", "rule_count", "rules",
                           "schema", "status"]


def test_fulcrum_complete_missing_file(capsys):
    assert fulcrum_main(["complete", "/nonexistent/pres.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_fk3_main_dispatches_subcommands(tmp_path, capsys):
    assert fk3_main(["nichols-dim"]) == 0
    assert capsys.readouterr().out.strip() == "12"
    out = tmp_path / "t.json"
    assert fk3_main(["classify", "--group", "gx", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pair_count"] == 32
    with pytest.raises(SystemExit):
        fk3_main(["bogus"])


@pytest.mark.parametrize("doc", [
    {"alphabet": 5},
    [],
    {**PRESENTATION, "degree_cap": "3"},
    {**PRESENTATION, "relations": [5]},
], ids=["alphabet-not-a-list", "top-level-list", "degree-cap-string", "relation-not-a-string"])
def test_fulcrum_complete_rejects_malformed_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert fulcrum_main(["complete", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _valid_pair():
    lam = fk3.lambda_from_bits("000101110")
    return lam, fk3.mu_from_bits("100000000", lam)


def _quotient(build):
    """A deformed quotient as a presentation, with its in-process completion."""
    pres = build.presentation
    quotient = Presentation(pres.alphabet, pres.field, build.relations, pres.degree_cap)
    return quotient, build.report


def _nichols():
    pres = Presentation(fk3.module_alphabet(), F2, fk3.fk3_relations())
    return pres, pres.complete()


def _jordan(flavor):
    pres = jordan.build_jordan(flavor, 6)
    return pres, pres.complete()


ROUND_TRIP = {
    "nichols": _nichols,
    "lifting-L": lambda: _quotient(fk3.build_lifting(*_valid_pair())),
    "cleft-A": lambda: _quotient(fk3.build_cleft(*_valid_pair())),
    **{f"jordan-{flavor}": (lambda flavor=flavor: _jordan(flavor))
       for flavor in jordan.FLAVORS},
}


def _field_name(field):
    return {"F2": "f2", "QQ": "rational"}.get(field.name, f"fp:{field.char}")


@pytest.mark.parametrize("case", sorted(ROUND_TRIP))
def test_presentation_round_trips_through_file(tmp_path, case):
    pres, report = ROUND_TRIP[case]()
    alpha = pres.alphabet
    doc = {
        "alphabet": [{"id": alpha.ident(o), "sort": alpha.sort(o)} for o in range(len(alpha))],
        "relations": [str(rel) for rel in pres.relations],
        "field": _field_name(pres.field),
        "order": pres.order,
        "degree_cap": pres.degree_cap,
    }
    path, out = tmp_path / "pres.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert fulcrum_main(["complete", str(path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["rules"] == report.to_json()["rules"]


def test_load_presentation_fields(tmp_path):
    doc = dict(PRESENTATION)
    doc["field"] = "fp:5"
    doc["relations"] = ["x0 x0 + 2 x1"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    sys_ = load_presentation(str(path))
    assert sys_.field.char == 5
