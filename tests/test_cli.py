"""Console entry points: exit codes, artifacts, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclift import cli, fk3, jordan
from nclift.cli import fk3_main, fulcrum_main, jordan_main, load_presentation
from nclift.fulcrum import T_LAMBDA, T_PRIME_LAMBDA
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
                     "--json", str(out)])
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


def test_fulcrum_complete_rejects_a_modulus_that_is_not_plain_digits(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**PRESENTATION, "field": "fp: 5"}))
    assert fulcrum_main(["complete", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown field 'fp: 5'\n"


def test_fulcrum_complete_rejects_a_modulus_of_5000_digits(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**PRESENTATION, "field": "fp:" + "7" * 5000}))
    assert fulcrum_main(["complete", str(path)]) == 1
    assert capsys.readouterr().err == "error: modulus out of range: 77777777... (5000 digits)\n"


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


def test_fulcrum_complete_reports_an_input_lead_above_the_cap(tmp_path, capsys):
    doc = {
        "alphabet": [{"id": "x1", "sort": "module"}, {"id": "x2", "sort": "module"},
                     {"id": "g", "sort": "group"}],
        "relations": ["g " * 1000 + "x1 - x2"],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert fulcrum_main(["complete", str(path), "--json", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"cap exceeded: lead {'g*' * 1000}x1 of degree 1001 > degree_cap 8\n")
    assert json.loads(out.read_text())["status"] == "CAP_EXCEEDED"


def test_fulcrum_complete_reports_a_long_reduced_input_lead_above_the_cap(tmp_path, capsys):
    # g^1000 x1 reduces to x1 g^1000 + 1000 g^1000 - 1000 g^1001, a thousand
    # rewrites deep, and x1 g^1000 then leads the new rule
    pres = jordan.build_jordan(jordan.U_JORDAN, 6)
    alpha = pres.alphabet
    doc = {
        "alphabet": [{"id": alpha.ident(o), "sort": alpha.sort(o)} for o in range(len(alpha))],
        "relations": [str(rel) for rel in pres.relations] + ["g " * 1000 + "x1 - x2"],
        "field": "rational",
        "order": "xdeglex",
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    assert fulcrum_main(["complete", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"cap exceeded: lead x1{'*g' * 1000} of degree 1001 > degree_cap 8\n")


@pytest.mark.parametrize("main, argv", [
    (fulcrum_main, ["complete", "pres.json", "--max-len", "-1"]),
    (jordan_main, ["verify", "--max-len", "-1"]),
], ids=["fulcrum", "jordan"])
def test_negative_max_len_is_a_usage_error(capsys, main, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--max-len must be >= 0" in capsys.readouterr().err


def test_importing_the_cli_loads_no_pool_and_no_csv():
    """A fresh interpreter imports ``nclift.cli`` without the process pool
    or the csv module: a run loads each only where it uses it."""
    code = ("import sys; before = set(sys.modules); import nclift.cli; "
            "print(sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    added = set(ast.literal_eval(out.stdout))
    assert "nclift.cli" in added
    for name in ("concurrent.futures", "multiprocessing", "csv"):
        assert name not in added, name


#: sha256 of four artifacts as the engine wrote them before its reduction
#: code was restructured; a change to any byte of them must be deliberate
@pytest.mark.parametrize("argv, digest", [
    (["fulcrum", "complete", "{pres}", "--max-len", "6", "--json", "{out}"],
     "f01f43b5602eecf8f69117c3c1c65babaca4422339c43b7f6c0204d0b60c1158"),
    (["fk3", "verify", "--lambda", "000101110", "--mu", "100000000", "--galois",
      "--json", "{out}"],
     "bca2115e97e255ef6a9969bc3d62ebe6fd383d3d1f9603583de1de12fe2552d7"),
    (["jordan", "verify", "--max-len", "6", "--json", "{out}"],
     "e390312315a555d5ff126712bb233e9ddde851bf390f253dd4d36bb4bdae7972"),
    (["fk3", "classify", "--group", "gx", "--out", "{out}"],
     "79dec00cb19b7845e0a5328a253c67d3f27aa85f1a8e2f2e52f8fd373111ebf1"),
], ids=["fulcrum-complete", "fk3-verify", "jordan-verify", "fk3-classify"])
def test_artifacts_match_pinned_digests(tmp_path, argv, digest):
    pres, out = tmp_path / "pres.json", tmp_path / "artifact"
    pres.write_text(json.dumps(PRESENTATION))
    main = {"fk3": fk3_main, "jordan": jordan_main, "fulcrum": fulcrum_main}[argv[0]]
    assert main([arg.format(pres=pres, out=out) for arg in argv[1:]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("main, argv", [
    (fk3_main, ["verify", "--lambda", "000000000", "--mu", "111111111", "--json", "{out}"]),
    (fk3_main, ["classify", "--group", "gx", "--out", "{out}"]),
    (jordan_main, ["verify", "--max-len", "2", "--json", "{out}"]),
    (fulcrum_main, ["complete", "{pres}", "--json", "{out}"]),
], ids=["fk3-verify", "fk3-classify", "jordan-verify", "fulcrum-complete"])
def test_unwritable_output_path_is_an_error(tmp_path, capsys, main, argv):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(PRESENTATION))
    out = "/nonexistent/x.json"
    assert main([arg.format(pres=pres, out=out) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_classify_certify_checks_the_output_path_before_certifying(monkeypatch, capsys):
    def certify(*args, **kwargs):
        raise AssertionError("a certificate was computed")

    monkeypatch.setattr(cli.fk3_mod, "certify", certify)
    out = "/nonexistent/x.json"
    assert fk3_main(["classify", "--group", "gx", "--certify", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_verify_checks_the_output_path_before_certifying(monkeypatch, capsys):
    def certify(*args, **kwargs):
        raise AssertionError("a certificate was computed")

    monkeypatch.setattr(cli.fk3_mod, "certify", certify)
    out = "/nonexistent/x.json"
    assert fk3_main(["verify", "--lambda", "000101110", "--mu", "100000000", "--galois",
                     "--json", out]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def _never(what):
    def call(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return call


@pytest.mark.parametrize("target, argv", [
    ((Presentation, "complete"), ["complete", "{pres}", "--json", "{out}"]),
    ((cli.jordan_mod, "build_jordan"), ["verify", "--json", "{out}"]),
    ((cli.jordan_mod, "jordan_coactions"), ["verify", "--json", "{out}"]),
], ids=["fulcrum-completion", "jordan-completions", "jordan-coactions"])
def test_fulcrum_and_jordan_check_the_output_path_first(monkeypatch, tmp_path, capsys,
                                                        target, argv):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(PRESENTATION))
    monkeypatch.setattr(*target, _never(target[1]))
    main = fulcrum_main if argv[0] == "complete" else jordan_main
    out = "/nonexistent/x.json"
    assert main([arg.format(pres=pres, out=out) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_fulcrum_reports_a_malformed_file_before_the_output_path(tmp_path, capsys):
    pres = tmp_path / "pres.json"
    pres.write_text("[")
    assert fulcrum_main(["complete", str(pres), "--json", "/nonexistent/x.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nonexistent" not in err


def _refused_fulcrum(out):
    """``fulcrum complete`` whose completion raises ValueError after the
    probe, which it reports as an ``error:`` line."""
    def complete(self):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_presentation", lambda path: Presentation.from_json(PRESENTATION))
        patch.setattr(Presentation, "complete", complete)
        return fulcrum_main(["complete", "pres.json", "--json", out])


def _refused_jordan(out):
    """``jordan verify`` whose coaction check raises after the probe."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.jordan_mod, "jordan_coactions", _never("refused"))
        with pytest.raises(AssertionError, match="refused"):
            jordan_main(["verify", "--max-len", "2", "--json", out])
    return 1


def _refused_classify(argv):
    """``fk3 classify --certify`` whose certificates raise after the probe."""
    def certify(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.fk3_mod, "certify", certify)
        with pytest.raises(ValueError, match="refused"):
            fk3_main(argv)
    return 1


@pytest.mark.parametrize("run", [
    # fk3_main turns the ValueError of the invalid lambda into an exit code
    lambda out: fk3_main(["verify", "--lambda", "100000000", "--mu", "000000000",
                          "--json", out]),
    lambda out: _refused_classify(["classify", "--group", "gx", "--certify", "--out", out]),
    _refused_fulcrum,
    _refused_jordan,
], ids=["fk3-verify", "fk3-classify", "fulcrum-complete", "jordan-verify"])
def test_a_refused_run_leaves_the_output_path_as_it_was(tmp_path, run):
    old = tmp_path / "old.json"
    old.write_bytes(b'{"kept": true}\n')
    assert run(str(old)) == 1
    assert old.read_bytes() == b'{"kept": true}\n'
    new = tmp_path / "new.json"
    assert run(str(new)) == 1
    assert not new.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]


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
    {"alphabet": [{"id": "1", "sort": "module"}], "relations": ["1 1"]},
    {"alphabet": [{"id": "2", "sort": "module"}], "relations": ["2 2 2"], "field": "rational"},
    {"alphabet": [{"id": "x 0", "sort": "module"}], "relations": []},
    {"alphabet": [{"id": "", "sort": "module"}], "relations": []},
    {**PRESENTATION, "relations": ["-"]},
    {**PRESENTATION, "relations": ["x0 x1 +"]},
], ids=["alphabet-not-a-list", "top-level-list", "degree-cap-string", "relation-not-a-string",
        "unit-id", "coefficient-id", "two-token-id", "empty-id", "sign-only-relation",
        "dangling-sign-relation"])
def test_fulcrum_complete_rejects_malformed_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert fulcrum_main(["complete", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_fulcrum_complete_rejects_a_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert fulcrum_main(["complete", str(path)]) == 1
    assert capsys.readouterr().err == "error: presentation file nests too deeply\n"


def _valid_pair():
    lam = fk3.lambda_from_bits("000101110")
    return lam, fk3.mu_from_bits("100000000", lam)


def _quotient(build, flavor):
    """A deformed quotient as a presentation of all its relations, with its
    in-process completion."""
    lam, mu = _valid_pair()
    base = fk3.flavor_presentation(lam, flavor)
    pres = Presentation(base.alphabet, base.field,
                        base.relations + fk3.deformed_relations(lam, mu, flavor),
                        base.degree_cap, base.order)
    return pres, build(lam, mu)


def _nichols():
    pres = Presentation(fk3.module_alphabet(), F2, fk3.fk3_relations())
    return pres, pres.complete()


def _jordan(flavor):
    pres = jordan.build_jordan(flavor, 6)
    return pres, pres.complete()


ROUND_TRIP = {
    "nichols": _nichols,
    "lifting-L": lambda: _quotient(fk3.build_lifting, T_LAMBDA),
    "cleft-A": lambda: _quotient(fk3.build_cleft, T_PRIME_LAMBDA),
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
