"""Command-line entry points tying the pipelines together.

Three console scripts are installed: ``fk3`` (classification and per-pair
verification over GF(2)), ``jordan`` (the characteristic-zero example), and
``fulcrum`` (the raw completion engine on a presentation file).  All JSON
artifacts carry ``"schema": 1`` and are byte-stable across runs.  An output
path that cannot be written prints ``error: ...`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .rackgroup import s3_quotient
from .rewrite import CAP_EXCEEDED, CONFLUENT, CapExceededError, Presentation, count_irreducible
from . import classify as classify_mod
from . import fk3 as fk3_mod
from . import jordan as jordan_mod


def _write(text: str, path: str | None) -> bool:
    """Write an artifact to ``path``, or to stdout when there is none.

    Returns False, after an ``error:`` line on stderr, when the path cannot
    be written.
    """
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _dump_json(doc: dict, path: str | None) -> bool:
    return _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def _certify_worker(key: tuple) -> tuple:
    cert = fk3_mod.certify(*key, group_mode="s3", galois=True)
    return key, cert.to_json()


# ---------------------------------------------------------------------------
# fk3
# ---------------------------------------------------------------------------

def _fk3_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fk3",
                                     description="Classify and verify the GF(2) deformations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="enumerate pairs and isomorphism classes")
    p_cls.add_argument("--group", choices=["gx", "s3"], default="gx")
    p_cls.add_argument("--out", default=None)
    p_cls.add_argument("--format", choices=["json", "csv", "md"], default="json")
    p_cls.add_argument("--certify", action="store_true",
                       help="run dimension and Galois certificates per class representative")
    p_cls.add_argument("--jobs", type=int, default=1)

    p_ver = sub.add_parser("verify", help="verify one (lambda, mu) pair")
    p_ver.add_argument("--lambda", dest="lam", required=True, metavar="BITS")
    p_ver.add_argument("--mu", required=True, metavar="BITS")
    p_ver.add_argument("--group", choices=["s3"], default="s3")
    p_ver.add_argument("--galois", action="store_true")
    p_ver.add_argument("--json", dest="json_out", default=None)

    sub.add_parser("nichols-dim", help="irreducible-word count of the quadratic ideal")
    return parser


def _fk3_classify(args: argparse.Namespace) -> int:
    pairs = classify_mod.enumerate_pairs(args.group)
    classes = classify_mod.partition_classes(pairs)
    certificates: dict = {}
    # a path that cannot be written fails before any certificate is computed
    if args.out and not _write("", args.out):
        return 1
    if args.certify:
        reps = [next(p.key for p in cls
                     if fk3_mod.validate_lambda(fk3_mod.matrix_from_bits(p.lam_bits), "s3").ok)
                for cls in classes]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                certificates = dict(pool.map(_certify_worker, reps))
        else:
            certificates = dict(map(_certify_worker, reps))
    table = classify_mod.emit_table(classes, args.format, args.group, certificates)
    if not _write(table, args.out):
        return 1
    n_pairs = sum(len(c) for c in classes)
    print(f"pairs: {n_pairs}  classes: {len(classes)}", file=sys.stderr)
    if args.group == "gx" and (n_pairs, len(classes)) != (32, 10):
        return 1
    if args.certify and any(not doc.get("valid") for doc in certificates.values()):
        return 1
    return 0


def _fk3_verify(args: argparse.Namespace) -> int:
    cert = fk3_mod.certify(args.lam, args.mu, group_mode="s3", galois=args.galois)
    doc = cert.to_json()
    # the finite group backing the run, for reproducibility
    doc["group_table"] = s3_quotient().to_json()
    return 0 if _dump_json(doc, args.json_out) and cert.valid else 1


def fk3_main(argv=None) -> int:
    args = _fk3_parser().parse_args(argv)
    if args.command == "classify":
        return _fk3_classify(args)
    if args.command == "verify":
        try:
            return _fk3_verify(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "nichols-dim":
        dim = fk3_mod.nichols_dimension()
        print(dim)
        return 0 if dim == 12 else 1
    raise AssertionError(args.command)


# ---------------------------------------------------------------------------
# jordan
# ---------------------------------------------------------------------------

def _jordan_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jordan",
                                     description="Verify the characteristic-zero example")
    sub = parser.add_subparsers(dest="command", required=True)
    p_ver = sub.add_parser("verify", help="confluence, word counts and coactions")
    p_ver.add_argument("--max-len", type=int, default=6)
    p_ver.add_argument("--json", dest="json_out", default=None)
    return parser


def jordan_main(argv=None) -> int:
    parser = _jordan_parser()
    args = parser.parse_args(argv)
    max_len = args.max_len
    if max_len < 0:
        parser.error("--max-len must be >= 0")
    reports = [jordan_mod.verify_pbw(jordan_mod.build_jordan(fl, max_len), max_len)
               for fl in jordan_mod.FLAVORS]
    coactions = jordan_mod.jordan_coactions(max_len)
    doc = {
        "schema": 1,
        "max_len": max_len,
        "flavors": {
            rep.flavor: {
                "status": rep.status,
                "new_rules": rep.new_rule_count,
                "per_length": rep.per_length,
                "expected": rep.expected,
                "total": rep.total,
                "ok": rep.ok,
            }
            for rep in reports
        },
        "coactions": {
            "checked": coactions.checked,
            "failures": coactions.failures,
            "ok": coactions.ok,
        },
    }
    if not _dump_json(doc, args.json_out):
        return 1
    total = reports[0].total
    print(f"irreducible words up to length {max_len}: {total}", file=sys.stderr)
    ok = all(rep.ok for rep in reports) and coactions.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fulcrum
# ---------------------------------------------------------------------------

def _fulcrum_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fulcrum",
                                     description="Raw completion engine on a presentation file")
    sub = parser.add_subparsers(dest="command", required=True)
    p_c = sub.add_parser("complete", help="complete a presentation file")
    p_c.add_argument("presentation", help="JSON presentation path")
    p_c.add_argument("--json", dest="json_out", default=None)
    p_c.add_argument("--max-len", type=int, default=None,
                     help="also report irreducible-word counts up to this length")
    return parser


def load_presentation(path: str) -> Presentation:
    """Read a presentation file; see ``Presentation.from_json`` for the format."""
    with open(path) as fh:
        doc = json.load(fh)
    return Presentation.from_json(doc)


def fulcrum_main(argv=None) -> int:
    parser = _fulcrum_parser()
    args = parser.parse_args(argv)
    if args.max_len is not None and args.max_len < 0:
        parser.error("--max-len must be >= 0")
    try:
        pres = load_presentation(args.presentation)
        report = pres.complete()
    except (OSError, ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.status == CAP_EXCEEDED:
        word_str = pres.alphabet.word_str
        source = ("" if report.cap_word is None
                  else f"ambiguity {word_str(report.cap_word)} resolves to ")
        print(f"cap exceeded: {source}lead {word_str(report.cap_lead)} of degree "
              f"{len(report.cap_lead)} > degree_cap {pres.degree_cap}", file=sys.stderr)
    doc = report.to_json()
    if args.max_len is not None and report.status == CONFLUENT:
        counts = count_irreducible(report.system, args.max_len)
        doc["irreducible"] = {
            "per_length": counts.per_length,
            "total": counts.total,
            "finite": counts.finite,
        }
    return 0 if _dump_json(doc, args.json_out) and report.status == CONFLUENT else 1
