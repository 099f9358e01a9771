"""The two workloads: seeded inputs, one timed run each, and output checks.

A workload is a sequence of parts: ``certify`` is the paper's headline
pipeline; ``engine`` runs the mu census, the Fomin-Kirillov completions and
the Jordan normal forms in turn.  ``make_inputs`` is pure benchmark code:
the same (workload, seed, index) always gives byte-identical inputs.  ``execute`` stages the inputs, times
the calls into nclift and collects the outputs afterwards, so staging and
checks stay outside the timed region.  ``check`` compares the outputs with
the hand-written answers in ``expected`` and returns one (name, ok, detail)
triple per operation; an operation that raised is a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction

import expected
from nclift import classify, cli, fk3, jordan

#: each workload's parts, run in this order within one sample
PARTS = {"certify": ("certify",), "engine": ("census", "fk-stress", "jordan-words")}

# --- input generation --------------------------------------------------------

# Fomin-Kirillov stress: E_4 over every field kind, E_5 over F2 at a cap that
# stops with CAP_EXCEEDED after a few seconds of completion.
E4_FIELDS = ("f2", "fp:32003", "rational")
E4_CAP = 6
E5_CAP = 7

# Jordan words: one word per length 16..20, each a fixed core inside seeded
# padding x1^a core x2^b.  Leading x1 and trailing x2 letters never take part
# in a rewrite (the only rule is x2 x1 -> x1 x2 - 1/2 x1 x1), so every seed
# does the same work, and words of different lengths share no memo entries.
# Seed-drawn random words would not: one word's cost ranges from 1 ms to 11 s.
JORDAN_MAX_LEN = 6
JORDAN_PAD = 2
JORDAN_CORES = (
    ((2, 4), (1, 4), (2, 3), (1, 3)),
    ((2, 8), (1, 7)),
    ((2, 5), (1, 4), (2, 4), (1, 3)),
    ((2, 9), (1, 8)),
    ((2, 9), (1, 9)),
)


def _rng(part: str, seed: int, index: int) -> random.Random:
    # a string seed is hashed with SHA-512, so it is stable across processes
    return random.Random(f"{part}:{seed}:{index}")


def fk_presentation(n: int, perm: list, field: str, cap: int) -> dict:
    """E_n in the ``fulcrum complete`` file format, points relabelled by perm.

    Generators keep the order of the pairs they stand for, so relabelling
    only renames them and flips the sign of x_ab when perm reverses a < b
    (x_ba = -x_ab): the completion does the same work for every perm.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def gen(a, b):
        pa, pb = perm[a], perm[b]
        return (1, f"x{pa}{pb}") if pa < pb else (-1, f"x{pb}{pa}")

    def poly(terms):
        out = ""
        for coeff, (a, b), (c, d) in terms:
            (s1, g1), (s2, g2) = gen(a, b), gen(c, d)
            sign = coeff * s1 * s2
            if not out:
                out = f"{'-' if sign < 0 else ''}{g1} {g2}"
            else:
                out += f" {'-' if sign < 0 else '+'} {g1} {g2}"
        return out

    relations = [poly([(1, p, p)]) for p in pairs]
    relations += [poly([(1, p, q), (-1, q, p)])
                  for m, p in enumerate(pairs) for q in pairs[m + 1:]
                  if not set(p) & set(q)]
    for i, j, k in ((i, j, k) for i in range(n) for j in range(i + 1, n)
                    for k in range(j + 1, n)):
        for a, b, c in ((i, j, k), (i, k, j)):
            relations.append(poly([(1, (a, b), (b, c)), (1, (b, c), (c, a)),
                                   (1, (c, a), (a, b))]))
    return {
        "alphabet": [{"id": gen(i, j)[1], "sort": "module"} for i, j in pairs],
        "relations": relations,
        "degree_cap": cap,
        "field": field,
    }


def _certify_inputs(rng: random.Random) -> dict:
    # one pick per class; 24 is a multiple of every class size (8, 3, 1)
    return {"picks": [rng.randrange(24) for _ in range(expected.CLASS_COUNT)]}


def _census_inputs(rng: random.Random) -> dict:
    # all 512 mu spread over the 8 valid lambda, 64 each, so that the work
    # does not hinge on which lambda a seed draws (2.6-3.7 s apart)
    lambdas = list(expected.VALID_LAMBDAS)
    mus = list(expected.ALL_BITS)
    rng.shuffle(lambdas)
    rng.shuffle(mus)
    share = len(mus) // len(lambdas)
    return {"assignment": [[lam, mus[n * share:(n + 1) * share]]
                           for n, lam in enumerate(lambdas)]}


def _fk_inputs(rng: random.Random) -> dict:
    perm4 = rng.sample(range(4), 4)
    perm5 = rng.sample(range(5), 5)
    fixtures = [{"name": f"E4-{field}", "max_len": len(expected.E4_PER_LENGTH),
                 "presentation": fk_presentation(4, perm4, field, E4_CAP)}
                for field in E4_FIELDS]
    fixtures.append({"name": "E5-f2", "max_len": expected.E5_TOP_DEGREE + 1,
                     "presentation": fk_presentation(5, perm5, "f2", E5_CAP)})
    return {"fixtures": fixtures}


def _jordan_inputs(rng: random.Random) -> dict:
    words = []
    for core in JORDAN_CORES:
        a = rng.randint(0, JORDAN_PAD)
        letters = ["x1"] * a
        for gen, count in core:
            letters += [f"x{gen}"] * count
        letters += ["x2"] * (JORDAN_PAD - a)
        words.append(" ".join(letters))
    rng.shuffle(words)
    return {"max_len": JORDAN_MAX_LEN, "words": words}


_INPUTS = {"certify": _certify_inputs, "census": _census_inputs,
           "fk-stress": _fk_inputs, "jordan-words": _jordan_inputs}


def make_inputs(workload: str, seed: int, index: int) -> dict:
    """Inputs of sample ``index`` of a run with ``seed``, as plain JSON data,
    keyed by part."""
    if workload not in PARTS:
        raise ValueError(f"unknown workload {workload!r}")
    return {part: _INPUTS[part](_rng(part, seed, index)) for part in PARTS[workload]}


def fixture_text(presentation: dict) -> str:
    return json.dumps(presentation, indent=2) + "\n"


# --- timed runs ---------------------------------------------------------------

def _attempt(fn, *args, **kwargs):
    """(result, None), or (None, error text) when the operation raised.

    RecursionError and CapExceededError are failed operations, not crashes
    of the benchmark, so every exception is caught here and reported.
    """
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def _run_certify(inputs: dict, workdir: str) -> dict:
    pairs = classify.enumerate_pairs("gx")
    classes = classify.partition_classes(pairs)
    certs, docs = [], {}
    for cls, pick in zip(classes, inputs["picks"]):
        rep = cls[pick % len(cls)]
        cert, err = _attempt(fk3.certify, rep.lam_bits, rep.mu_bits, "s3", galois=True)
        doc = cert.to_json() if cert is not None else None
        if doc is not None:
            docs[rep.key] = doc
        certs.append({"lambda": rep.lam_bits, "mu": rep.mu_bits, "doc": doc, "error": err})
    table = classify.emit_table(classes, "json", "gx", docs)
    return {"pairs": sorted(p.key for p in pairs), "class_count": len(classes),
            "certificates": certs, "table": table}


def _run_census(inputs: dict, workdir: str) -> dict:
    rows = []
    for lam_bits, mus in inputs["assignment"]:
        lam = fk3.lambda_from_bits(lam_bits)
        for mu_bits in mus:
            mu = fk3.mu_unchecked(fk3.matrix_from_bits(mu_bits))
            for flavor, build in (("L", fk3.build_lifting), ("A", fk3.build_cleft)):
                q, err = _attempt(build, lam, mu)
                dim, err = (None, err) if q is None else _attempt(q.dimension)
                rows.append([lam_bits, mu_bits, flavor,
                             q.status if q is not None else None, dim, err])
    return {"rows": rows}


def _run_fk_stress(inputs: dict, workdir: str) -> dict:
    runs = []
    for fx in inputs["fixtures"]:
        path = os.path.join(workdir, f"{fx['name']}.json")
        out = os.path.join(workdir, f"{fx['name']}.report.json")
        code, err = _attempt(cli.fulcrum_main, ["complete", path, "--json", out,
                                                "--max-len", str(fx["max_len"])])
        runs.append({"name": fx["name"], "exit": code, "error": err, "report": out})
    return {"runs": runs}


def _run_jordan(inputs: dict, workdir: str) -> dict:
    path = os.path.join(workdir, "jordan.json")
    max_len = inputs["max_len"]
    code, err = _attempt(cli.jordan_main, ["verify", "--max-len", str(max_len),
                                           "--json", path])
    bos = jordan.build_jordan(jordan.BOSONIZATION, max_len).complete().system
    forms = []
    for text in inputs["words"]:
        word = tuple(bos.alphabet.ordinal(tok) for tok in text.split())
        nf, nf_err = _attempt(bos.nf_word, word)
        forms.append({"word": text, "error": nf_err, "nf": None if nf is None else
                      [[" ".join(map(bos.alphabet.ident, w)), str(c)]
                       for w, c in nf.items()]})
    return {"exit": code, "error": err, "report": path, "normal_forms": forms}


_RUNS = {"certify": _run_certify, "census": _run_census,
         "fk-stress": _run_fk_stress, "jordan-words": _run_jordan}


def _read_report(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def execute(inputs: dict, workdir: str) -> tuple[float, dict]:
    """Stage, run (timed) and collect one sample; returns (run_s, outputs)."""
    if "fk-stress" in inputs:
        for fx in inputs["fk-stress"]["fixtures"]:
            with open(os.path.join(workdir, f"{fx['name']}.json"), "w") as fh:
                fh.write(fixture_text(fx["presentation"]))
    t0 = time.perf_counter()
    outputs = {part: _RUNS[part](part_inputs, workdir) for part, part_inputs in inputs.items()}
    run_s = time.perf_counter() - t0
    if "fk-stress" in outputs:
        for run in outputs["fk-stress"]["runs"]:
            run["report"] = _read_report(run["report"])
    if "jordan-words" in outputs:
        outputs["jordan-words"]["report"] = _read_report(outputs["jordan-words"]["report"])
    return run_s, outputs


# --- checks -------------------------------------------------------------------

def _check_certify(inputs: dict, out: dict) -> list:
    pairs = {tuple(p) for p in out["pairs"]}
    ops = [("classification",
            len(out["pairs"]) == expected.PAIR_COUNT and pairs == expected.VALID_PAIRS
            and out["class_count"] == expected.CLASS_COUNT,
            f"{len(out['pairs'])} pairs, {out['class_count']} classes")]
    for cert in out["certificates"]:
        name = f"certify {cert['lambda']} {cert['mu']}"
        doc = cert["doc"]
        if doc is None:
            ops.append((name, False, cert["error"]))
            continue
        gal = doc.get("galois") or {}
        ok = ((cert["lambda"], cert["mu"]) in expected.VALID_PAIRS
              and doc["valid"] is True
              and doc["dim_lifting"] == expected.QUOTIENT_DIM
              and doc["dim_cleft"] == expected.QUOTIENT_DIM
              and doc["lifting_status"] == doc["cleft_status"] == "CONFLUENT"
              and bool(doc["skew_primitive"]) and all(doc["skew_primitive"].values())
              and doc["cubic_matches_formula"] is True
              and gal.get("rank_right") == expected.GALOIS_RANK
              and gal.get("rank_left") == expected.GALOIS_RANK
              and gal.get("full_rank") == expected.GALOIS_RANK
              and gal.get("bijective") is True)
        ops.append((name, ok, f"dims {doc['dim_lifting']}/{doc['dim_cleft']}, "
                              f"ranks {gal.get('rank_right')}/{gal.get('rank_left')}"))
    if len(out["certificates"]) != expected.CLASS_COUNT:
        ops.append(("certificate count", False, f"{len(out['certificates'])} certified"))
    return ops


def _check_census(inputs: dict, out: dict) -> list:
    ops = []
    for lam, mu, flavor, status, dim, err in out["rows"]:
        name = f"{flavor} {lam} {mu}"
        if err is not None:
            ops.append((name, False, err))
            continue
        if (lam, mu) in expected.VALID_PAIRS:
            ok = status == "CONFLUENT" and dim == expected.QUOTIENT_DIM
        elif flavor == "L":
            ok = status == "CONFLUENT" and dim in expected.CENSUS_INVALID_L_DIMS
        else:
            ok = status == "COLLAPSED_TO_ZERO" and dim == expected.CENSUS_INVALID_A_DIM
        ops.append((name, ok, f"{status} dim {dim}"))
    return ops


def _check_fk_stress(inputs: dict, out: dict) -> list:
    ops = []
    for run in out["runs"]:
        rep = run["report"]
        if run["error"] is not None or rep is None:
            ops.append((run["name"], False, run["error"] or "no report written"))
            continue
        status = rep["status"]
        irr = rep.get("irreducible") or {}
        if run["name"].startswith("E4"):
            ok = (status == "CONFLUENT" and irr.get("finite") is True
                  and irr.get("per_length") == expected.E4_PER_LENGTH + [0]
                  and irr.get("total") == expected.E4_TOTAL)
        else:
            ok = status != "COLLAPSED_TO_ZERO" and (
                status != "CONFLUENT" or (irr.get("finite") is True
                                          and irr.get("total") == expected.E5_TOTAL))
        ops.append((run["name"], ok, f"{status}, {rep['rule_count']} rules, "
                                     f"{rep['ambiguities_checked']} resolutions"))
    return ops


def _apply_word(letters: list, k: int) -> dict:
    """x1 -> t, x2 -> -1/2 t^2 d/dt applied to t^k, as {exponent: coefficient}."""
    coeff, exp = Fraction(1), k
    for letter in reversed(letters):
        if letter == "x2":
            coeff *= Fraction(-exp, 2)
        elif letter != "x1":
            return {}
        exp += 1
    return {exp: coeff} if coeff else {}


def _faithful_match(word: str, nf: list) -> bool:
    """Word and normal form agree on t^0..t^len(word), which separates the
    normal words x1^a x2^b of each length."""
    letters = word.split()
    for k in range(len(letters) + 1):
        rhs: dict = {}
        for text, coeff in nf:
            term = text.split()
            if any(t not in ("x1", "x2") for t in term):
                return False
            for exp, c in _apply_word(term, k).items():
                rhs[exp] = rhs.get(exp, 0) + Fraction(coeff) * c
        if {e: c for e, c in rhs.items() if c} != _apply_word(letters, k):
            return False
    return True


def _check_jordan(inputs: dict, out: dict) -> list:
    ops = []
    rep = out["report"]
    if out["error"] is not None or rep is None:
        ops.append(("jordan verify", False, out["error"] or "no report written"))
    else:
        for flavor, fl in sorted(rep["flavors"].items()):
            ok = (fl["status"] == "CONFLUENT" and fl["new_rules"] == 0
                  and fl["per_length"] == expected.JORDAN_PER_LENGTH
                  and fl["total"] == sum(expected.JORDAN_PER_LENGTH))
            ops.append((f"pbw {flavor}", ok, f"{fl['status']}, {fl['per_length']}"))
        if len(rep["flavors"]) != 3:
            ops.append(("pbw flavors", False, f"{len(rep['flavors'])} flavors"))
        co = rep["coactions"]
        ops.append(("coactions", co["ok"] is True and not co["failures"] and co["checked"] > 0,
                    f"{co['checked']} relations, {len(co['failures'])} failures"))
    for form in out["normal_forms"]:
        name = f"nf {form['word']}"
        if form["error"] is not None:
            ops.append((name, False, form["error"]))
        else:
            ops.append((name, _faithful_match(form["word"], form["nf"]),
                        f"{len(form['nf'])} terms"))
    return ops


_CHECKS = {"certify": _check_certify, "census": _check_census,
           "fk-stress": _check_fk_stress, "jordan-words": _check_jordan}


def check(inputs: dict, outputs: dict) -> list:
    return [op for part in inputs for op in _CHECKS[part](inputs[part], outputs[part])]
