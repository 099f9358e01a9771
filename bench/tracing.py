"""Spans around nclift's public functions, recorded from outside the package.

``Tracer.install()`` replaces each target function with a timing wrapper, in
every ``nclift`` module that holds it, since ``fk3``, ``fulcrum``, ``jordan``,
``classify`` and ``cli`` import most of them by name.  Spans are aggregated
in memory per (name, parent) pair, because ``nf_word`` alone runs hundreds of
thousands of times per workload; the table is read once at the end.  Counts
come only from arguments, return values and public fields.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT_SPAN = "<root>"


def _completion_counts(args, kwargs, report) -> dict:
    return {"ambiguities_checked": report.ambiguities_checked,
            "new_rules": len(report.new_rules),
            "collapsed": int(report.status == "COLLAPSED_TO_ZERO")}


def _tensor_counts(args, kwargs, result) -> dict:
    return {"terms_in": len(args[0].terms), "terms_out": len(result.terms)}


def _rank_counts(args, kwargs, result) -> dict:
    rows = args[0]
    width = args[1] if len(args) > 1 else kwargs.get("width")
    if width is None:
        width = max((row.bit_length() for row in rows), default=0)
    return {"rows": len(rows), "bits_computed": len(rows) * width}


#: (metric prefix, module, attribute path, counter or None).  Every target
#: yields <prefix>.calls, <prefix>.s (inclusive) and <prefix>.self_s
#: (inclusive minus traced children), plus <prefix>.<count> per counter key.
TARGETS = (
    ("ncpoly.parse_poly", "ncpoly", "parse_poly", None),
    ("ncpoly.TensorPoly.mul", "ncpoly", "TensorPoly.__mul__", None),
    ("rewrite.ReductionSystem.init", "rewrite", "ReductionSystem.__init__", None),
    ("rewrite.nf_word", "rewrite", "ReductionSystem.nf_word", None),
    ("rewrite.complete", "rewrite", "complete", _completion_counts),
    ("rewrite.find_ambiguities", "rewrite", "find_ambiguities",
     lambda a, k, r: {"found": len(r)}),
    ("rewrite.count_irreducible", "rewrite", "count_irreducible",
     lambda a, k, r: {"words": r.total}),
    ("rewrite.irreducible_words", "rewrite", "irreducible_words",
     lambda a, k, r: {"words": len(r)}),
    ("rewrite.reduce_tensor", "rewrite", "reduce_tensor", _tensor_counts),
    ("rewrite.rank_f2", "rewrite", "rank_f2", _rank_counts),
    ("rackgroup.s3_quotient", "rackgroup", "s3_quotient", None),
    ("fulcrum.FulcrumPresentation.init", "fulcrum", "FulcrumPresentation.__init__", None),
    ("fulcrum.apply_algebra_map", "fulcrum", "apply_algebra_map", None),
    ("fulcrum.check_skew_primitive", "fulcrum", "check_skew_primitive", None),
    ("fk3.certify", "fk3", "certify", None),
    ("fk3.galois_certificate", "fk3", "galois_certificate", None),
    ("fk3.build_lifting", "fk3", "build_lifting", None),
    ("fk3.build_cleft", "fk3", "build_cleft", None),
    ("fk3.resolve_cubic_convention", "fk3", "resolve_cubic_convention", None),
    ("fk3.validate_mu", "fk3", "validate_mu", None),
    ("classify.enumerate_pairs", "classify", "enumerate_pairs", None),
    ("classify.partition_classes", "classify", "partition_classes", None),
    ("classify.iso_related", "classify", "iso_related", None),
    ("jordan.build_jordan", "jordan", "build_jordan", None),
    ("jordan.verify_pbw", "jordan", "verify_pbw", None),
    ("jordan.jordan_coactions", "jordan", "jordan_coactions", None),
    ("cli.load_presentation", "cli", "load_presentation", None),
    ("cli.fulcrum_main", "cli", "fulcrum_main", None),
    ("cli.jordan_main", "cli", "jordan_main", None),
)

COUNT_KEYS = {
    "rewrite.complete": ("ambiguities_checked", "new_rules", "collapsed"),
    "rewrite.find_ambiguities": ("found",),
    "rewrite.count_irreducible": ("words",),
    "rewrite.irreducible_words": ("words",),
    "rewrite.reduce_tensor": ("terms_in", "terms_out"),
    "rewrite.rank_f2": ("rows", "bits_computed"),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for prefix, *_ in TARGETS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s"),
                (f"{prefix}.self_s", "s")]
        out += [(f"{prefix}.{key}", "count") for key in COUNT_KEYS.get(prefix, ())]
    return out


class Tracer:
    """Wraps the targets and aggregates their spans per (name, parent)."""

    def __init__(self):
        self._stack = [[ROOT_SPAN, 0.0]]     # open spans: [name, traced child time]
        self._depth: dict = {}               # name -> open spans of that name
        self._agg: dict = {}                 # (name, parent) -> [calls, s, self_s, counts]

    def _wrap(self, name, fn, counter):
        stack, depth, agg, clock = self._stack, self._depth, self._agg, time.perf_counter
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                parent[1] += dt
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, {}]
                rec[0] += 1
                if depth[name] == 0:
                    # inclusive time counts the outermost span of a name only
                    rec[1] += dt
                rec[2] += dt - frame[1]
            if counter is not None:
                counts = rec[3]
                for k, v in counter(args, kwargs, result).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        return traced

    def install(self) -> None:
        """Patch every target wherever an ``nclift`` module or class holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nclift" or n.startswith("nclift.")]
        for prefix, mod_name, path, counter in TARGETS:
            owner = sys.modules[f"nclift.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(prefix, original, counter)
            holders = [owner] if outer else [m for m in modules
                                             if m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)

    def spans(self) -> list[dict]:
        """The aggregated span table, one row per (name, parent)."""
        return [{"name": name, "parent": parent, "calls": rec[0], "s": rec[1],
                 "self_s": rec[2], "counts": dict(rec[3])}
                for (name, parent), rec in sorted(self._agg.items())]


def layer_metrics(spans: list[dict]) -> dict:
    """Sum a span table over parents into the per-layer metric values."""
    values = {name: 0 for name, _ in metric_names()}
    for row in spans:
        prefix = row["name"]
        values[f"{prefix}.calls"] += row["calls"]
        values[f"{prefix}.s"] += row["s"]
        values[f"{prefix}.self_s"] += row["self_s"]
        for key, v in row["counts"].items():
            values[f"{prefix}.{key}"] += v
    return values
