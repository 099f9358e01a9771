"""One benchmark sample in a fresh interpreter, so every module cache is cold.

Sets nclift up from the checkout's ``src/`` (imports plus the module-level
rack, automorphism and coset-enumerated group builds), runs one workload
once, checks its outputs and prints one JSON line.  ``run.py`` starts this
script; run it by hand as

    python3 bench/sample.py --workload certify --seed 1 --index 0 --trace 0
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def reference_s() -> float:
    """Wall time of a fixed pure-Python task much like nclift's inner loops
    (tuple slicing, dict updates, big-int XOR, Fraction sums).

    The host's load can slow everything down by half for minutes at a time;
    dividing a sample's time by this one, taken in the same process, removes
    most of that drift from ``run_ref``.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    bits, total = 0, Fraction(0)
    for i in range(150_000):
        w = (i % 7, i % 5, i % 3, i % 11)
        counts[w[1:] + w[:1]] = counts.get(w, 0) + 1
        bits ^= i << (i % 64)
        if i % 16 == 0:
            total += Fraction(i % 13, 7)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    sys.path.insert(0, str(SRC))
    # set-up imports every module, so its time covers them all and the
    # tracer finds every name it patches
    import nclift
    from nclift import classify, cli, fk3, fulcrum, jordan, ncpoly, rackgroup, rewrite  # noqa: F401
    if not Path(nclift.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nclift from {nclift.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    rackgroup.s3_quotient()
    setup_s = time.monotonic() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.index)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    ref_before = reference_s()
    try:
        run_s, outputs = workloads.execute(inputs, workdir)
    finally:
        shutil.rmtree(workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s = (ref_before + reference_s()) / 2
    ops = workloads.check(inputs, outputs)
    doc = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for _, ok, _ in ops if not ok),
        "failures": [[name, detail] for name, ok, detail in ops if not ok],
        # traced and untraced samples of the same inputs must agree on this
        "digest": hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest(),
    }
    if "fk-stress" in inputs:
        doc["caps"] = {fx["name"]: fx["presentation"]["degree_cap"]
                       for fx in inputs["fk-stress"]["fixtures"]}
    if tracer is not None:
        doc["spans"] = tracer.spans()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
