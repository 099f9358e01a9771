"""Benchmark runner for nclift: one workload, one seed, a fixed time budget.

    python3 bench/run.py --workload certify --seed 1 --seconds 60 --trace 0

Each sample runs in a fresh interpreter (``sample.py``), so every module
cache starts cold, as it does for a CLI user.  Sample ``k`` of a run uses the
inputs of (workload, seed, k).  With ``--trace 0`` the run reports the
end-to-end metrics as medians over its samples; with ``--trace 1`` it runs
traced and untraced samples in pairs on the same inputs and reports the
per-layer metrics of the traced ones, the tracing overhead, and whether the
two sides produced identical outputs.  The last line of standard output is
one JSON object; the lines before it print every metric by name and unit.
See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

WORKLOADS = ("certify", "engine")
MIN_SAMPLES = 3          # untraced samples per run, whatever the budget
MIN_PAIRS = 2            # traced/untraced pairs per traced run
SETUP_PROBES = 5         # extra set-up-only interpreters per untraced run
RUN_LIMIT_S = 170        # a run never outlasts this, samples included

#: metrics of the JSON line, with units: end-to-end with --trace 0,
#: per-layer with --trace 1.  ``run_s`` (wall seconds) is printed too, but
#: the host's load moves it by half for minutes at a time, so the bounded
#: metric is ``run_ref``, the same time in units of a reference task.
END_TO_END = {"run_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = dict(tracing.metric_names(), **{
    "trace.plain_run_s": "s", "trace.run_s": "s", "trace.overhead_s": "s"})


def _child_env() -> dict:
    env = dict(os.environ)
    # the presentations carry their own caps; the override must stay unset
    env.pop("FULCRUM_DEGREE_CAP", None)
    # fixed string hashing, so set and dict orders repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list, deadline: float) -> dict:
    """Run sample.py once; a crash or timeout becomes one failed operation."""
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "sample.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def _room(start: float, walls: list, seconds: float) -> bool:
    """Whether another sample ends, on the median so far, within half a
    sample of the time budget."""
    typical = statistics.median(walls) if walls else 0.0
    return time.monotonic() - start + typical / 2 < seconds


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _meta(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "git_commit": _git_commit()}


def _sample_args(args, index: int, trace: int) -> list:
    return ["--workload", args.workload, "--seed", str(args.seed),
            "--index", str(index), "--trace", str(trace)]


def _tally(sample: dict, totals: dict) -> None:
    if "crashed" in sample:
        totals["attempted"] += 1
        totals["failed"] += 1
        totals["failures"].append(["sample", sample["crashed"]])
        return
    totals["attempted"] += sample["attempted"]
    totals["failed"] += sample["failed"]
    totals["failures"] += sample["failures"]


def _untraced_run(args, start: float, deadline: float, totals: dict) -> tuple:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], deadline)
        if "crashed" not in probe:
            setups.append(probe["setup_s"])
    samples, walls = [], []
    while len(samples) < MIN_SAMPLES or _room(start, walls, args.seconds):
        if time.monotonic() >= deadline:
            break
        t0 = time.monotonic()
        sample = _spawn(_sample_args(args, len(samples), 0), deadline)
        walls.append(time.monotonic() - t0)
        _tally(sample, totals)
        samples.append(sample)
    good = [s for s in samples if "crashed" not in s]
    setups += [s["setup_s"] for s in good]
    if not good:
        return {}, samples
    values = {
        "run_ref": [s["run_s"] / s["ref_s"] for s in good],
        "setup_s": setups,
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    metrics["run_s"] = ([s["run_s"] for s in good], "s")
    return metrics, samples


def _traced_run(args, start: float, deadline: float, totals: dict) -> tuple:
    pairs, walls = [], []
    while len(pairs) < MIN_PAIRS or _room(start, walls, args.seconds):
        if time.monotonic() >= deadline:
            break
        t0 = time.monotonic()
        index = len(pairs)
        # alternate which side goes first, so drift does not favour one side
        order = (0, 1) if index % 2 == 0 else (1, 0)
        runs = {trace: _spawn(_sample_args(args, index, trace), deadline)
                for trace in order}
        for trace in order:
            _tally(runs[trace], totals)
        plain, traced = runs[0], runs[1]
        if "crashed" not in plain and "crashed" not in traced:
            totals["attempted"] += 1
            if plain["digest"] != traced["digest"]:
                totals["failed"] += 1
                totals["failures"].append(["trace", f"sample {index}: traced outputs differ"])
        pairs.append((plain, traced))
        walls.append(time.monotonic() - t0)
    good = [(p, t) for p, t in pairs if "crashed" not in p and "crashed" not in t]
    if not good:
        return {}, pairs
    values = [tracing.layer_metrics(t["spans"]) for _, t in good]
    for (plain, traced), v in zip(good, values):
        v["trace.plain_run_s"] = plain["run_s"]
        v["trace.run_s"] = traced["run_s"]
        v["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    metrics = {name: ([v[name] for v in values], unit) for name, unit in PER_LAYER.items()}
    return metrics, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nclift benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result, samples and spans, to this JSON file")
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running sample instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nclift" / "__init__.py").is_file():
        print(f"error: no nclift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    totals = {"attempted": 0, "failed": 0, "failures": []}
    run = _traced_run if args.trace else _untraced_run
    metrics, samples = run(args, start, deadline, totals)
    meta = _meta(args)
    if not metrics:
        print(f"error: every sample crashed: {totals['failures'][:3]}", file=sys.stderr)
        return 1

    print(f"nclift bench: workload {args.workload}, seed {args.seed}, "
          f"{len(samples)} {'pairs' if args.trace else 'samples'}, "
          f"{time.monotonic() - start:.1f} s")
    for name, (values, unit) in metrics.items():
        q1, med, q3 = _quartiles(values)
        print(f"  {name:44s} {med:14.6g} {unit:6s} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    ratio = totals["failed"] / totals["attempted"] if totals["attempted"] else 1.0
    print(f"  {'fail_ratio':44s} {ratio:14.6g} {'ratio':6s} "
          f"({totals['failed']} of {totals['attempted']} operations)")
    for name, detail in totals["failures"][:10]:
        print(f"  FAILED {name}: {detail}")
    print("  meta " + json.dumps(meta, sort_keys=True))

    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        # counts take an observed value, times the plain median
        "metrics": {name: {"value": (statistics.median_low if unit == "count"
                                     else statistics.median)(values), "unit": unit}
                    for name, (values, unit) in metrics.items()
                    if name in END_TO_END or name in PER_LAYER},
    }
    if args.out:
        doc = {"meta": meta, "result": result, "fail_ratio": ratio,
               "failures": totals["failures"],
               "values": {name: values for name, (values, _) in metrics.items()},
               "samples": samples}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
