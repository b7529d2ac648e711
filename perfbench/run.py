"""Benchmark of quasivac: minimize and report on fixed problem sets.

    python3 perfbench/run.py --workload corpus|dense|report --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (closed loop, one process, one
thread, one problem after another):

- ``corpus``: the 20-problem acceptance corpus through ``minimize``;
- ``dense``: dense two-body Hamiltonians through ``minimize``, one start;
- ``report``: ``cli.run`` (parse, minimize, certify, Fock oracle, JSON report
  on disk) on the example specs and the corpus's quadratic problems.

A run repeats whole rounds over its workload's problems, in an order drawn
from the seed, while the next round is expected to end within ``--seconds``
(at least one round).  Every output is then checked by ``check.py``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics without
tracing, the per-layer metrics (per round) with ``--trace 1``.  Times are
reported in reference seconds: measured times scaled by the machine speed
sampled through the timed phase (see ``speed.py``); the line before the JSON
gives the measured times and the scale factor.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy is first imported: with two the
# corpus time varied by 22% between back-to-back runs, with one by 4%.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import quasivac  # noqa: E402

if not os.path.abspath(quasivac.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"quasivac was imported from {quasivac.__file__}, not from {SRC}")

from quasivac import cli, minimize  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Input generation is repeated this many times in set-up; the median counts.
SETUP_REPEATS = 3

#: Faults behind the operations that fail today, by problem name.
KNOWN_FAULTS = {
    "corpus-105": "certify raises DimensionCapError (6859 > 4096 states) on a converged "
                  "minimum and cli.run reports status 'error'",
    "corpus-107": "certification fails on a correct minimum: the FD tolerance floor in "
                  "certify is an absolute 1e-6, below the fd_step**2 error of the "
                  "central difference at fd_step=1e-3",
}


def build(workload: str) -> list:
    if workload == "corpus":
        return inputs.corpus_problems()
    if workload == "dense":
        return inputs.dense_problems()
    return inputs.report_specs(ROOT, os.path.join(OUT, "specs"))


def solve(workload: str, item, call):
    """One timed operation; returns the program's output."""
    if workload == "report":
        return call("cli.run", cli.run, item.path, item.mode, tol=inputs.REPORT_TOL,
                    report_path=os.path.join(OUT, "reports", f"{item.name}.json"))
    return call("variational.minimize", minimize, item.h, item.mode, item.opts)


def failure(workload: str, out) -> str | None:
    """Why the program itself reports an operation as failed, or None."""
    if workload != "report":
        return None
    if out["status"] == "error":
        return f"{out['error']['type']}: {out['error']['message']}"
    cert = out.get("certification")
    if cert is not None and not cert["passed"]:
        failed = [k for k in ("fd_check", "quadratic_check", "gauge_check")
                  if cert[k] is not None and not cert[k]["passed"]]
        return "certification failed: " + ", ".join(failed)
    return None


def outcome(workload: str, out) -> check.Outcome:
    return check.outcome_of_report(out) if workload == "report" else check.outcome_of_result(out)


def same(a: check.Outcome, b: check.Outcome) -> bool:
    fields = ("energy", "spectrum", "u", "v", "shift")
    return a.status == b.status and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in fields
    )


def verify(workload: str, items: list, outputs: list[list]) -> list[str]:
    """Check the first round independently and every later round against it."""
    errs = []
    first = [outcome(workload, out) for out in outputs[0]]
    for item, out, got in zip(items, outputs[0], first):
        if failure(workload, out) is not None:
            continue
        if workload == "report":
            path = os.path.join(OUT, "reports", f"{item.name}.json")
            with open(path, "r", encoding="utf-8") as fh:
                if not same(check.outcome_of_report(json.load(fh)), got):
                    errs.append(f"{item.name}: report file differs from the returned report")
            h = check.Hamiltonian.from_spec(item.path)
        else:
            h = check.Hamiltonian.from_poly(item.h)
        errs += check.check(h, got, item.name)
    for k, round_outputs in enumerate(outputs[1:], start=2):
        for item, out, ref in zip(items, round_outputs, first):
            if not same(outcome(workload, out), ref):
                errs.append(f"{item.name}: round {k} differs from round 1")
    return errs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "dense", "report"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workload = args.workload
    os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)

    imported = time.perf_counter() - START
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = build(workload)
        builds.append(time.perf_counter() - t0)
    items = inputs.ordered(items, args.seed)
    # Warm-up on a small problem, so lazy set-up is not timed.
    t0 = time.perf_counter()
    warm = inputs.corpus_problems()[0]
    minimize(warm.h, warm.mode, warm.opts)
    if workload == "report":
        warm = next(it for it in items if it.name == "squeezed_oscillator")
        cli.run(warm.path, warm.mode, tol=inputs.REPORT_TOL)
    setup_s = imported + statistics.median(builds) + time.perf_counter() - t0

    probe = SpeedProbe()
    clock = probe.clock
    tracer = Tracer(clock) if args.trace else None
    if tracer is None:
        def call(_name, fn, *a, **k):
            return fn(*a, **k)
    else:
        call = tracer.call
        tracer.install()

    outputs: list[list] = []
    round_s: list[float] = []
    problem_s: list[float] = []
    try:
        with probe:
            began = clock()
            while True:
                r0 = clock()
                outs = []
                for item in items:
                    if tracer is not None:
                        tracer.problem = f"{len(outputs) + 1}:{item.name}"
                    t0 = clock()
                    outs.append(solve(workload, item, call))
                    problem_s.append(clock() - t0)
                round_s.append(clock() - r0)
                outputs.append(outs)
                if clock() - began + round_s[-1] > args.seconds:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    scale = probe.scale()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons = [[failure(workload, out) for out in outs] for outs in outputs]
    for item, why in zip(items, reasons[0]):
        if why is not None:
            fault = KNOWN_FAULTS.get(item.name, "no known fault")
            print(f"failed: {item.name}: {why} ({fault})")
    errs = verify(workload, items, outputs)
    for err in errs:
        print(f"incorrect: {err}")

    wall_s = statistics.median(round_s)
    print(f"measured: setup_s={setup_s} wall_s={wall_s} "
          f"problem_p50_s={statistics.median(problem_s)} rounds={len(outputs)} scale={scale}")
    if tracer is None:
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "wall_s": (wall_s * scale, "s"),
            "problem_p50_s": (statistics.median(problem_s) * scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(os.path.join(OUT, f"trace-{workload}-{args.seed}.jsonl"))
        metrics = {}
        for name, value in tracer.layer_metrics(len(outputs)).items():
            if name.endswith("_s"):
                metrics[name] = (value * scale, "s")
            else:
                metrics[name] = (value, "count")
        metrics["traced_wall_s"] = (wall_s * scale, "s")
    result = {
        "correct": not errs,
        "attempted": len(outputs) * len(items),
        "failed": sum(why is not None for whys in reasons for why in whys),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
