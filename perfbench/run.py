"""tsindep benchmark: drive the CLI in-process on one named workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload var_test --seed 1 --seconds 10 --trace 0

The benchmark generates its inputs from ``--seed``, runs one warm-up
round (its reports are the references every later op must match byte for
byte, and are checked against a recompute through the public API), then
timed rounds until ``--seconds`` have passed, at least one.  A round is one op per input pair of the workload.  Op
times are normalised to a nominal machine speed (see ``speed.py``); raw
wall times are kept in the detail record.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``tracing.py``) and reports per-layer metrics.
The detail record (environment, samples, failure tallies, report digest,
every traced layer metric, tracing overhead, layer-share checks) is the
next-to-last stdout line; the last line is the result object.
"""

from __future__ import annotations

import os
import sys

# Pin every thread pool before numpy is imported, and keep the CLI's own
# thread setting out of the workload.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TSINDEP_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_TIMEOUT_S = 120
NUMERICAL_EXIT = 3  # the CLI's documented exit code for numerical failures


def _declared_metrics(key):
    """{name: unit} of the metrics BENCHMARK.json lists under ``key``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _import_tsindep():
    """``import tsindep`` (numpy and scipy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", "import tsindep"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=IMPORT_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"importing tsindep failed:\n{proc.stderr}")


def _environment():
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}) for k in ("blas", "lapack")}
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = {"note": "numpy.show_config(mode='dicts') unavailable"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _run_op(op, tracer=None):
    """Run one CLI op: (exit code or None on a crash, wall seconds, speed, report)."""
    from tsindep.cli import main

    if os.path.exists(op.output):
        os.remove(op.output)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(op.argv)
            else:
                with tracer.root():
                    code = main(op.argv)
        except Exception:  # an op that crashes is a failed op, and the run goes on
            traceback.print_exc(file=sys.stderr)
            code = None
        wall = time.perf_counter() - start
    data = op.read_report() if code == 0 and os.path.exists(op.output) else None
    return code, wall, sampler.speed, data


def _setup(wl, seed):
    """Repeated set-up: a fresh ``import tsindep`` plus writing the inputs.

    Set-up time stays in wall seconds: import time does not follow the
    speed sampler's job (it is mostly file reads and module execution),
    so normalising it would add noise rather than remove it.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_tsindep()
        ops = wl.write_inputs(seed)
        samples.append(time.perf_counter() - start)
    return ops, samples


def _warm_up(wl, ops, seed):
    """One op per pair: (reference reports, normalised op seconds, problems, replaced).

    A pair on which the CLI exits with its numerical-failure code because
    the QMLE sits at the persistence boundary is replaced by the seed's next
    pair (``wl.at_boundary``), at most once per pair; ``ops`` is updated in
    place and each replacement is returned.
    """
    refs, seconds, problems, replaced = [], [], [], []
    next_draw = len(ops)
    for i in range(len(ops)):
        code, wall, speed, data = _run_op(ops[i])
        if code == NUMERICAL_EXIT and len(replaced) < len(ops) and wl.at_boundary(ops[i], seed):
            replaced.append({"slot": i, "draw": next_draw, "reason": "QMLE at the boundary"})
            ops[i] = wl.write_pair(seed, i, next_draw)
            next_draw += 1
            code, wall, speed, data = _run_op(ops[i])
        seconds.append(wall * speed)
        found = [f"warm-up op exited with {code}"] if data is None else wl.check(
            ops[i], json.loads(data), seed)
        problems.extend(f"pair {i}: {p}" for p in found)
        refs.append(None if found else data)
    return refs, seconds, problems, replaced


def _timed_rounds(wl, ops, refs, seconds, tracer):
    """Rounds until ``seconds`` have passed, at least one.

    Each round is a list of ``(normalised seconds, wall seconds, units)``
    per op, where units are the bootstrap replicates or Monte Carlo
    replications the op completed.
    """
    rounds, layer_rounds, problems = [], [], []
    tallies = {"units_attempted": 0, "units_failed": 0, "ops_attempted": 0, "ops_failed": 0}
    clock = time.perf_counter()
    while not rounds or time.perf_counter() - clock < seconds:
        this_round = []
        for i, op in enumerate(ops):
            code, wall, speed, data = _run_op(op, tracer)
            tallies["ops_attempted"] += 1
            if refs[i] is None or data != refs[i]:
                tallies["ops_failed"] += 1
                problems.append(f"pair {i}: op exited with {code} or its report differs")
            units = 0
            if data is not None:
                units, unit_attempts, unit_failures = wl.tally(json.loads(data))
                tallies["units_attempted"] += unit_attempts
                tallies["units_failed"] += unit_failures
            this_round.append((wall * speed, wall, units))
        rounds.append(this_round)
        if tracer is not None:
            spans, counts = tracer.take()
            if len(rounds) == 1:
                _write_spans(wl.name, spans)
            summary = tracing.summarize(spans, counts)
            layer_rounds.append(tracing.layer_metrics(summary, len(ops), set(tracer.absent)))
    return rounds, layer_rounds, tallies, problems


def _per_op_seconds(rounds, column):
    """Per pair the median over rounds, then the mean over pairs."""
    n_pairs = len(rounds[0])
    return statistics.fmean(
        statistics.median(r[i][column] for r in rounds) for i in range(n_pairs))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (SRC / "tsindep" / "__init__.py").is_file():
        print(f"no tsindep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tsindep

    if not Path(tsindep.__file__).resolve().is_relative_to(SRC):
        print(f"tsindep imported from {tsindep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(workloads.WORK_DIR, exist_ok=True)

    ops, setup = _setup(wl, args.seed)
    refs, warm_seconds, problems, replaced = _warm_up(wl, ops, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        rounds, layer_rounds, tallies, op_problems = _timed_rounds(
            wl, ops, refs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems += op_problems

    test_s = _per_op_seconds(rounds, 0)
    failed_ops = tallies["ops_failed"] + sum(1 for ref in refs if ref is None)
    attempted_ops = tallies["ops_attempted"] + len(ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "pairs": len(ops),
        "rounds": len(rounds),
        "test_s_samples": sum(len(r) for r in rounds),
        "test_wall_s": _per_op_seconds(rounds, 1),
        "op_seconds_by_round": [[[norm, wall] for norm, wall, _ in r] for r in rounds],
        "setup_samples_s": setup,
        "replaced_pairs": replaced,
        "failed_share": (tallies["units_failed"] + failed_ops)
        / (tallies["units_attempted"] + attempted_ops),
        "tallies": tallies,
        "report_sha256": hashlib.sha256(b"".join(ref or b"" for ref in refs)).hexdigest(),
        "recorded_sha256": _recorded_digest(args.workload, args.seed),
        "problems": problems[:20],
    }
    if tracer is not None:
        measured = _median_layers(layer_rounds)
        measured["trace.overhead_ratio"] = test_s / statistics.fmean(warm_seconds)
        measured[wl.failed_metric] = tallies["units_failed"] / tallies["ops_attempted"]
        detail.update(
            layers=measured,
            counts_repeat_across_rounds=_counts_repeat(layer_rounds),
            absent_boundaries=tracer.absent,
            shares=wl.share_check(measured),
        )
    else:
        measured = {
            "test_s": test_s,
            "replications_per_s": statistics.median(
                sum(units for _, _, units in r) / sum(norm for norm, _, _ in r) for r in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = _declared_metrics("per_layer" if tracer is not None else "end_to_end")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted_ops,
        "failed": failed_ops,
        "metrics": {m: {"value": measured[m], "unit": unit}
                    for m, unit in declared.items() if m in measured},
    }
    print(json.dumps(result))
    return 0


def _median_layers(layer_rounds):
    """Median per metric over rounds; a metric missing from any round is dropped."""
    names = set.intersection(*(set(r) for r in layer_rounds))
    return {m: statistics.median(r[m] for r in layer_rounds) for m in sorted(names)}


def _counts_repeat(layer_rounds):
    """Whether every count metric is the same in every traced round."""
    counts = [{m: v for m, v in r.items() if not m.endswith(("_s", "_ratio"))}
              for r in layer_rounds]
    return all(c == counts[0] for c in counts)


def _recorded_digest(workload, seed):
    """The report digest recorded for this workload and seed, if any."""
    path = Path(__file__).resolve().parent / "digests.json"
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return None
    return recorded.get(workload, {}).get(str(seed))


def _write_spans(workload, spans):
    """Write one traced round's spans, times relative to its first span."""
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, start - t0, end - t0, parent] for name, start, end, parent in spans]
    path = os.path.join(workloads.WORK_DIR, f"{workload}-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(main())
