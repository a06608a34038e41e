"""The benchmark's workloads: inputs made from a seed, CLI flags, output checks.

Each workload runs ``pairs`` CLI ops per round.  An op sees only the CSV
paths and flags the workload builds; the paper's fixed benchmark systems
(``gen_var_pair`` / ``gen_garch_pair`` driven by EGP 1) generate the data.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORK_DIR = ".perfbench_work"
REL_TOL = 1e-10
ALPHAS = (0.01, 0.05, 0.1)
BUDGET = 0.02  # the package's failure budget for replicates and replications
COMPETITORS = ("G", "L", "T", "W")
MC_REPLICATIONS = 10
MC_TESTS = "S1:0,J1:3,G1:3,W1:h1,L1:3,T1:3"


class Op:
    """One CLI invocation: its arguments, report path and input CSVs."""

    def __init__(self, argv, output, inputs=None):
        self.argv = argv
        self.output = output
        self.inputs = inputs or []

    def read_report(self):
        with open(self.output, "rb") as fh:
            return fh.read()


class TestWorkload:
    """``tsindep test`` on CSV pairs drawn from one of the fixed systems."""

    failed_metric = "bootstrap.replicates_failed"

    def __init__(self, name, dgp, n, pairs, flags, hsic_names, share_check):
        self.name = name
        self.dgp = dgp
        self.n = n
        self.pairs = pairs
        self.flags = flags
        self.hsic_names = hsic_names
        self.share_check = share_check

    def write_inputs(self, seed):
        """Generate and write every input CSV; returns the ops of one round."""
        return [self.write_pair(seed, slot, slot) for slot in range(self.pairs)]

    def write_pair(self, seed, slot, draw):
        """Write input pair number ``draw`` of this seed into ``slot``; returns its op."""
        from tsindep import EgpSpec, egp_innovations, gen_garch_pair, gen_var_pair, write_csv

        gen = gen_var_pair if self.dgp == "var" else gen_garch_pair
        burn_in = 500
        rng = np.random.default_rng([seed, draw])
        innov = egp_innovations(EgpSpec.from_id(1), self.n + burn_in, rng)
        y1, y2 = gen(innov, burn_in)
        paths = [os.path.join(WORK_DIR, f"{self.name}-{slot}-{s}.csv") for s in (1, 2)]
        write_csv(paths[0], y1)
        write_csv(paths[1], y2)
        output = os.path.join(WORK_DIR, f"{self.name}-{slot}.json")
        argv = ["test", "--series1", paths[0], "--series2", paths[1], *self.flags,
                "--seed", str(seed), "--threads", "1", "--output", output]
        return Op(argv, output, paths)

    def at_boundary(self, op, seed):
        """Whether the public QMLE puts either series of ``op`` at the persistence boundary.

        At n = 200 about 1% of the paper's GARCH pairs have a likelihood
        that peaks at alpha + beta = 1; the CLI then ends with its
        documented exit code 3.  Such a pair is not the workload the
        benchmark measures, so the run replaces it with the seed's next
        pair and records that it did.
        """
        from tsindep import BoundaryError, fit_ccc_garch, read_csv

        if self.dgp != "ccc_garch":
            return False
        try:
            for k, path in enumerate(op.inputs):
                fit_ccc_garch(read_csv(path), seed=seed + k)
        except BoundaryError:
            return True
        return False

    def tally(self, report):
        """(units completed, replicates attempted, replicates failed) of one report."""
        hsic = [t for t in report["tests"] if t["name"] in self.hsic_names]
        failed = max(t["n_failed"] for t in hsic)
        attempted = int(report["provenance"]["config"]["B"])
        return attempted - failed, attempted, failed

    def check(self, op, report, seed):
        """Problems found in one report, recomputing every HSIC value."""
        from tsindep import (KernelSpec, fit_ccc_garch, fit_var, joint_stat,
                             paired_residuals, read_csv, scaled_stat, single_stat)

        problems = []
        names = [t["name"] for t in report["tests"]]
        if sorted(n for n in names if n in self.hsic_names) != sorted(self.hsic_names):
            problems.append(f"HSIC tests {names} differ from {self.hsic_names}")
        others = sorted(n[0] for n in names if n not in self.hsic_names)
        if others != sorted(COMPETITORS):
            problems.append(f"competitor tests {others} differ from {COMPETITORS}")
        for t in report["tests"]:
            if not 0.0 < t["p_value"] <= 1.0:
                problems.append(f"{t['name']}: p-value {t['p_value']} outside (0, 1]")

        y1, y2 = (read_csv(p) for p in op.inputs)
        if self.dgp == "var":
            fits = [fit_var(y, p=1, intercept=True) for y in (y1, y2)]
        else:
            fits = [fit_ccc_garch(y1, seed=seed), fit_ccc_garch(y2, seed=seed + 1)]
        for fit, summary in zip(fits, report["fits"]):
            if not _close(summary["theta"], fit.theta):
                problems.append(f"fitted theta {summary['theta']} != recomputed {fit.theta}")
        pair = paired_residuals(*fits)
        kernel = KernelSpec.gaussian(1.0)
        for t in report["tests"]:
            if t["name"] not in self.hsic_names:
                continue
            stat_fn = joint_stat if t["name"].startswith("J") else single_stat
            want = scaled_stat(stat_fn(pair, t["lag"], t["direction"], kernel, kernel), pair.n)
            if not _close([t["scaled"]], [want]):
                problems.append(f"{t['name']}: scaled {t['scaled']!r} != recomputed {want!r}")
        return problems


class McWorkload:
    """One ``tsindep simulate`` cell; the seed flag is its only input."""

    name = "var_mc"
    pairs = 1
    failed_metric = "simlab.replications_failed"

    def write_inputs(self, seed):
        output = os.path.join(WORK_DIR, f"{self.name}-0.json")
        argv = ["simulate", "--dgp", "var", "--egp", "1", "-n", "100", "-B", "199",
                "--replications", str(MC_REPLICATIONS), "--tests", MC_TESTS,
                "--seed", str(seed), "--threads", "1", "--output", output]
        return [Op(argv, output)]

    @staticmethod
    def share_check(layers):
        """Path simulation, drawing and VAR refit >= 10%; no GARCH metric."""
        value = _share(layers, "models.simulate_s", "bootstrap.draw_s", "models.var_refit_s")
        garch = sorted(m for m in layers if m.startswith("models.garch_"))
        return {"simulate_draw_refit": value, "garch_metrics_present": garch,
                "pass": value is not None and value >= 0.10 and not garch}

    def at_boundary(self, op, seed):
        return False

    def tally(self, report):
        summary = report["summary"]
        attempted, failed = summary["replications"], summary["failures"]
        return attempted - failed, attempted, failed

    def check(self, op, report, seed):
        summary = report["summary"]
        problems = []
        if summary["replications"] != MC_REPLICATIONS:
            problems.append(f"{summary['replications']} replications, expected {MC_REPLICATIONS}")
        if summary["failures"] > int(BUDGET * summary["replications"]):
            problems.append(f"{summary['failures']} failed replications exceed the budget")
        labels = [t.replace(":", "(") + ")" for t in MC_TESTS.split(",")]
        want = [(label, a) for label in labels for a in ALPHAS]
        got = [(row["test"], row["alpha"]) for row in summary["rows"]]
        if sorted(got) != sorted(want):
            problems.append(f"rejection table rows {got} differ from {want}")
        good = summary["replications"] - summary["failures"]
        for row in summary["rows"]:
            if row["replicates"] != good:
                problems.append(f"{row['test']}: {row['replicates']} replicates, expected {good}")
            if not 0.0 <= row["rejection_rate"] <= 1.0:
                problems.append(f"{row['test']}: rejection rate {row['rejection_rate']} outside [0, 1]")
        return problems


def _share(layers, *names):
    """Summed share of the traced op time, or None when a metric is absent."""
    if not all(n in layers for n in names):
        return None
    return sum(layers[n] for n in names) / layers["op_s"]


def _var_test_shares(layers):
    """Gram construction plus HSIC reduction >= 85% of the op."""
    value = _share(layers, "kernels.gram_s", "hsic.stat_s")
    return {"gram_plus_stat": value, "pass": value is not None and value >= 0.85}


def _garch_test_shares(layers):
    """GARCH QMLE fits >= 30% of the op, with the curvature measured."""
    value = _share(layers, "models.garch_fit_s")
    present = "models.garch_fit_curvature_s" in layers
    return {"garch_fit": value, "curvature_present": present,
            "pass": value is not None and value >= 0.30 and present}


def _close(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.isfinite(got).all():
        return False
    scale = max(float(np.abs(want).max()), math.ulp(1.0))
    return float(np.abs(got - want).max()) <= REL_TOL * scale


VAR_FLAGS = ["--lag", "0", "--lag", "3", "--max-lag", "5", "--direction", "both",
             "-B", "199", "--gtest", "5", "--ltest", "5", "--ttest", "5", "--wtest", "h1"]
GARCH_FLAGS = ["--model1", "ccc-garch", "--model2", "ccc-garch", "--lag", "0", "--max-lag", "2",
               "--direction", "1", "-B", "199", "--gtest", "5", "--ltest", "5", "--ttest", "5",
               "--wtest", "h1"]

WORKLOADS = {
    "var_test": TestWorkload(
        "var_test", "var", 500, 1, VAR_FLAGS, ["S1(0)", "S1(3)", "S2(3)", "J1(5)", "J2(5)"],
        _var_test_shares,
    ),
    # Six input pairs per round: the QMLE's iteration count, and with it the
    # op time, varies by +-15% with the data, so fewer pairs per run would
    # make test_s spread across seeds.
    "garch_test": TestWorkload(
        "garch_test", "ccc_garch", 200, 6, GARCH_FLAGS, ["S1(0)", "J1(2)"], _garch_test_shares
    ),
    "var_mc": McWorkload(),
}
