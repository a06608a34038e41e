"""Acceptance suite: every gate the library must clear, at desk scale.

Monte Carlo gates run 200 replications with B=199 bootstrap replicates
(100 replications for the conditional-variance pipeline), which keeps the
whole module within a few minutes on two workers.  Each test prints one
pass/fail line (visible with ``pytest -s`` or ``-rA``).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chi2

from tsindep import (
    BootstrapConfig,
    EgpSpec,
    KernelSpec,
    McConfig,
    PairedResiduals,
    TestSpec,
    TsindepError,
    chi2_sf,
    cross_cov,
    fit_ccc_garch,
    fit_var,
    gram_matrix,
    hsic_v,
    hsic_v_reference,
    norm_sf,
    run_monte_carlo,
    single_stat,
    write_csv,
)
from tsindep.cli import main as cli_main
from tsindep.crosscorr import daniell
from tsindep.models import (
    _garch_curvature,
    _simulate_garch,
    _simulate_var,
    garch_loglik_terms,
)
from tsindep.simlab import GARCH_PAIR_THETA, VAR_PAIR_COEF

GAUSS = KernelSpec.gaussian(1.0)
MASTER_SEED = 1
WORKERS = 2


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {detail}: {status}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared Monte Carlo runs
# ---------------------------------------------------------------------------


def table1_config(egp_id, tests, replications=200):
    return McConfig(
        dgp="var",
        egp=EgpSpec.from_id(egp_id),
        n=100,
        replications=replications,
        tests=tests,
        bootstrap=BootstrapConfig(n_replicates=199, master_seed=0),
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )


@pytest.fixture(scope="session")
def egp1_run():
    tests = (
        TestSpec("hsic_single", 1, 0),
        TestSpec("g", lag=3),
        TestSpec("w", bandwidth="h1"),
    )
    return run_monte_carlo(table1_config(1, tests))


@pytest.fixture(scope="session")
def egp2_run():
    return run_monte_carlo(table1_config(2, (TestSpec("hsic_single", 1, 0),)))


@pytest.fixture(scope="session")
def egp4_run():
    tests = (TestSpec("hsic_single", 2, 3), TestSpec("hsic_single", 1, 3))
    return run_monte_carlo(table1_config(4, tests))


@pytest.fixture(scope="session")
def garch_run():
    cfg = McConfig(
        dgp="ccc_garch",
        egp=EgpSpec.from_id(2),
        n=200,
        replications=100,
        tests=(TestSpec("hsic_single", 1, 0), TestSpec("l", lag=3)),
        bootstrap=BootstrapConfig(n_replicates=199, master_seed=0, estimator_mode="auto"),
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    return run_monte_carlo(cfg)


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence of the two HSIC estimator forms
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(314)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        sigma = float(rng.uniform(0.5, 2.0))
        spec = KernelSpec.gaussian(sigma)
        k = gram_matrix(spec, rng.normal(size=(n, 2))).values
        l = gram_matrix(spec, rng.normal(size=(n, 3))).values
        fast = hsic_v(k, l)
        ref = hsic_v_reference(k, l)
        rel = abs(fast - ref) / max(abs(ref), 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"centered vs literal-sum HSIC, 100 instances: max rel err {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: exact identities
# ---------------------------------------------------------------------------


def test_criterion_2_exact_identities():
    rng = np.random.default_rng(2718)
    start = time.time()
    ok = True
    for _ in range(20):
        res = PairedResiduals(rng.normal(size=(40, 2)), rng.normal(size=(40, 2)))
        ok &= single_stat(res, 0, 1, GAUSS, GAUSS) == single_stat(res, 0, 2, GAUSS, GAUSS)
    base_res = PairedResiduals(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
    base = single_stat(base_res, 0, 1, GAUSS, GAUSS)
    for _ in range(20):
        perm = rng.permutation(30)
        shuffled = single_stat(
            PairedResiduals(base_res.eta1[perm], base_res.eta2[perm]), 0, 1, GAUSS, GAUSS
        )
        ok &= abs(shuffled - base) <= 1e-12 * abs(base)
    for _ in range(20):
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 3))
        for m in range(4):
            ok &= np.array_equal(cross_cov(a, b, -m), cross_cov(b, a, m).T)
    elapsed = time.time() - start
    report(
        2,
        ok and elapsed < 5.0,
        f"lag-0 direction identity (bitwise), permutation invariance, "
        f"cross-covariance reflection ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# Criteria 3-6: benchmark VAR system at desk scale
# ---------------------------------------------------------------------------


def test_criterion_3_null_calibration(egp1_run):
    rate = egp1_run.rate("S1(0)", 0.05)
    report(3, 0.01 <= rate <= 0.10, f"EGP1 size of S1(0) at 5%: {rate:.3f} in [0.01, 0.10]")


def test_criterion_3b_null_bands_all_levels(egp1_run):
    # Companion calibration check: 3-standard-error binomial bands around
    # every nominal level, over the same 200 replications.
    ok = True
    msgs = []
    for alpha in (0.01, 0.05, 0.10):
        rate = egp1_run.rate("S1(0)", alpha)
        half = 3.0 * math.sqrt(alpha * (1.0 - alpha) / 200.0)
        ok &= max(0.0, alpha - half) <= rate <= alpha + half
        msgs.append(f"{alpha:.2f}->{rate:.3f}")
    report(3, ok, "EGP1 size within 3-SE bands at 1/5/10% (" + ", ".join(msgs) + ")")


def test_criterion_4_power_linear_dependence(egp2_run):
    rate = egp2_run.rate("S1(0)", 0.05)
    report(4, rate >= 0.50, f"EGP2 power of S1(0) at 5%: {rate:.3f} >= 0.50")


def test_criterion_5_directional_asymmetry(egp4_run):
    power = egp4_run.rate("S2(3)", 0.05)
    size = egp4_run.rate("S1(3)", 0.05)
    report(
        5,
        power >= 0.60 and size <= 0.15,
        f"EGP4: S2(3) power {power:.3f} >= 0.60 and S1(3) size {size:.3f} <= 0.15",
    )


def test_criterion_6_competing_test_sizes(egp1_run):
    g_rate = egp1_run.rate("G1(3)", 0.05)
    w_rate = egp1_run.rate("W1(h1)", 0.05)
    ok = 0.005 <= g_rate <= 0.11 and 0.005 <= w_rate <= 0.11
    report(6, ok, f"EGP1 sizes at 5%: G1(3) {g_rate:.3f}, W1(h1) {w_rate:.3f} in [0.005, 0.11]")


# ---------------------------------------------------------------------------
# Criterion 7: conditional-variance pipeline with the one-step bootstrap
# ---------------------------------------------------------------------------


def test_criterion_7_garch_pipeline(garch_run):
    power = garch_run.rate("S1(0)", 0.05)
    l_rate = garch_run.rate("L1(3)", 0.05)
    report(
        7,
        power >= 0.90 and l_rate <= 0.40,
        f"EGP2 conditional-variance: S1(0) power {power:.3f} >= 0.90, "
        f"L1(3) {l_rate:.3f} <= 0.40",
    )


# ---------------------------------------------------------------------------
# Criterion 8: special functions against quadrature oracles
# ---------------------------------------------------------------------------


def test_criterion_8_special_functions():
    worst = 0.0
    for df in (1, 2, 5, 10, 28):
        for x in np.linspace(0.1, 4.0 * df, 10):
            def density(t, df=df):
                return (
                    t ** (df / 2.0 - 1.0)
                    * math.exp(-t / 2.0)
                    / (2 ** (df / 2.0) * math.gamma(df / 2.0))
                )

            oracle, _ = integrate.quad(density, float(x), np.inf, limit=400)
            worst = max(worst, abs(chi2_sf(float(x), df) - oracle))
    for z in np.linspace(-5.0, 5.0, 50):
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), float(z), np.inf, limit=400
        )
        worst = max(worst, abs(norm_sf(float(z)) - oracle))

    total_sq = sum(
        integrate.quad(lambda z: daniell(z) ** 2, j, j + 1, limit=100)[0] for j in range(2000)
    )
    a1 = 2.0 * (total_sq + 1.0 / (2.0 * math.pi**2 * 2000))
    total_q = sum(
        integrate.quad(lambda z: daniell(z) ** 4, j, j + 1, limit=100)[0] for j in range(300)
    )
    b1 = 2.0 * (total_q + (3.0 / 8.0) / (math.pi**4 * 3.0 * 300**3))
    ok = worst <= 1e-8 and abs(a1 - 1.0) < 1e-6 and abs(b1 - 2.0 / 3.0) < 1e-6
    report(
        8,
        ok,
        f"chi2/normal tails within {worst:.1e} of quadrature; Daniell constants "
        f"A1={a1:.8f} (1), B1={b1:.8f} (2/3)",
    )


# ---------------------------------------------------------------------------
# Criterion 9: estimator recovery
# ---------------------------------------------------------------------------


def test_criterion_9_estimator_recovery():
    rng = np.random.default_rng(99)
    ok_var = True
    for coef in VAR_PAIR_COEF:
        e = rng.normal(size=(2500, 2))
        data = _simulate_var(coef, 1, False, e)[500:]
        fit = fit_var(data, p=1, intercept=False)
        ok_var &= np.abs(fit.coef - coef).max() <= 0.1

    # CCC-GARCH: the Gaussian QMLE must be a global maximizer (it beats the
    # truth's likelihood on every seed) and land inside the 99.9% Wald
    # ellipse n (theta_hat - theta)' I(theta) (theta_hat - theta) <= chi2_7.
    # The observed information is taken at the truth on each seed's data, so
    # a fit that wanders off cannot widen its own ellipse.  A box of fixed
    # width is no substitute: at n = 2000 the sd of beta is ~0.14 along the
    # omega-beta ridge while that of alpha is ~0.026 and of rho ~0.017.
    theta = GARCH_PAIR_THETA[0]
    limit = chi2.ppf(0.999, theta.size)
    hits = 0
    failed = []
    worst_w, worst_w_seed = -np.inf, None
    min_margin, min_margin_seed = np.inf, None
    for seed in range(20):
        local = np.random.default_rng(1000 + seed)
        data = _simulate_garch(theta, local.normal(size=(2500, 2)), mixed=True)[500:]
        try:
            fit = fit_ccc_garch(data, seed=seed)
        except TsindepError as exc:
            failed.append(f"{1000 + seed} {type(exc).__name__}")
            continue
        v_init = data.var(axis=0)
        margin = fit.loglik - garch_loglik_terms(theta, data, v_init).sum()
        err = fit.theta - theta
        wald = data.shape[0] * err @ _garch_curvature(theta, data, v_init) @ err
        if margin < min_margin:
            min_margin, min_margin_seed = margin, 1000 + seed
        if wald > worst_w:
            worst_w, worst_w_seed = wald, 1000 + seed
        if wald <= limit:
            hits += 1
    report(
        9,
        ok_var and min_margin >= 0 and hits >= 18,
        f"VAR(1) coefficients within 0.1 ({'ok' if ok_var else 'FAIL'}); "
        f"CCC-GARCH Wald <= chi2_7(0.999) = {limit:.2f} for {hits}/20 seeds "
        f"(need 18; max W {worst_w:.2f} at seed {worst_w_seed}); "
        f"loglik margin over truth min {min_margin:.2f} at seed {min_margin_seed} "
        f"(need >= 0); "
        f"typed fit errors: {failed or 'none'}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical reports for any thread count
# ---------------------------------------------------------------------------


def _cli_bytes(args, tmp_path, name):
    out = tmp_path / name
    code = cli_main(args + ["--output", str(out)])
    assert code == 0
    return out.read_bytes()


def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(10)
    coef = np.array([[0.3, 0.0], [0.1, 0.2]])
    y1 = _simulate_var(coef, 1, False, rng.normal(size=(180, 2)))[100:]
    y2 = _simulate_var(coef, 1, False, rng.normal(size=(180, 2)))[100:]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, y1)
    write_csv(p2, y2)
    io = ["--series1", str(p1), "--series2", str(p2)]

    ok = True
    commands = {
        "test": ["test", *io, "-B", "29", "--lag", "0", "--max-lag", "2", "--seed", "5"],
        "fit": ["fit", *io, "--seed", "5"],
        "lagscan": ["lagscan", *io, "--max-lag", "2", "-B", "29", "--seed", "5"],
        "simulate": [
            "simulate", "--dgp", "var", "--egp", "1", "-n", "60",
            "--replications", "3", "--tests", "S1:0,J1:2", "-B", "19", "--seed", "5",
        ],
    }
    for name, args in commands.items():
        blobs = [
            _cli_bytes(args + ["--threads", str(t)], tmp_path, f"{name}-{t}.json")
            for t in (1, 4, 8)
        ]
        same = blobs[0] == blobs[1] == blobs[2]
        ok &= same
        if not same:
            print(f"  {name}: outputs differ across thread counts")
    report(10, ok, "test/fit/lagscan/simulate byte-identical for threads 1, 4, 8")
