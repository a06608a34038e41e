"""Benchmark data-generating processes and the Monte Carlo size/power lab.

Innovations come from six error-generating processes (EGPs) built on a
6-dimensional Gaussian vector u = (u1, u2, u3', u4')' with block
covariance

    Omega = blockdiag-ish( Omega1 over (u1, u2),
                           [[Omega2, Omega4], [Omega4', Omega3]] over (u3, u4) ),

Omega_tau = [[1, rho_tau], [rho_tau, 1]] and Omega4 = rho4 * ones(2, 2).
EGP 1 is the independence null; EGP 2 adds lag-0 cross-correlation rho4
between every component pair of eta1 and eta2; EGPs 3-6 induce purely
non-linear dependence through shared (possibly lagged or correlated)
scalar co-factors.  Every EGP has unit component variances.

Two fixed bivariate systems turn innovations into observable data: a pair
of stable VAR(1) processes ('var') and a pair of constant-correlation
GARCH(1,1) processes ('ccc_garch').  The Monte Carlo driver fits working
models to each replication, runs the configured tests and aggregates
rejection frequencies.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._streams import MONTE_CARLO, substream
from .bootstrap import BootstrapConfig, bootstrap_run
from .crosscorr import g_test, l_test, t_test, w_test
from .exceptions import DataError, NumericalError, TsindepError
from .hsic import LagConfig
from .kernels import KernelSpec
from .models import (
    _simulate_garch,
    _simulate_var,
    fit_ccc_garch,
    fit_var,
    paired_residuals,
    psd_sqrt,
)

VAR_PAIR_COEF = (
    np.array([[0.4, 0.1], [-1.0, 0.5]]),
    np.array([[-1.5, 1.2], [-0.9, 0.5]]),
)
GARCH_PAIR_THETA = (
    np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.5]),
    np.array([0.3, 0.2, 0.4, 0.3, 0.2, 0.4, 0.6]),
)

DGP_KINDS = ("var", "ccc_garch")


@dataclass(frozen=True)
class EgpSpec:
    """One of the six error-generating processes.

    ``rho1`` is only used by EGPs 5-6 (correlation between the u1 and u2
    co-factors) and defaults to 0.8 there, 0 elsewhere; ``rho4`` is 0.3
    for EGP 2 and 0 otherwise.
    """

    id: int
    rho1: float = 0.0
    rho2: float = 0.5
    rho3: float = 0.75
    rho4: float = 0.0

    def __post_init__(self) -> None:
        if self.id not in range(1, 7):
            raise ValueError("EGP id must be in 1..6")
        for name in ("rho1", "rho2", "rho3"):
            if not -1.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (-1, 1)")

    @classmethod
    def from_id(cls, egp_id: int) -> "EgpSpec":
        rho1 = 0.8 if egp_id in (5, 6) else 0.0
        rho4 = 0.3 if egp_id == 2 else 0.0
        return cls(id=egp_id, rho1=rho1, rho4=rho4)

    def omega(self) -> np.ndarray:
        """The 6x6 covariance of u; PSD for every supported spec."""
        om = np.zeros((6, 6))
        om[0:2, 0:2] = [[1.0, self.rho1], [self.rho1, 1.0]]
        om[2:4, 2:4] = [[1.0, self.rho2], [self.rho2, 1.0]]
        om[4:6, 4:6] = [[1.0, self.rho3], [self.rho3, 1.0]]
        om[2:4, 4:6] = self.rho4
        om[4:6, 2:4] = self.rho4
        return om


def egp_innovations(spec: EgpSpec, n: int, rng: np.random.Generator):
    """Draw n paired innovation rows (eta1, eta2) from the given EGP.

    EGP 4 needs the co-factor three steps ahead, so it draws n + 3
    auxiliary vectors internally.
    """
    if n < 1:
        raise DataError("need at least one innovation row")
    n_aux = n + 3 if spec.id == 4 else n
    root = psd_sqrt(spec.omega())
    u = rng.standard_normal((n_aux, 6)) @ root
    u1, u2 = u[:, 0], u[:, 1]
    u3, u4 = u[:, 2:4], u[:, 4:6]
    if spec.id in (1, 2):
        return u3[:n].copy(), u4[:n].copy()
    shape_factor = (u1**2 + 1.0) / np.sqrt(6.0)
    if spec.id == 3:
        return shape_factor[:, None] * u3, np.abs(u1)[:, None] * u4
    if spec.id == 4:
        eta1 = shape_factor[:n, None] * u3[:n]
        eta2 = np.abs(u1[3 : 3 + n])[:, None] * u4[:n]
        return eta1, eta2
    if spec.id == 5:
        return shape_factor[:, None] * u3, np.abs(u2)[:, None] * u4
    return u1[:, None] * u3, u2[:, None] * u4


def gen_var_pair(innovations, burn_in: int = 500):
    """Drive the fixed stable VAR(1) pair with the supplied innovations.

    Both coefficient matrices have spectral radius < 1.  The first
    ``burn_in`` rows are discarded, so the output has ``len - burn_in``
    rows per series.
    """
    e1, e2 = innovations
    if e1.shape[0] <= burn_in:
        raise DataError("innovation sample shorter than the burn-in")
    y1 = _simulate_var(VAR_PAIR_COEF[0], 1, False, np.asarray(e1, dtype=float))
    y2 = _simulate_var(VAR_PAIR_COEF[1], 1, False, np.asarray(e2, dtype=float))
    return y1[burn_in:], y2[burn_in:]


def gen_garch_pair(innovations, burn_in: int = 500):
    """Drive the fixed conditional-variance pair with the supplied innovations.

    Each series follows Y_t = V_t^{1/2} eta_t with the symmetric PSD root
    of the full conditional covariance (correlations 0.5 and 0.6), so the
    innovation components are mixed through the correlation.  This is the
    mixed output form of the model simulator; the standard form
    Y_t = D_t^{1/2} eps_t, which only scales already-correlated
    innovations, is what the bootstrap and ``simulate`` draw, and what the
    working model fitted to these series assumes.  Variance recursions
    start at their stationary values omega / (1 - alpha - beta); the first
    ``burn_in`` rows are discarded.
    """
    e1, e2 = innovations
    if e1.shape[0] <= burn_in:
        raise DataError("innovation sample shorter than the burn-in")
    out = []
    for theta, e in zip(GARCH_PAIR_THETA, (e1, e2)):
        y = _simulate_garch(theta, np.asarray(e, dtype=float), mixed=True)
        out.append(y[burn_in:])
    return tuple(out)


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestSpec:
    """Descriptor of one test inside a Monte Carlo run.

    ``kind`` is one of ``hsic_single`` (S), ``hsic_joint`` (J), ``g``,
    ``w``, ``l``, ``t``.  ``lag`` is m for single tests and M for joint /
    portmanteau ones; ``bandwidth`` (a rule name or a number) applies to
    the spectral test only.
    """

    kind: str
    direction: int = 1
    lag: int = 0
    variant: int = 1
    bandwidth: str = "h1"

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self) -> None:
        if self.kind not in ("hsic_single", "hsic_joint", "g", "w", "l", "t"):
            raise ValueError(f"unknown test kind {self.kind!r}")
        if self.direction not in (1, 2):
            raise ValueError("direction must be 1 or 2")
        if self.variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        if self.lag < 0:
            raise ValueError("lag must be nonnegative")

    @property
    def label(self) -> str:
        if self.kind == "hsic_single":
            return f"S{self.direction}({self.lag})"
        if self.kind == "hsic_joint":
            return f"J{self.direction}({self.lag})"
        if self.kind == "w":
            return f"W{self.variant}({self.bandwidth})"
        return f"{self.kind.upper()}{self.variant}({self.lag})"

    @classmethod
    def parse(cls, text: str) -> "TestSpec":
        """Parse compact descriptors like S1:0, J2:3, G1:3, W1:h2, L2:3."""
        head, _, arg = text.strip().partition(":")
        head = head.upper()
        if len(head) != 2 or head[0] not in "SJGWLT" or head[1] not in "12":
            raise ValueError(f"cannot parse test descriptor {text!r}")
        family, num = head[0], int(head[1])
        if family == "S":
            return cls(kind="hsic_single", direction=num, lag=int(arg or 0))
        if family == "J":
            return cls(kind="hsic_joint", direction=num, lag=int(arg or 0))
        if family == "W":
            band = arg or "h1"
            return cls(kind="w", variant=num, bandwidth=band)
        kind = {"G": "g", "L": "l", "T": "t"}[family]
        return cls(kind=kind, variant=num, lag=int(arg or 3))


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte Carlo size/power experiment."""

    dgp: str
    egp: EgpSpec
    n: int
    replications: int
    tests: tuple
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec.gaussian(1.0))
    master_seed: int = 0
    burn_in: int = 500
    workers: int = 1
    var_order: int = 1
    var_intercept: bool = False

    def __post_init__(self) -> None:
        if self.dgp not in DGP_KINDS:
            raise ValueError(f"dgp must be one of {DGP_KINDS}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.n < 20:
            raise ValueError("sample size too small for the working models")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if not self.tests:
            raise ValueError("no tests configured")
        for spec in self.tests:
            if spec.kind in ("hsic_single", "hsic_joint", "g", "l", "t") and spec.lag >= self.n - 2:
                raise ValueError(f"test {spec.label} lag infeasible for n={self.n}")
            if spec.kind == "w" and spec.bandwidth not in ("h1", "h2", "h3"):
                try:
                    h = float(spec.bandwidth)
                except ValueError:
                    raise ValueError(f"test {spec.label}: bandwidth must be h1, h2, h3 or a number") from None
                if not 1.0 <= h < self.n:
                    raise ValueError(f"test {spec.label}: bandwidth must lie in [1, n={self.n})")


@dataclass(frozen=True)
class McRow:
    label: str
    alpha: float
    rejections: int
    n_effective: int

    @property
    def rate(self) -> float:
        return self.rejections / self.n_effective if self.n_effective else float("nan")

    @property
    def mc_se(self) -> float:
        if not self.n_effective:
            return float("nan")
        r = self.rate
        return float(np.sqrt(r * (1.0 - r) / self.n_effective))


@dataclass(frozen=True)
class McSummary:
    """Rejection-frequency table over (test, significance level)."""

    rows: tuple
    replications: int
    failures: int

    def rate(self, label: str, alpha: float) -> float:
        for row in self.rows:
            if row.label == label and abs(row.alpha - alpha) < 1e-12:
                return row.rate
        raise KeyError(f"no row for {label} at alpha={alpha}")

    def to_csv_text(self) -> str:
        lines = ["test,alpha,rejection_rate,mc_se,replicates"]
        for row in self.rows:
            lines.append(
                f"{row.label},{row.alpha!r},{row.rate!r},{row.mc_se!r},{row.n_effective}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "replications": self.replications,
            "failures": self.failures,
            "rows": [
                {
                    "test": row.label,
                    "alpha": row.alpha,
                    "rejection_rate": row.rate,
                    "mc_se": row.mc_se,
                    "replicates": row.n_effective,
                }
                for row in self.rows
            ],
        }


def _fit_seed(master_seed: int, rep: int, series: int) -> int:
    return int(substream(master_seed, MONTE_CARLO, rep, 100 + series).integers(2**62))


def _mc_replication(cfg: McConfig, rep: int) -> dict | None:
    """One replication; returns {label: p_value} or None on failure."""
    rng = substream(cfg.master_seed, MONTE_CARLO, rep, 0)
    innov = egp_innovations(cfg.egp, cfg.n + cfg.burn_in, rng)
    try:
        if cfg.dgp == "var":
            y1, y2 = gen_var_pair(innov, cfg.burn_in)
            fit1 = fit_var(y1, p=cfg.var_order, intercept=cfg.var_intercept)
            fit2 = fit_var(y2, p=cfg.var_order, intercept=cfg.var_intercept)
        else:
            y1, y2 = gen_garch_pair(innov, cfg.burn_in)
            fit1 = fit_ccc_garch(y1, seed=_fit_seed(cfg.master_seed, rep, 1))
            fit2 = fit_ccc_garch(y2, seed=_fit_seed(cfg.master_seed, rep, 2))
        pair = paired_residuals(fit1, fit2)

        pvals: dict = {}
        hsic_specs = [s for s in cfg.tests if s.kind.startswith("hsic")]
        if hsic_specs:
            lag_cfgs = [
                LagConfig(direction=s.direction, m=s.lag)
                if s.kind == "hsic_single"
                else LagConfig(direction=s.direction, max_lag=s.lag)
                for s in hsic_specs
            ]
            boot_cfg = replace(
                cfg.bootstrap,
                master_seed=int(
                    substream(cfg.master_seed, MONTE_CARLO, rep, 1).integers(2**62)
                ),
            )
            results = bootstrap_run(fit1, fit2, lag_cfgs, cfg.kernel, cfg.kernel, boot_cfg)
            for spec, res in zip(hsic_specs, results):
                pvals[spec.label] = res.p_value
        for spec in cfg.tests:
            if spec.kind == "g":
                pvals[spec.label] = g_test(pair, spec.lag, spec.variant).p_value
            elif spec.kind == "l":
                pvals[spec.label] = l_test(pair, spec.lag, spec.variant).p_value
            elif spec.kind == "t":
                pvals[spec.label] = t_test(pair, spec.lag, spec.variant).p_value
            elif spec.kind == "w":
                pvals[spec.label] = w_test(
                    y1, y2, h=_coerce_bandwidth(spec.bandwidth), variant=spec.variant
                ).p_value
        return pvals
    except TsindepError:
        return None


def _coerce_bandwidth(band):
    if isinstance(band, str) and band not in ("h1", "h2", "h3"):
        return float(band)
    return band


def run_monte_carlo(cfg: McConfig) -> McSummary:
    """Run the configured experiment and aggregate rejection frequencies.

    Deterministic for a given master seed regardless of ``workers``: each
    replication derives its own streams from (master_seed, replication).
    Aborts if more than 2% of replications fail.
    """
    reps = range(cfg.replications)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_mc_replication, [cfg] * cfg.replications, reps, chunksize=1))
    else:
        outcomes = [_mc_replication(cfg, r) for r in reps]

    failures = sum(1 for o in outcomes if o is None)
    if failures > int(0.02 * cfg.replications):
        raise NumericalError(
            f"{failures} of {cfg.replications} Monte Carlo replications failed"
        )
    good = [o for o in outcomes if o is not None]
    alphas = sorted(float(a) for a in cfg.bootstrap.alphas)
    rows = []
    for spec in cfg.tests:
        for alpha in alphas:
            rejections = sum(1 for o in good if o[spec.label] <= alpha)
            rows.append(
                McRow(
                    label=spec.label,
                    alpha=alpha,
                    rejections=rejections,
                    n_effective=len(good),
                )
            )
    return McSummary(rows=tuple(rows), replications=cfg.replications, failures=failures)
