"""Command-line interface: test, fit, lagscan and simulate subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Reports echo the complete statistical configuration (defaults resolved)
plus the seed, so a run can be replayed bit-exactly; the thread count is
an execution knob and deliberately not part of the echo.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .bootstrap import BootstrapConfig, hsic_test_suite
from .crosscorr import _single_lag_scan, g_test, l_test, t_test, w_test
from .exceptions import DataError, NumericalError, TsindepError
from .hsic import LagConfig
from .io import log_returns, read_csv
from .kernels import KernelSpec
from .models import ModelSpec, fit_ccc_garch, fit_var, paired_residuals
from .simlab import EgpSpec, McConfig, TestSpec, run_monte_carlo
from .special import chi2_quantile

ENV_THREADS = "TSINDEP_THREADS"
_ALPHAS = (0.01, 0.05, 0.10)
_DIRECTIONS = {"1": (1,), "2": (2,), "both": (1, 2)}


class UsageError(TsindepError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _parse_model(text: str) -> ModelSpec:
    parts = text.strip().lower().split(":")
    if parts[0] in ("ccc-garch", "ccc_garch", "garch"):
        if len(parts) > 1:
            raise UsageError(f"ccc-garch takes no options: {text!r}")
        return ModelSpec("ccc_garch")
    if parts[0] != "var":
        raise UsageError(f"unknown model {text!r} (expected var:p[:intercept] or ccc-garch)")
    try:
        p = int(parts[1]) if len(parts) > 1 else 1
    except ValueError:
        raise UsageError(f"bad VAR order in {text!r}") from None
    intercept = True
    if len(parts) > 2:
        if parts[2] in ("intercept", "c"):
            intercept = True
        elif parts[2] in ("nointercept", "nc"):
            intercept = False
        else:
            raise UsageError(f"bad VAR option {parts[2]!r}")
    try:
        return ModelSpec("var", p=p, intercept=intercept)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_kernel(text: str) -> KernelSpec:
    """Parse ``--kernel``; the fbm kernel also gets a warning on stderr."""
    parts = text.strip().lower().split(":")
    try:
        if parts[0] == "gaussian":
            return KernelSpec.gaussian(float(parts[1]) if len(parts) > 1 else 1.0)
        if parts[0] == "laplace":
            return KernelSpec.laplace(float(parts[1]) if len(parts) > 1 else 1.0)
        if parts[0] in ("imq", "inverse_multiquadric"):
            alpha = float(parts[1]) if len(parts) > 1 else 1.0
            beta = float(parts[2]) if len(parts) > 2 else 1.0
            return KernelSpec.inverse_multiquadric(alpha, beta)
        if parts[0] == "fbm":
            spec = KernelSpec.fbm(float(parts[1]) if len(parts) > 1 else 0.5)
            print(
                "warning: the fbm kernel is outside the regularity conditions the "
                "bootstrap calibration relies on; interpret p-values with care",
                file=sys.stderr,
            )
            return spec
    except (ValueError, IndexError):
        raise UsageError(f"bad kernel spec {text!r}") from None
    raise UsageError(f"unknown kernel {text!r}")


def _kernel_echo(spec: KernelSpec) -> str:
    if spec.family == "gaussian":
        return f"gaussian:{spec.sigma!r}"
    if spec.family == "laplace":
        return f"laplace:{spec.sigma!r}"
    if spec.family == "inverse_multiquadric":
        return f"imq:{spec.alpha!r}:{spec.beta!r}"
    return f"fbm:{spec.hurst!r}"


def _model_echo(spec: ModelSpec) -> str:
    if spec.kind == "ccc_garch":
        return "ccc-garch"
    suffix = "intercept" if spec.intercept else "nointercept"
    return f"var:{spec.p}:{suffix}"


def _parse_mtest(text: str, what: str):
    """Parse 'M' or 'M:variant' for the G/L/T flags."""
    parts = text.split(":")
    try:
        m = int(parts[0])
        variant = int(parts[1]) if len(parts) > 1 else 1
    except ValueError:
        raise UsageError(f"bad {what} spec {text!r} (expected M or M:variant)") from None
    if variant not in (1, 2):
        raise UsageError(f"{what} variant must be 1 or 2")
    if m < 0:
        raise UsageError(f"{what} lag M must be nonnegative, got {m}")
    return m, variant


def _parse_wtest(text: str):
    parts = text.split(":")
    band = parts[0]
    if band not in ("h1", "h2", "h3"):
        try:
            band = float(band)
        except ValueError:
            raise UsageError(f"bad bandwidth {parts[0]!r}") from None
    variant = 1
    if len(parts) > 1:
        try:
            variant = int(parts[1])
        except ValueError:
            raise UsageError(f"bad W variant {parts[1]!r}") from None
    if variant not in (1, 2):
        raise UsageError("W variant must be 1 or 2")
    return band, variant


def _add_io_flags(sp):
    sp.add_argument("--series1", help="CSV file with the first series")
    sp.add_argument("--series2", help="CSV file with the second series")
    sp.add_argument("--input", help="single CSV holding both series side by side")
    sp.add_argument(
        "--split-at",
        type=int,
        help="with --input: first k columns are series 1, the rest series 2",
    )
    sp.add_argument(
        "--log-returns",
        action="store_true",
        help="transform the input columns to log returns before analysis",
    )


def _add_common_flags(sp, with_bootstrap=True):
    sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sp.add_argument("--threads", type=int, default=None, help="worker budget (default 1)")
    sp.add_argument("--output", help="output file (default: stdout)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    if with_bootstrap:
        sp.add_argument("-B", "--replicates", type=int, default=199, dest="n_replicates")
        sp.add_argument(
            "--alpha",
            type=float,
            action="append",
            help="significance level, repeatable (default 0.01 0.05 0.1)",
        )
        sp.add_argument(
            "--estimator-mode",
            choices=("auto", "refit", "one-step"),
            default="auto",
        )
        sp.add_argument(
            "--standardize",
            choices=("whiten", "center", "none"),
            default="center",
            help="treatment of the residual pool before resampling",
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="tsindep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tsindep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("test", help="independence tests on two series")
    _add_io_flags(sp)
    sp.add_argument("--model1", default="var:1", help="var:p[:intercept] | ccc-garch")
    sp.add_argument("--model2", default="var:1")
    sp.add_argument("--kernel", default="gaussian:1", help="gaussian:s | laplace:s | imq:a:b | fbm:h")
    sp.add_argument("--lag", type=int, action="append", help="single-lag m, repeatable")
    sp.add_argument("--max-lag", type=int, help="joint statistic up to this lag")
    sp.add_argument("--direction", choices=("1", "2", "both"), default="both")
    sp.add_argument("--gtest", action="append", help="portmanteau G test: M or M:variant")
    sp.add_argument("--ltest", action="append", help="squared-norm L test: M or M:variant")
    sp.add_argument("--ttest", action="append", help="outer-product T test: M or M:variant")
    sp.add_argument("--wtest", action="append", help="spectral W test: h1|h2|h3|number[:variant]")
    sp.add_argument("--emit-replicates", action="store_true")
    _add_common_flags(sp)

    sp = sub.add_parser("fit", help="fit the configured models and report estimates")
    _add_io_flags(sp)
    sp.add_argument("--model1", default="var:1")
    sp.add_argument("--model2", default="var:1")
    _add_common_flags(sp, with_bootstrap=False)

    sp = sub.add_parser("lagscan", help="single-lag statistics with per-lag bounds")
    _add_io_flags(sp)
    sp.add_argument("--model1", default="var:1")
    sp.add_argument("--model2", default="var:1")
    sp.add_argument("--kernel", default="gaussian:1")
    sp.add_argument("--max-lag", type=int, default=10)
    sp.add_argument("--direction", choices=("1", "2", "both"), default="both")
    sp.add_argument("--include-l", action="store_true", help="add single-lag L statistics")
    sp.add_argument("--include-t", action="store_true", help="add single-lag T statistics")
    sp.add_argument("--emit-replicates", action="store_true")
    _add_common_flags(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo size/power experiment")
    sp.add_argument("--dgp", choices=("var", "ccc-garch"), default="var")
    sp.add_argument("--egp", type=int, default=1, help="error-generating process 1..6")
    sp.add_argument("-n", "--sample-size", type=int, default=100, dest="n")
    sp.add_argument("--replications", type=int, default=200)
    sp.add_argument(
        "--tests",
        default="S1:0,S1:3,S2:3,J1:3,J2:3",
        help="comma list of test descriptors (S1:0, J2:3, G1:3, W1:h1, L1:3, T1:3)",
    )
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument(
        "--full-scale",
        action="store_true",
        help="publication scale: 1000 replications with B=1000",
    )
    _add_common_flags(sp)

    return parser


def _resolve_threads(args) -> int:
    value, source = args.threads, "--threads"
    if value is None:
        env = os.environ.get(ENV_THREADS)
        if not env:
            return 1
        try:
            value, source = int(env), ENV_THREADS
        except ValueError:
            raise UsageError(f"bad {ENV_THREADS} value {env!r}") from None
    if value < 1:
        raise UsageError(f"{source} must be >= 1, got {value}")
    return value


def _load_pair(args):
    if args.input:
        if args.series1 or args.series2:
            raise UsageError("give either --input or --series1/--series2, not both")
        if not args.split_at:
            raise UsageError("--input requires --split-at")
        data = read_csv(args.input)
        k = args.split_at
        if not 1 <= k < data.shape[1]:
            raise DataError(f"--split-at {k} out of range for {data.shape[1]} columns")
        y1, y2 = data[:, :k], data[:, k:]
    else:
        if not (args.series1 and args.series2):
            raise UsageError("need --series1 and --series2 (or --input with --split-at)")
        y1 = read_csv(args.series1)
        y2 = read_csv(args.series2)
    if args.log_returns:
        y1 = log_returns(y1)
        y2 = log_returns(y2)
    if y1.shape[0] != y2.shape[0]:
        raise DataError(
            f"series lengths differ ({y1.shape[0]} vs {y2.shape[0]}); align them first"
        )
    return y1, y2


def _fit_series(model: ModelSpec, data, seed: int):
    if model.kind == "var":
        return fit_var(data, p=model.p, intercept=model.intercept)
    return fit_ccc_garch(data, seed=seed)


def _fitted_pair(args, flags=lambda threads: None):
    """Load, parse and fit: the shared start of ``test``, ``fit`` and ``lagscan``.

    Checks run in one order, so a bad input gets the same exit code and
    message from every command: the thread budget, the data pair, both
    models, then ``flags(threads)`` for the command's own flags, and last
    the two fits (seeds ``seed`` and ``seed + 1``).  Returns the data
    pair, the two fits and what ``flags`` returned.
    """
    threads = _resolve_threads(args)
    y1, y2 = _load_pair(args)
    model1 = _parse_model(args.model1)
    model2 = _parse_model(args.model2)
    parsed = flags(threads)
    fit1 = _fit_series(model1, y1, seed=args.seed)
    fit2 = _fit_series(model2, y2, seed=args.seed + 1)
    return (y1, y2), (fit1, fit2), parsed


def _fit_summary(fit) -> dict:
    out = {
        "kind": fit.model.kind,
        "n_obs": fit.n_obs,
        "presample": fit.presample,
        "theta": [float(v) for v in fit.theta],
    }
    if fit.model.kind == "var":
        blocks = "A_1" if fit.model.p == 1 else f"A_1 ... A_{fit.model.p}"
        if fit.model.intercept:
            blocks = f"intercept | {blocks}"
        out["layout"] = f"row-major [{blocks}]"
        out["order"] = fit.model.p
        out["intercept"] = fit.model.intercept
    else:
        out["layout"] = "(omega1, alpha1, beta1, omega2, alpha2, beta2, rho)"
        out["loglik"] = float(fit.loglik)
    return out


def _bootstrap_config(args, threads: int, required=()) -> BootstrapConfig:
    """The bootstrap flags.  The levels are the ``--alpha`` values (default
    ``_ALPHAS``) plus ``required``; :class:`BootstrapConfig` keeps the
    distinct ones in ascending order."""
    alphas = (*(args.alpha or _ALPHAS), *required)
    mode = {"auto": "auto", "refit": "full_refit", "one-step": "one_step"}[args.estimator_mode]
    try:
        return BootstrapConfig(
            n_replicates=args.n_replicates,
            alphas=alphas,
            estimator_mode=mode,
            master_seed=args.seed,
            standardize=args.standardize,
            threads=threads,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _bootstrap_echo(cfg: BootstrapConfig) -> dict:
    """Config keys of the bootstrap, shared by test, lagscan and simulate."""
    return {
        "B": cfg.n_replicates,
        "alphas": list(cfg.alphas),
        "estimator_mode": cfg.estimator_mode,
        "standardize": cfg.standardize,
    }


def _pair_echo(args, fits, kernel=None, cfg=None) -> dict:
    """Config keys of test, fit and lagscan: the models and inputs, plus the
    kernel, lag, direction and bootstrap keys when ``cfg`` is given."""
    config = {
        "model1": _model_echo(fits[0].model),
        "model2": _model_echo(fits[1].model),
        "log_returns": bool(args.log_returns),
        "inputs": [p for p in (args.series1, args.series2, args.input) if p],
    }
    if cfg is not None:
        config.update(
            _bootstrap_echo(cfg),
            kernel=_kernel_echo(kernel),
            max_lag=args.max_lag,
            direction=args.direction,
        )
    return config


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    """CSV lines under ``header``: ``None`` is an empty cell, anything else its ``str``."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _report(args, config: dict, body: dict, csv) -> int:
    """Write the command's report: with ``--format csv`` the text ``csv()``
    returns, else JSON of the provenance (with ``config``) and ``body``."""
    if args.format == "csv":
        _emit(csv(), args.output)
        return 0
    # Threads are intentionally not echoed: the report must be byte-identical
    # for any worker budget.
    provenance = {
        "package": "tsindep",
        "version": __version__,
        "schema_version": 1,
        "command": args.command,
        "seed": args.seed,
        "config": config,
    }
    _emit(_json_text({"provenance": provenance, **body}), args.output)
    return 0


def _check_lag(flag: str, lag: int, n: int) -> None:
    """Reject a lag that leaves fewer than 2 of the n paired residual rows."""
    if lag > n - 2:
        raise DataError(
            f"{flag} {lag} infeasible for n={n} paired residual rows; "
            f"the largest feasible lag is {n - 2}"
        )


def _cmd_test(args) -> int:
    (y1, y2), fits, (kernel, cfg) = _fitted_pair(
        args, lambda threads: (_parse_kernel(args.kernel), _bootstrap_config(args, threads))
    )
    pair = paired_residuals(*fits)

    directions = _DIRECTIONS[args.direction]
    lags = args.lag if args.lag else [0]
    try:
        # S1(0) and S2(0) coincide, so lag 0 is reported for the first direction only.
        lag_cfgs = [
            LagConfig(direction=dd, m=m)
            for m in dict.fromkeys(lags)
            for dd in directions
            if m or dd == directions[0]
        ]
        if args.max_lag is not None:
            lag_cfgs += [LagConfig(direction=dd, max_lag=args.max_lag) for dd in directions]
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    for m in lags:
        _check_lag("--lag", m, pair.n)
    if args.max_lag is not None:
        _check_lag("--max-lag", args.max_lag, pair.n)

    # The competitors run before the bootstrap, so a bad flag fails fast;
    # the report still lists them after the HSIC tests.
    competitors = []
    for flag, texts, what, test in (
        ("--gtest", args.gtest, "G", g_test),
        ("--ltest", args.ltest, "L", l_test),
        ("--ttest", args.ttest, "T", t_test),
    ):
        for text in texts or []:
            m, variant = _parse_mtest(text, what)
            _check_lag(flag, m, pair.n)
            competitors.append(test(pair, m, variant))
    for text in args.wtest or []:
        band, variant = _parse_wtest(text)
        competitors.append(w_test(y1, y2, h=band, variant=variant))

    outcomes = hsic_test_suite(
        *fits, lag_cfgs, kernel, kernel, cfg, keep_replicates=args.emit_replicates
    )
    outcomes.extend(competitors)

    config = _pair_echo(args, fits, kernel, cfg)
    config["lags"] = sorted(set(lags))
    alphas = list(cfg.alphas)
    header = ["name", "lag", "direction", "variant", "statistic", "scaled", "p_value"]
    header += [f"crit_{a!r}" for a in alphas]
    rows = (
        [o.name, o.lag, o.direction, o.variant]
        + [float(v) for v in (o.statistic, o.scaled, o.p_value)]
        + [float(o.critical_values[a]) if a in o.critical_values else None for a in alphas]
        for o in outcomes
    )
    body = {
        "fits": [_fit_summary(f) for f in fits],
        "tests": [o.to_dict(include_replicates=args.emit_replicates) for o in outcomes],
    }
    return _report(args, config, body, lambda: _csv_text(header, rows))


def _cmd_fit(args) -> int:
    _, fits, _ = _fitted_pair(args)
    rows = (
        (s, fit.model.kind, i, float(v))
        for s, fit in enumerate(fits, start=1)
        for i, v in enumerate(fit.theta)
    )
    return _report(
        args,
        _pair_echo(args, fits),
        {"fits": [_fit_summary(f) for f in fits]},
        lambda: _csv_text(["series", "kind", "index", "estimate"], rows),
    )


def _cmd_lagscan(args) -> int:
    def flags(threads):
        kernel = _parse_kernel(args.kernel)
        if args.max_lag < 0:
            raise UsageError("--max-lag must be nonnegative")
        # The scan's bound is the 95% critical value, so 0.05 is always a level.
        return kernel, _bootstrap_config(args, threads, required=(0.05,))

    _, fits, (kernel, cfg) = _fitted_pair(args, flags)
    pair = paired_residuals(*fits)
    _check_lag("--max-lag", args.max_lag, pair.n)

    directions = _DIRECTIONS[args.direction]
    lag_cfgs = [
        LagConfig(direction=dd, m=m) for dd in directions for m in range(args.max_lag + 1)
    ]
    outcomes = hsic_test_suite(
        *fits, lag_cfgs, kernel, kernel, cfg, keep_replicates=args.emit_replicates
    )
    header = ["lag", "direction", "statistic", "bound_95", "test_name"]
    rows = [
        [o.lag, o.direction, float(o.scaled), float(o.critical_values[0.05]), f"S{o.direction}"]
        for o in outcomes
    ]
    for family, enabled in (("L", args.include_l), ("T", args.include_t)):
        if not enabled:
            continue
        for dd in directions:
            values, df = _single_lag_scan(pair, range(args.max_lag + 1), family, direction=dd)
            bound = chi2_quantile(0.95, df)
            for m, value in enumerate(values):
                rows.append([m, dd, float(value), bound, f"{family}{dd}"])
    config = _pair_echo(args, fits, kernel, cfg)
    config.update(include_l=bool(args.include_l), include_t=bool(args.include_t))
    body = {"fits": [_fit_summary(f) for f in fits], "scan": [dict(zip(header, r)) for r in rows]}
    return _report(args, config, body, lambda: _csv_text(header, rows))


def _cmd_simulate(args) -> int:
    threads = _resolve_threads(args)
    replications = 1000 if args.full_scale else args.replications
    try:
        tests = tuple(TestSpec.parse(t) for t in args.tests.split(",") if t.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # Replications run in parallel; each one's bootstrap stays single-threaded.
    boot = _bootstrap_config(args, threads=1)
    if args.full_scale:
        boot = replace(boot, n_replicates=1000)
    try:
        cfg = McConfig(
            dgp=args.dgp.replace("-", "_"),
            egp=EgpSpec.from_id(args.egp),
            n=args.n,
            replications=replications,
            tests=tests,
            bootstrap=boot,
            master_seed=args.seed,
            burn_in=args.burn_in,
            workers=threads,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    summary = run_monte_carlo(cfg)
    config = {
        "dgp": cfg.dgp,
        "egp": cfg.egp.id,
        "n": cfg.n,
        "replications": replications,
        "tests": [t.label for t in tests],
        "burn_in": args.burn_in,
        "full_scale": bool(args.full_scale),
        **_bootstrap_echo(boot),
    }
    return _report(args, config, {"summary": summary.to_json_dict()}, summary.to_csv_text)


_COMMANDS = {
    "test": _cmd_test,
    "fit": _cmd_fit,
    "lagscan": _cmd_lagscan,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
