"""Command-line surface.

Exit codes:

* 0: all checks passed.
* 1: usage or I/O error: a bad argument or value (ValueError, CapError),
  including a non-finite float option or report value, a malformed
  field file or one with no components (FFLDError), a file that cannot
  be read or written (OSError), or a size too large to allocate
  (MemoryError).
* 2: a numeric check failed; the report's status line says "fail".
* 3: the computation could not decide the check: a quadrature missed its
  error target (AccuracyError), every search candidate was degenerate
  (SearchError), or a Monte Carlo interval was too wide
  (StatisticalPowerError).

Errors print one line to stderr and no report. Reports go to stdout as
JSON lines (default) or CSV; identical inputs including the seed produce
byte-identical reports. --threads is accepted for interface
compatibility and never changes results.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

import numpy as np

from . import asymptotics as asy
from . import heatmatrix as hm
from . import multipliers as mult
from . import normsearch as ns
from . import stochastic as st
from .errors import AccuracyError, SearchError, StatisticalPowerError
from .fields import cosine_field, lp_norm, random_band_limited, read_ffld, write_ffld
from .fourier import apply_beurling_ahlfors, psw_integral
from .reporting import Report

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_UNDECIDED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, like every other error
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float, at least 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be nonnegative: {text!r}")
    return value


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted but never affects results"
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def cmd_bounds(args, report: Report):
    b = hm.bound_constants(args.n, args.p)
    report.add("p_star", b.p_star)
    for g in b.per_grade:
        report.add(f"alpha_star_r{g.r}", float(g.alpha_star))
        report.add(f"constant_r{g.r}", float(g.constant))
    report.add("overall_constant", float(b.overall_constant))
    report.add("overall_bound", b.overall_bound)


def cmd_matrix_verify(args, report: Report):
    if args.alpha_grid < 1:
        raise ValueError("--alpha-grid must be at least 1")
    tol = args.tol if args.tol is not None else 1e-9
    spectrum_tol = 1e-10
    alphas = np.linspace(0.0, 1.0, args.alpha_grid)
    n = args.n
    max_norm_dev = 0.0
    max_spec_dev = 0.0
    cells = 0
    for r in range(n + 1):
        for a in alphas:
            weights = [0.5] * (n + 1)
            weights[r] = float(a)
            spec = hm.HeatMatrixSpec(n, tuple(weights))
            numeric = hm.spectral_norm(hm.build_grade_matrix(spec, r))
            closed = hm.grade_norm_closed_form(n, r, float(a))
            max_norm_dev = max(max_norm_dev, abs(numeric - closed))
            cells += 1
            for kind, block, grade in (("out", hm.out_block, r + 1), ("in", hm.in_block, r - 1)):
                for i_tilde in hm.enumerate_grade(n, grade)[:4] if 0 <= grade <= n else []:
                    eig = np.sort(np.linalg.eigvalsh(block(i_tilde, float(a))))
                    ref = hm.closed_form_spectrum(kind, n, r, float(a))
                    max_spec_dev = max(max_spec_dev, float(np.max(np.abs(eig - ref))))
    report.add("cells", cells)
    report.add("max_norm_deviation", max_norm_dev)
    report.add("max_spectrum_deviation", max_spec_dev)
    if max_norm_dev > tol or max_spec_dev > spectrum_tol:
        report.fail()


def cmd_apply(args, report: Report):
    field = read_ffld(args.input)
    out = apply_beurling_ahlfors(field)
    report.add("components", len(field.masks))
    report.add("l2_in", lp_norm(field, 2))
    report.add("l2_out", lp_norm(out, 2))
    write_ffld(out, args.output)  # last, so an error leaves no file


def cmd_norm_search(args, report: Report):
    result = ns.norm_search(
        args.n,
        args.p,
        dims=(args.grid,) * args.n,
        budget=args.budget,
        seed=args.seed,
        kmax=args.kmax,
    )
    slack = args.tol if args.tol is not None else 1e-6
    report.add("best_ratio", result.best_ratio)
    report.add("best_candidate", result.best_index)
    report.add("evaluations", result.evaluations)
    report.add("degenerate", result.degenerate)
    report.add("ceiling", result.ceiling)
    if result.best_ratio > result.ceiling + slack:
        report.fail()


def cmd_psw(args, report: Report):
    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    if args.grid < 4:  # at 2 the equality mode k = 1 is the Nyquist index, whose gradient is zeroed
        raise ValueError("--grid must be at least 4")
    tol = args.tol if args.tol is not None else 1e-6
    rng = np.random.default_rng(args.seed)
    dims = (args.grid,) * args.n
    worst = -np.inf
    for _ in range(args.cases):
        f = random_band_limited(args.n, dims, 1.0, rng, kmax=2)
        g = random_band_limited(args.n, dims, 1.0, rng, kmax=2)
        p_exp = float(rng.uniform(1.3, 4.0))
        res = psw_integral(f, g, p_exp, t_max=args.tmax)
        worst = max(worst, res.lhs - (res.rhs + res.tail_bound))
    kvec = [0] * args.n
    kvec[0] = 1
    mode = cosine_field(args.n, dims, 1.0, kvec, mask=1)
    eq = psw_integral(mode, mode, 2.0, t_max=args.tmax)
    gap = abs(eq.lhs + eq.tail_bound - eq.rhs)
    report.add("cases", args.cases)
    report.add("max_violation", worst)
    report.add("equality_gap", gap)
    if worst > tol or gap > tol:
        report.fail()


def cmd_impow(args, report: Report):
    tol_const = 1e-10
    tol_quad = args.tol if args.tol is not None else 1e-6
    value = mult.imaginary_power_constant(args.s, args.p)
    s = args.s
    closed = hm.conjugate_exponent(args.p) - 1.0
    if s != 0.0:  # sqrt(sinh(a) / a), a = pi |s|, in logs: sinh(a) overflows long before it
        a = math.pi * abs(s)
        closed *= math.exp(0.5 * (a + math.log(-math.expm1(-2.0 * a) / (2.0 * a))))
    report.add("constant", value)
    report.add("constant_closed_form", closed)
    ok = abs(value - closed) <= tol_const * max(1.0, closed)
    sym = mult.imaginary_power_symbol(s)
    for lam in (0.1, 1.0, 10.0):
        values, errs = mult.laplace_symbol_eval_many(sym, [lam])
        if not errs[0] <= tol_quad:  # the quadrature cannot decide the check
            raise AccuracyError(
                f"quadrature error estimate {errs[0]:.3e} at lambda = {lam:g} exceeds {tol_quad:g}",
                achieved=float(errs[0]),
            )
        approx = complex(values[0])
        exact = lam ** (1j * s)
        rel = abs(approx - exact) / abs(exact)
        report.add(f"quad_rel_err_lambda_{lam:g}", rel)
        ok = ok and rel <= tol_quad
    if not ok:
        report.fail()


def cmd_asymptotics(args, report: Report):
    if args.sigma_samples < 0:
        raise ValueError("--sigma-samples must be nonnegative")
    bound = asy.asymptotic_bound(args.n, args.p)  # first: it refuses an n whose 2^n is no double
    c = asy.asymptotic_constant(args.n)
    factor = asy.sphere_coordinate_lp_norm(1 << args.n, args.p)
    report.add("c_asym", c)
    report.add("sphere_factor", factor)
    report.add("bound", bound)
    report.add("bound_over_p_minus_1", bound / (args.p - 1.0))
    if args.sigma_samples > 0:
        rng = np.random.default_rng(args.seed)
        worst_slack = np.inf
        max_norm = 0.0
        for _ in range(args.sigma_samples):
            direction = asy.random_direction(args.n, rng)
            numeric = hm.spectral_norm(asy.sigma_dot_matrix(direction))
            agg = asy.aggregate_bound(direction)
            worst_slack = min(worst_slack, agg - numeric)
            max_norm = max(max_norm, numeric)
        report.add("sigma_samples", args.sigma_samples)
        report.add("max_sigma_norm", max_norm)
        report.add("min_bound_slack", worst_slack)
        if worst_slack < -1e-10 or max_norm > c + 1e-10:
            report.fail()


def cmd_simulate(args, report: Report):
    if args.experiment == "transform" and (args.n, args.grid) != (None, None):
        raise ValueError("simulate transform takes no --n or --grid")
    if args.experiment != "transform":  # markov and ito default to n = 2 on a 16-point grid
        args.n, args.grid = 2 if args.n is None else args.n, 16 if args.grid is None else args.grid
        report.inputs.update(n=args.n, grid=args.grid)
    if args.experiment == "markov":
        rng = np.random.default_rng(args.seed)
        grid = random_band_limited(args.n, (args.grid,) * args.n, 1.0, rng, kmax=2)
        g = grid.components[0] + 1.0  # nonzero mean makes the check informative
        ensemble = st.simulate_paths(args.n, args.h, args.steps, args.paths, args.seed)
        check = st.markov_identity_check(g, 1.0, args.steps * args.h, ensemble)
        report.add("mc_value", check.mc_value, se=check.std_error)
        report.add("exact_value", check.exact_value)
        report.add("z_score", check.z_score)
        if abs(check.z_score) > 4.0:
            report.fail()
    elif args.experiment == "ito":
        field = cosine_field(args.n, (args.grid,) * args.n, 1.0, [1] + [0] * (args.n - 1), mask=1)
        counts = [int(c) for c in args.step_counts.split(",")]
        hs, rmss, slope = st.ito_convergence_study(
            field, args.tau, counts, args.paths, args.seed, seeds_per_h=args.reps
        )
        for h, rms in zip(hs, rmss):
            report.add(f"rms_h_{h:g}", rms)
        report.add("slope", slope)
        if not 0.3 <= slope <= 0.7:
            report.fail()
    else:
        result = st.martingale_transform_experiment(
            args.p, args.steps, args.trials, args.transform, args.seed
        )
        report.add("ratio", result.ratio, se=result.rel_ci_half_width * result.ratio)
        report.add("rel_ci_half_width", result.rel_ci_half_width)
        report.add("ceiling", result.ceiling)
        if not result.passed:
            report.fail()


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The whole argparse tree, built once per process (about 70 add_argument calls) and shared."""
    parser = _Parser(prog="heatforms")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, tol=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _common_flags(p)
        if tol:
            p.add_argument("--tol", type=_tolerance, help="override the command's tolerance")
        p.set_defaults(func=handler)
        return p

    p = add("bounds", cmd_bounds, help="norm bound constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_finite_float, required=True)

    p = add("matrix-verify", cmd_matrix_verify, tol=True, help="block spectra versus closed forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-grid", type=int, default=21)

    p = add("apply", cmd_apply, help="apply the operator to an FFLD field")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("norm-search", cmd_norm_search, tol=True, help="empirical lower norm probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--kmax", type=int, default=3)

    p = add("psw", cmd_psw, tol=True, help="bilinear gradient inequality check")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--tmax", type=_finite_float, default=1.0)

    p = add("impow", cmd_impow, tol=True, help="imaginary-power constants and quadrature")
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--p", type=_finite_float, required=True)

    p = add("asymptotics", cmd_asymptotics, help="large-p constants and sigma probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--sigma-samples", type=int, default=0)

    p = add("simulate", cmd_simulate, help="Monte Carlo checks")
    p.add_argument("experiment", choices=("markov", "ito", "transform"))
    p.add_argument("--n", type=int, help="markov and ito only (default 2)")
    p.add_argument("--grid", type=int, help="markov and ito only (default 16)")
    p.add_argument("--h", type=_finite_float, default=0.02)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--tau", type=_finite_float, default=0.5)
    p.add_argument("--step-counts", default="32,64,128")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--p", type=_finite_float, default=4.0)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--transform", default="sign", choices=sorted(st.TRANSFORMS))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    report = Report(command=args.command, inputs={k: v for k, v in vars(args).items() if k != "func"})
    try:
        args.func(args, report)
    except (OSError, ValueError, MemoryError) as exc:  # FFLDError and CapError are ValueErrors
        print(f"heatforms: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, SearchError, StatisticalPowerError) as exc:
        print(f"heatforms: undecided: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    sys.stdout.write(report.render(args.format))
    return EXIT_PASS if report.status == "pass" else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
