"""The four benchmark workloads.

Each workload is a closed loop of identical items. An item takes its
inputs from (workload seed, item index) only, runs the package through
its public API or its CLI, checks the result and returns an Outcome with a
small digest of the values it computed. The package is reached through
the module namespace handed to the workload (`hf.fields`, `hf.cli`, ...)
at call time, so the tracer's wrappers are seen wherever it installs them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0  # the seed of the reference digest
HELD_OUT_SEED = 104729  # re-check claims on this seed; never tune on it

# Check limits. The acceptance tolerances, except MARKOV_Z_MAX: at |z| <= 4
# the two-sided normal tail (6.3e-5 per item) would fail a correct program
# about once in 16 000 items, which a comparison of thousands of items
# would hit; at |z| <= 5 (5.7e-7) it would not, and a biased path sampler
# at 20000 paths still lands far beyond it.
L2_CEILING = 1.0 + 1e-9
MARKOV_Z_MAX = 5.0
ITO_SLOPE = (0.3, 0.7)
NORM_DEV_MAX = 1e-9
SPECTRUM_DEV_MAX = 1e-10
SYMBOL_DEV_MAX = 1e-12
QUAD_REL_MAX = 1e-6
ISOMETRY_REL_MAX = 1e-6

LP_EXPONENTS = (4.0 / 3.0, 2.0, 4.0)
TRANSFORM_CASES = tuple(
    (p, t) for p in (4.0, 3.0, 2.0, 1.5) for t in ("sign", "alternating", "identity")
)


def item_seed(seed: int, idx: int) -> int:
    """Independent 32-bit seed for item idx of a run seeded with seed."""
    return int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])


@dataclass
class Outcome:
    ok: bool
    digest: dict = field(default_factory=dict)
    stdout: str = ""


class LpCeiling:
    """Acceptance criterion 6's dominant case: n=3 on a 64^3 grid."""

    name = "lp_ceiling"

    def __init__(self, hf, workdir: Path):
        self.hf = hf
        self.ceiling = {
            p: hf.heatmatrix.bound_constants(3, p).overall_bound for p in LP_EXPONENTS
        }

    def inputs(self, seed):
        return seed

    def item(self, seed, idx) -> Outcome:
        fields, fourier = self.hf.fields, self.hf.fourier
        rng = np.random.default_rng(item_seed(seed, idx))
        f = fields.random_band_limited(3, (64, 64, 64), 1.0, rng, kmax=4)
        tf = fourier.apply_beurling_ahlfors(f)
        ratios = {p: fields.lp_norm(tf, p) / fields.lp_norm(f, p) for p in LP_EXPONENTS}
        ok = all(r <= self.ceiling[p] for p, r in ratios.items())
        ok = ok and ratios[2.0] <= L2_CEILING
        return Outcome(ok, {f"ratio_p{p:.4g}": r for p, r in ratios.items()})


class CliSmall:
    """Three CLI commands at their documented sizes, run in-process."""

    name = "cli_small"

    def __init__(self, hf, workdir: Path):
        self.hf = hf
        self.workdir = workdir
        self.output = workdir / "apply-out.ffld"

    def inputs(self, seed):
        """Write the n=2, 256^2 all-grade field that `apply` reads."""
        path = self.workdir / f"apply-in-{seed}.ffld"
        rng = np.random.default_rng([seed, 1 << 32])  # an index no item uses
        field_in = self.hf.fields.random_band_limited(2, (256, 256), 1.0, rng, kmax=8)
        self.hf.fields.write_ffld(field_in, path)
        return seed, path

    def _command(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.hf.cli.main(argv)
        text = buf.getvalue()
        lines = text.splitlines()
        ok = code == 0 and bool(lines) and lines[-1] == '{"status":"pass"}'
        rows = {}
        for line in lines[1:-1]:
            row = json.loads(line)
            rows[row["label"]] = row["value"]
        return ok, rows, text

    def item(self, inputs, idx) -> Outcome:
        seed, path = inputs
        s = str(item_seed(seed, idx))
        runs = {
            "norm_search": ["norm-search", "--n", "2", "--p", "4", "--seed", s],
            "psw": ["psw", "--cases", "1", "--seed", s],
            "apply": ["apply", "--input", str(path), "--output", str(self.output), "--seed", s],
        }
        keep = {
            "norm_search": ("best_ratio", "degenerate"),
            "psw": ("max_violation", "equality_gap"),
            "apply": ("l2_in", "l2_out"),
        }
        ok, digest, stdout = True, {}, []
        for cmd, argv in runs.items():
            good, rows, text = self._command(argv)
            ok = ok and good
            digest.update({f"{cmd}.{k}": rows[k] for k in keep[cmd] if k in rows})
            stdout.append(text)
        return Outcome(ok, digest, "".join(stdout))


class MonteCarlo:
    """Acceptance criterion 10's shapes: paths, the Ito loop, the bootstrap."""

    name = "monte_carlo"

    def __init__(self, hf, workdir: Path):
        self.hf = hf
        self.cosine = hf.fields.cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)

    def inputs(self, seed):
        return seed

    def item(self, seed, idx) -> Outcome:
        fields, st = self.hf.fields, self.hf.stochastic
        s = item_seed(seed, idx)
        rng = np.random.default_rng(s)
        g = fields.random_band_limited(2, (16, 16), 1.0, rng, kmax=2, mean_zero=False)
        ensemble = st.simulate_paths(2, 0.02, 20, 20000, seed=s)
        markov = st.markov_identity_check(g.components[0], 1.0, 0.4, ensemble)
        _, rms, slope = st.ito_convergence_study(
            self.cosine, 0.5, [32, 64, 128], 1500, s, seeds_per_h=1
        )
        p, transform = TRANSFORM_CASES[idx % len(TRANSFORM_CASES)]
        res = st.martingale_transform_experiment(p, 64, 25000, transform, s)
        ok = abs(markov.z_score) <= MARKOV_Z_MAX
        ok = ok and ITO_SLOPE[0] <= slope <= ITO_SLOPE[1] and res.passed
        digest = {
            "markov.mc_value": markov.mc_value,
            "markov.z_score": markov.z_score,
            "ito.slope": slope,
            **{f"ito.rms{i}": float(v) for i, v in enumerate(rms)},
            "transform.ratio": res.ratio,
            "transform.rel_ci_half_width": res.rel_ci_half_width,
        }
        return Outcome(ok, digest)


class Algebra:
    """Heat-matrix spectra, symbol comparisons, projections, multipliers."""

    name = "algebra"

    def __init__(self, hf, workdir: Path):
        self.hf = hf

    def inputs(self, seed):
        return seed

    def _block_spectra(self, alpha):
        """Criterion 2's row for one alpha: norms and out/in block spectra."""
        hm, ext = self.hf.heatmatrix, self.hf.exterior
        norm_dev = spec_dev = 0.0
        for n in range(2, 9):
            for r in range(n + 1):
                spec = hm.HeatMatrixSpec(n, tuple([0.5] * r + [alpha] + [0.5] * (n - r)))
                numeric = hm.spectral_norm(hm.build_grade_matrix(spec, r))
                norm_dev = max(norm_dev, abs(numeric - hm.grade_norm_closed_form(n, r, alpha)))
                for kind, grade, block in (("out", r + 1, hm.out_block), ("in", r - 1, hm.in_block)):
                    if not 0 <= grade <= n:
                        continue
                    ref = hm.closed_form_spectrum(kind, n, r, alpha)
                    for i_tilde in ext.enumerate_grade(n, grade):
                        eig = np.sort(np.linalg.eigvalsh(block(i_tilde, alpha)))
                        spec_dev = max(spec_dev, float(np.max(np.abs(eig - ref))))
        return norm_dev, spec_dev

    def _symbols(self, alpha, rng):
        """Criterion 4: the contracted heat matrix equals the direct symbol."""
        hm, fourier = self.hf.heatmatrix, self.hf.fourier
        worst = 0.0
        for n in (2, 3, 4):
            spec = hm.HeatMatrixSpec(n, (alpha,) * (n + 1))
            for _ in range(10):
                xi = rng.standard_normal(n)
                diff = (
                    fourier.symbol_from_heat_matrix(spec, xi).matrix
                    - fourier.beurling_ahlfors_symbol(xi, n).matrix
                )
                worst = max(worst, float(np.max(np.abs(diff))))
        return worst

    def _projections(self, rng):
        """Criterion 9: exact block norms and the aggregate upper bound."""
        asy, hm, ext = self.hf.asymptotics, self.hf.heatmatrix, self.hf.exterior
        block_dev = 0.0
        min_slack = np.inf
        for n in (2, 3, 4):
            for _ in range(10):
                d = asy.random_direction(n, rng)
                for J in ext.enumerate_all(n):
                    block, claimed = asy.sigma_block(d, J)
                    numeric = float(np.linalg.svd(block, compute_uv=False)[0])
                    block_dev = max(block_dev, abs(numeric - claimed))
                slack = asy.aggregate_bound(d) - hm.spectral_norm(asy.sigma_dot_matrix(d))
                min_slack = min(min_slack, slack)
        return block_dev, min_slack

    def item(self, seed, idx) -> Outcome:
        fields, fourier, mult = self.hf.fields, self.hf.fourier, self.hf.multipliers
        rng = np.random.default_rng(item_seed(seed, idx))
        alpha = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.5, 2.0))
        norm_dev, spec_dev = self._block_spectra(alpha)
        symbol_dev = self._symbols(alpha, rng)
        block_dev, min_slack = self._projections(rng)
        sym = mult.imaginary_power_symbol(s)
        quad_rel = max(
            abs(mult.laplace_symbol_eval(sym, lam) - lam ** (1j * s)) for lam in (0.1, 1.0, 10.0)
        )
        f = fields.random_band_limited(2, (64, 64), 1.0, rng, kmax=8)
        isometry = fields.lp_norm(mult.apply_spectral_multiplier(sym, f), 2) / fields.lp_norm(f, 2)
        sup = float(fourier.symbol_norms_on_grid(2, (64, 64), 1.0).max())
        ok = (
            norm_dev < NORM_DEV_MAX
            and spec_dev < SPECTRUM_DEV_MAX
            and symbol_dev < SYMBOL_DEV_MAX
            and block_dev < SYMBOL_DEV_MAX
            and min_slack >= -1e-10
            and quad_rel < QUAD_REL_MAX
            and abs(isometry - 1.0) <= ISOMETRY_REL_MAX
            and abs(sup - 1.0) < SYMBOL_DEV_MAX
        )
        digest = {
            "norm_dev": norm_dev,
            "spectrum_dev": spec_dev,
            "symbol_dev": symbol_dev,
            "sigma_block_dev": block_dev,
            "min_aggregate_slack": min_slack,
            "quad_rel_err": quad_rel,
            "multiplier_l2_ratio": isometry,
            "symbol_sup": sup,
        }
        return Outcome(ok, digest)


WORKLOADS = {w.name: w for w in (LpCeiling, CliSmall, MonteCarlo, Algebra)}
