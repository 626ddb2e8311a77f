"""Applying the operator to periodic form-valued fields.

Single modes are mapped by the frequency-domain matrix; random fields
probe the L^p -> L^p ratio from below, while the bound constants cap it
from above. The symbol M(xi) = I - 2 (u^)(u_|), u = xi/|xi|, is a
reflection in every dimension, so M(xi)^2 = I; the last part asserts it
and shows that the operator is an involution on a mean-zero field.
"""

import numpy as np

from heatforms import (
    apply_beurling_ahlfors,
    beurling_ahlfors_symbol,
    cosine_field,
    norm_search,
    random_band_limited,
    symbol_norms_on_grid,
)

# a grade-1 single mode flips sign at an axis frequency
f = cosine_field(2, (64, 64), 1.0, [1, 0], mask=1)
g = apply_beurling_ahlfors(f)
print("single mode e_{1} cos(2 pi x1):  T f = c f with c =",
      g.components[1][3, 5] / f.components[1][3, 5])

norms = symbol_norms_on_grid(2, (64, 64), 1.0)
print("sup over lattice frequencies of ||M(xi)|| (n=2):", norms.max())

result = norm_search(2, 4.0, dims=(64, 64), budget=120, seed=0)
print(f"norm search n=2 p=4: best ratio {result.best_ratio:.6f} "
      f"(candidate {result.best_index}, {result.best_kind}), ceiling {result.ceiling}")

for n in (2, 3, 4, 5):
    xi = np.array([1.0, 0.7, -0.4, 2.1, -1.3][:n])
    m = beurling_ahlfors_symbol(xi, n).matrix
    dev = np.max(np.abs(m @ m - np.eye(1 << n)))
    assert dev < 1e-14, dev
    print(f"n={n}: max |M(xi)^2 - I| = {dev:.1e}")

h = random_band_limited(3, (16, 16, 16), 1.0, np.random.default_rng(3), kmax=3)
hh = apply_beurling_ahlfors(apply_beurling_ahlfors(h))
dev = np.max(np.abs(hh.data - h.data))
assert dev < 1e-12, dev
print(f"n=3: max |T(T f) - f| = {dev:.1e} on a mean-zero 16^3 field")
