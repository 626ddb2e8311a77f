"""Grade blocks of the heat matrix, their spectra, and the bound table.

The representing matrix splits per grade r; each grade further splits into
small blocks whose eigenvalues are known in closed form. Minimizing the
block norm over the free weight gives the per-grade constant
2r(n-r)/n + 1 and the dimensional bound n/2 + 1 (even n) or
n/2 + 1 - 1/(2n) (odd n), times p* - 1.

The last table certifies that no representation does better. At the
optimal weight alpha = 1 - r/n the grade-r block A_r has the eigenvalues
-c_r, (n - 2r)/n and c_r, with c_r = 2r(n-r)/n + 1. With P+ and P- the
projectors on c_r and -c_r, Z_r = (r/n) P+ / C(n, r-1) - ((n-r)/n) P- /
C(n, r+1) has nuclear norm 1, pairs with A_r to c_r, and is symmetric
under swapping the two axis indices. A matrix B with zero symbol is
antisymmetric under that swap, so <Z_r, B> = 0 and trace duality gives
||A_r + B|| >= <Z_r, A_r + B> = c_r for every other representation.
"""

from math import comb

import numpy as np

from heatforms import (
    HeatMatrixSpec,
    MultiIndex,
    bound_constants,
    build_grade_matrix,
    closed_form_spectrum,
    in_block,
    out_block,
    spectral_norm,
)

n, r, alpha = 4, 2, 0.4
spec = HeatMatrixSpec(n, (alpha,) * (n + 1))
block = build_grade_matrix(spec, r)
print(f"grade-{r} block for n={n}, alpha={alpha}: shape {block.shape}")
print(f"  numeric norm      {spectral_norm(block):.12f}")
print(f"  closed-form value {max(2*alpha*r + 1, 2*(1-alpha)*(n-r) + 1):.12f}")

i_tilde = MultiIndex.from_elements([1, 3, 4], n)
out = out_block(i_tilde, alpha)
print(f"\nout-type sub-block for {i_tilde.elements()}:\n{out}")
print("  eigenvalues (numeric):", np.sort(np.linalg.eigvalsh(out)))
print("  eigenvalues (closed): ", closed_form_spectrum("out", n, 2, alpha))

i_tilde = MultiIndex.from_elements([2], n)
inn = in_block(i_tilde, alpha)
print(f"\nin-type sub-block around {i_tilde.elements()}:\n{inn}")
print("  eigenvalues (closed): ", closed_form_spectrum("in", n, 2, alpha))

print("\nbound constants at p = 4 (so p* - 1 = 3):")
print(f"{'n':>3} {'overall constant':>18} {'bound':>8}")
for dim in (2, 3, 4, 5, 6, 10):
    b = bound_constants(dim, 4.0)
    print(f"{dim:>3} {str(b.overall_constant):>18} {b.overall_bound:>8.4f}")

print("\ndual certificate of each grade constant (alpha = 1 - r/n):")
print(f"{'n':>3} {'r':>2} {'c_r':>10} {'<Z_r, A_r>':>18} {'||Z_r||_*':>18} {'swap asym':>10}")
for dim in range(2, 7):
    for r in range(1, dim):
        c = 2 * r * (dim - r) / dim + 1
        a = build_grade_matrix(HeatMatrixSpec(dim, tuple(1 - s / dim for s in range(dim + 1))), r)
        w, v = np.linalg.eigh(a)
        top, bottom = v[:, w > c - 1e-9], v[:, w < -c + 1e-9]
        assert top.shape[1] == comb(dim, r - 1) and bottom.shape[1] == comb(dim, r + 1)
        plus, minus = top @ top.T, bottom @ bottom.T  # the projectors P+ and P-
        z = (r / dim) * plus / comb(dim, r - 1) - ((dim - r) / dim) * minus / comb(dim, r + 1)
        m = len(a) // dim  # rows are (I, i): swap the two axis indices
        swapped = z.reshape(m, dim, m, dim).transpose(0, 3, 2, 1).reshape(z.shape)
        nuclear = np.abs(np.linalg.eigvalsh(z)).sum()
        asym = np.max(np.abs(z - swapped))
        print(f"{dim:>3} {r:>2} {c:>10.6f} {np.sum(z * a):>18.15f} {nuclear:>18.15f} {asym:>10.1e}")
