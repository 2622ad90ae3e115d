"""Branch-permutation symmetry collapses the symmetric-star eigenproblem.

Relabeling the n identical branches is an automorphism of the star, so
the weight matrix is unitarily similar to a block diagonal with one
(m+1)x(m+1) "symmetric sector" block W0 and n-1 copies of an m x m tail
block W1.  This demo assembles both, shows the spectra coincide, and
checks the Cauchy interlacing between the blocks that pins the second
largest eigenvalue of W to the top of W1.
"""

import numpy as np

from star_consensus import (
    SymmetricStar,
    eig_symmetric,
    interlacing_check,
    optimal_weights,
    scheme_matrix,
    stratify,
)

m, n = 3, 4
topo = SymmetricStar(m, n)
g, W = scheme_matrix(topo, "optimal")
blocks = stratify(topo, optimal_weights(topo))

print(f"symmetric star m={m}, n={n}: {g.node_count} nodes")
print(f"\nW0 ({m+1}x{m+1}, symmetric sector):")
print(np.round(blocks.w0_block, 4))
print(f"\nW1 ({m}x{m}, appears {blocks.n - 1} times):")
print(np.round(blocks.w0_block[1:, 1:], 4))

full = np.sort(eig_symmetric(W))
stacked = np.sort(blocks.combined_spectrum())
print(f"\nfull spectrum      : {np.round(full, 6)}")
print(f"stacked block spec : {np.round(stacked, 6)}")
print(f"max difference     : {np.max(np.abs(full - stacked)):.2e}")

rep = interlacing_check(blocks, W)
print(f"\ninterlacing holds: {rep.holds} "
      f"(max violation {rep.max_violation:.2e})")
print(f"second eigenvalue of W = top of W1: {rep.lambda2_matches_w1_top}")
print("smallest eigenvalue of W = bottom of W1:",
      rep.lambda_min_matches_w1_bottom,
      "(false at the optimum: the most negative eigenvalue lives in W0)")
