"""Quantized averaging: probabilistic rounding reaches consensus,
deterministic rounding stalls.

Nodes exchange b-bit quantized states: x(t+1) = Q(W x(t)) with 2^b
levels on [-1, 1].  Deterministic round-to-nearest usually gets stuck
cycling between neighboring levels; unbiased probabilistic rounding
drives every node to a common level.  The Monte Carlo sweep then
compares weighting schemes by iterations-to-consensus.
"""

import numpy as np

from star_consensus import (
    QuantizerSpec,
    SymmetricStar,
    derive_trial_seed,
    initial_states,
    monte_carlo_row,
    run_trial,
    scheme_matrix,
)

topo = SymmetricStar(2, 3)
g, W = scheme_matrix(topo, "optimal")
seed = 7
x0 = initial_states(seed, 0, g.node_count)

print("single 6-bit trial on the 3-branch star (optimal weights)")
for scheme in ("uniform", "probabilistic"):
    spec = QuantizerSpec(6, scheme)
    out, traj = run_trial(W, x0, spec, max_iters=300,
                          trial_seed=derive_trial_seed(seed, 0),
                          return_trajectory=True)
    status = (f"consensus at iteration {out.iterations} on level "
              f"{out.consensus_value:+.4f}" if out.consensus_reached
              else f"NO consensus within {out.iterations} iterations "
                   f"(spread {np.ptp(spec.values(traj[-1])):.4f})")
    print(f"  {scheme:14s}: {status}")

print("\n10,000-trial sweep, probabilistic quantization, 4 bits")
print(f"{'weighting':14s} {'psi%':>6s} {'eta':>7s} {'mu':>8s} {'rho':>7s}")
spec = QuantizerSpec(4, "probabilistic")
schemes = ("metropolis", "max-degree", "best-constant", "optimal")
# one row: the four weightings run the same trials and share their draws
for scheme, st in zip(schemes, monte_carlo_row(topo, schemes, spec, 10_000,
                                                master_seed=0)):
    print(f"{scheme:14s} {st.psi:6.1f} {st.eta:7.2f} "
          f"{st.mu:+8.4f} {st.rho:7.3f}")
print("\n(at coarse quantization the asymptotically optimal weights need "
      "not win; the consensus value sits within about one quantization "
      "step of the true average either way)")
