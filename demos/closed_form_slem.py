"""Closed-form optimal weights and convergence rates for the three star
families, cross-checked against a dense eigensolve.

The convergence rate of distributed averaging x(t+1) = W x(t) is set by
the SLEM of W: the larger of the second eigenvalue and the magnitude of
the most negative one.  For star-shaped sensor networks the optimal
weights and the resulting SLEM have closed forms; this script prints
them and verifies each against the assembled matrix.
"""

from star_consensus import (
    CcsStar,
    KcsStar,
    SymmetricStar,
    k_max,
    optimal_weights,
    scheme_matrix,
    slem,
    slem_closed_form,
)

print("=== symmetric star: one hub, n path branches of length m ===")
print("optimal hub weight 2/(n+2), every other edge 1/2\n")
for m, n in [(2, 3), (3, 3), (3, 40)]:
    topo = SymmetricStar(m, n)
    w = optimal_weights(topo)
    g, W = scheme_matrix(topo, "optimal")
    print(f"m={m:2d} n={n:2d}: w1={w.per_stratum[1]:.4f}  "
          f"slem closed={slem_closed_form(topo):.6f}  dense={slem(W):.6f}")

print("\n=== complete-cored star: hub replaced by a complete graph ===")
print("core weight 1/n, tails 1/2; SLEM = cos(pi/(2(m+1))), independent of n\n")
for n in (3, 5, 40):
    topo = CcsStar(2, n)
    g, W = scheme_matrix(topo, "optimal")
    print(f"m=2 n={n:2d}: slem dense={slem(W):.6f} "
          f"(closed {slem_closed_form(topo):.6f})")

print("\n=== k-cored star: hub replaced by k parallel central nodes ===")
print("central weights 2/(n+2k); closed form valid while the ignored")
print("central eigenvalue (2k-n)/(2k+n) stays below the tail SLEM\n")
for k in (1, 2, 5):
    topo = KcsStar(3, 3, k)
    g, W = scheme_matrix(topo, "optimal")
    print(f"m=3 n=3 k={k}: slem={slem_closed_form(topo):.6f}  "
          f"dense={slem(W):.6f}")
print(f"\nvalidity bound k_max(m=3, n=3) = {k_max(3, 3)}")

print("\nadding a core (CCS) or parallel hubs (KCS) beats the plain star:")
for n in (3, 40):
    s1 = slem_closed_form(SymmetricStar(3, n))
    s2 = slem_closed_form(KcsStar(3, n, 2))
    s3 = slem_closed_form(CcsStar(2, n))
    print(f"n={n:2d}: symmetric {s1:.4f} > 2-cored {s2:.4f} > "
          f"complete-cored {s3:.4f}")
