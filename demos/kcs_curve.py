"""How many parallel central nodes help a 3-branch star?

Sweeps the number of central nodes k for branches of length 2 and plots
(textually) the optimal SLEM: closed form while it is valid, and beyond
it the exact solve of the optimum's known active set, each point checked
by a KKT certificate.  Adding central nodes helps until the
ignored central eigenvalue (2k-n)/(2k+n) catches up with the tail rate,
then hurts.  At the minimum it prints the certified optimum: the
per-stratum weights and the KKT residual that proves them optimal.
"""

from star_consensus import k_max, kcs_slem_curve, kcs_tied_optimum

n, m = 3, 2
km = k_max(m, n)
curve = kcs_slem_curve(n, m, range(1, 21))
best_k, best_s = min(curve, key=lambda t: t[1])

print(f"k-cored star, n={n} branches of length m={m}")
print(f"closed-form validity bound: k_max = {km}\n")
print("  k   slem      ")
lo = min(s for _, s in curve)
hi = max(s for _, s in curve)
for k, s in curve:
    bar = "#" * int(1 + 40 * (s - lo) / (hi - lo))
    tag = "  <- minimum" if k == best_k else (
        "  <- closed form ends" if k == km else "")
    print(f" {k:3d}  {s:.6f} {bar}{tag}")

print(f"\nminimum slem {best_s:.6f} at k = {best_k}")
print("(central copies of the eigenvalue (2k-n)/(2k+n) take over past "
      "the bound, so piling on central nodes eventually slows mixing)")

opt = kcs_tied_optimum(m, n, best_k)
print(f"\ncertified optimum at k = {best_k} ({opt.message}):")
for stratum, w in sorted(opt.weights.per_stratum.items()):
    print(f"  w{stratum} = {w:.6f}")
print(f"  slem {opt.slem:.6f}, KKT certificate residual {opt.certificate_residual:.1e}")
