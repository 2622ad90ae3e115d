"""Eigenvalue machinery for consensus weight matrices.

Covers the SLEM objective max(lam_2, -lam_N), the branch-permutation
block diagonalization of k-cored stars (the symmetric star is k = 1)
into one (m+1)x(m+1) block W0, n-1 copies of an m x m block W1 and k-1
copies of the core eigenvalue, the characteristic equation whose
smallest positive root gives the optimal SLEM, the k_max threshold for
k-cored stars, and Cauchy-interlacing consistency checks.

``stratify`` gives the blocks of one point as ``StratifiedBlocks``.  The
private ``_block_spectrum`` alone knows which block eigenvalues make up
W's spectrum without its eigenvalue 1, and their weight gradients, in
band form (each weight moves W0 by a rank-one slope); everything else
(block SLEM, interlacing check, the KKT certificate of
``kcs_tied_optimum``) reads it, the block SLEM and the interlacing check
without gradients.  It takes sector blocks, so the certificate of a
k-cored curve hands it the blocks of many points of one (m, n) as one
stack, whose eigensolves then run in one LAPACK call per block kind.

The characteristic function of the k-cored star (the symmetric star is
the case k = 1) can be written

    f(t) = (n-2k)cos((m-1/2)t) - (n+2k)cos((m+1/2)t)
         = 2n sin(mt) sin(t/2) - 4k cos(mt) cos(t/2).

On (0, pi/(2m)) both cosines are positive, so f has the sign of
tan(mt) tan(t/2) - 2k/n, which increases strictly from -2k/n to +inf.
Hence f(0) = -4k < 0, f(pi/(2m)) = 2n sin(pi/(4m)) > 0, and the smallest
positive root is the only root in that bracket, found to machine
precision for every m by ``_brentq``, the package's own port of scipy's
Brent solver, on f (``char_kcs``).  The k_max threshold depends on (n, k)
only through r = k/n.  Its ratio r*(m), where the central eigenvalue
(2r-1)/(2r+1) meets cos(theta), is computed once per m the same way: the
root of the same f at (n, k) = (2 sin^2(t/2), cos^2(t/2)), the crossing
ratio r = cot^2(t/2)/2 scaled so that f(0) = -4.

k_max(m, n) = floor(n * r*(m)) for m >= 2 and n at m = 1, and that one
rule, with no tolerance, decides where the closed form holds: the closed
form is refused and the tied optimum takes the active-set route exactly
when k > k_max.  Where n * r*(m) lies too near an integer for floating
point to decide the floor (``K_MAX_GUARD``), k_max is refused instead.
At m = 1, f(t) = cos(t/2) (2n(1 - cos t) - 4k cos t), so cos(theta) =
n/(n + 2k), which the central eigenvalue (2k-n)/(2k+n) meets exactly at
k = n: r*(1) = 1, where the float root lands an ulp below it.  The
condition is not re-checked in floats at k and k + 1; at large m its two
sides are too close to decide it (see ``k_max``).  No analysis path loads
scipy.optimize; only ``optimality.minimize_slem``, the SLSQP estimate on
a dense graph, does.

Dense eigenproblems go to LAPACK through numpy.linalg.eigvalsh (eigh for
gradients), deterministic for identical input bits;
``eig_symmetric`` is the dense oracle that the block and closed-form fast
paths are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .topology import CcsStar, KcsStar, Topology, _is_integer
from .weights import WeightAssignment

__all__ = [
    "SpectralError",
    "StratifiedBlocks",
    "InterlacingReport",
    "eig_symmetric",
    "slem",
    "stratify",
    "theta_root_kcs",
    "slem_closed_form",
    "k_max",
    "interlacing_check",
    "char_kcs",
]

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-9
INTERLACING_TOL = 1e-10


class SpectralError(ValueError):
    """Raised on contract violations or numerical failure."""


def _symmetric(matrix) -> np.ndarray:
    """matrix as a float array, refused unless square and symmetric within
    SYMMETRY_TOL."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpectralError("input must be a square matrix")
    if not np.allclose(A, A.T, atol=SYMMETRY_TOL, rtol=0):
        raise SpectralError("input must be symmetric within 1e-12")
    return A


def eig_symmetric(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted decreasingly."""
    return np.sort(np.linalg.eigvalsh(_symmetric(matrix)))[::-1]


def _check_weight_matrix(W) -> np.ndarray:
    """W as a float array, refused with SpectralError (a ValueError) unless
    it is a consensus weight matrix: square, symmetric within
    SYMMETRY_TOL and with rows summing to one within STOCHASTIC_TOL."""
    W = _symmetric(W)
    if np.max(np.abs(W.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
        raise SpectralError("matrix rows must sum to one (within 1e-9)")
    return W


def slem(W: np.ndarray) -> float:
    """Second largest eigenvalue modulus, max(lam_2, -lam_N)."""
    lam = eig_symmetric(_check_weight_matrix(W))
    if lam.size < 2:
        raise SpectralError("SLEM needs at least two nodes")
    return float(max(lam[1], -lam[-1]))


def complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the unit vector v:
    the last len(v) - 1 columns of the Householder reflector that maps v to
    e_1.  v must not be e_1 (the normalized ones vector of two or more
    nodes never is)."""
    u = v.copy()
    u[0] -= 1.0
    return (np.eye(u.size) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]


@dataclass(frozen=True)
class StratifiedBlocks:
    """Blocks of the branch-permutation diagonalization of a k-cored star
    (the symmetric star is the case k = 1) at one point of weights.

    The full matrix is orthogonally similar to
    diag(W0, W1, ..., W1, c, ..., c) with n-1 copies of the tail block
    W1 = W0[1:, 1:] and k-1 copies of the core eigenvalue
    c = W0[0, 0] = 1 - n*w1.  W0 holds the Perron eigenvalue 1.  The
    record is (W0, n, k) alone, so W1 and c are read off W0 and cannot
    disagree with it.  Built by ``stratify``; ``_block_spectrum`` says
    which of these eigenvalues make up the rest of W's spectrum.

    A record that no star describes raises SpectralError: W0 must be
    square, symmetric and tridiagonal of order >= 2, n and k integers
    >= 1, and W0 must fix v = (sqrt(k), sqrt(n), ..., sqrt(n)) within
    1e-12 * max(v), as every sector block of n branches and k cores does.
    """

    w0_block: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        W0, n, k = _symmetric(self.w0_block), self.n, self.k
        if len(W0) < 2 or np.triu(W0, 2).any() or np.tril(W0, -2).any():
            raise SpectralError("w0_block must be tridiagonal of order >= 2")
        if not (_is_integer(n) and n >= 1 and _is_integer(k) and k >= 1):
            raise SpectralError(f"n and k must be integers >= 1, got {n!r}, {k!r}")
        v = np.array([math.sqrt(k)] + [math.sqrt(n)] * (len(W0) - 1))
        if not np.abs(W0 @ v - v).max() <= 1e-12 * v.max():  # NaN fails
            raise SpectralError(f"w0_block does not fix (sqrt(k), sqrt(n), ...), "
                                f"so it is no sector block at n={n}, k={k}")

    def combined_spectrum(self) -> np.ndarray:
        """W's whole spectrum, decreasing."""
        vals = [eig_symmetric(self.w0_block)]
        vals += [eig_symmetric(self.w0_block[1:, 1:])] * (self.n - 1)
        vals += [self.w0_block[:1, 0]] * (self.k - 1)
        return np.sort(np.concatenate(vals))[::-1]

    def slem(self) -> float:
        """SLEM of W from the block spectra."""
        lam = _block_spectrum(self.w0_block, self.n, self.k)[0]
        return float(np.abs(lam).max())


def stratify(topology: Topology, assignment: WeightAssignment) -> StratifiedBlocks:
    """Block-diagonalize the weight matrix of a k-cored star (the symmetric
    star is the case k = 1) with per-stratum weights w1..wm.

    W0 is the (m+1)x(m+1) tridiagonal sector block (centrals and
    branch-symmetric tails) with corner 1 - n*w1 and coupling
    sqrt(n*k)*w1; W1 is the m x m tail block, first diagonal entry
    1 - k*w1 - w2, repeated n-1 times; the core eigenvalue 1 - n*w1
    comes from centrals summing to zero and repeats k-1 times.  W1 is W0
    without its first row and column, and every entry is affine in w.
    The complete-cored family is checked by dense eigensolve instead.
    """
    if not isinstance(topology, KcsStar):
        raise SpectralError("stratification is implemented for symmetric "
                            "and k-cored stars only")
    n, k = topology.n, topology.k
    w = assignment.for_strata(range(1, topology.m + 1))
    return StratifiedBlocks(sector_block(n, k, w), n, k)


def _block_spectrum(W0: np.ndarray, n: int, k, gradients: bool = False):
    """W's eigenvalues other than the Perron 1, one copy per block, from
    the sector block W0 of KcsStar(m, n, k), and with ``gradients`` their
    gradients in w1..wm, one row each (else None).

    In order: W0 without its Perron eigenvalue (ascending), the tail block
    W0[1:, 1:] (ascending, n >= 2) and the core value W0[0, 0] = 1 - n*w1
    (k >= 2).  The Perron eigenvalue is the one nearest 1: W0 (sqrt(k),
    sqrt(n), ...)^T = (sqrt(k), sqrt(n), ...)^T at every w, and at
    nonnegative weights it is W0's largest.  The gradients come from the
    eigenvectors in W0's coordinates (the tail block's with entry 0 zero)
    by ``_band_gradients``, O(m^2) for all of them; the block SLEM and the
    interlacing check form none.

    The sector blocks of several points of one (m, n), stacked on leading
    axes with k holding one entry per point, take one eigensolve per
    block kind; LAPACK solves each block on its own, so a point gets the
    same bits in any stack.  The certificate of a k-cored curve reads them
    so.  Their k are all 1 or all 2 or more, as the core eigenvalue is in
    every spectrum of a stack or in none.
    """
    k = np.asarray(k)
    core = np.all(k > 1)
    if not core and np.any(k > 1):
        raise SpectralError("k must be 1 at every point or at none")
    m = W0.shape[-1] - 1
    vals, vecs = np.linalg.eigh(W0)
    perron = np.argmin(np.abs(vals - 1.0), axis=-1)[..., None]
    keep = np.arange(m + 1) != perron
    batch = vals.shape[:-1]
    lam = [vals[keep].reshape(batch + (m,))]
    rows = [vecs.swapaxes(-1, -2)[keep].reshape(batch + (m, m + 1))]
    if n > 1:
        vals, vecs = np.linalg.eigh(W0[..., 1:, 1:])
        lam.append(vals)
        rows.append(np.concatenate((np.zeros(batch + (m, 1)),
                                    vecs.swapaxes(-1, -2)), axis=-1))
    if core:
        lam.append(W0[..., 0, 0][..., None])
    lam = np.concatenate(lam, axis=-1)
    if not gradients:
        return lam, None
    grad = _band_gradients(n, k.astype(float)[..., None], np.concatenate(rows, axis=-2))
    if core:  # the core value, -n in w1 alone
        row = np.zeros(batch + (1, m))
        row[..., 0] = -n
        grad = np.concatenate((grad, row), axis=-2)
    return lam, grad


def sector_block(n: int, k, w: np.ndarray) -> np.ndarray:
    """The (m+1)x(m+1) tridiagonal sector block W0 of a k-cored star with
    per-stratum weights w = (w1..wm); the tail block W1 is W0[1:, 1:].
    Rows of weights and one k per row give a stack of blocks."""
    w = np.asarray(w, dtype=float)
    m = w.shape[-1]
    k = np.asarray(k, dtype=float)[..., None]
    w1, rest = w[..., :1], w[..., 1:]
    shifted = np.concatenate((rest, np.zeros_like(w1)), axis=-1)  # w2..wm, 0
    diag = np.concatenate((1.0 - n * w1, 1.0 - w - shifted), axis=-1)
    diag[..., 1:2] -= (k - 1) * w1
    off = np.concatenate((np.sqrt(n * k) * w1, rest), axis=-1)
    i = np.arange(m + 1)
    W0 = np.zeros(w.shape[:-1] + (m + 1, m + 1))
    W0[..., i, i] = diag
    W0[..., i[1:], i[:-1]] = W0[..., i[:-1], i[1:]] = off
    return W0


def _band_gradients(n: int, k, vecs: np.ndarray) -> np.ndarray:
    """v^T (dW0/dw_i) v for each row v of ``vecs`` (vectors in W0's
    coordinates) and i = 1..m, one row per vector; over a stack, k holds
    one entry per point, broadcast against the rows.

    Each weight enters W0 through a rank-one slope: dW0/dw1 =
    -(sqrt(n) e0 - sqrt(k) e1)(sqrt(n) e0 - sqrt(k) e1)^T and dW0/dw_i =
    -(e_{i-1} - e_i)(e_{i-1} - e_i)^T for i >= 2, so the gradient entries
    are -(sqrt(n) v[0] - sqrt(k) v[1])^2 and -(v[i-1] - v[i])^2."""
    d = vecs[..., :-1] - vecs[..., 1:]
    d[..., 0] = math.sqrt(n) * vecs[..., 0] - np.sqrt(k) * vecs[..., 1]
    return -(d * d)


def char_kcs(theta: float, m: int, n: float, k: float) -> float:
    """Characteristic function of the k-cored SLEM angle:
    (n-2k)cos((m-1/2)t) - (n+2k)cos((m+1/2)t), at one float angle.

    Derived from the tail block of the branch-permutation decomposition
    (innermost tail diagonal 1 - k*w1 - w2 with w1 = 2/(n+2k)); at k = 1
    it is the symmetric-star equation, and it reproduces the published
    k-cored SLEM values, which the commonly circulated sin-form of the
    equation does not.  It is ``_char_of_angle(m, n, k)`` at theta, so the
    function is written once, there."""
    return _char_of_angle(m, n, k)(theta)


def _char_of_angle(m: int, n: float, k: float):
    """``char_kcs`` at fixed (m, n, k) as a function of the angle alone,
    the target that ``theta_root_kcs`` solves.

    Its coefficients n - 2k, m - 1/2, n + 2k and m + 1/2 are formed once,
    here, so a root solve builds its target once and each evaluation is
    two math.cos calls (a numpy call per value would cost more than the
    root solve itself)."""
    lo, lo_freq = n - 2 * k, m - 0.5
    hi, hi_freq = n + 2 * k, m + 0.5

    def char(theta):
        return lo * math.cos(lo_freq * theta) - hi * math.cos(hi_freq * theta)

    return char


EPS = float(np.finfo(float).eps)
# scipy.optimize.brentq's defaults
BRENT_RTOL = 4 * EPS
BRENT_MAXITER = 100


def _brentq(f, a: float, b: float, args: tuple, xtol: float,
            fa: float | None = None) -> tuple[float, int]:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4), and the number of iterations taken.

    A line-for-line port of scipy's C ``brentq``: the same relative
    tolerance BRENT_RTOL, the same BRENT_MAXITER and the same order of the
    interpolate, extrapolate and bisect steps, so it returns the same root
    bits after as many iterations.  A root at an end point returns at once
    with 0 iterations.  Like scipy, it raises ValueError on a bracket
    without a sign change or on a NaN value, and RuntimeError when
    BRENT_MAXITER iterations do not converge.

    f is called directly, with the NaN check inline after each call and
    no cast, so that an evaluation costs no wrapper call; f returns a
    float, as ``char_kcs`` and the active-set D(s) of ``optimality`` do.
    A caller that already holds f(a) passes it as fa, and f is not called
    at a; the iterates are the same.
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre, *args) if fa is None else fa
    if fpre != fpre:
        raise ValueError(f"the function value at x={xpre} is NaN")
    fcur = f(xcur, *args)
    if fcur != fcur:
        raise ValueError(f"the function value at x={xcur} is NaN")
    if fpre == 0:
        return xpre, 0
    if fcur == 0:
        return xcur, 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, BRENT_MAXITER + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, i

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur, *args)
        if fcur != fcur:
            raise ValueError(f"the function value at x={xcur} is NaN")
    raise RuntimeError(f"failed to converge after {BRENT_MAXITER} iterations")


def _bracketed_root(f, m: int, args) -> float:
    """The single root of f in (0, pi/(2m)), where f(0) < 0 < f(pi/(2m)),
    to machine precision."""
    right = math.pi / (2 * m)
    return _brentq(f, 0.0, right, args, EPS * right)[0]


def theta_root_kcs(m: int, n: int, k: int) -> float:
    """Smallest positive root of the k-cored characteristic equation.

    It is the only root in (0, pi/(2m)) (see the module docstring); the
    symmetric star is the case k = 1.  m, n and k must be integers (not
    bools) >= 1; ``char_kcs`` itself also takes real n and k.
    """
    if not (_is_integer(m) and m >= 1 and _is_integer(n) and n >= 1
            and _is_integer(k) and k >= 1):
        raise SpectralError(f"m, n, k must be integers >= 1, got {(m, n, k)!r}")
    return _bracketed_root(_char_of_angle(m, n, k), m, ())


def slem_closed_form(topology: Topology) -> float:
    """Optimal SLEM of a star family via its characteristic equation.

    KCS (k = 1 is the symmetric star): cos of the smallest k-cored root,
    refused for k > k_max(m, n), and for k >= 2 wherever ``k_max`` itself
    is refused; CCS: cos(pi/(2(m+1))), independent of n.  k = 1 does not
    read k_max, so a symmetric star of any n keeps its closed form.
    """
    if isinstance(topology, CcsStar):
        return math.cos(math.pi / (2 * (topology.m + 1)))
    if isinstance(topology, KcsStar):
        m, n, k = topology.m, topology.n, topology.k
        # k = 1 never exceeds k_max: n at m = 1, at least 3n past it
        if k > 1:
            km = _k_max(m, n)
            if k > km:
                raise SpectralError(f"{topology} is past k_max = {km}")
        return math.cos(theta_root_kcs(m, n, k))
    raise SpectralError("closed-form SLEM is defined only for the star families")


def _crossing_char(theta, m: int):
    """``char_kcs`` at (n, k) = (2 sin^2(t/2), cos^2(t/2)).

    That is the ratio r = k/n = cot^2(t/2)/2 at which the central
    eigenvalue (2r-1)/(2r+1) equals cos(t), with n = 2 sin^2(t/2) scaling
    the function so that it stays finite at t = 0, where it is -4."""
    half = theta / 2
    return char_kcs(theta, m, 2 * math.sin(half) ** 2, math.cos(half) ** 2)


@functools.cache  # a pure function of m
def _r_star(m: int) -> float:
    """The ratio k/n at which the central eigenvalue (2k-n)/(2k+n) meets
    the closed-form SLEM cos(theta(m, n, k)).

    Both sides depend on (n, k) only through r = k/n.  The central
    eigenvalue rises with r, while cos(theta) falls, because theta solves
    tan(mt) tan(t/2) = 2r and so rises with r.  Hence the closed form stays
    optimal exactly for r <= r*.  At the crossing 2r = cot^2(t/2), so the
    root equation becomes tan(mt) = cot^3(t/2).  On (0, pi/(2m)) the
    left side rises and the right side falls, so the crossing angle is the
    single root of ``_crossing_char``, the one characteristic function at
    the crossing ratio, there.  The root is found to machine precision, so
    r* carries a relative error of a few ulps: at most 6.3e-16 against a
    60-digit bisection of the same function, on m 2..300 and eight m up to
    20000.  r*(1) = 1 exactly, which the float root misses by an ulp, so
    ``_k_max`` does not read it at m = 1.
    """
    theta = _bracketed_root(_crossing_char, m, (m,))
    return 0.5 / math.tan(theta / 2) ** 2


# r*'s relative error (at most 6.3e-16, see ``_r_star``) plus the rounding
# of n * r*(m) (at most 2^-53 = 1.1e-16 relative), rounded up: a product
# within this relative distance of an integer may floor either way.
K_MAX_GUARD = 8e-16


def _k_max(m: int, n: int) -> int:
    """``k_max`` without its argument check; it raises SpectralError where
    floating point cannot decide the floor."""
    if m == 1:
        return n
    x = n * _r_star(m)
    floor = math.floor(x)
    guard = K_MAX_GUARD * x
    # both differences are exact wherever they can reach the guard
    if x - floor <= guard or floor + 1 - x <= guard:
        raise SpectralError(
            f"k_max({m}, {n}) is undecided in floating point: n * r*(m) = "
            f"{x!r} lies within {K_MAX_GUARD} * n * r*(m) of an integer")
    return floor


def k_max(m: int, n: int) -> int:
    """Largest k for which the closed-form k-cored weights stay optimal.

    The threshold is (2k-n)/(2k+n) <= cos(theta(m, n, k)), which holds
    exactly for k/n <= r*(m), so k_max = floor(n * r*(m)): n at m = 1,
    where cos(theta) = n/(n + 2k) makes the tie at k = n exact (see the
    module docstring), and at least 3n for m >= 2, as r* rises with m from
    r*(2) = 3.19.  The rule is applied with no tolerance and no re-check
    of the condition at k and k + 1: near the crossing both sides of that
    float comparison agree to within a few ulps at large m, so a re-check
    would move k_max off the exact value (to 810569793 in place of
    810569136 at (1000, 1000) with a 1e-12 tolerance), while floor(n *
    r*(m)) matched a 60-digit r*(m) on all 19,712 pairs probed (m up to
    20000, n up to 1000).  For m >= 2 it refuses, with SpectralError, a
    product n * r*(m) within K_MAX_GUARD * n * r*(m) of an integer, where
    r*'s error and the product's rounding could move the floor: every n
    from about 6.3e14 on, as k_max(2, 10**15) (which read 3186140661634507,
    where a float's ulp is 0.5 and r*'s error alone about 2), and no pair
    of m 2..300 x n 1..1000, whose least relative distance is 1.8e-14.
    m = 1 is exact and never refused.  m and n must be integers (not
    bools) >= 1.
    """
    if not (_is_integer(m) and m >= 1 and _is_integer(n) and n >= 1):
        raise SpectralError(f"m, n must be integers >= 1, got {(m, n)!r}")
    return _k_max(m, n)


@dataclass(frozen=True)
class InterlacingReport:
    holds: bool
    max_violation: float
    lambda2_matches_w1_top: bool
    lambda_min_matches_w1_bottom: bool


def interlacing_check(blocks: StratifiedBlocks,
                      W: np.ndarray | None = None) -> InterlacingReport:
    """Verify Cauchy interlacing of the tail block inside the center block.

    With both spectra ascending, lam_j(W0) <= lam_j(W1) <= lam_{j+1}(W0)
    must hold for every j.  When the full matrix is supplied, also check
    that its second largest eigenvalue is the largest block eigenvalue
    other than the Perron 1 (``_block_spectrum``; by interlacing, the top
    of W1 when n >= 2, unless the core eigenvalue 1 - n*w1 is larger, as
    past k_max), and report whether its smallest eigenvalue equals the
    bottom of W1.  The latter identity is *not* implied by interlacing
    (which only gives lam_min(W0) <= lam_min(W1)), and at the optimal
    weights the smallest eigenvalue of W belongs to the W0 block instead,
    so that field is informational and excluded from ``holds``.  A W whose
    order is not the star's k + n*m raises SpectralError.  Every field is
    a Python bool or float.
    """
    lam0 = np.sort(eig_symmetric(blocks.w0_block))  # ascending
    lam1 = np.sort(eig_symmetric(blocks.w0_block[1:, 1:]))
    viol = float(max(0.0, np.max(lam0[:-1] - lam1), np.max(lam1 - lam0[1:])))
    top_ok = bottom_ok = True
    if W is not None:
        lam = eig_symmetric(W)
        order = blocks.k + blocks.n * lam1.size
        if lam.size != order:
            raise SpectralError(f"W has order {lam.size}, but the blocks are "
                                f"of a star of order {order}")
        top = _block_spectrum(blocks.w0_block, blocks.n, blocks.k)[0].max()
        top_ok = bool(abs(lam[1] - top) <= INTERLACING_TOL)
        bottom_ok = bool(abs(lam[-1] - lam1[0]) <= INTERLACING_TOL)
    return InterlacingReport(
        holds=viol <= INTERLACING_TOL and top_ok,
        max_violation=viol,
        lambda2_matches_w1_top=top_ok,
        lambda_min_matches_w1_bottom=bottom_ok,
    )
