"""Eigenvalue machinery for consensus weight matrices.

Covers the SLEM objective max(lam_2, -lam_N), the branch-permutation
block diagonalization of k-cored stars (the symmetric star is k = 1)
into one (m+1)x(m+1) block W0, n-1 copies of an m x m block W1 and k-1
copies of the core eigenvalue, the characteristic equation whose
smallest positive root gives the optimal SLEM, the k_max threshold for
k-cored stars, and Cauchy-interlacing consistency checks.

``StratifiedBlocks.nontrivial_spectrum`` alone knows which block
eigenvalues make up W's spectrum without its eigenvalue 1, and their
weight gradients, in band form (each weight moves W0 by a rank-one
slope); everything else (block SLEM, interlacing check, the certificate
and SLSQP fallback of ``kcs_tied_optimum``) reads it.

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
ratio r = cot^2(t/2)/2 scaled so that f(0) = -4.  No analysis
path loads scipy.optimize; only the SLSQP minimizer in ``optimality`` does.

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
# The k_max comparison (2k-n)/(2k+n) <= cos(theta) is exact at some integer
# points (m = 1, k = n gives 1/3 on both sides); sides closer than this
# count as equal, so a rounding error in the root cannot break the tie.
TIE_TOL = 1e-12


class SpectralError(ValueError):
    """Raised on contract violations or numerical failure."""


def eig_symmetric(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted decreasingly."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpectralError("input must be a square matrix")
    if not np.allclose(A, A.T, atol=SYMMETRY_TOL, rtol=0):
        raise SpectralError("input must be symmetric within 1e-12")
    return np.sort(np.linalg.eigvalsh(A))[::-1]


def slem(W: np.ndarray) -> float:
    """Second largest eigenvalue modulus, max(lam_2, -lam_N)."""
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
        raise SpectralError("matrix rows must sum to one (within 1e-9)")
    lam = eig_symmetric(W)
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
    (the symmetric star is the case k = 1).

    The full matrix is orthogonally similar to
    diag(W0, W1, ..., W1, c, ..., c) with n-1 copies of the tail block W1
    and k-1 copies of the core eigenvalue c = 1 - n*w1.  W0 holds the
    Perron eigenvalue 1.  ``nontrivial_spectrum`` is the one place that
    says which of these eigenvalues make up the rest of W's spectrum.
    """

    w0_block: np.ndarray
    w1_block: np.ndarray
    w1_multiplicity: int
    core_value: float
    core_multiplicity: int

    def combined_spectrum(self) -> np.ndarray:
        vals = [eig_symmetric(self.w0_block)]
        vals += [eig_symmetric(self.w1_block)] * self.w1_multiplicity
        vals += [np.array([self.core_value])] * self.core_multiplicity
        return np.sort(np.concatenate(vals))[::-1]

    def nontrivial_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """W's eigenvalues other than the Perron 1, one copy per block, and
        their gradients in w1..wm, one row each.

        In order: W0 without its Perron eigenvalue (ascending), W1
        (ascending, n >= 2) and the core value (k >= 2).  The Perron
        eigenvalue is the one nearest 1: W0 (sqrt(k), sqrt(n), ...)^T =
        (sqrt(k), sqrt(n), ...)^T at every w, and at nonnegative weights it
        is W0's largest.  The gradients come from ``_band_gradients``,
        O(m^2) for all of them.
        """
        m = self.w1_block.shape[0]
        n, k = self.w1_multiplicity + 1, self.core_multiplicity + 1
        vals, vecs = np.linalg.eigh(self.w0_block)
        perron = np.argmin(np.abs(vals - 1.0))
        grads = _band_gradients(n, k, np.delete(vecs, perron, 1))
        parts = [(np.delete(vals, perron), grads)]
        if self.w1_multiplicity:
            vals, vecs = np.linalg.eigh(self.w1_block)
            # W1 is W0 on rows 1..m: in W0's coordinates its vectors have
            # entry 0 zero
            vecs = np.vstack((np.zeros(m), vecs))
            parts.append((vals, _band_gradients(n, k, vecs)))
        if self.core_multiplicity:
            parts.append(([self.core_value], [[-n] + [0.0] * (m - 1)]))
        lam, grad = zip(*parts)
        return np.concatenate(lam), np.concatenate(grad)

    def slem(self) -> float:
        """SLEM of W from the block spectra."""
        return float(np.abs(self.nontrivial_spectrum()[0]).max())


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
    if assignment.per_stratum is None:
        raise SpectralError("stratification needs per-stratum weights")
    w = [assignment.per_stratum[j] for j in range(1, topology.m + 1)]
    return kcs_blocks(topology.n, topology.k, np.array(w, dtype=float))


def kcs_blocks(n: int, k: int, w: np.ndarray) -> StratifiedBlocks:
    """The stratified blocks of KcsStar(len(w), n, k) at weights w1..wm."""
    W0 = sector_block(n, k, w)
    return StratifiedBlocks(W0, W0[1:, 1:].copy(), n - 1, 1.0 - n * w[0], k - 1)


def sector_block(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """The (m+1)x(m+1) tridiagonal sector block W0 of a k-cored star with
    per-stratum weights w = (w1..wm); the tail block W1 is W0[1:, 1:]."""
    diag = np.append(1.0 - n * w[0], 1.0 - w - np.append(w[1:], 0.0))
    diag[1] -= (k - 1) * w[0]
    off = np.append(math.sqrt(n * k) * w[0], w[1:])
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _band_gradients(n: int, k: int, vecs: np.ndarray) -> np.ndarray:
    """v^T (dW0/dw_i) v for each column v of ``vecs`` (vectors in W0's
    coordinates) and i = 1..m, one row per column.

    Each weight enters W0 through a rank-one slope: dW0/dw1 =
    -(sqrt(n) e0 - sqrt(k) e1)(sqrt(n) e0 - sqrt(k) e1)^T and dW0/dw_i =
    -(e_{i-1} - e_i)(e_{i-1} - e_i)^T for i >= 2, so the gradient entries
    are -(sqrt(n) v[0] - sqrt(k) v[1])^2 and -(v[i-1] - v[i])^2."""
    d = vecs[:-1] - vecs[1:]
    d[0] = math.sqrt(n) * vecs[0] - math.sqrt(k) * vecs[1]
    return -(d * d).T


def char_kcs(theta: float, m: int, n: float, k: float) -> float:
    """Characteristic function of the k-cored SLEM angle:
    (n-2k)cos((m-1/2)t) - (n+2k)cos((m+1/2)t), at one float angle.

    Derived from the tail block of the branch-permutation decomposition
    (innermost tail diagonal 1 - k*w1 - w2 with w1 = 2/(n+2k)); at k = 1
    it is the symmetric-star equation, and it reproduces the published
    k-cored SLEM values, which the commonly circulated sin-form of the
    equation does not.  On math.cos: a numpy call per value would cost
    more than the root solve itself."""
    return ((n - 2 * k) * math.cos((m - 0.5) * theta)
            - (n + 2 * k) * math.cos((m + 0.5) * theta))


EPS = float(np.finfo(float).eps)
# scipy.optimize.brentq's defaults
BRENT_RTOL = 4 * EPS
BRENT_MAXITER = 100


def _brentq(f, a: float, b: float, args: tuple, xtol: float) -> tuple[float, int]:
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
    """
    def value(x):
        fx = float(f(x, *args))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
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
        fcur = value(xcur)
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
    if not all(_is_integer(v) and v >= 1 for v in (m, n, k)):
        raise SpectralError(f"m, n, k must be integers >= 1, got {(m, n, k)!r}")
    return _bracketed_root(char_kcs, m, (m, n, k))


def slem_closed_form(topology: Topology) -> float:
    """Optimal SLEM of a star family via its characteristic equation.

    KCS (k = 1 is the symmetric star): cos of the smallest k-cored root,
    refused past k_max(m, n); CCS: cos(pi/(2(m+1))), independent of n.
    """
    if isinstance(topology, CcsStar):
        return math.cos(math.pi / (2 * (topology.m + 1)))
    if isinstance(topology, KcsStar):
        m, n, k = topology.m, topology.n, topology.k
        theta = theta_root_kcs(m, n, k)
        if k > 1 and not _closed_form_optimal(n, k, theta):
            raise SpectralError(f"{topology} is past k_max = {k_max(m, n)}")
        return math.cos(theta)
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
    the crossing ratio, there.  r*(1) = 1.
    """
    theta = _bracketed_root(_crossing_char, m, (m,))
    return 0.5 / math.tan(theta / 2) ** 2


def _closed_form_optimal(n: int, k: int, theta: float) -> bool:
    """(2k-n)/(2k+n) <= cos(theta(m, n, k)), ties within TIE_TOL included."""
    return (2 * k - n) / (2 * k + n) <= math.cos(theta) + TIE_TOL


def k_max(m: int, n: int) -> int:
    """Largest k for which the closed-form k-cored weights stay optimal.

    The threshold is (2k-n)/(2k+n) <= cos(theta(m, n, k)), which holds
    exactly for k/n <= r*(m), so k_max = max(1, floor(n * r*(m))).  The
    integer condition is then checked at k and k + 1, stepping k until it
    holds at k (or k = 1) and fails at k + 1, so rounding in r* cannot
    move the answer.  m and n must be integers (not bools) >= 1.
    """
    if not all(_is_integer(v) and v >= 1 for v in (m, n)):
        raise SpectralError(f"m, n must be integers >= 1, got {(m, n)!r}")
    k = max(1, math.floor(n * _r_star(m)))
    while k > 1 and not _closed_form_optimal(n, k, theta_root_kcs(m, n, k)):
        k -= 1
    while _closed_form_optimal(n, k + 1, theta_root_kcs(m, n, k + 1)):
        k += 1
    return k


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
    that its second largest eigenvalue is the largest of
    ``blocks.nontrivial_spectrum()`` (by interlacing, the top of W1 when
    n >= 2, unless the core eigenvalue 1 - n*w1 is larger, as past k_max),
    and report whether its smallest eigenvalue equals the bottom of W1.
    The latter identity is *not* implied by interlacing (which only gives
    lam_min(W0) <= lam_min(W1)), and at the optimal weights the smallest
    eigenvalue of W belongs to the W0 block instead, so that field is
    informational and excluded from ``holds``.
    """
    lam0 = np.sort(eig_symmetric(blocks.w0_block))  # ascending
    lam1 = np.sort(eig_symmetric(blocks.w1_block))
    viol = max(0.0, np.max(lam0[:-1] - lam1), np.max(lam1 - lam0[1:]))
    top_ok = bottom_ok = True
    if W is not None:
        lam = eig_symmetric(W)
        top = blocks.nontrivial_spectrum()[0].max()
        top_ok = abs(lam[1] - top) <= INTERLACING_TOL
        bottom_ok = abs(lam[-1] - lam1[0]) <= INTERLACING_TOL
    return InterlacingReport(
        holds=viol <= INTERLACING_TOL and top_ok,
        max_violation=float(viol),
        lambda2_matches_w1_top=top_ok,
        lambda_min_matches_w1_bottom=bottom_ok,
    )
