"""Independent verification that the closed-form star weights are optimal,
and optimal k-cored weights where the closed form stops being optimal.

Four routes:

* complementary-slackness residuals: the dual certificate of the
  semidefinite program reduces to Chebyshev-type recursions in the
  coordinates a_i, b_i; at the closed-form weights and the characteristic
  angle every residual must vanish.  These are the certificate's equality
  conditions only, not its sign conditions, so vanishing residuals do not
  prove optimality: at n = 1 they vanish, yet the closed-form weights are
  not optimal (ROADMAP direction 2),
* the tied optimum of a k-cored star (``kcs_tied_optimum``, which
  ``kcs_slem_curve`` uses for every k > k_max): up to k_max the closed
  form, and beyond it an exact solve of its known active set by
  elimination, w2 in closed form from the matrix determinant lemma and
  then one bracketed root find for s (``spectral._brentq``) on O(m)
  pivots of the tridiagonal sector and tail blocks (m per-stratum
  weights, blocks of size at most m + 1), with no eigensolve; either is
  certified by the KKT conditions of Boyd, Diaconis and Xiao on the
  block spectrum (``spectral._block_spectrum``)
  through a small nonnegative least-squares solve (``_nnls_residual``),
  the least residual over the supports of independent active columns
  whose least-squares solve is positive, tried largest first.  The
  certificate (``_kcs_certificate``) stacks the sector blocks of its
  points: all of a curve's points past k_max share one eigensolve of
  their sector blocks and one of their tail blocks, a single point is a
  stack of one, and only the NNLS runs point by point.  The residual
  comes with every result: near zero, it proves the weights optimal,
  whatever produced them.  A point whose certificate fails, or whose
  active-set solve finds no bracket, is refused: so is every
  single-branch star up to k_max, whose closed form is not the optimum,
* one SLEM minimizer: an epigraph program over the eigenvalues of the
  weight matrix on the complement of the ones vector and their
  gradients, solved by SLSQP (``minimize_slem``).  It serves arbitrary
  connected graphs with optional weight tying by symmetry class, and
  gives an estimate without a certificate; the closed forms and the
  dense eigensolve stay its oracles,
* invariance experiments: the optimal central weights 2/(2+n) (star
  center) and 1/n (complete core) persist when path branches are
  replaced by arbitrary branch graphs.

Only ``minimize_slem`` loads scipy.optimize, so the closed forms, k_max
and the certified tied optimum (table 1, fig 2), its refusals included,
never do.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from dataclasses import dataclass

import numpy as np

from .topology import CcsStar, Graph, KcsStar, SymmetricStar
from .spectral import (
    EPS,
    SpectralError,
    _block_spectrum,
    _brentq,
    _k_max,
    complement_basis,
    k_max,
    sector_block,
    stratify,
    theta_root_kcs,
)
from .weights import WeightAssignment, metropolis_weights, optimal_weights

__all__ = [
    "SlacknessReport",
    "OptimizeResult",
    "TiedOptimum",
    "InvarianceReport",
    "slackness_residuals",
    "minimize_slem",
    "kcs_tied_optimum",
    "kcs_slem_curve",
    "central_weight_invariance",
]


@dataclass(frozen=True)
class SlacknessReport:
    """Residuals of the dual-certificate conditions at the closed-form
    optimum of a symmetric star."""

    m: int
    n: int
    theta: float
    s: float
    a_coords: np.ndarray
    b_coords: np.ndarray
    residuals: dict[str, float]

    def max_residual(self) -> float:
        return max(self.residuals.values())


def slackness_residuals(m: int, n: int) -> SlacknessReport:
    """Evaluate every slackness condition at the closed-form weights.

    The conditions are the equality conditions of the dual certificate,
    not its sign conditions, so residuals that vanish do not prove the
    weights optimal.  At n = 1 they vanish (at most 2e-13 for m = 1, 2, 3
    and 6), yet the closed-form weights are not the optimum there: at
    m = 2 their SLEM is 0.7676 and the optimum 0.5, and the KKT
    certificate of ``kcs_tied_optimum`` rejects them (ROADMAP direction 2).

    Coordinates are a_i = sin((m-i+1)t)/sin(t) and
    b_i = sin((m-i+1)(pi-t))/sin(pi-t), normalized so a_m = b_m = 1.
    The recursions in a alone and in b alone are homogeneous, so that
    normalization is free.  The squared-projection identity couples the
    two scales; it holds after rescaling b by (1-s)/(1+s), which is the
    relative scale the stationarity conditions force (both reported
    residuals use that scale).  The printed recursions and the direct
    matrix equations (s I - W1) z1 = 0, (s I + W0) z2 = 0 are reported
    separately; at these weights they agree.

    Everything is in matrix form.  The recursions (25) and (26) are
    (1 - s) a - w * (T_1 a) and (1 + s) b - w * (T_{n+1} b), where
    T_c = tridiag(-1, 2, -1) with corner entry c and w holds the stratum
    weights; the _a, _b and _c residuals are their first, interior and
    last rows (0 where m is too small to have them).  The dual
    vectors are z1 = A^T a and z2 = sigma B^T b, whose rows of A and B
    are the vectors alpha_i and beta_i of the certificate: A = S - I and
    B = [I 0] - [0 I] with B[0, 0] = sqrt(n), S the lower shift.  (19)
    compares (A z1)^2 with (B z2)^2.

    The ratio condition (23), (a_i/a_j)^2 = (b_i/b_j)^2, has no residual:
    it holds in these coordinates for every angle and every weights, since
    sin(j(pi - t)) = (-1)^(j+1) sin(jt) gives b_i = (-1)^(m-i) a_i, so a
    residual of it would check nothing.
    """
    topo = SymmetricStar(m, n)
    assignment = optimal_weights(topo)
    theta = theta_root_kcs(m, n, 1)
    s = math.cos(theta)
    if abs(math.sin(theta)) < 1e-12:
        raise SpectralError("degenerate characteristic angle (sin ~ 0)")

    idx = np.arange(1, m + 1)
    a = np.sin((m - idx + 1) * theta) / math.sin(theta)
    b = np.sin((m - idx + 1) * (math.pi - theta)) / math.sin(math.pi - theta)
    w = assignment.for_strata(range(1, m + 1))

    def tridiag(corner):
        T = 2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        T[0, 0] = corner
        return T

    res: dict[str, float] = {}
    for key, r in (("eq25", (1 - s) * a - w * (tridiag(1) @ a)),
                   ("eq26", (1 + s) * b - w * (tridiag(n + 1) @ b))):
        res[f"{key}_a"] = abs(r[0])
        res[f"{key}_b"] = float(np.max(np.abs(r[1:-1]), initial=0.0))
        res[f"{key}_c"] = abs(r[-1]) if m > 1 else 0.0

    A = np.eye(m, k=-1) - np.eye(m)
    B = np.eye(m, m + 1) - np.eye(m, m + 1, 1)
    B[0, 0] = math.sqrt(n)
    z1 = A.T @ a
    sigma = (1 - s) / (1 + s)  # relative dual scale forced by stationarity
    z2 = sigma * (B.T @ b)
    res["eq19"] = float(np.max(np.abs((A @ z1) ** 2 - (B @ z2) ** 2)))

    blocks = stratify(topo, assignment)
    res["matrix_w1"] = float(np.max(np.abs(s * z1 - blocks.w0_block[1:, 1:] @ z1)))
    res["matrix_w0"] = float(np.max(np.abs(s * z2 + blocks.w0_block @ z2)))

    return SlacknessReport(m=m, n=n, theta=theta, s=s, a_coords=a, b_coords=b,
                           residuals=res)


@dataclass
class OptimizeResult:
    """Outcome of the dense SLEM minimization."""

    class_weights: dict
    per_edge: dict[tuple[int, int], float]
    slem: float
    iterations: int
    converged: bool


# SLSQP exits accepted as converged: 0 is success, and 8 ("Positive
# directional derivative for linesearch") also occurs at the optimum once
# rounding leaves no descent direction.  Either way the reported value is
# the spectrum at the returned weights, never the solver's bound.
SLSQP_CONVERGED = (0, 8)
SLSQP_OPTIONS = {"ftol": 1e-15, "maxiter": 1000}


def minimize_slem(graph: Graph,
                  symmetry_classes: dict[tuple[int, int], object] | None = None
                  ) -> OptimizeResult:
    """Minimize the SLEM max(lam_2, -lam_N) of a graph over its edge weights.

    Weights sharing a symmetry class are tied to a single variable w_c
    (without ``symmetry_classes`` every edge is its own class; with it,
    every edge (u, v), u < v, needs a class, and a key that is not an edge
    is refused with ValueError), so
    W(w) = I - sum_c w_c L_c with L_c the Laplacian of the class-c edges.
    Restricted to the orthogonal complement of the ones vector (basis Q),
    W(w) is the affine block I - sum_c w_c Q^T L_c Q with the spectrum of W
    without its eigenvalue 1.  max_j |lam_j(w)| over that spectrum is
    convex in w, and its minimum is the epigraph program

        min s  subject to  -s <= lam_j(w) <= s  for every eigenvalue,

    solved by SLSQP from the class-averaged Metropolis weights, with the
    eigenvalue gradients v_j^T (dB/dw_c) v_j (exact where lam_j is simple).
    The reported SLEM is recomputed from the spectrum at the returned
    weights; if SLSQP ends above the start, the start is returned.  The
    solve is deterministic for one BLAS thread count, but it carries no
    certificate; an SLSQP exit outside SLSQP_CONVERGED raises
    SpectralError, so every returned result has ``converged`` set.
    """
    if graph.node_count < 2 or not graph.is_connected():
        raise ValueError("SLEM minimization requires a connected graph "
                         "of two or more nodes")
    N = graph.node_count
    edges = list(graph.edges)
    if symmetry_classes is None:
        classes = {e: e for e in edges}
    else:
        missing = set(edges) - symmetry_classes.keys()
        if missing:
            raise ValueError(f"no symmetry class for edges {sorted(missing)}")
        extra = symmetry_classes.keys() - set(edges)
        if extra:
            raise ValueError(f"symmetry classes for pairs {sorted(extra, key=repr)} "
                             "that are not edges")
        classes = symmetry_classes
    labels = sorted(set(classes.values()), key=repr)
    lab_index = {c: i for i, c in enumerate(labels)}
    edge_class = np.array([lab_index[classes[e]] for e in edges])
    u_idx = np.array([e[0] for e in edges])
    v_idx = np.array([e[1] for e in edges])

    # Q^T L_c Q is the sum of d d^T over the class-c edges, d = Q^T (e_u - e_v)
    Q = complement_basis(np.full(N, 1.0 / math.sqrt(N)))
    d = Q[u_idx] - Q[v_idx]
    slopes = np.zeros((len(labels), N - 1, N - 1))
    np.add.at(slopes, edge_class, -d[:, :, None] * d[:, None, :])

    def spectrum(w):  # eigenvalues and their gradients v_j^T slopes[c] v_j
        vals, vecs = np.linalg.eigh(np.eye(N - 1) + np.tensordot(w, slopes, 1))
        return vals, np.einsum("aj,cab,bj->jc", vecs, slopes, vecs)

    def value(w):
        return float(np.abs(spectrum(w)[0]).max())

    def bounds(x):  # s - lam_j >= 0 and s + lam_j >= 0
        lam = spectrum(x[:-1])[0]
        return np.concatenate((x[-1] - lam, x[-1] + lam))

    def bounds_jac(x):
        g = spectrum(x[:-1])[1]
        one = np.ones((len(g), 1))
        return np.block([[-g, one], [g, one]])

    from scipy.optimize import minimize

    start = (np.bincount(edge_class, metropolis_weights(graph)[u_idx, v_idx])
             / np.bincount(edge_class))
    start_value = value(start)
    objective_grad = np.eye(len(start) + 1)[-1]
    res = minimize(lambda x: x[-1], np.append(start, start_value),
                   jac=lambda x: objective_grad, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": bounds, "jac": bounds_jac}],
                   options=SLSQP_OPTIONS)
    if res.status not in SLSQP_CONVERGED:
        raise SpectralError(f"SLEM minimization on {N} nodes did not converge: "
                            f"{res.message}")
    w = res.x[:-1]
    w_value = value(w)
    if w_value > start_value:
        w, w_value = start, start_value
    per_edge = {e: float(w[ci]) for e, ci in zip(edges, edge_class)}
    class_weights = {labels[i]: float(w[i]) for i in range(len(labels))}
    return OptimizeResult(class_weights=class_weights, per_edge=per_edge,
                          slem=w_value, iterations=int(res.nit), converged=True)


@dataclass(frozen=True)
class TiedOptimum:
    """Optimal per-stratum weights of a k-cored star from its block
    spectra, with the KKT residual that certifies them (at most
    CERTIFICATE_TOL, or no result is made).

    ``iterations`` and ``message`` name the route: 0 and "closed form", or
    the outer root-find iterations and "active-set solve".
    """

    weights: WeightAssignment
    slem: float
    iterations: int
    message: str
    certificate_residual: float


# A block eigenvalue within ACTIVE_TOL of +-s takes part in the KKT
# certificate, and a residual at most CERTIFICATE_TOL certifies the point.
ACTIVE_TOL = 1e-9
CERTIFICATE_TOL = 1e-10
# The refusal of a single-branch star up to k_max, whose closed form is no
# optimum, points to the open derivation and to the uncertified estimate.
SINGLE_BRANCH_NOTE = ("; at n = 1 the closed form is not the optimum (ROADMAP direction 2), "
                      "and minimize_slem on the dense graph gives an estimate without a "
                      "certificate")
# The certificate eigensolves the blocks of its points as stacks of at most
# this many bytes of sector blocks, so its memory stays bounded however
# many points a curve certifies.
CERTIFICATE_STACK_BYTES = 1 << 16


def _kcs_certificate(n: int, ks, ws) -> list[tuple[float, float]]:
    """SLEM of KcsStar(m, n, k) at per-stratum weights w, and the KKT
    residual there, for each k of ``ks`` and row w of ``ws`` (m is the row
    length).

    Of the block spectrum (``_block_spectrum``), each eigenvalue within
    ACTIVE_TOL of +s gives the term +g_j (its gradient), and each within
    ACTIVE_TOL of -s the term -g_j (near s = 0, one eigenvalue gives both).
    The residual is min ||sum mu_t term_t|| over mu >= 0 with
    sum mu_t = 1, in one nonnegative least-squares solve over the
    supports of the active columns (``_nnls_residual``).  Zero is the
    optimality condition of the convex program (Boyd, Diaconis and Xiao,
    SIAM Review 46(4), 2004): then no weights w' have a SLEM below
    s - ACTIVE_TOL - r*|w' - w| for residual r.  The blocks are unreduced
    tridiagonal, so their eigenvalues are simple and each has one gradient.

    The points' sector blocks are stacked, up to CERTIFICATE_STACK_BYTES
    of them at a time, so each stack takes one eigensolve of its sector
    blocks and one of its tail blocks, and only the NNLS runs point by
    point.  LAPACK solves each block of a stack on its own, so a point
    gets the same bits in any stack.
    """
    ws = np.asarray(ws, dtype=float)
    m = ws.shape[-1]
    chunk = max(1, CERTIFICATE_STACK_BYTES // (8 * (m + 1) ** 2))
    target = [0.0] * m + [1.0]
    out = []
    for at in range(0, len(ks), chunk):
        k = np.asarray(ks[at:at + chunk])
        lam, grad = _block_spectrum(sector_block(n, k, ws[at:at + chunk]),
                                    n, k, gradients=True)
        s = np.abs(lam).max(axis=-1)
        up = lam >= (s - ACTIVE_TOL)[:, None]
        down = lam <= (ACTIVE_TOL - s)[:, None]
        point, j = np.nonzero(up | down)
        columns = [[] for _ in s]  # per point, in (eigenvalue, side) order
        for p, g, is_up, is_down in zip(point.tolist(), grad[point, j].tolist(),
                                        up[point, j].tolist(), down[point, j].tolist()):
            if is_up:
                columns[p].append(g + [1.0])
            if is_down:
                columns[p].append([-x for x in g] + [1.0])
        out += [(value, _nnls_residual(cols, target))
                for value, cols in zip(s.tolist(), columns)]
    return out


def _nnls_residual(columns: list[list[float]], target: list[float]) -> float:
    """min ||A x - b|| over x >= 0, for A given by its ``columns`` and b by
    ``target``, by trying the supports of x.

    The minimum has a support S of independent columns on which x is the
    least-squares solution with every component > 0 (Lawson and Hanson,
    Solving Least Squares Problems, 1974, ch. 23), so it is that solve's
    residual.  Any other support of independent columns whose solve is
    positive gives a feasible x, so its residual bounds the minimum from
    above.  The minimum is therefore the least residual over those
    supports and over x = 0, whose residual is ||b||.  The supports are
    tried largest first, at most as many columns as rows: if the full
    column set solves positive, x is the unconstrained minimum and is
    returned at once.  A certificate past k_max is such a case: its three
    active eigenvalues all carry positive multipliers, so it takes one QR.

    Each solve is a Householder QR of the support's columns
    (``_passive_least_squares``), so its accuracy follows cond(A_S), where
    forming A^T A would square it, and the norm of the tail of Q^T b is
    its residual.  A has one column per active eigenvalue, so there are
    few supports, and the work is small enough for Python floats, which
    keeps it the same under any thread count.
    """
    norms = [math.hypot(*col) for col in columns]
    best = math.hypot(*target)
    for size in range(min(len(columns), len(target)), 0, -1):
        for P in itertools.combinations(range(len(columns)), size):
            solved = _passive_least_squares(columns, target, P, norms)
            if solved is None or not all(zi > 0 for zi in solved[0]):
                continue
            residual = math.hypot(*solved[1][size:])
            if size == len(columns):
                return residual
            best = min(best, residual)
    return best


def _passive_least_squares(columns: list[list[float]], target: list[float],
                           P: tuple[int, ...], norms: list[float]):
    """Least squares on the columns P of A by one Householder QR
    Q^T A_P = R, taken in P's order.

    ``columns`` and ``target`` are A's columns and b, and ``norms`` the
    columns' norms.  Returns z (the solution, one entry per column of P)
    and Q^T b; the inputs are not changed.  A column of P whose part off
    the columns before it is at most 100 EPS of its norm makes it return
    None instead, before any division.
    """
    R = [columns[j][:] for j in P]
    c = target[:]
    for k, v in enumerate(R):
        norm = math.hypot(*v[k:])
        if norm <= 100 * EPS * norms[P[k]]:
            return None
        alpha = -norm if v[k] > 0 else norm
        u = [v[k] - alpha] + v[k + 1:]
        scale = 1.0 / (norm * (norm + abs(v[k])))  # 2 / u^T u
        for q in [c] + R[k + 1:]:
            s = scale * sum(map(mul, u, q[k:]))
            q[k:] = [qi - s * ui for qi, ui in zip(q[k:], u)]
        v[k] = alpha
    z = [0.0] * len(P)
    for k in reversed(range(len(P))):
        done = sum(R[i][k] * z[i] for i in range(k + 1, len(P)))
        z[k] = (c[k] - done) / R[k][k]
    return z, c


def _active_set_weights(m: int, n: int, k: int, cos_theta: float):
    """Per-stratum weights of KcsStar(m, n, k) past k_max on the known
    active set, and the iteration count of the root find for s.

    Past k_max three eigenvalues sit at +-s: the core value 1 - n*w1 at
    +s, the top of the tail block (for n = 1, of the sector block without
    its Perron eigenvalue) at +s and the bottom of the sector block at -s,
    with w3..wm = 1/2.  So w1 = (1 - s)/n, and two equations are left in
    w2 and s; they are solved by elimination, with no eigensolve.

    w2 enters W0 through the rank-one slope -u u^T, u = e1 - e2, and at
    w2 = 0 the block A = W0 splits into a head (rows 0..1) and the tail
    path (rows 2..m).  By the matrix determinant lemma, det(tI - W0) =
    det(tI - A) (1 + w2 h(t)) with h(t) = u^T (tI - A)^{-1} u: the last
    diagonal entry of (tI - head)^{-1} plus one over the first pivot of
    tI - path, eliminated from the bottom up in O(m).  So t, if not an
    eigenvalue of A, is an eigenvalue of W0 exactly at w2 = -1/h(t).  The
    tail block W1 = W0[1:, 1:] is the same with row 1 alone as its head.
    For n = 1 the top is W0's own, and as s < 1 its Perron eigenvalue
    drops out.

    At w2 = -1/h_top(s) > 0 the top is at s (h_top is h(s) on W1, or on
    W0 for n = 1), and det(W0 + sI) there has the sign of
    D(s) = c + det2 * (1/p - h_top(s)), with c the first diagonal entry
    and det2 the determinant of -sI - head, and p the first pivot of
    -sI - path: D is det(W0 + sI) over the positive w2 * det(sI + path).
    While at most one eigenvalue lies below -s, D > 0 says that the
    sector bottom lies above -s.  One Brent solve finds the root of D
    between cos(theta(m, n, k)), the optimum without the core constraint,
    and (2k-n)/(2k+n), the SLEM at the closed-form weights; there
    w2 = -1/h(-s) puts the sector bottom at -s.  While D is positive at
    the lower end, it steps down by the bracket width: for n = 1 there is
    no tail block and the sector block alone can beat cos(theta), and at
    large m near k_max the root can lie within rounding of cos(theta).  The
    solve takes D at the final lower end from that test, so no end point
    is evaluated twice.  What D reuses at every evaluation is built once
    per solve: the path's last diagonal entry and its bottom-up (diagonal,
    squared coupling) pairs, which both pivot recursions iterate, so an
    evaluation slices nothing, and it forms the head's w1, d0, d1 and b2
    inline.  m = 1 is closed form: w1 = 2/(2n+k), SLEM
    k/(2n+k).  A bracket without a sign change raises ValueError, and a
    pole hit exactly ZeroDivisionError; which eigenvalues end up at +-s is
    for the certificate to check.
    """
    if m == 1:
        return np.array([2.0 / (2 * n + k)]), 0
    # the path is W0's rows 2..m at w2 = 0 and w3..wm = 1/2: diagonal
    # 1 - w_i - w_(i+1) and couplings w3..wm, held as its last diagonal
    # entry and its (diagonal, squared coupling) pairs from the bottom up
    path_diag = [1.0] if m == 2 else [0.5] + [0.0] * (m - 3) + [0.5]
    path_last = path_diag[-1]
    path_rising = tuple(zip(path_diag[-2::-1], [0.25] * (m - 2)))
    root_nk = math.sqrt(n * k)

    def path_pivot(t):
        """The first pivot of tI - path, eliminated from the bottom up; a
        zero pivot on the way is replaced by -EPS (Kahan)."""
        p = t - path_last
        for d, e2 in path_rising:
            p = t - d - e2 / (p or -EPS)
        return p

    def sector_bottom(s):
        """D(s), with the head's diagonal d0, d1 and squared coupling b2 at
        w1 = (1 - s)/n formed once for both t = -s and t = s."""
        w1 = (1.0 - s) / n
        d0, d1, b2 = 1.0 - n * w1, 1.0 - k * w1, (root_nk * w1) ** 2
        c, g = -s - d0, -s - d1
        if n == 1:  # h_top(s) is h(s) on W0, else on W1
            h_top = (s - d0) / ((s - d0) * (s - d1) - b2)
        else:
            h_top = 1.0 / (s - d1)
        return c + (c * g - b2) * (1.0 / path_pivot(-s) - (h_top + 1.0 / path_pivot(s)))

    hi = (2 * k - n) / (2 * k + n)
    lo = cos_theta
    d_lo = sector_bottom(lo)
    while lo > 0 and d_lo > 0:
        lo -= hi - lo
        d_lo = sector_bottom(lo)
    s, iterations = _brentq(sector_bottom, lo, hi, (), EPS, d_lo)
    w1 = (1.0 - s) / n
    d0, d1, b2 = 1.0 - n * w1, 1.0 - k * w1, (root_nk * w1) ** 2
    c = -s - d0
    w2 = -1.0 / (c / (c * (-s - d1) - b2) + 1.0 / path_pivot(-s))  # -1/h(-s) on W0
    return np.array([w1, w2] + [0.5] * (m - 2)), iterations


def kcs_tied_optimum(m: int, n: int, k: int) -> TiedOptimum:
    """Minimize the SLEM of KcsStar(m, n, k) over per-stratum weights, and
    certify the result, or refuse.

    Up to k_max the candidate is the closed-form weights; past it, the
    exact solve of the known active set (``_active_set_weights``), the
    route decided by k_max's one rule (``spectral._k_max``).  Every
    candidate is checked by the KKT certificate (``_kcs_certificate``, on
    a stack of this one point), whose residual the result reports.  A
    candidate whose residual exceeds CERTIFICATE_TOL, and an active-set
    solve that finds no bracket, raise SpectralError naming the star, the
    route and the residual or the solve's error.  That refuses every
    single-branch star (n = 1) up to k_max, where the closed form is not
    the optimum (ROADMAP direction 2); ``minimize_slem`` on the dense
    graph estimates those optima, without a certificate.  The reported
    SLEM is the block spectrum at the returned weights.
    """
    return _tied_optima(m, n, [k])[0]


def _tied_optima(m: int, n: int, ks) -> list[TiedOptimum]:
    """``kcs_tied_optimum(m, n, k)`` for each k of ``ks``: every point's
    candidate first, then one stacked certificate of them all.  The first
    point that has no candidate or fails its certificate refuses the
    whole call."""
    km = _k_max(m, n)
    candidates = []  # (k, weights, iterations, route)
    for topology in [KcsStar(m, n, k) for k in ks]:  # which check m, n and k
        k = topology.k
        if k <= km:
            w = optimal_weights(topology).for_strata(range(1, m + 1))
            candidates.append((k, w, 0, "closed form"))
            continue
        try:
            w, iterations = _active_set_weights(
                m, n, k, math.cos(theta_root_kcs(m, n, k)))
        except (ValueError, ZeroDivisionError) as error:  # no bracket, or a pole
            raise SpectralError(f"no certified optimum for KcsStar({m}, {n}, {k}): "
                                f"the active-set solve failed ({error})") from None
        candidates.append((k, w, iterations, "active-set solve"))
    certified = _kcs_certificate(n, [c[0] for c in candidates],
                                 [c[1] for c in candidates])
    out = []
    for (k, w, iterations, route), (value, residual) in zip(candidates, certified):
        if residual > CERTIFICATE_TOL:
            raise SpectralError(
                f"no certified optimum for KcsStar({m}, {n}, {k}): the weights of the "
                f"{route} have KKT residual {residual:.3g} > CERTIFICATE_TOL = "
                f"{CERTIFICATE_TOL:g}" + (SINGLE_BRANCH_NOTE if n == 1 and k <= km else ""))
        weights = WeightAssignment({j: float(wj) for j, wj in enumerate(w, start=1)})
        out.append(TiedOptimum(weights=weights, slem=value, iterations=iterations,
                               message=route, certificate_residual=residual))
    return out


def kcs_slem_curve(n: int, m: int, k_range) -> list[tuple[int, float]]:
    """Optimal SLEM of the k-cored star versus k.

    The arguments are (n, m, k_range), n first, unlike ``KcsStar(m, n,
    k)`` and ``kcs_tied_optimum(m, n, k)``: fig 2's curve, m = 2 and
    n = 3, is ``kcs_slem_curve(3, 2, range(1, 31))``.

    Within the closed-form validity range the characteristic-equation
    value cos(theta_root_kcs(m, n, k)) is used, the value of
    ``slem_closed_form`` there; beyond it the certified tied optimum
    (``kcs_tied_optimum``), with the certificates of all those points
    computed on stacked blocks at once, and a point that fails its
    certificate refuses the curve.  At n = 1 the entries up to k_max are
    that characteristic value too, which is not the optimum there
    (``kcs_tied_optimum`` refuses those points; ROADMAP direction 2).
    """
    km = k_max(m, n)
    ks = list(k_range)
    tied = iter(_tied_optima(m, n, [k for k in ks if k > km]))
    return [(k, math.cos(theta_root_kcs(m, n, k)) if k <= km else next(tied).slem)
            for k in ks]


@dataclass(frozen=True)
class InvarianceReport:
    core: str
    branch_count: int
    recovered_central_weight: float
    closed_form_weight: float
    deviation: float
    slem: float


def _compose(core: str, branches: list[tuple[Graph, int]]) -> tuple[Graph, dict, object]:
    """Attach branch graphs to a star center or a complete core.

    Returns (graph, symmetry classes, central class label).  For the star
    core a fresh central node 0 links to each branch's attachment node;
    for the complete core the attachment nodes are pairwise connected.
    Central edges share one class; every other edge is its own class.
    """
    if core not in ("star", "complete"):
        raise ValueError("core must be 'star' or 'complete'")
    edges: list[tuple[int, int]] = []
    classes: dict[tuple[int, int], object] = {}
    central = "central"
    offset = 1 if core == "star" else 0  # the star center is node 0
    attach_global = []
    for bi, (g, attach) in enumerate(branches):
        for u, v in g.edges:
            e = (u + offset, v + offset)
            edges.append(e)
            classes[e] = ("branch", bi, u, v)
        attach_global.append(attach + offset)
        offset += g.node_count
    # attachment nodes rise with the branch index, so every pair is ordered
    if core == "star":
        core_edges = [(0, a) for a in attach_global]
    else:
        core_edges = list(itertools.combinations(attach_global, 2))
    for e in core_edges:
        edges.append(e)
        classes[e] = central
    return Graph(offset, tuple(edges)), classes, central


def central_weight_invariance(core: str,
                              branch_graphs: list[tuple[Graph, int]]) -> InvarianceReport:
    """Numerically optimize a composite topology and compare the central
    weight with the branch-independent closed form.

    ``branch_graphs`` is a list of (graph, attachment node index) pairs;
    each branch graph must be connected.
    """
    n = len(branch_graphs)
    for g, attach in branch_graphs:
        if not g.is_connected():
            raise ValueError("branch graphs must be connected")
        if not (0 <= attach < g.node_count):
            raise ValueError("attachment node out of range")
    graph, classes, central = _compose(core, branch_graphs)
    res = minimize_slem(graph, symmetry_classes=classes)
    closed = (optimal_weights(SymmetricStar(1, n)).per_stratum[1] if core == "star"
              else optimal_weights(CcsStar(1, n)).per_stratum[0])
    got = res.class_weights[central]
    return InvarianceReport(core=core, branch_count=n,
                            recovered_central_weight=got,
                            closed_form_weight=closed,
                            deviation=abs(got - closed),
                            slem=res.slem)
