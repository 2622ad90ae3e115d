"""The benchmark's three workloads, their inputs and their output checks.

Each workload is a class built from the workload seed.  ``run`` makes the
timed calls into the package and returns their timings and raw outputs;
``check`` verifies one pass's outputs; ``prepare`` does the one-off work a
run needs outside the timed region (reference values, replays).  Calls go
through module attributes (``cli.main``, ``spectral.slem_closed_form``) so
that the tracer's wrappers see them.

Operation counts per pass: analysis 80 grid cells + 30 curve points + 12
roots; mc-tables 36 Monte Carlo cells + 2 trajectories; mc-large-star 1
Monte Carlo cell, plus 1 replayed trajectory per run.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from star_consensus import cli, simulate, spectral, topology, weights

clock = time.perf_counter

# table --id 1 at the seed commit: k_max(m, n) for m = 2..11 (rows) and
# n = 1..8 (columns), linear in n.  Acceptance criterion 02 compares against
# the published grid instead and is a known failure; this grid is the one
# the program is expected to keep producing.
EXPECTED_K_MAX = (
    (3, 6, 9, 12, 15, 19, 22, 25),
    (7, 14, 21, 28, 35, 42, 49, 57),
    (12, 25, 38, 51, 63, 76, 89, 102),
    (20, 40, 60, 80, 100, 120, 140, 160),
    (28, 57, 86, 115, 144, 173, 202, 231),
    (39, 78, 118, 157, 197, 236, 276, 315),
    (51, 103, 154, 206, 258, 309, 361, 412),
    (65, 130, 196, 261, 326, 392, 457, 523),
    (80, 161, 242, 323, 403, 484, 565, 646),
    (97, 195, 293, 391, 488, 586, 684, 782),
)

# fig --id 2 at the seed commit: optimal SLEM of KcsStar(2, 3, k), k = 1..30.
EXPECTED_FIG2 = (
    0.83851648071343488, 0.79016126773529638, 0.76759187924368077,
    0.7546122958513074, 0.74620074872504705, 0.74031242374295025,
    0.73596222192776617, 0.73261801833572349, 0.72996746123543443,
    0.72854020495388871, 0.73204837020363622, 0.73841681234130807,
    0.74601016107644913, 0.75403515528899423, 0.76208927920346747,
    0.76996488869176904, 0.77755680897341695, 0.78481577753317822,
    0.7917237396709057, 0.79828019975254405, 0.80449444467841158,
    0.81038101305947174, 0.81595701773327001, 0.82124055461905632,
    0.82624976163132213, 0.83100227266633642, 0.83551491416841384,
    0.83980355136729623, 0.84388302670053228, 0.84776715443746309,
)
FIG2_TOL = 1e-3
FIG2_ARGMIN_K = 10

ROOT_MS = (10, 100, 1000, 4000, 6000, 20000)
ROOT_TOL = 1e-9
# Roots the seed commit gets wrong (m = 6000) or cannot find (m = 20000):
# the fixed 10,000-point scan on (0, pi) is too coarse at large m.  They
# stay in the workload and are reported as known failures, apart from the
# failures that make a run incorrect.
KNOWN_ROOT_DEFECTS = frozenset({("symmetric", 6000), ("kcs", 6000),
                                ("symmetric", 20000), ("kcs", 20000)})

MC_TRIALS = 10_000
MC_TABLES = (3, 4, 5)
FIG4_BITS = 6
FIG4_CAP = 500

LARGE_STAR = topology.SymmetricStar(3, 50)
LARGE_SPEC = simulate.QuantizerSpec(8, "probabilistic")
LARGE_TRIALS = 200
LARGE_CAP = 10_000


@dataclass
class Tally:
    """Operations attempted and failed; known defects are kept apart."""

    attempted: int = 0
    failed: int = 0
    known_failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, known: bool = False):
        self.attempted += 1
        if ok:
            return
        if known:
            self.known_failed += 1
        else:
            self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(("known defect: " if known else "") + what)


def run_cli(argv):
    """cli.main with stdout captured; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def block_slem(m: int, n: int, k: int) -> float:
    """SLEM of the k-cored star (k = 1: symmetric star) at the closed-form
    optimal weights, from its stratified tridiagonal blocks in O(m).

    Central weight w1 = 2/(n + 2k), tail weights 1/2.  The blocks are the
    symmetric sector (size m + 1: the centrals' mean and the branch means),
    the tail block (size m, n - 1 copies) and the eigenvalue 1 - n*w1
    (k - 1 copies).  Only diagonals are built, never a dense matrix.
    """
    w1 = 2.0 / (n + 2 * k)
    tail_d = np.zeros(m)
    tail_d[-1] = 0.5
    tail_d[0] = 1.0 - k * w1 - (0.5 if m > 1 else 0.0)
    tail_e = np.full(m - 1, 0.5)
    sector_d = np.concatenate(([1.0 - n * w1], tail_d))
    sector_e = np.concatenate(([math.sqrt(n * k) * w1], tail_e))

    def eig(d, e, i):
        return eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))[0]

    top = [eig(sector_d, sector_e, m - 1)]  # the sector's top is 1
    bottom = [eig(sector_d, sector_e, 0)]
    if n > 1:
        top.append(eig(tail_d, tail_e, m - 1) if m > 1 else tail_d[0])
        bottom.append(eig(tail_d, tail_e, 0) if m > 1 else tail_d[0])
    if k > 1:
        top.append(1.0 - n * w1)
        bottom.append(1.0 - n * w1)
    return float(max(max(top), -min(bottom)))


class Analysis:
    """table --id 1, fig --id 2 and closed-form roots up to m = 20000."""

    name = "analysis"
    mc_trials = 0
    wrong_roots = 0  # roots of the last checked pass that failed

    def __init__(self, seed: int, outdir: str):
        # seed unused: every input of this workload is fixed
        self.roots = []
        for m in ROOT_MS:
            self.roots.append(("symmetric", m, topology.SymmetricStar(m, 3), (3, 1)))
            self.roots.append(("kcs", m, topology.KcsStar(m, 40, 2), (40, 2)))
        self.oracle = None

    def prepare(self) -> Tally:
        self.oracle = [block_slem(m, n, k) for _, m, _, (n, k) in self.roots]
        return Tally()

    def run(self):
        t0 = clock()
        table1 = run_cli(["table", "--id", "1"])
        t1 = clock()
        fig2 = run_cli(["fig", "--id", "2"])
        t2 = clock()
        roots = []
        for _, _, topo, _ in self.roots:
            try:
                roots.append(spectral.slem_closed_form(topo))
            except Exception as exc:  # a raising root is a failed operation
                roots.append(exc)
        t3 = clock()
        parts = {"wall_s": t3 - t0, "table1_s": t1 - t0, "fig2_s": t2 - t1,
                 "roots_s": t3 - t2}
        return parts, (table1, fig2, roots)

    def check(self, outputs, tally: Tally):
        (code1, text1), (code2, text2), roots = outputs

        _, rows = parse_csv(text1) if code1 == 0 else ([], [])
        grid = {}
        for row in rows:
            for n, cell in enumerate(row[1:], start=1):
                grid[(int(row[0]), n)] = cell
        for m in range(2, 12):
            for n in range(1, 9):
                want = EXPECTED_K_MAX[m - 2][n - 1]
                tally.check(grid.get((m, n)) == str(want),
                            f"table 1 k_max({m}, {n}) = {grid.get((m, n))}, "
                            f"expected {want}")

        _, rows = parse_csv(text2) if code2 == 0 else ([], [])
        curve = {int(k): float(s) for k, s in rows}
        argmin = min(curve, key=curve.get) if curve else None
        for k, want in enumerate(EXPECTED_FIG2, start=1):
            got = curve.get(k)
            ok = got is not None and abs(got - want) <= FIG2_TOL
            if k == FIG2_ARGMIN_K:
                ok = ok and argmin == k
            tally.check(ok, f"fig 2 k={k}: slem {got}, expected {want:.6f}"
                            f" (curve minimum at k={argmin})")

        self.wrong_roots = 0
        for (family, m, _, _), got, want in zip(self.roots, roots, self.oracle):
            ok = isinstance(got, float) and abs(got - want) <= ROOT_TOL
            self.wrong_roots += not ok
            tally.check(ok, f"root {family} m={m}: {got!r}, block eigensolve "
                            f"{want!r}", known=(family, m) in KNOWN_ROOT_DEFECTS)


class McTables:
    """table --id 3, 4, 5 at 10,000 trials and fig --id 4 at the seed."""

    name = "mc-tables"
    wrong_roots = 0
    mc_trials = len(MC_TABLES) * 12 * MC_TRIALS

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.fig4_prefix = f"{outdir}/fig4"
        self.argvs = [["table", "--id", str(t), "--trials", str(MC_TRIALS),
                       "--seed", str(seed)] for t in MC_TABLES]
        self.fig4_argv = ["fig", "--id", "4", "--seed", str(seed),
                          "--output", self.fig4_prefix]

    def prepare(self) -> Tally:
        return Tally()

    def run(self):
        t0 = clock()
        tables = [run_cli(argv) for argv in self.argvs]
        t1 = clock()
        fig4_code = run_cli(self.fig4_argv)[0]
        t2 = clock()
        parts = {"wall_s": t2 - t0, "tables_s": t1 - t0, "fig4_s": t2 - t1}
        fig4 = []
        for scheme in ("uniform", "probabilistic"):
            try:
                with open(f"{self.fig4_prefix}_{scheme}.csv", encoding="utf-8") as f:
                    fig4.append(f.read())
            except OSError:
                fig4.append("")
        return parts, (tables, fig4_code, fig4)

    def check(self, outputs, tally: Tally):
        tables, fig4_code, fig4 = outputs
        for table_id, (code, text) in zip(MC_TABLES, tables):
            self._check_table(table_id, code, text, tally)
        self._check_fig4(fig4_code, fig4, tally)

    def _check_table(self, table_id, code, text, tally):
        header, rows = parse_csv(text) if code == 0 else ([], [])
        cells = {}
        for row in rows:
            rec = dict(zip(header, row))
            cells[(int(rec["bits"]), rec["weighting"])] = {
                key: float(rec[key]) for key in ("psi", "eta", "mu")}
        ref = cli.REFERENCE_STATS[table_id]
        for bits in (4, 8, 16):
            for scheme in cli.WEIGHTINGS:
                got = cells.get((bits, scheme))
                what = f"table {table_id} bits={bits} {scheme}: {got}"
                if got is None:
                    tally.check(False, what + " (missing)")
                    continue
                ok = 0.0 <= got["psi"] <= 100.0
                if bits in (4, 8):
                    # acceptance criteria 09a, 09b and 09c
                    if ref[bits][scheme][0] == 100:
                        ok = ok and got["psi"] >= 99.0
                    ok = ok and abs(got["mu"]) <= 0.1
                    if scheme == "optimal":
                        ref_eta = ref[bits][scheme][1]
                        ok = ok and abs(got["eta"] - ref_eta) <= 0.35 * ref_eta
                        if bits == 8:
                            met = cells.get((8, "metropolis"))
                            ok = ok and met is not None and got["eta"] <= met["eta"]
                tally.check(ok, what)

    def _check_fig4(self, code, texts, tally):
        graph, W = weights.scheme_matrix(topology.SymmetricStar(3, 5), "optimal")
        x0 = simulate.initial_states(self.seed, 0, graph.node_count)
        trial_seed = simulate.derive_trial_seed(self.seed, 0)
        for scheme, text in zip(("uniform", "probabilistic"), texts):
            spec = simulate.QuantizerSpec(FIG4_BITS, scheme)
            _, rows = parse_csv(text) if code == 0 else ([], [])
            traj = np.array([[float(v) for v in row[1:]] for row in rows])
            what = f"fig 4 {scheme} trajectory"
            if traj.ndim != 2 or traj.shape[1] != graph.node_count:
                tally.check(False, what + " (malformed)")
                continue
            idx = (traj + 1.0) / spec.delta
            on_grid = bool(np.all(np.abs(idx - np.round(idx)) <= 1e-9))
            last = traj[-1]
            reached = bool(np.all(last == last[0]))
            replay = simulate.run_trial(W, x0, spec, max_iters=FIG4_CAP,
                                        trial_seed=trial_seed)
            ok = (on_grid and replay.consensus_reached == reached
                  and replay.iterations == len(traj) - 1
                  and (not reached or replay.consensus_value == last[0]))
            tally.check(ok, f"{what}: {len(traj) - 1} steps, reached {reached}; "
                            f"replay {replay}")


class McLargeStar:
    """monte_carlo on SymmetricStar(3, 50), 8-bit probabilistic, 200 trials."""

    name = "mc-large-star"
    wrong_roots = 0
    mc_trials = LARGE_TRIALS

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.first = None

    def prepare(self) -> Tally:
        """Replay trial 0 through the trajectory path of run_trial and
        compare it with trial 0 of the batched kernel (monte_carlo with
        one trial, the same seed and the same cap)."""
        tally = Tally()
        graph, W = weights.scheme_matrix(LARGE_STAR, "optimal")
        x0 = simulate.initial_states(self.seed, 0, graph.node_count)
        outcome, _ = simulate.run_trial(
            W, x0, LARGE_SPEC, max_iters=LARGE_CAP,
            trial_seed=simulate.derive_trial_seed(self.seed, 0),
            return_trajectory=True)
        batched = simulate.monte_carlo(LARGE_STAR, "optimal", LARGE_SPEC, 1,
                                       self.seed, max_iters=LARGE_CAP)
        if outcome.consensus_reached:
            ok = (batched.psi == 100.0 and batched.eta == outcome.iterations
                  and batched.mu == outcome.normalized_error)
        else:
            ok = batched.psi == 0.0 and outcome.iterations == LARGE_CAP
        tally.check(ok, f"trial 0 replay {outcome} vs batched {batched}")
        self.replay = outcome
        return tally

    def run(self):
        t0 = clock()
        stats = simulate.monte_carlo(LARGE_STAR, "optimal", LARGE_SPEC,
                                     LARGE_TRIALS, self.seed, max_iters=LARGE_CAP)
        t1 = clock()
        return {"wall_s": t1 - t0}, stats

    def check(self, stats, tally: Tally):
        if self.first is None:
            self.first = stats
        # every pass must repeat the first bit for bit (repr: nan == nan)
        ok = (repr(stats) == repr(self.first) and 0.0 <= stats.psi <= 100.0
              and stats.trials == LARGE_TRIALS and stats.seed == self.seed)
        if ok and stats.psi > 0:
            ok = 0 <= stats.eta <= LARGE_CAP and math.isfinite(stats.mu)
        # trial 0 of the batch: reached in the replay means at least one
        # trial reached; censored means at most trials - 1 did
        reached = round(stats.psi * stats.trials / 100.0)
        if self.replay.consensus_reached:
            ok = ok and reached >= 1
        else:
            ok = ok and reached <= stats.trials - 1
        tally.check(ok, f"mc-large-star stats {stats}")


WORKLOADS = {w.name: w for w in (Analysis, McTables, McLargeStar)}
