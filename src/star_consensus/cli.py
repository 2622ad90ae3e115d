"""Command-line front end.

Subcommands:

* ``slem``   - SLEM of a star family, by closed form and/or eigensolve
* ``table``  - reproduce the published result tables (1-5) as CSV
* ``fig``    - plot-ready CSV for the published figures (2 and 4)
* ``verify`` - run a named numerical verification suite

All output data is CSV/JSON on stdout (or ``--output``); a human summary
goes to stderr.  Exit codes: 0 success, 1 usage error, 2 numerical
failure (an input too large to hold in memory included), 3 verification
failure.  A usage error is a ``UsageError``,
which ``main`` alone maps to exit 1; a table setting, given as a flag or
in a ``--config`` file, is checked against the one rule table
``CONFIG_FIELDS``.  Every command is deterministic given its flags; the
random draws and the results do not depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import optimality, simulate, spectral, topology, weights
from .topology import _is_integer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

WEIGHTINGS = ("metropolis", "max-degree", "best-constant", "optimal")

# Published benchmark statistics (psi, eta, mu, rho) for quantized
# consensus with probabilistic quantization, 10,000 trials; keyed by
# table id -> bits -> weighting.  Exact reproduction is not expected
# (the published consensus-detection rule and iteration cap are
# unstated); the table command prints these alongside computed values.
REFERENCE_STATS = {
    3: {
        4: {"metropolis": (100, 31.25, 4.7e-3, 0.48),
            "max-degree": (100, 27.17, 1.4e-2, 0.43),
            "best-constant": (100, 31.18, 3.1e-3, 0.594),
            "optimal": (100, 30.78, 3.7e-3, 0.563)},
        8: {"metropolis": (100, 56.71, 1.46e-2, 1.022),
            "max-degree": (100, 46.98, 2.54e-3, 0.86),
            "best-constant": (100, 47.22, 2.34e-3, 1.04),
            "optimal": (100, 46, 1.21e-2, 0.9)},
        16: {"metropolis": (100, 107.94, 3.4e-3, 2.16),
             "max-degree": (100, 87.43, 9.23e-3, 1.73),
             "best-constant": (100, 78.98, 1.2, 4.7e3),
             "optimal": (100, 77.72, 0.6, 1.57e3)},
    },
    4: {
        4: {"metropolis": (100, 41, 4e-3, 0.464),
            "max-degree": (100, 34.76, 5.18e-4, 0.42),
            "best-constant": (99, 55.3, 5.3e-3, 0.81),
            "optimal": (99.7, 42.88, 2.4e-3, 0.654)},
        8: {"metropolis": (100, 73.86, 1.14e-3, 1.02),
            "max-degree": (100, 60.56, 2.45e-2, 0.82),
            "best-constant": (98.52, 75.57, 1.58e-2, 1.36),
            "optimal": (99.31, 67.94, 1.06e-2, 0.97)},
        16: {"metropolis": (97.6, 139.7, 6.1e-3, 2.215),
             "max-degree": (100, 112.98, 1.82e-3, 1.71),
             "best-constant": (94.95, 112.8, -0.66, 1.4e4),
             "optimal": (100, 104.6, 0.576, 2.14e3)},
    },
    5: {
        4: {"metropolis": (100, 24.98, 4.62e-4, 0.4),
            "max-degree": (100, 27.2, 3.93e-3, 0.402),
            "best-constant": (100, 24.8, 4.8e-3, 0.39),
            "optimal": (100, 24.58, 4.23e-3, 0.41)},
        8: {"metropolis": (100, 42.17, 8.25e-4, 0.72),
            "max-degree": (100, 42.77, 18e-3, 0.68),
            "best-constant": (100, 37.96, 2.67e-3, 0.66),
            "optimal": (100, 36, 13.7e-3, 0.62)},
        16: {"metropolis": (100, 77.04, 8.27e-3, 1.4),
             "max-degree": (100, 76.08, 15.4e-3, 1.32),
             "best-constant": (100, 64.08, 2.53e-3, 1.2),
             "optimal": (100, 59.41, 93.9e-3, 52.7)},
    },
}

SIM_TOPOLOGIES = {
    3: topology.SymmetricStar(2, 3),
    4: topology.CcsStar(2, 3),
    5: topology.KcsStar(2, 3, 2),
}


# The bit depths of the Monte Carlo tables 3-5.
TABLE_BITS = (4, 8, 16)

# The one rule table for table settings: the table --config fields and the
# values each accepts, which are also the values the matching flags accept
# (--bits and --weighting by their choices, --trials and --seed by these
# rules).  The table id fixes the topology and the quantizer scheme.
CONFIG_FIELDS = {
    "bits": lambda v: _is_integer(v) and v in TABLE_BITS,
    "weighting": lambda v: v in WEIGHTINGS,
    "trials": lambda v: _is_integer(v) and v >= 1,
    "max_iters": lambda v: _is_integer(v) and 1 <= v <= simulate.MAX_ITERS,
    # the seeds that derive_trial_seed keeps apart; 2^64 or more would
    # alias the seed it equals mod 2^64
    "seed": lambda v: _is_integer(v) and 0 <= v <= simulate.MAX_SEED,
}


class UsageError(Exception):
    """A flag or config value that the command would ignore or that is out
    of range; ``main`` reports it and exits with EXIT_USAGE."""


def config_from_json(text: str) -> dict:
    """Parse a ``table --config`` file; unknown fields and values the
    matching flag would reject raise ValueError."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - set(CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for key, value in cfg.items():
        if not CONFIG_FIELDS[key](value):
            raise ValueError(f"invalid {key}: {value!r}")
    return cfg


def _topology_from_flags(args) -> topology.Topology:
    kind = args.topology
    if (kind == "kcs-star") != (args.k is not None):
        raise UsageError("kcs-star requires --k" if args.k is None
                         else f"{kind} takes no --k (kcs-star only)")
    try:
        if kind == "kcs-star":
            return topology.KcsStar(args.m, args.n, args.k)
        if kind == "symmetric-star":
            return topology.SymmetricStar(args.m, args.n)
        return topology.CcsStar(args.m, args.n)
    except topology.TopologyError as e:
        raise UsageError(str(e)) from None


def _csv(header, rows) -> str:
    """The one CSV writer: a header line, then one line per row; cells are
    written with str, so callers format their floats."""
    return "".join(",".join(map(str, line)) + "\n" for line in [header, *rows])


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        print(f"wrote {output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_slem(args) -> int:
    if args.check and args.method is not None:
        raise UsageError("--check runs both methods and takes no --method")
    method = args.method or "closed-form"
    topo = _topology_from_flags(args)
    # the closed form refuses k > k_max; the eigensolve is of the optimal
    # W that monte_carlo runs, the certified optimum past k_max
    if args.check or method == "closed-form":
        closed = spectral.slem_closed_form(topo)
    if args.check or method == "eigen":
        eig = spectral.slem(weights.scheme_matrix(topo, "optimal")[1])
    if args.check:
        diff = abs(closed - eig)
        print(json.dumps({"closed_form": closed, "eigen": eig, "diff": diff},
                         indent=2))
        print(f"closed-form {closed:.6f}  eigensolve {eig:.6f}  "
              f"diff {diff:.2e}", file=sys.stderr)
    else:
        value = eig if method == "eigen" else closed
        print(f"{value:.17g}")
        print(f"SLEM({topo}) = {value:.6f} [{method}]", file=sys.stderr)
    return EXIT_OK


def _table1_csv() -> str:
    ns = range(1, 9)
    return _csv(["m\\n", *ns],
                ([m, *(spectral.k_max(m, n) for n in ns)] for m in range(2, 12)))


def _table2_csv() -> str:
    rows = ([n, *(f"{spectral.slem_closed_form(t):.6f}" for t in (
                topology.SymmetricStar(3, n), topology.CcsStar(2, n),
                topology.KcsStar(3, n, 2)))] for n in (3, 40))
    return _csv(["n", "symmetric_star_m3", "ccs_star_m2", "kcs_star_m3_k2"], rows)


def _table_sim_csv(table_id, trials, seed, bits_filter, weighting_filter,
                   max_iters) -> str:
    topo = SIM_TOPOLOGIES[table_id]
    ref = REFERENCE_STATS[table_id]
    bit_rows = [b for b in TABLE_BITS if not bits_filter or b in bits_filter]
    schemes = [w for w in WEIGHTINGS
               if not weighting_filter or w in weighting_filter]
    stats = ("psi", "eta", "mu", "rho")
    header = ["bits", "weighting", *stats, *(f"ref_{v}" for v in stats),
              *(f"delta_{v}" for v in stats)]
    rows = []
    for b in bit_rows:
        spec = simulate.QuantizerSpec(b, "probabilistic")
        row = simulate.monte_carlo_row(topo, schemes, spec, trials, seed,
                                       max_iters=max_iters)
        for sch, st in zip(schemes, row):
            r = ref[b][sch]
            got = (st.psi, st.eta, st.mu, st.rho)
            delta = [g - v for g, v in zip(got, r)]
            rows.append([b, sch, *(f"{v:.17g}" for v in (*got, *r, *delta))])
            print(f"table {table_id} bits={b:<2} {sch:<13} "
                  f"psi={st.psi:6.2f} eta={st.eta:8.2f} "
                  f"mu={st.mu:+.4f} rho={st.rho:.4g}", file=sys.stderr)
    return _csv(header, rows)


def _check_seed(seed: int | None):
    """--seed, for table and fig, under the config's seed rule."""
    if seed is not None and not CONFIG_FIELDS["seed"](seed):
        raise UsageError(f"--seed must be in 0..{simulate.MAX_SEED}, got {seed}")


# table flags that only the Monte Carlo tables 3-5 read
SIM_TABLE_FLAGS = ("bits", "weighting", "trials", "seed", "config")


def cmd_table(args) -> int:
    if args.id in (1, 2):
        given = [f"--{flag}" for flag in SIM_TABLE_FLAGS
                 if getattr(args, flag) is not None]
        if given:
            raise UsageError(f"table --id {args.id} does not take "
                             f"{', '.join(given)} (tables 3-5 only)")
    if args.trials is not None and not CONFIG_FIELDS["trials"](args.trials):
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    _check_seed(args.seed)
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                cfg = config_from_json(f.read())
        except ValueError as e:
            raise UsageError(f"config {args.config}: {e}") from None
    trials = args.trials if args.trials is not None else cfg.get("trials", 10000)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    max_iters = cfg.get("max_iters", 10000)
    if args.id == 1:
        out = _table1_csv()
    elif args.id == 2:
        out = _table2_csv()
    else:
        bits = args.bits or ([cfg["bits"]] if "bits" in cfg else None)
        weighting = args.weighting or (
            [cfg["weighting"]] if "weighting" in cfg else None)
        out = _table_sim_csv(args.id, trials, seed, bits, weighting, max_iters)
    _emit(out, args.output)
    return EXIT_OK


def cmd_fig(args) -> int:
    if args.id == 2:
        if args.seed is not None:
            raise UsageError("fig --id 2 does not take --seed")
        if args.k_max_only and args.output:
            raise UsageError("fig --id 2 --k-max-only takes no --output")
        km = spectral.k_max(2, 3)
        if args.k_max_only:
            print(km)
            print(f"k_max(m=2, n=3) = {km}", file=sys.stderr)
            return EXIT_OK
        curve = optimality.kcs_slem_curve(3, 2, range(1, 31))
        _emit(_csv(["k", "slem"], ([k, f"{s:.17g}"] for k, s in curve)),
              args.output)
        best = min(curve, key=lambda t: t[1])
        print(f"curve minimum: slem {best[1]:.6f} at k = {best[0]} "
              f"(closed-form validity ends at k_max = {km})", file=sys.stderr)
        return EXIT_OK
    if args.k_max_only:
        raise UsageError("fig --id 4 does not take --k-max-only")
    _check_seed(args.seed)
    # figure 4: one 6-bit run per quantizer on the 5-branch, length-3 star
    topo = topology.SymmetricStar(3, 5)
    graph, W = weights.scheme_matrix(topo, "optimal")
    seed = 7 if args.seed is None else args.seed
    x0 = simulate.initial_states(seed, 0, graph.node_count)
    prefix = args.output or "fig4"
    for scheme in ("uniform", "probabilistic"):
        spec = simulate.QuantizerSpec(6, scheme)
        outcome, traj = simulate.run_trial(
            W, x0, spec, max_iters=500,
            trial_seed=simulate.derive_trial_seed(seed, 0),
            return_trajectory=True)
        path = f"{prefix}_{scheme}.csv"
        _emit(_csv(["t", *(f"node{i}" for i in range(graph.node_count))],
                   ([t, *(f"{v:.17g}" for v in row)]
                    for t, row in enumerate(spec.values(traj)))), path)
        status = ("consensus at iteration "
                  f"{outcome.iterations}" if outcome.consensus_reached
                  else f"no consensus within {outcome.iterations} iterations")
        print(f"{scheme}: {status}", file=sys.stderr)
    return EXIT_OK


def _block_cases(extra=()):
    """(topology, scheme, W, blocks) under every scheme, for the symmetric
    stars m 1..6 x n 1..8 and then the extra topologies: W is the scheme's
    matrix and blocks its stratification, from the per-stratum weights
    read back off W."""
    symmetric = [topology.SymmetricStar(m, n)
                 for m in range(1, 7) for n in range(1, 9)]
    for topo in [*symmetric, *extra]:
        for sch in WEIGHTINGS:
            g, W = weights.scheme_matrix(topo, sch)
            assign = weights.WeightAssignment(
                per_stratum=weights.per_stratum_from_matrix(g, W))
            yield topo, sch, W, spectral.stratify(topo, assign)


def _verify_stratification() -> list[str]:
    """Block spectra and block SLEM against the dense eigensolve, for
    symmetric stars and k-cored stars with k >= 2, under every scheme."""
    kcs = [topology.KcsStar(m, n, k) for m in range(1, 5)
           for n in range(1, 6) for k in range(2, 8)]
    fails = []
    for topo, sch, W, blocks in _block_cases(kcs):
        full = np.sort(spectral.eig_symmetric(W))
        stacked = np.sort(blocks.combined_spectrum())
        if (np.max(np.abs(full - stacked)) > 1e-10
                or abs(blocks.slem() - spectral.slem(W)) > 1e-10):
            fails.append(f"stratification {topo} {sch}")
    return fails


def _verify_interlacing() -> list[str]:
    return [f"interlacing m={topo.m} n={topo.n} {sch}"
            for topo, sch, W, blocks in _block_cases()
            if not spectral.interlacing_check(blocks, W).holds]


def _verify_slackness() -> list[str]:
    fails = []
    for m in range(1, 9):
        for n in range(1, 9):
            rep = optimality.slackness_residuals(m, n)
            if rep.max_residual() > 1e-9:
                fails.append(f"slackness m={m} n={n} "
                             f"max residual {rep.max_residual():.2e}")
    return fails


def _verify_optimizer() -> list[str]:
    fails = []
    cases = [(topology.SymmetricStar(2, 3), 1), (topology.CcsStar(2, 4), 0),
             (topology.KcsStar(2, 3, 2), 1)]
    for topo, central_stratum in cases:
        w_star = weights.optimal_weights(topo).per_stratum[central_stratum]
        graph = topology.build(topo)
        res = optimality.minimize_slem(
            graph, symmetry_classes=dict(graph.stratum_of_edge))
        cf = spectral.slem_closed_form(topo)
        if abs(res.slem - cf) > 1e-9:
            fails.append(f"optimizer slem off on {topo}: "
                         f"{res.slem:.6f} vs {cf:.6f}")
        if abs(res.class_weights[central_stratum] - w_star) > 1e-8:
            fails.append(f"optimizer central weight off on {topo}")
    return fails


def _verify_invariance() -> list[str]:
    tri = topology.Graph(3, ((0, 1), (0, 2), (1, 2)))
    star3 = topology.Graph(4, ((0, 1), (0, 2), (0, 3)))
    cyc4 = topology.Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    path2 = topology.Graph(3, ((0, 1), (1, 2)))
    cases = [("star", [(tri, 0)] * 3),
             ("star", [(star3, 0)] * 3),
             ("complete", [(path2, 0), (path2, 0), (tri, 0), (tri, 0)]),
             ("complete", [(cyc4, 0)] * 3)]
    fails = []
    for core, branches in cases:
        rep = optimality.central_weight_invariance(core, branches)
        if rep.deviation > 1e-8:
            fails.append(f"invariance {core} core, {len(branches)} branches: "
                         f"deviation {rep.deviation:.2e}")
    return fails


VERIFY_SUITES = {
    "stratification": _verify_stratification,
    "interlacing": _verify_interlacing,
    "slackness": _verify_slackness,
    "optimizer": _verify_optimizer,
    "invariance": _verify_invariance,
}


def cmd_verify(args) -> int:
    fails = VERIFY_SUITES[args.suite]()
    report = {"suite": args.suite, "passed": not fails, "failures": fails}
    print(json.dumps(report, indent=2))
    if fails:
        print(f"suite {args.suite}: {len(fails)} failure(s)", file=sys.stderr)
        for f in fails:
            print("  " + f, file=sys.stderr)
        return EXIT_VERIFY
    print(f"suite {args.suite}: pass", file=sys.stderr)
    return EXIT_OK


@functools.cache  # built once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="star-consensus",
        description="Optimal consensus weights, convergence rates, and "
                    "quantized-consensus simulation for star topologies.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("slem", help="SLEM of a star family")
    ps.add_argument("--topology", required=True,
                    choices=["symmetric-star", "ccs-star", "kcs-star"])
    ps.add_argument("--m", type=int, required=True, help="branch length")
    ps.add_argument("--n", type=int, required=True, help="branch count")
    ps.add_argument("--k", type=int, help="central node count (kcs-star)")
    ps.add_argument("--method", choices=["closed-form", "eigen"],
                    help="closed-form (default; refuses k > k_max) or eigen")
    ps.add_argument("--check", action="store_true",
                    help="compute both methods and report the difference")
    ps.set_defaults(func=cmd_slem)

    pt = sub.add_parser("table", help="emit a published result table as CSV")
    pt.add_argument("--id", type=int, required=True, choices=[1, 2, 3, 4, 5])
    pt.add_argument("--trials", type=int, default=None,
                    help="Monte Carlo trials (default 10000; tables 3-5)")
    pt.add_argument("--seed", type=int, default=None,
                    help="master seed (default 0; tables 3-5)")
    pt.add_argument("--bits", type=int, action="append",
                    choices=TABLE_BITS, help="restrict to a bit depth")
    pt.add_argument("--weighting", action="append", choices=list(WEIGHTINGS),
                    help="restrict to a weighting scheme")
    pt.add_argument("--config", help="JSON experiment config file")
    pt.add_argument("--output", help="output path (default stdout)")
    pt.set_defaults(func=cmd_table)

    pf = sub.add_parser("fig", help="emit plot-ready CSV for a figure")
    pf.add_argument("--id", type=int, required=True, choices=[2, 4])
    pf.add_argument("--seed", type=int, default=None,
                    help="master seed for figure 4 (default 7)")
    pf.add_argument("--k-max-only", action="store_true",
                    help="figure 2: print only the closed-form validity bound")
    pf.add_argument("--output",
                    help="output path (figure 4: filename prefix)")
    pf.set_defaults(func=cmd_fig)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # TopologyError, WeightError and SpectralError are ValueErrors; a
    # MemoryError is an input too large to hold, such as a trial count
    except (ValueError, np.linalg.LinAlgError, MemoryError) as e:
        print(f"numerical/parameter failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
