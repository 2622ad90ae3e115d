"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

The count test runs one traced pass of every workload twice, so the file
takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.pin_threads()
sys.path.insert(0, run.SRC)

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from star_consensus import optimality, simulate, spectral, topology, weights  # noqa: E402


def _tracer_with(records):
    """A tracer filled with (name, start, end, parent) records."""
    tr = spans.Tracer()
    for name, start, end, parent in records:
        if name not in tr.names:
            tr.names.append(name)
        tr.name_id.append(tr.names.index(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
    return tr


def test_self_time_of_synthetic_span_tree():
    records = [
        ("cli.main", 0.0, 10.0, -1),
        ("simulate.monte_carlo", 1.0, 3.0, 0),
        ("simulate.monte_carlo", 2.0, 5.0, 0),    # overlaps the previous child
        ("simulate.quantize", 2.5, 3.0, 2),
        ("simulate.run_trial", 9.0, 12.0, 0),     # runs past its parent's end
        ("topology.build", 6.0, 6.0, 0),          # empty
        ("cli.main", 20.0, 24.0, -1),
        ("simulate.monte_carlo", 21.0, 22.0, 6),
        ("simulate.monte_carlo", 22.5, 23.0, 6),
    ]
    tr = _tracer_with(records)
    got = spans.self_times(tr.start, tr.end, tr.parent)
    # union of [1, 5] and [9, 10] covers 5 of the first root's 10 s
    assert got == pytest.approx([5.0, 2.0, 2.5, 0.5, 3.0, 0.0, 2.5, 1.0, 0.5])

    m = spans.layer_metrics(tr)
    assert m["cli.self_s"] == pytest.approx(7.5)
    assert m["cli.main.busy_s"] == pytest.approx(14.0)
    assert m["simulate.monte_carlo.calls"] == 4
    assert m["simulate.monte_carlo.busy_s"] == pytest.approx(6.5)
    assert m["simulate.monte_carlo.self_s"] == pytest.approx(6.0)
    assert m["simulate.quantize.calls"] == 1


def test_tail_percentile_leaves_ten_samples_beyond():
    assert spans.tail_percentile(10) == 0
    assert spans.tail_percentile(82) == 87
    assert spans.tail_percentile(1000) == 99
    for n in (11, 82, 164, 1000, 14616):
        p = spans.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        assert n * (100 - (p + 1)) / 100 < 10 or p == 99


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {("optimality", "k_max"): optimality.k_max,
                 ("spectral", "k_max"): spectral.k_max,
                 ("simulate", "scheme_matrix"): simulate.scheme_matrix}
    tr = spans.Tracer()
    with tr:
        assert optimality.k_max is spectral.k_max is not originals[("spectral", "k_max")]
        optimality.kcs_slem_curve(3, 2, range(1, 3))
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[f"star_consensus.{mod}"], attr) is fn
    names = [tr.names[i] for i in tr.name_id]
    assert names.count("spectral.k_max") == 1  # the call made inside optimality
    curve = names.index("optimality.kcs_slem_curve")
    assert all(p == curve for n, p in zip(names, tr.parent) if n == "spectral.k_max")


def _cli_outputs(tmp_path, tag):
    outs = []
    for argv in (["table", "--id", "2"],
                 ["table", "--id", "3", "--trials", "300", "--seed", "4"],
                 ["slem", "--topology", "kcs-star", "--m", "3", "--n", "40",
                  "--k", "2", "--check"],
                 ["fig", "--id", "4", "--seed", "3", "--output", str(tmp_path / tag)]):
        outs.append(workloads.run_cli(argv))
    for scheme in ("uniform", "probabilistic"):
        outs.append((tmp_path / f"{tag}_{scheme}.csv").read_bytes())
    spec = simulate.QuantizerSpec(4, "probabilistic")
    outs.append(repr(simulate.monte_carlo(topology.KcsStar(2, 3, 2), "optimal",
                                          spec, 500, 9)))
    outs.append(repr(optimality.kcs_slem_curve(3, 2, range(9, 12))))
    return outs


def test_traced_outputs_are_byte_identical(tmp_path):
    plain = _cli_outputs(tmp_path, "plain")
    tr = spans.Tracer()
    with tr:
        traced = _cli_outputs(tmp_path, "traced")
    assert len(tr.start) > 0
    assert traced == plain


@pytest.mark.parametrize("m,n,k", [(1, 1, 1), (1, 3, 2), (2, 3, 1), (3, 4, 1),
                                   (3, 3, 2), (2, 3, 5), (4, 5, 3), (3, 40, 2)])
def test_block_slem_matches_dense_eigensolve(m, n, k):
    topo = topology.SymmetricStar(m, n) if k == 1 else topology.KcsStar(m, n, k)
    _, W = weights.scheme_matrix(topo, "optimal")
    assert workloads.block_slem(m, n, k) == pytest.approx(spectral.slem(W), abs=1e-12)


COUNTS = ("spectral.theta_root_kcs.calls", "optimality.minimize_slem.iterations",
          "simulate.trial_steps", "spectral.k_max.calls", "simulate.quantize.calls",
          "simulate.derive_trial_seed.calls", "optimality.minimize_slem.calls")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly_at_one_seed(name, tmp_path):
    counts = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name](11, str(tmp_path))
        wl.prepare()
        tr = spans.Tracer()
        with tr:
            _, outputs = wl.run()
        tally = workloads.Tally()
        wl.check(outputs, tally)
        assert tally.failed == 0, tally.messages
        metrics = spans.layer_metrics(tr)
        counts.append({key: metrics[key] for key in COUNTS})
    assert counts[0] == counts[1]
    main_count = {"analysis": "spectral.theta_root_kcs.calls",
                  "mc-tables": "simulate.trial_steps",
                  "mc-large-star": "simulate.trial_steps"}[name]
    assert counts[0][main_count] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    per_layer = set(spans.layer_metrics(spans.Tracer())) | {
        "spectral.slem_closed_form.wrong", "trace_overhead_frac", "fail_frac",
        "cli.table1_s", "cli.fig2_s", "simulate.trials_per_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    for m in spec["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
    assert set(spec["paths"]) == {os.path.basename(run.BENCH)}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analysis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
