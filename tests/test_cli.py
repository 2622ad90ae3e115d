import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from star_consensus import cli, simulate, weights
from star_consensus.cli import config_from_json, main
from star_consensus.optimality import kcs_tied_optimum

# the standard variables that pin a run's BLAS thread count
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_defers_scipy_optimize():
    # scipy.optimize is imported only by minimize_slem, never at start-up
    # (test_analysis_commands_never_load_scipy_optimize covers the analysis
    # commands), scipy.sparse only by the simulator's stepping loop, and
    # nothing in the package needs scipy.linalg
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    code = ("import sys, star_consensus.cli; "
            "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules, "
            "'scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False", "False"]


def test_analysis_commands_never_load_scipy_optimize():
    # table 1, fig 2, the slem command and the closed-form roots of the
    # benchmark run on the package's own Brent solver and NNLS, and never
    # step a simulation
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    code = (
        "import contextlib, io, sys\n"
        "from star_consensus import cli, spectral, topology\n"
        "commands = (['table', '--id', '1'], ['fig', '--id', '2'],\n"
        "            ['slem', '--topology', 'kcs-star', '--m', '2', '--n', '3', '--k', '2'])\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in commands]\n"
        "for m in (10, 100, 1000, 4000, 6000, 20000):\n"
        "    spectral.slem_closed_form(topology.SymmetricStar(m, 3))\n"
        "    spectral.slem_closed_form(topology.KcsStar(m, 40, 2))\n"
        "print(*codes, 'scipy.optimize' in sys.modules,\n"
        "      'scipy.sparse' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0", "0", "False", "False"]


def test_import_leaves_the_environment_alone():
    # the package reads and writes no environment variable: whoever starts
    # a run pins BLAS, with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
    # MKL_NUM_THREADS, and STAR_CONSENSUS_THREADS belongs to bench/run.py
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    env["STAR_CONSENSUS_THREADS"] = "1"
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import star_consensus.cli\n"
        "print(dict(os.environ) == before)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True"]


# sha256 of the stdout of fig --id 2 (numpy 2.4 with its bundled OpenBLAS);
# the points past k_max carry LAPACK's last bits
FIG2_SHA256 = "7c105332a2dce3d7f88aafd865a2b2d2b1a752f59c08f7d0bd3450cdd455c255"


def test_fig2_independent_of_thread_count():
    # every fig-2 point, the active-set solves past k_max included, is the
    # same to the last byte under one and two BLAS threads
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        outs.append(subprocess.run(
            [sys.executable, "-m", "star_consensus.cli", "fig", "--id", "2"],
            env=env, check=True, capture_output=True).stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 31
    # and the same bytes as before the certificates were stacked
    assert hashlib.sha256(outs[0]).hexdigest() == FIG2_SHA256


def test_slem_symmetric(capsys):
    code, out, err = run(capsys, "slem", "--topology", "symmetric-star",
                         "--m", "3", "--n", "3")
    assert code == 0
    assert float(out) == pytest.approx(0.91294, abs=1e-5)


def test_slem_check(capsys):
    code, out, err = run(capsys, "slem", "--topology", "ccs-star",
                         "--m", "2", "--n", "7", "--check")
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == pytest.approx(0.866025, abs=1e-6)
    assert data["diff"] < 1e-9


def test_slem_eigen_method(capsys):
    code, out, _ = run(capsys, "slem", "--topology", "kcs-star",
                       "--m", "3", "--n", "3", "--k", "2",
                       "--method", "eigen")
    assert code == 0
    assert float(out) == pytest.approx(0.893816, abs=1e-6)


def test_usage_errors(capsys):
    assert run(capsys, "slem", "--topology", "bogus", "--m", "1",
               "--n", "1")[0] == 1
    assert run(capsys, "slem", "--topology", "kcs-star", "--m", "2",
               "--n", "2")[0] == 1  # missing --k
    assert run(capsys, "table", "--id", "9")[0] == 1


@pytest.mark.parametrize("argv,message", [
    (("--topology", "symmetric-star", "--k", "5"), "symmetric-star takes no --k"),
    (("--topology", "ccs-star", "--k", "5"), "ccs-star takes no --k"),
    (("--topology", "kcs-star", "--k", "2", "--check", "--method", "eigen"),
     "takes no --method"),
    (("--topology", "kcs-star", "--k", "2", "--check", "--method", "closed-form"),
     "takes no --method"),
])
def test_slem_rejects_ignored_flags(capsys, argv, message):
    code, out, err = run(capsys, "slem", "--m", "2", "--n", "3", *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_slem_explicit_closed_form_method(capsys):
    argv = ("slem", "--topology", "kcs-star", "--m", "2", "--n", "3", "--k", "2")
    plain = run(capsys, *argv)
    assert plain[0] == 0 and "[closed-form]" in plain[2]
    assert run(capsys, *argv, "--method", "closed-form") == plain


def test_numerical_failure_exit(capsys):
    code, _, err = run(capsys, "slem", "--topology", "kcs-star",
                       "--m", "2", "--n", "3", "--k", "11")
    assert code == 2
    assert err.startswith("numerical/parameter failure")


def test_memory_failure_exit(capsys):
    # the trial seeds alone would take 7.1 PiB, which numpy refuses at once,
    # so nothing is allocated; the refusal is one line, not a traceback
    code, out, err = run(capsys, "table", "--id", "3", "--trials",
                         "1000000000000000")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numerical/parameter failure: Unable to allocate")


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                    reason="Monte Carlo rows run in-process without os.fork")
def test_lost_trial_block_exit(capsys, monkeypatch):
    # a block of trials whose process ends without a result is a numerical
    # failure, reported in one line
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(simulate, "_alone", lambda: True)
    caller, batch_run = os.getpid(), simulate._batch_run

    def child_exits(*args):
        if os.getpid() != caller:
            os._exit(3)
        return batch_run(*args)

    monkeypatch.setattr(simulate, "_batch_run", child_exits)
    code, out, err = run(capsys, "table", "--id", "3", "--trials", "20")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numerical/parameter failure: the trial block in process")
    assert err.strip().endswith("ended without a result (exit code 3)")


@pytest.mark.parametrize("argv,message", [
    pytest.param(("--topology", "symmetric-star", "--m", "0", "--n", "3"),
                 "SymmetricStar requires integers m, n >= 1", id="symmetric-m0"),
    pytest.param(("--topology", "kcs-star", "--m", "2", "--n", "3", "--k", "0"),
                 "KcsStar requires integers m, n, k >= 1", id="kcs-k0"),
    pytest.param(("--topology", "ccs-star", "--m", "2", "--n", "1"),
                 "requires n >= 2", id="ccs-n1"),
])
def test_slem_family_range_is_usage_error(capsys, argv, message):
    # the family's own range rule, stated once in topology, is a usage error
    code, out, err = run(capsys, "slem", *argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("argv", [(), ("--check",)])
def test_slem_refuses_past_k_max(capsys, argv):
    # k_max(2, 3) = 9: at k = 11 the closed form is not the optimum, and
    # --check runs the closed form too
    code, out, err = run(capsys, "slem", "--topology", "kcs-star", "--m", "2",
                         "--n", "3", "--k", "11", *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "k_max = 9" in err


def test_slem_refuses_an_undecided_k_max(capsys, monkeypatch):
    # n * r*(2) at n = 10**15 lies within float error of an integer; neither
    # method lists the 2 * 10**15 edges of the star's graph before refusing
    def no_build(topology):
        raise AssertionError(f"built the graph of {topology}")
    monkeypatch.setattr(weights, "build", no_build)
    for argv in ((), ("--method", "eigen")):
        code, out, err = run(capsys, "slem", "--topology", "kcs-star", "--m", "2",
                             "--n", str(10**15), "--k", "2", *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "undecided in floating point" in err
    # k = 1 does not read k_max
    code, out, _ = run(capsys, "slem", "--topology", "symmetric-star", "--m", "2",
                       "--n", str(10**15))
    assert code == 0
    assert 0.99 < float(out) < 1.0


def test_slem_eigen_past_k_max_is_the_tied_optimum(capsys):
    # --method eigen solves no closed form: past k_max it eigensolves the
    # certified optimum, the W that monte_carlo runs
    for m, n, k in ((2, 3, 11), (3, 2, 20)):
        code, out, _ = run(capsys, "slem", "--topology", "kcs-star", "--m", str(m),
                           "--n", str(n), "--k", str(k), "--method", "eigen")
        assert code == 0
        assert abs(float(out) - kcs_tied_optimum(m, n, k).slem) <= 1e-12


@pytest.mark.parametrize("argv,expected", [
    (("kcs-star", "--m", "2", "--n", "3", "--k", "9"), "0.72996746123520673\n"),
    (("symmetric-star", "--m", "2", "--n", "3"), "0.83851648071345075\n"),
    (("ccs-star", "--m", "2", "--n", "7"), "0.86602540378443937\n"),
])
def test_slem_eigen_within_k_max_is_pinned(capsys, argv, expected):
    # up to k_max the eigensolve of the closed-form W, to the last byte
    code, out, _ = run(capsys, "slem", "--topology", *argv, "--method", "eigen")
    assert code == 0
    assert out == expected


def test_slem_check_at_k_max(capsys):
    code, out, _ = run(capsys, "slem", "--topology", "kcs-star", "--m", "2",
                       "--n", "3", "--k", "9", "--check")
    assert code == 0
    assert json.loads(out)["diff"] <= 1e-12


def test_table2(capsys):
    code, out, _ = run(capsys, "table", "--id", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    row3 = lines[1].split(",")
    assert float(row3[1]) == pytest.approx(0.91294, abs=1e-4)
    assert float(row3[2]) == pytest.approx(0.866025, abs=1e-4)
    assert float(row3[3]) == pytest.approx(0.893816, abs=1e-4)


# the exact stdout of table --id 1 (the k_max grid) and table --id 2 (the
# closed-form SLEMs): both run only the characteristic-root solves
TABLE1_STDOUT = (
    "m\\n,1,2,3,4,5,6,7,8\n"
    "2,3,6,9,12,15,19,22,25\n"
    "3,7,14,21,28,35,42,49,57\n"
    "4,12,25,38,51,63,76,89,102\n"
    "5,20,40,60,80,100,120,140,160\n"
    "6,28,57,86,115,144,173,202,231\n"
    "7,39,78,118,157,197,236,276,315\n"
    "8,51,103,154,206,258,309,361,412\n"
    "9,65,130,196,261,326,392,457,523\n"
    "10,80,161,242,323,403,484,565,646\n"
    "11,97,195,293,391,488,586,684,782\n"
)
TABLE2_STDOUT = (
    "n,symmetric_star_m3,ccs_star_m2,kcs_star_m3_k2\n"
    "3,0.912940,0.866025,0.893816\n"
    "40,0.984947,0.866025,0.972613\n"
)


@pytest.mark.parametrize("table_id,want", [("1", TABLE1_STDOUT), ("2", TABLE2_STDOUT)])
def test_analytic_tables_are_pinned_byte_for_byte(capsys, table_id, want):
    assert run(capsys, "table", "--id", table_id) == (0, want, "")


# sha256 of the stdout of table --id N --trials 2000 --seed 1.  Each row
# runs its four weightings in lockstep on one set of trial columns, so a
# weighting steps columns that only another one still holds, which a
# one-cell run never does.
MC_TABLE_SHA256 = {
    "3": "150574062a9daa08f4051c2b210b3728f6962f7c646ec63178559672b7d22777",
    "4": "5cd6a3ccd5250ff5611db3d79ffad12f6825cb5b69603f7ac30b774d955600f0",
    "5": "3401596e268dac9f10ddeeb7c07fbd6e3356feacf26c579db6f19420bace513b",
}


@pytest.mark.parametrize("table_id", sorted(MC_TABLE_SHA256))
def test_monte_carlo_tables_are_pinned(capsys, table_id):
    code, out, _ = run(capsys, "table", "--id", table_id, "--trials", "2000",
                       "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MC_TABLE_SHA256[table_id]


def test_table1_shape(capsys):
    code, out, _ = run(capsys, "table", "--id", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header + m = 2..11
    assert all(len(l.split(",")) == 9 for l in lines)


def test_table3_filtered(capsys, tmp_path):
    out_file = tmp_path / "t3.csv"
    code, _, err = run(capsys, "table", "--id", "3", "--bits", "4",
                       "--weighting", "optimal", "--trials", "200",
                       "--seed", "1", "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "4" and cells[1] == "optimal"
    assert float(cells[2]) >= 99.0  # psi


def test_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; a restricting flag of one call
    # must not reach the next
    code, out, _ = run(capsys, "table", "--id", "3", "--trials", "20", "--bits", "4")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 4
    code, out, _ = run(capsys, "table", "--id", "3", "--trials", "20")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 12


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-3"),
                                        ("--seed", "-1"), ("--seed", str(2**64))])
def test_table_sim_flag_range_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "table", "--id", "3", "--bits", "4",
                         "--weighting", "optimal", flag, value)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and flag in err


@pytest.mark.parametrize("table_id", ["1", "2"])
@pytest.mark.parametrize("argv", [("--bits", "4"), ("--weighting", "optimal"),
                                  ("--trials", "5"), ("--seed", "1"),
                                  ("--config", "cfg.json")])
def test_analytic_tables_reject_sim_flags(capsys, table_id, argv):
    code, out, err = run(capsys, "table", "--id", table_id, *argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and argv[0] in err


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 100, "seed": 5, "bits": 4,
                               "weighting": "metropolis"}))
    out_file = tmp_path / "out.csv"
    code, _, _ = run(capsys, "table", "--id", "5", "--config", str(cfg),
                     "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2 and "metropolis" in lines[1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert run(capsys, "table", "--id", "5", "--config", str(bad))[0] == 1


def test_config_rejects_unknown_fields():
    cfg = config_from_json(json.dumps({"trials": 10, "seed": 1}))
    assert cfg == {"trials": 10, "seed": 1}
    with pytest.raises(ValueError):
        config_from_json(json.dumps({"trails": 10}))


@pytest.mark.parametrize("text", [
    pytest.param(json.dumps({"topology": "ccs-star"}), id="topology"),
    pytest.param(json.dumps({"scheme": "uniform"}), id="scheme"),
    pytest.param(json.dumps({"bits": 5}), id="bits-5"),
    pytest.param(json.dumps({"bits": "4"}), id="bits-string"),
    pytest.param(json.dumps({"weighting": "nope"}), id="weighting"),
    pytest.param(json.dumps({"trials": "ten"}), id="trials-string"),
    pytest.param(json.dumps({"trials": 0}), id="trials-0"),
    pytest.param(json.dumps({"trials": True}), id="trials-bool"),
    pytest.param(json.dumps({"max_iters": 0}), id="max_iters-0"),
    pytest.param(json.dumps({"max_iters": 2.5}), id="max_iters-float"),
    pytest.param(json.dumps({"max_iters": 2**63}), id="max_iters-2^63"),
    pytest.param(json.dumps({"seed": -1}), id="seed-negative"),
    pytest.param(json.dumps({"seed": None}), id="seed-null"),
    pytest.param(json.dumps({"seed": 2**64}), id="seed-2^64"),
    pytest.param(json.dumps([1, 2]), id="not-an-object"),
    pytest.param('{"trials": 10,', id="malformed"),
])
def test_config_bad_input_is_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "table", "--id", "3", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "config" in err


@pytest.mark.parametrize("argv,flag", [
    (("--id", "4", "--k-max-only"), "--k-max-only"),
    (("--id", "2", "--seed", "3"), "--seed"),
    (("--id", "2", "--k-max-only", "--output", "x.csv"), "--output"),
    (("--id", "4", "--seed", "-1"), "--seed"),
])
def test_fig_rejects_ignored_flags(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "fig", *argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and flag in err
    assert list(tmp_path.iterdir()) == []


def test_seed_range_rule_is_shared(capsys, tmp_path, monkeypatch):
    # a seed of 2^64 or more would alias the seed it equals mod 2^64
    monkeypatch.chdir(tmp_path)
    for seed in (-1, 2**64, 2**64 + 7):
        table = run(capsys, "table", "--id", "3", "--seed", str(seed))
        fig = run(capsys, "fig", "--id", "4", "--seed", str(seed))
        assert table == fig == (
            1, "", f"error: --seed must be in 0..{2**64 - 1}, got {seed}\n")
        assert list(tmp_path.iterdir()) == []
    cfg = tmp_path / "cfg.json"
    for seed in (2**64 - 1, 2**64):
        cfg.write_text(json.dumps({"seed": seed, "trials": 5, "bits": 4,
                                   "weighting": "optimal"}))
        code, _, err = run(capsys, "table", "--id", "3", "--config", str(cfg))
        assert code == (0 if seed < 2**64 else 1), err


def test_fig2(capsys, tmp_path):
    code, out, _ = run(capsys, "fig", "--id", "2", "--k-max-only")
    assert code == 0
    assert out.strip().isdigit()
    f = tmp_path / "fig2.csv"
    code, _, err = run(capsys, "fig", "--id", "2", "--output", str(f))
    assert code == 0
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "k,slem" and len(lines) == 31


def test_fig4(capsys, tmp_path):
    prefix = str(tmp_path / "fig4")
    code, _, err = run(capsys, "fig", "--id", "4", "--seed", "7",
                       "--output", prefix)
    assert code == 0
    uni = (tmp_path / "fig4_uniform.csv").read_text()
    prob = (tmp_path / "fig4_probabilistic.csv").read_text()
    assert uni.splitlines()[0].startswith("t,node0")
    # probabilistic run reaches a common level; uniform does not
    last = prob.strip().splitlines()[-1].split(",")[1:]
    assert len(set(last)) == 1
    last_u = uni.strip().splitlines()[-1].split(",")[1:]
    assert len(set(last_u)) > 1


# sha256 of the two CSVs of fig --id 4 at the default seed (7) and at
# seed 1, pinned while the trajectory was still recorded as float64
# values: the values formed from the recorded level indices must keep
# every byte.
FIG4_SHA256 = {
    (None, "uniform"): "563390b2b184beb25efbcce8f04c48bea57c9f1c4df9706884a134a46d1434cc",
    (None, "probabilistic"): "68c62b8a9f3160ee2ada0656e930d9483221fe9c72435c980729db3f845459b2",
    ("1", "uniform"): "22afacd6b54977e5edaa92380852a2c1d89ca48000e44bf6fe3bca92644e40ca",
    ("1", "probabilistic"): "5994e1b605dfac0205f1b2f49713a648be064331a2462aacca4a5fd05deeff8d",
}


@pytest.mark.parametrize("seed", (None, "1"))
def test_fig4_csvs_pinned(capsys, tmp_path, seed):
    prefix = str(tmp_path / "fig4")
    argv = ("fig", "--id", "4", "--output", prefix)
    code, _, _ = run(capsys, *argv, *(() if seed is None else ("--seed", seed)))
    assert code == 0
    for scheme in ("uniform", "probabilistic"):
        data = (tmp_path / f"fig4_{scheme}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIG4_SHA256[seed, scheme]


def test_verify_suites_pass(capsys):
    for suite in ("slackness", "optimizer", "invariance", "stratification",
                  "interlacing"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, suite
        assert json.loads(out)["passed"]


def test_verify_failure_exit(capsys, monkeypatch):
    monkeypatch.setitem(cli.VERIFY_SUITES, "optimizer",
                        lambda: ["case one off", "case two off"])
    code, out, err = run(capsys, "verify", "--suite", "optimizer")
    assert code == 3
    assert json.loads(out) == {"suite": "optimizer", "passed": False,
                               "failures": ["case one off", "case two off"]}
    assert err.splitlines() == ["suite optimizer: 2 failure(s)",
                                "  case one off", "  case two off"]


def test_unwritable_output_exit(capsys, tmp_path):
    code, out, err = run(capsys, "table", "--id", "1",
                         "--output", str(tmp_path / "missing" / "t.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_deterministic_outputs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        code, _, _ = run(capsys, "table", "--id", "5", "--trials", "100",
                         "--seed", "9", "--bits", "4", "--output", str(f))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
