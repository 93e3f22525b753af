"""Command-line front end: parsing, subcommands, exit codes, determinism."""

import math
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qconsensus import induced, optimize, spectra
from qconsensus.cli import (
    PRESETS,
    TopologyError,
    load_topology,
    main,
    parse_topology,
    resolve_weights,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- topology parsing ---


def test_presets_all_load():
    for name in ("g1-3", "g2-3", "g3-3", "g1-4"):
        spec = load_topology(name)
        assert spec.name == name
        assert spec.budget == 1.0
        assert len(spec.gens) >= 2


def test_preset_single_cycle_shape():
    spec = load_topology("g1-3")
    assert spec.n == 3 and spec.d == 2
    assert spec.gens.labels == ("w123", "w12")
    assert spec.gens.perms == ((2, 3, 1), (2, 1, 3))


def test_parse_topology_full_file():
    text = """
# a two-site toy
name: pair
N: 2
d: 3
budget: 0.5
generator: (1 2) weight wswap
"""
    spec = parse_topology(text)
    assert spec.name == "pair"
    assert spec.n == 2
    assert spec.d == 3
    assert spec.budget == 0.5
    assert spec.gens.labels == ("wswap",)
    assert spec.fixed == {}


def test_parse_topology_fixed_weights():
    text = (
        "name: t\nN: 3\n"
        "generator: (1 2 3) weight 0.25\n"
        "generator: (1 2) weight 0.1\n"
    )
    spec = parse_topology(text)
    assert spec.gens.labels == ("w1", "w2")
    assert spec.fixed == {"w1": 0.25, "w2": 0.1}


def test_parse_topology_mixed_fixed_and_symbolic():
    text = (
        "name: t\nN: 3\n"
        "generator: (1 2 3) weight wc\n"
        "generator: (1 2) weight 0.1\n"
    )
    spec = parse_topology(text)
    assert spec.gens.labels == ("wc", "w2")
    assert spec.fixed == {"w2": 0.1}


def test_invented_label_skips_later_symbolic_label():
    text = (
        "name: t\nN: 3\n"
        "generator: (1 2 3) weight 0.25\n"
        "generator: (1 2) weight w1\n"
    )
    spec = parse_topology(text)
    assert spec.gens.labels == ("w2", "w1")
    assert spec.fixed == {"w2": 0.25}
    assert list(resolve_weights(spec, "0.1")) == [0.25, 0.1]


def test_weight_labels_may_contain_the_word_weight(tmp_path, capsys):
    # the cycles never contain "weight", so the line splits at its first one
    text = (
        "name: t\nN: 3\n"
        "generator: (1 2 3) weight weight1\n"
        "generator: (1 2) weight heavyweight\n"
    )
    spec = parse_topology(text)
    assert spec.gens.labels == ("weight1", "heavyweight")
    assert spec.gens.perms == ((2, 3, 1), (2, 1, 3))
    path = tmp_path / "labels.txt"
    path.write_text(text)
    code, out, err = run(capsys, "rates", str(path), "--weights", "0.3,0.1")
    assert code == 0, err
    assert "weight1=0.3" in out and "heavyweight=0.1" in out
    fixed = parse_topology("name: t\nN: 3\ngenerator: (1 2) weight 0.25\n")
    assert fixed.fixed == {"w1": 0.25}


def test_parse_topology_disjoint_cycles_one_generator():
    text = "name: t\nN: 4\ngenerator: (1 2)(3 4) weight wd\n"
    spec = parse_topology(text)
    assert spec.gens.perms == ((2, 1, 4, 3),)


def test_parse_topology_errors_carry_line_numbers():
    with pytest.raises(TopologyError, match=r"bad\.topo:2"):
        parse_topology("name: t\nNN: 3\n", source="bad.topo")
    with pytest.raises(TopologyError, match=r":3:.*out of range"):
        parse_topology("name: t\nN: 3\ngenerator: (1 5) weight w\n")
    with pytest.raises(TopologyError, match="missing 'weight"):
        parse_topology("name: t\nN: 3\ngenerator: (1 2) w\n")
    with pytest.raises(TopologyError, match="'N'"):
        parse_topology("name: t\ngenerator: (1 2) weight w\n")


def test_negative_weights_rejected_at_resolve_time():
    spec = parse_topology("name: t\nN: 3\ngenerator: (1 2) weight -0.5\n")
    with pytest.raises(TopologyError, match="nonnegative"):
        resolve_weights(spec, None)
    with pytest.raises(TopologyError, match="nonnegative"):
        resolve_weights(load_topology("g1-3"), "-0.1,0.2")


def test_resolve_weights_fills_symbolic_labels():
    spec = load_topology("g1-3")
    w = resolve_weights(spec, "0.3,0.1")
    assert_allclose(w, [0.3, 0.1])


def test_resolve_weights_count_mismatch():
    spec = load_topology("g1-3")
    with pytest.raises(TopologyError, match="2"):
        resolve_weights(spec, "0.3")


def test_resolve_weights_requires_values_for_symbolic():
    spec = load_topology("g1-3")
    with pytest.raises(TopologyError):
        resolve_weights(spec, None)


# --- rates ---


def test_rates_balanced_single_cycle(capsys):
    code, out, _ = run(capsys, "rates", "g1-3", "--weights", "0.2,0.2")
    assert code == 0
    assert "lambda_cons: 0.4" in out
    assert "lambda_synch: 0.4" in out
    assert "aldous: true" in out
    assert "(2,1):" in out and "(1,1,1):" in out


def test_rates_directed_asymmetry(capsys):
    code, out, _ = run(capsys, "rates", "g1-3", "--weights", "0.3,0.1")
    assert code == 0
    assert "aldous: false" in out
    assert "lambda_cons: 0.2" in out


def test_rates_both_directions(capsys):
    code, out, _ = run(capsys, "rates", "g2-3", "--weights", "0.2,0.2,0.2")
    assert code == 0
    assert "lambda_synch: 0.6" in out
    assert "lambda_cons: 0.4" in out


def test_rates_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "rates", "g1-4", "--weights", "0.11,0.13,0.17")
    _, out2, _ = run(capsys, "rates", "g1-4", "--weights", "0.11,0.13,0.17")
    assert out1 == out2


def test_rates_from_topology_file(tmp_path, capsys):
    topo = tmp_path / "ring.topo"
    topo.write_text("name: ring4\nN: 4\nbudget: 2\ngenerator: (1 2 3 4) weight wr\n")
    code, out, _ = run(capsys, "rates", str(topo), "--weights", "0.25")
    assert code == 0
    assert "topology: ring4" in out


def test_rates_fixed_weight_file(tmp_path, capsys):
    topo = tmp_path / "fixed.topo"
    topo.write_text(
        "name: t\nN: 3\n"
        "generator: (1 2 3) weight 0.2\n"
        "generator: (1 2) weight 0.2\n"
    )
    code, out, _ = run(capsys, "rates", str(topo))
    assert code == 0
    assert "lambda_cons: 0.4" in out


def test_rates_intransitive_synch_is_zero(tmp_path, capsys):
    topo = tmp_path / "split.topo"
    topo.write_text(
        "name: split\nN: 4\n"
        "generator: (1 2) weight a\n"
        "generator: (3 4) weight b\n"
    )
    code, out, _ = run(capsys, "rates", str(topo), "--weights", "1,1")
    assert code == 0
    assert "lambda_synch: 0\n" in out
    code, out, _ = run(capsys, "optimize", str(topo), "--objective", "synchronization")
    assert code == 0
    assert "best value: 0\n" in out


def test_rates_at_extreme_weight_scales(capsys):
    code, out, _ = run(capsys, "rates", "g1-3", "--weights", "3e-10,1e-10")
    assert code == 0
    assert "lambda_cons: 2e-10" in out
    assert "aldous: false" in out
    code, out, _ = run(capsys, "rates", "g1-3", "--weights", "3e8,1e8")
    assert code == 0
    assert "lambda_cons: 200000000" in out
    assert "aldous: false" in out


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_weights_rejected_before_output(tmp_path, capsys, bad):
    code, out, err = run(capsys, "rates", "g1-3", f"--weights={bad},0.1")
    assert code == 2 and out == ""
    assert "finite" in err
    topo = tmp_path / "fixed.topo"
    topo.write_text(f"name: t\nN: 3\ngenerator: (1 2 3) weight {bad}\n")
    code, out, err = run(capsys, "rates", str(topo))
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_nonfinite_budget_rejected(capsys, tmp_path, bad):
    text = f"name: t\nN: 3\nbudget: {bad}\ngenerator: (1 2 3) weight w\n"
    with pytest.raises(TopologyError, match="budget"):
        parse_topology(text)
    topo = tmp_path / "budget.topo"
    topo.write_text(text)
    code, out, _ = run(capsys, "optimize", str(topo))
    assert code == 2 and out == ""


# --- exit codes ---


def test_unknown_preset_is_config_error(capsys):
    code, _, err = run(capsys, "rates", "nope-7")
    assert code == 2
    assert "error" in err


def test_bad_weight_count_is_config_error(capsys):
    code, _, err = run(capsys, "rates", "g1-3", "--weights", "0.1")
    assert code == 2


def test_group_cap_exit_code(tmp_path, capsys):
    topo = tmp_path / "big.topo"
    topo.write_text(
        "name: big\nN: 8\n"
        "generator: (1 2 3 4 5 6 7 8) weight wc\n"
        "generator: (1 2) weight wt\n"
    )
    # at d=3 the (1^8) shape has 40320 tabloids, past the orbit cap
    code, _, err = run(capsys, "spectrum", str(topo), "--weights", "0.1,0.1", "--d", "3",
                       "--partition", "1,1,1,1,1,1,1,1")
    assert code == 4
    assert "cap" in err.lower()


def test_spectrum_all_checks_every_orbit_cap_before_any_solve(monkeypatch, capsys):
    # with the cap at 10 the g1-4 orbits of 4 and 6 tabloids fit, but
    # (2,1,1) has 12: spectrum --all must exit before its first dense solve
    monkeypatch.setattr(induced, "DEFAULT_GROUP_CAP", 10)
    solves = []
    solve = spectra.eigenvalues

    def counted(m):
        solves.append(m.shape)
        return solve(m)

    monkeypatch.setattr(spectra, "eigenvalues", counted)
    code, out, err = run(capsys, "spectrum", "g1-4", "--weights", "0.1,0.2,0.15", "--all")
    assert code == 4
    assert "cap" in err.lower()
    assert out == ""
    assert solves == []


def test_rates_past_the_orbit_cap(tmp_path, capsys):
    # rates read irrep blocks (at most 90 x 90 here), so the cap that
    # stops spectrum --partition above does not apply to them
    topo = tmp_path / "big.topo"
    topo.write_text(
        "name: big\nN: 8\n"
        "generator: (1 2 3 4 5 6 7 8) weight wc\n"
        "generator: (1 2) weight wt\n"
    )
    code, out3, _ = run(capsys, "rates", str(topo), "--weights", "0.1,0.1", "--d", "3")
    assert code == 0
    assert "  (1,1,1,1,1,1,1,1): " in out3
    code, out2, _ = run(capsys, "rates", str(topo), "--weights", "0.1,0.1", "--d", "2")
    assert code == 0

    def cons(out):
        return [line for line in out.splitlines() if line.startswith("lambda_cons:")]

    assert cons(out3) == cons(out2) and len(cons(out2)) == 1


def test_rates_check_the_block_cap_before_any_block(tmp_path, monkeypatch, capsys):
    # ring+swap N=5 at d=2 has blocks of 4, 5, 6, 5 and 4 rows, 118
    # coefficients a generator; with the cap below that, rates must exit
    # before building the first block
    monkeypatch.setattr(spectra, "RATE_BLOCK_CAP", 100)
    built = []
    real = spectra.irrep_block

    def counted(parts, gens):
        built.append(parts)
        return real(parts, gens)

    monkeypatch.setattr(spectra, "irrep_block", counted)
    topo = tmp_path / "ring5.topo"
    topo.write_text(
        "name: ring5\nN: 5\n"
        "generator: (1 2 3 4 5) weight wc\n"
        "generator: (1 2) weight wt\n"
    )
    code, out, err = run(capsys, "rates", str(topo), "--weights", "0.1,0.1")
    assert code == 4
    assert out == ""
    assert "cap" in err.lower()
    assert built == []


@pytest.mark.parametrize("argv", [
    ("rates", "g1-3", "--weights", "0.2,0.2"),
    ("spectrum", "g1-3", "--weights", "0.2,0.2", "--all"),
    ("optimize", "g1-3"),
    ("pareto", "g1-3", "--out", "@CSV"),
    ("simulate", "g1-3", "--weights", "0.2,0.2", "--t", "1", "--out", "@CSV"),
], ids=lambda argv: argv[0])
def test_site_dimension_below_two_rejected_before_output(tmp_path, capsys, argv):
    csv = tmp_path / "out.csv"
    argv = [str(csv) if a == "@CSV" else a for a in argv]
    code, out, err = run(capsys, *argv, "--d", "1")
    assert code == 2
    assert out == ""
    assert "--d must be >= 2" in err
    assert not csv.exists()


@pytest.mark.parametrize("flag,value", [
    ("--store-every", "0"),
    ("--store-every", "-3"),
    ("--t", "inf"),
    ("--t", "nan"),
    ("--dt", "nan"),
])
def test_simulate_bad_step_inputs_rejected_before_output(tmp_path, capsys, flag, value):
    csv = tmp_path / "traj.csv"
    code, out, err = run(
        capsys, "simulate", "g1-3", "--weights", "0.2,0.2", "--t", "1",
        "--out", str(csv), flag, value,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not csv.exists()


@pytest.mark.parametrize("n", [9, 20])
def test_simulate_state_cap_before_output(tmp_path, capsys, n):
    # 2^9 and 2^20 both pass the 256 cap; the check runs before any state
    # or Hamiltonian of that size is built
    ring = " ".join(map(str, range(1, n + 1)))
    topo = tmp_path / "ring.topo"
    topo.write_text(
        f"name: ring\nN: {n}\ngenerator: ({ring}) weight wc\n"
        "generator: (1 2) weight wt\n"
    )
    csv = tmp_path / "traj.csv"
    code, out, err = run(
        capsys, "simulate", str(topo), "--weights", "0.1,0.1", "--h0", "zsum",
        "--out", str(csv),
    )
    assert code == 4
    assert out == ""
    assert f"state dimension {2**n} exceeds cap 256" in err
    assert not csv.exists()


def _limit_address_space():
    # runs in the child before exec: a 2 GB address space, so an input
    # that escapes its cap fails with a MemoryError instead of swapping
    limit = 2 * 1024**3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ("simulate", "g1-3", "--weights", "0.2,0.2", "--t", "1e9"),
    ("simulate", "g1-3", "--weights", "0.2,0.2", "--t", "1", "--dt", "1e-300"),
    ("pareto", "g1-3", "--resolution", "100000000"),
], ids=["simulate-t-1e9", "simulate-dt-1e-300", "pareto-resolution-1e8"])
def test_inputs_past_a_size_cap_exit_4_under_a_memory_limit(tmp_path, argv):
    # 10^12 steps, 10^300 steps and 10^8 + 1 grid points: each size is
    # predicted from the arguments and refused before anything is allocated
    csv = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qconsensus.cli", *argv, "--out", str(csv)],
        cwd=tmp_path, capture_output=True, text=True, timeout=30,
        preexec_fn=_limit_address_space, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    # one short line: the 10^300 steps print as 1e+300, not as 301 digits
    assert re.fullmatch(r"error: (steps|grid points) \S{1,20} exceeds cap \d+\n", proc.stderr)
    assert list(tmp_path.iterdir()) == []


def test_pareto_grid_cap_before_any_rate(tmp_path, capsys, monkeypatch):
    # g1-3's default grid has C(201, 1) = 201 points; with the cap at 100
    # pareto must exit before its first batched rate call
    monkeypatch.setattr(optimize, "GRID_CAP", 100)
    calls = []
    real = optimize._RateEvaluator.rates
    monkeypatch.setattr(optimize._RateEvaluator, "rates",
                        lambda self, w: calls.append(len(w)) or real(self, w))
    csv = tmp_path / "cloud.csv"
    code, out, err = run(capsys, "pareto", "g1-3", "--out", str(csv))
    assert code == 4
    assert out == ""
    assert err == "error: grid points 201 exceeds cap 100\n"
    assert calls == []
    assert not csv.exists()


def test_pareto_default_grids_fit_the_grid_cap(tmp_path, capsys):
    # the default resolution is 200 for m <= 3 generators and 60 above:
    # m = 5 makes C(64, 4) = 635,376 points, under 2^20; six generators
    # would make C(65, 5) = 8,259,888 and exit 4 at once
    for m in range(1, 6):
        assert math.comb((200 if m <= 3 else 60) + m - 1, m - 1) <= optimize.GRID_CAP
    topo = tmp_path / "six.topo"
    topo.write_text("name: six\nN: 4\n" + "".join(
        f"generator: {g} weight w{i}\n"
        for i, g in enumerate(["(1 2)", "(2 3)", "(3 4)", "(1 2 3)", "(1 3 2)", "(1 2 3 4)"])))
    csv = tmp_path / "six.csv"
    code, out, err = run(capsys, "pareto", str(topo), "--out", str(csv))
    assert code == 4
    assert out == ""
    assert err == "error: grid points 8259888 exceeds cap 1048576\n"
    assert not csv.exists()


@pytest.mark.parametrize("argv", [
    ("rates", "g1-3", "--weights", "0.2,0.2"),
    ("pareto", "g1-3", "--out", "@CSV"),
    ("spectrum", "g1-3", "--weights", "0.2,0.2", "--all"),
], ids=lambda argv: argv[0])
def test_seed_only_on_randomized_subcommands(tmp_path, capsys, argv):
    csv = tmp_path / "out.csv"
    argv = [str(csv) if a == "@CSV" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not csv.exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "g1-3", "--weights", "1e200,0.2"),
    ("rates", "g1-3", "--weights", "1e308,1e308"),
    # g1-4's blocks come in three sizes, each its own product and solve
    ("rates", "g1-4", "--weights", "0.1,1e308,1e308"),
    ("spectrum", "g1-3", "--weights", "1e308,1e308", "--all"),
    ("spectrum", "g1-3", "--weights", "1e308,1e308", "--partition", "2,1"),
], ids=["simulate", "rates", "rates-g1-4", "spectrum-all", "spectrum-partition"])
def test_overflowing_weights_fail_before_output(argv, capsys, tmp_path):
    out = tmp_path / "t.csv"
    if argv[0] == "simulate":
        argv += ("--out", str(out))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(capsys, *argv)
    assert code == 3
    assert stdout == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "nan/inf" in err
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("rates",), ("spectrum", "--all"), ("spectrum", "--partition", "2,1"),
], ids=["rates", "spectrum-all", "spectrum-partition"])
def test_overflowing_budget_cost_is_input_error(argv, capsys):
    # the Laplacians stay finite, but 3 * 1e308 + 2 * 1e-3 does not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(capsys, argv[0], "g1-3", "--weights", "1e308,1e-3",
                                *argv[1:])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget cost" in err
    assert not caught


def test_cli_import_loads_no_scipy():
    # scipy.sparse costs import time and memory; only a simulation loads it
    probe = ("import sys, qconsensus.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_step_size_failure_exit_code(capsys, tmp_path):
    out = tmp_path / "t.csv"
    code, _, err = run(
        capsys, "simulate", "g1-3", "--weights", "1.0,1.0",
        "--t", "60", "--dt", "5.0", "--out", str(out),
    )
    assert code == 3
    assert "numerical failure" in err


# --- optimize ---


def grab(out, prefix):
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in output")


def test_optimize_consensus(capsys):
    code, out, _ = run(capsys, "optimize", "g1-3")
    assert code == 0
    assert_allclose(float(grab(out, "best value:")), 0.4, atol=1e-6)
    weights_line = grab(out, "weights:")
    vals = dict(tok.split("=") for tok in weights_line.split())
    assert_allclose(float(vals["w123"]), 0.2, atol=1e-4)
    assert_allclose(float(vals["w12"]), 0.2, atol=1e-4)


@pytest.mark.parametrize("argv", [
    ("optimize", "@TOPO"),
    ("optimize", "@TOPO", "--objective", "synchronization"),
    ("pareto", "@TOPO", "--out", "@CSV"),
], ids=["optimize-consensus", "optimize-synchronization", "pareto"])
def test_search_commands_reject_fixed_weights(tmp_path, capsys, argv):
    topo = tmp_path / "fixed.topo"
    topo.write_text(
        "name: t\nN: 3\n"
        "generator: (1 2 3) weight w123\n"
        "generator: (1 2) weight 0.05\n"
    )
    csv = tmp_path / "out.csv"
    argv = [{"@TOPO": str(topo), "@CSV": str(csv)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "fixed weights (w2=0.05)" in err
    assert not csv.exists()


def test_optimize_synchronization(capsys):
    code, out, _ = run(capsys, "optimize", "g1-4", "--objective", "synchronization")
    assert code == 0
    assert_allclose(float(grab(out, "best value:")), 0.25, atol=1e-6)


# --- pareto ---


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_pareto_writes_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code, text, _ = run(
        capsys, "pareto", "g1-3", "--resolution", "25", "--out", str(out)
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["w123", "w12", "lambda_cons", "lambda_synch", "on_front"]
    assert len(rows) == 26
    for w1, w2, cons, synch, flag in rows:
        assert_allclose(3 * w1 + 2 * w2, 1.0, atol=1e-12)
        assert flag in (0.0, 1.0)
    assert "points: 26" in text
    # the balanced optimum sits on this grid
    best = max(r[2] for r in rows)
    assert_allclose(best, 0.4, atol=1e-9)


def test_pareto_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "pareto", "g1-3", "--resolution", "30", "--out", str(a))
    run(capsys, "pareto", "g1-3", "--resolution", "30", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_pareto_at_a_budget_near_the_float_limit(tmp_path, capsys):
    """Grid weights stay at most D / length, so a budget of 1e307 neither
    overflows nor warns, and the maxima scale with it.  Only the maxima
    are compared, as the first tied grid point may differ."""
    maxima = {}
    for budget in ("1", "1e307"):
        topo = tmp_path / f"g1-4-{budget}.topo"
        topo.write_text(PRESETS["g1-4"] + f"budget: {budget}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "pareto", str(topo), "--resolution", "20",
                                 "--out", str(tmp_path / f"{budget}.csv"))
        assert code == 0, err
        maxima[budget] = [float(grab(out, f"max {t}:").split()[0])
                          for t in ("lambda_cons", "lambda_synch")]
    assert_allclose(maxima["1e307"], 1e307 * np.array(maxima["1"]), rtol=1e-12)


# --- simulate ---


def test_simulate_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, text, _ = run(
        capsys, "simulate", "g1-3", "--weights", "0.2,0.2",
        "--t", "2", "--store-every", "100", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "sync_distance", "distance_to_consensus"]
    assert rows[0][0] == 0.0
    assert rows[-1][0] == 2.0
    # distances shrink over a couple of time units
    assert rows[-1][1] < rows[0][1]
    assert rows[-1][2] < rows[0][2]
    assert "wrote:" in text


def test_simulate_short_run_reports_unavailable_fits(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, text, _ = run(
        capsys, "simulate", "g1-3", "--weights", "0.2,0.2",
        "--t", "1", "--out", str(out),
    )
    assert code == 0
    assert "unavailable" in text


def test_simulate_rho0_from_file(tmp_path, capsys):
    rho_file = tmp_path / "rho.txt"
    # two-site topology: a product state with site asymmetry
    rho_file.write_text(
        "0.45 0 0.15 0\n0 0.05 0 0.01666666666666667\n"
        "0.15 0 0.45 0\n0 0.01666666666666667 0 0.05\n"
    )
    topo = tmp_path / "pair.topo"
    topo.write_text("name: pair\nN: 2\ngenerator: (1 2) weight w\n")
    out = tmp_path / "traj.csv"
    code, text, _ = run(
        capsys, "simulate", str(topo), "--weights", "0.5",
        "--rho0", str(rho_file), "--t", "2", "--out", str(out),
    )
    assert code == 0


def test_simulate_rejects_bad_rho0(tmp_path, capsys):
    rho_file = tmp_path / "rho.txt"
    rho_file.write_text("1 0\n0 1\n")  # trace 2
    topo = tmp_path / "one.topo"
    topo.write_text("name: one\nN: 2\ngenerator: (1 2) weight w\n")
    code, _, err = run(
        capsys, "simulate", str(topo), "--weights", "0.5", "--rho0", str(rho_file)
    )
    assert code == 2
    assert "bad initial state" in err


@pytest.mark.parametrize("content,message", [
    (None, "i/o error: "),
    ("0.5 0\n0 x\n", "@: bad initial state: line 2: could not convert string to float: 'x'"),
    ("0.5 0\n# a comment\n0\n", "@: bad initial state: line 3: 1 entries where the first row has 2"),
    ("0.25 0 0 0\n0 0.25 0 0\n0 0 0.25 0\n0 0 0 0.25\n",
     "@: bad initial state: state size 4 is not d^N = 2^3"),
], ids=["missing", "non-numeric", "ragged", "4x4-for-three-qubits"])
def test_simulate_bad_rho0_rejected_before_output(tmp_path, capsys, content, message):
    rho_file = tmp_path / "rho.txt"
    if content is not None:
        rho_file.write_text(content)
    csv = tmp_path / "traj.csv"
    code, out, err = run(
        capsys, "simulate", "g1-3", "--weights", "0.2,0.2", "--t", "1",
        "--rho0", str(rho_file), "--out", str(csv),
    )
    assert code == 2
    assert out == ""
    assert message.replace("@", str(rho_file)) in err
    assert not csv.exists()


def test_simulate_unwritable_out_prints_nothing(tmp_path, capsys):
    # the trajectory CSV is written before any output, as pareto's is
    csv = tmp_path / "missing" / "x.csv"
    code, out, err = run(
        capsys, "simulate", "g1-3", "--weights", "0.2,0.2", "--t", "0.5", "--out", str(csv),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("i/o error: ")
    assert not csv.exists()


# --- spectrum ---


def test_spectrum_single_partition(capsys):
    code, out, _ = run(
        capsys, "spectrum", "g1-3", "--weights", "0.2,0.2", "--partition", "2,1"
    )
    assert code == 0
    assert "partition: (2,1)  vertices: 3" in out
    assert "laplacian:" in out and "spectrum:" in out


def test_spectrum_eight_site_vertex_shape(tmp_path, capsys):
    topo = tmp_path / "ring8.topo"
    topo.write_text(
        "name: ring8\nN: 8\n"
        "generator: (1 2 3 4 5 6 7 8) weight wc\n"
        "generator: (1 2) weight wt\n"
    )
    code, out, _ = run(
        capsys, "spectrum", str(topo), "--weights", "0.1,0.1", "--partition", "7,1"
    )
    assert code == 0
    assert "partition: (7,1)  vertices: 8" in out


def test_spectrum_prints_one_pattern_at_every_scale(capsys):
    def spectrum(weights):
        code, out, _ = run(
            capsys, "spectrum", "g1-3", "--weights", weights, "--partition", "1,1,1"
        )
        assert code == 0
        return out.split("spectrum:\n")[1].split()

    unit, tiny = spectrum("0.3,0.1"), spectrum("3e-17,1e-17")
    assert sum(z.endswith("i") for z in unit) == 4
    assert [z.endswith("i") for z in tiny] == [z.endswith("i") for z in unit]


def test_spectrum_rejects_trivial_partition(tmp_path, capsys):
    code, out, err = run(
        capsys, "spectrum", "g1-3", "--weights", "0.2,0.2", "--partition", "3"
    )
    assert code == 2
    assert out == ""
    assert "one-part partition" in err
    # a shape with more than d*d rows is no rate's: (1^5) at d = 2
    topo = tmp_path / "ring5.topo"
    topo.write_text(
        "name: ring5\nN: 5\n"
        "generator: (1 2 3 4 5) weight wc\n"
        "generator: (1 2) weight wt\n"
    )
    code, out, err = run(
        capsys, "spectrum", str(topo), "--weights", "0.1,0.1", "--partition", "1,1,1,1,1"
    )
    assert code == 2
    assert out == ""
    assert "more than d*d = 4" in err


def test_spectrum_all_prints_verdict(capsys):
    code, out, _ = run(capsys, "spectrum", "g1-4", "--weights", "0.1,0.2,0.15", "--all")
    assert code == 0
    assert "intertwining:" in out
    assert "verdict: all inclusions hold" in out


def test_spectrum_needs_partition_or_all(capsys):
    code, _, err = run(capsys, "spectrum", "g1-3", "--weights", "0.2,0.2")
    assert code == 2
    # and takes only one of them
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "g1-3", "--weights", "0.2,0.2", "--all", "--partition", "9,9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("argv", [
    ("g1-3", "--weights", "1e8,1e8"),
    ("g1-4", "--weights", "1e9,2e9,3e9"),
    ("g3-3", "--weights", "1e200,1e200"),
], ids=["g1-3", "g1-4", "g3-3"])
def test_spectrum_all_holds_at_large_weights(argv, capsys):
    # the spectra scale exactly with the weights, and so must every verdict
    code, out, _ = run(capsys, "spectrum", *argv, "--all")
    assert code == 0
    assert "VIOLATED" not in out
    assert out.endswith("verdict: all inclusions hold\n")


def test_spectrum_all_overflow_on_whole_orbits(tmp_path, capsys):
    # every orbit of ring+swap is a whole tabloid set, so no eigensolve
    # runs; the overflowing Laplacian still fails before any output
    topo = tmp_path / "ring5.topo"
    topo.write_text("name: ring5\nN: 5\ngenerator: (1 2 3 4 5) weight wc\n"
                    "generator: (1 2) weight wt\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spectrum", str(topo), "--weights", "1e308,1e308", "--all")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "nan/inf" in err


def test_spectrum_all_names_no_eigenvalue_for_a_failed_cover_map(capsys, monkeypatch):
    real = spectra.tabloid_orbit

    def planted(parts, gens):
        verts, img = real(parts, gens)
        if parts == (3, 1):
            img = img.copy()
            img[[0, -1], 0] = img[[-1, 0], 0]
        return verts, img

    monkeypatch.setattr(spectra, "tabloid_orbit", planted)
    code, out, _ = run(capsys, "spectrum", "g1-4", "--weights", "0.1,0.2,0.15", "--all")
    assert code == 0
    lines = out.splitlines()
    assert "  (3,1) into (2,2) [dominance]: VIOLATED (max defect 1.000e-01)" in lines
    assert "  (2,2) into (2,1,1) [dominance]: ok (max defect 0.000e+00)" in lines
    assert lines[-1] == "verdict: violations found"


def test_spectrum_all_loads_no_scipy():
    probe = ("import sys; from qconsensus.cli import main; "
             "main(['spectrum', 'g1-4', '--weights', '0.1,0.2,0.15', '--all']); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    from qconsensus import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cases = [
        ("rates", "g1-3", "--weights", "0.3,0.1"),
        ("rates", "g1-3", "--weights", "0.3,0.1", "--seed", "1"),
        ("spectrum", "g1-4", "--weights", "0.1,0.2,0.15", "--all"),
        ("--help",),
        ("spectrum", "--help"),
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in cases]
    assert len(built) == 1
    fresh = []
    for argv in cases:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, ("exit", 2), 0, ("exit", 0), ("exit", 0)]
    cli._parser.cache_clear()
