"""The three benchmark workloads: seeded inputs and fixed command lists.

Every workload writes its own topology files into a work directory and
returns the ``qcl`` argument vectors of one pass.  The program sees only
those files, the weights and the ``--seed`` values; everything else the
oracle needs travels in the command's ``expect`` record.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Published optima of the four presets at budget 1 and the tolerance of
# the acceptance criterion that pins each of them (both scale with D).
OPTIMA = {
    ("g1-3", "consensus"): (0.4, 1e-3),
    ("g3-3", "consensus"): (0.25, 1e-3),
    ("g1-4", "consensus"): (0.1699, 5e-3),
    ("g1-4", "synchronization"): (0.25, 5e-3),
}
# The two marked points of the g1-4 front at budget 1, as (cons, synch).
FRONT_POINTS = ((0.1326, 0.1326), (0.15457, 0.19731))
FRONT_TOL = 5e-3

# (cycles, weight label) per generator; costs are the summed cycle lengths.
PRESET_GENERATORS = {
    "g1-3": [([[1, 2, 3]], "w123"), ([[1, 2]], "w12")],
    "g3-3": [([[1, 2]], "w12"), ([[2, 3]], "w23")],
    "g1-4": [([[1, 2, 3, 4]], "w1234"), ([[1, 2]], "w12"), ([[3, 4]], "w34")],
}
PRESET_SITES = {"g1-3": 3, "g3-3": 3, "g1-4": 4}


@dataclass(frozen=True)
class Command:
    """One ``qcl`` call of a pass.

    ``out`` names the CSV the command writes, if any.  ``expect`` holds
    what the oracle needs: the subcommand, the generators as cycle lists
    and every input value the check depends on.
    """

    argv: tuple[str, ...]
    expect: dict
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    probe: Command


def _cycles_text(cycles) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def _write_topology(path, name, n, gens, d=2, budget=None) -> str:
    lines = [f"name: {name}", f"N: {n}", f"d: {d}"]
    if budget is not None:
        lines.append(f"budget: {budget!r}")
    lines += [f"generator: {_cycles_text(c)} weight {lb}" for c, lb in gens]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _ring_swap(n):
    return [([list(range(1, n + 1))], "wring"), ([[1, 2]], "wswap")]


def _weights_arg(w) -> str:
    return ",".join(repr(float(x)) for x in w)


def _rates(path, n, gens, w, d, extra=()) -> Command:
    argv = ("rates", path, "--weights", _weights_arg(w)) + tuple(extra)
    expect = {"kind": "rates", "n": n, "d": d, "gens": gens, "weights": tuple(w)}
    return Command(argv=argv, expect=expect)


def probe_command(seed: int, workdir: str) -> Command:
    """The cold-start probe: ``rates`` on a seeded six-site ring+swap.

    Its induced graphs have up to 180 vertices, so the probe's time is
    interpreter launch, the ``qconsensus.cli`` import and the BLAS warm-up
    that the first large eigensolves of a process pay.  Every workload
    uses it.
    """
    rng = np.random.default_rng([seed, 0])
    w = 1.0 - rng.random(2)
    path = _write_topology(
        os.path.join(workdir, "probe.txt"), "probe", 6, _ring_swap(6)
    )
    return _rates(path, 6, _ring_swap(6), w, 2)


def ladder(seed: int, workdir: str) -> list[Command]:
    """Ring (1 2 .. N) plus swap (1 2) under three seeded weight draws.

    Per draw: rates for N=3..7 at d=2 and N=3..6 at d=3, then
    ``spectrum --all`` for N=4..6 at d=2; 36 commands a pass.
    """
    rng = np.random.default_rng([seed, 1])
    draws = 1.0 - rng.random((3, 2))  # uniform over (0, 1]
    paths = {
        n: _write_topology(
            os.path.join(workdir, f"ring-swap-{n}.txt"), f"ring-swap-{n}", n,
            _ring_swap(n),
        )
        for n in range(3, 8)
    }
    cmds = []
    for w in draws:
        for n in range(3, 8):
            cmds.append(_rates(paths[n], n, _ring_swap(n), w, 2))
        for n in range(3, 7):
            cmds.append(_rates(paths[n], n, _ring_swap(n), w, 3, ("--d", "3")))
        for n in range(4, 7):
            argv = ("spectrum", paths[n], "--weights", _weights_arg(w), "--all")
            cmds.append(Command(argv=argv, expect={"kind": "spectrum"}))
    return cmds


def budget(seed: int, workdir: str) -> list[Command]:
    """Optimizer runs on g1-3, g3-3 and g1-4 plus a g1-4 Pareto scan.

    The budget D is drawn from [0.5, 2] and the optimizer seed is the
    workload seed, except for the g1-4 synchronization run: it always
    uses budget 1 and optimizer seed 0.  Its work varies 2.7x with the
    optimizer seed (29,614 to 80,491 ``eigvals`` calls over seeds 0-5)
    and 2x with D (62,275 to 123,979 over D = 0.5..2 at seed 0), and as
    the longest command of the pass it would make ``wall_s`` a draw of
    its inputs rather than a measure of the code.
    """
    rng = np.random.default_rng([seed, 2])
    d_budget = float(0.5 + 1.5 * rng.random())
    cmds = []
    for name, objective in OPTIMA:
        fixed = objective == "synchronization"
        d_run, opt_seed = (1.0, 0) if fixed else (d_budget, seed)
        path = _write_topology(
            os.path.join(workdir, f"{name}-{objective}.txt"), name,
            PRESET_SITES[name], PRESET_GENERATORS[name], budget=d_run,
        )
        argv = ("optimize", path, "--seed", str(opt_seed))
        if fixed:
            argv += ("--objective", objective)
        cmds.append(Command(
            argv=argv,
            expect={"kind": "optimize", "preset": name, "objective": objective,
                    "budget": d_run},
        ))
    gens = PRESET_GENERATORS["g1-4"]
    path = _write_topology(
        os.path.join(workdir, "g1-4-pareto.txt"), "g1-4", 4, gens, budget=d_budget
    )
    out = os.path.join(workdir, "g1-4-pareto.csv")
    cmds.append(Command(
        argv=("pareto", path, "--resolution", "60", "--out", out),
        expect={"kind": "pareto", "budget": d_budget, "resolution": 60,
                "costs": [sum(len(c) for c in cyc) for cyc, _ in gens]},
        out=out,
    ))
    return cmds


def dynamics(seed: int, workdir: str) -> list[Command]:
    """Master-equation runs to t=20 at dt=1e-3 on three small networks.

    The g1-4 weights are unequal because equal weights put a Jordan block
    at the rate-setting eigenvalue.  The workload seed picks the initial
    state.  The decay fits of the g1-3 run at d=2 are recorded but not
    gated (see README.md).
    """
    runs = (
        ("g1-3", 2, (0.2, 0.2), False),
        ("g1-4", 2, (0.46, 0.29, 0.29), True),
        ("g1-3", 3, (0.2, 0.2), True),
    )
    cmds = []
    for name, d, w, gate_fits in runs:
        tag = f"{name}-d{d}"
        gens = PRESET_GENERATORS[name]
        path = _write_topology(
            os.path.join(workdir, f"{tag}.txt"), tag, PRESET_SITES[name], gens, d=d
        )
        out = os.path.join(workdir, f"{tag}-trajectory.csv")
        argv = ("simulate", path, "--weights", _weights_arg(w), "--t", "20",
                "--dt", "1e-3", "--seed", str(seed), "--out", out)
        cmds.append(Command(
            argv=argv,
            expect={"kind": "simulate", "n": PRESET_SITES[name], "d": d,
                    "gens": gens, "weights": w, "gate_fits": gate_fits,
                    "rows": 2001},
            out=out,
        ))
    return cmds


WORKLOADS = {"ladder": ladder, "budget": budget, "dynamics": dynamics}


def build(name: str, seed: int, workdir: str) -> Workload:
    return Workload(
        name=name,
        commands=tuple(WORKLOADS[name](seed, workdir)),
        probe=probe_command(seed, workdir),
    )
