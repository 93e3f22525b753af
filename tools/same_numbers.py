"""Check that a change keeps every printed number of ``qcl``.

``dump`` runs a fixed list of ``qcl`` commands in process against the
``qconsensus`` package under SRC and writes each command's exit code,
stdout, stderr and CSV output to a JSON file, the work directory written
``<work>``.  ``compare`` reports every command whose record differs
between two dumps: its differing stdout and stderr lines and, for a CSV
of unchanged shape, the largest absolute difference of its values.  The
list covers ``rates``, ``spectrum --all``, ``spectrum --partition``
(graphs of up to 120 vertices), ``optimize`` (both
objectives, seeds 0 and 1, on g1-4 also 2 and 3) and ``pareto`` on the
four presets and on ring+swap for N = 3..7 at d = 2 and 3, at fixed
weights and seeds (on ring+swap, ``spectrum --all`` runs for N = 3..8 at
d = 2, the largest orbit being N = 8's 2520 tabloids, and N = 3..7 at
d = 3, where N = 6 and 7 check the ``alternating-removed`` pair on the
(1^N) shape's 720 and 5040 tabloids), and ``simulate`` to t = 2 (stdout
and trajectory CSV) on g1-3, g1-4 and g3-3 at d = 2 and g1-3 at d = 3, seeds 0 and 3, plus
one g1-3 run each with ``--h0 zsum`` and ``--store-every 1``, and g1-3 at
``0.2,0.2`` to t = 2.003 at ``--store-every 7``, at d = 2 and at d = 3 with
``--h0 zsum`` (segments of 7 steps and a last one of 1, so two step
lengths, groups cut short at chunk ends and complex orbit blocks), ``simulate``
on g1-3 from ``--rho0`` files (one valid 8x8 state, and a 4x4 state,
eight rows of four, a ragged row, an empty file and trace 2, each exit 2
with nothing printed), ``rates``
and both ``spectrum`` modes on g1-3 at weights 1e308 that overflow, the
same three and ``simulate`` on g1-3 at a negative, a nan and a missing
weight (exit 2, nothing printed), and ``optimize`` (both objectives,
seed 0) on g1-4 and g2-3 at budgets 0.5 and 2 and on a five-generator
set on four sites, whose uniform start has no feasible first move.
Rates read irrep blocks, so ring+swap N = 7 at d = 3 (a 5040-vertex
orbit graph) is in the list too.  ``rates`` and ``spectrum --partition
2,1`` run on g1-3 with the weight labels ``weight1`` and ``heavyweight``,
and ``spectrum --all`` and ``spectrum --partition 2,1,1,1,1,1,1`` on
ring+swap N = 8 at d = 3: ``--all`` lists the whole tabloid sets, and the
20160-vertex graph passes the orbit cap (exit 4, nothing printed);
``spectrum --all`` also runs on ring+swap N = 9 at d = 3 and N = 10 at
d = 2 and 3 (the whole sets nearest ``TABLOID_SET_CAP``, about 6 s), and
``rates`` on N = 10 at d = 2 and 3, whose blocks of up to 768
rows hold the most Young letters a shape of the list reaches; at d = 3
they are the largest block set of the list, so the stacks built and
turned into I - rho in place are checked at size (about 2 s each).  Three sets short of S_N, (1 2),(3 4) and the lone 5-cycle on
five sites and the lone 3-cycle, run ``rates``, ``spectrum --all`` and
``spectrum --partition`` at d = 2 and 3 (the dense intertwining path and
the irrep blocks' fixed vectors), and g1-4 at the zero weight
``0.2,0,0.15`` runs ``rates``, ``spectrum --all`` and ``simulate`` to t = 2.
The two swaps on five sites and (1 3)(2 4) on four, whose (2,2) and
(1,1,1,1) blocks have no rows, run ``optimize`` (both objectives, seed 0)
and ``pareto --resolution 20`` at d = 2 and 3, so the batched rate path
sees blocks with fixed vectors and empty ones; ``pareto`` also runs on
g1-4 at budget 1e307, where the budget times a grid count would
overflow.  ``simulate`` on g1-3 at ``--store-every 1000000`` runs at
each side of the step cap: ``--t 10000`` takes its 10^7 steps, and
``--t 10000.002`` is refused (exit 4, nothing printed).  ``simulate``
also runs on ring+swap N = 5 at d = 2 to t = 0.5 (the sparse stepping
path), once without H0 and once with ``--h0 zsum`` (a complex sparse
step), and on g1-3 and g3-3 at d = 3 with ``--h0 zsum`` (complex orbit
blocks).  ``rates`` runs on ring+swap N = 8 and 9 at d = 2 and 3, whose
transposition proves the group S_N so no block takes the fixed-space
decomposition, and on (1 2 3),(1 2 3 4) and (1 2 3 4 5 6 7),(1 2 3),
which generate S_4 and A_7 without a transposition, so every block takes
it.  ``spectrum --all`` runs on both at d = 2 and 3: each orbit is
searched one shape at a time, comes out whole and has each cover proved
by its ``cover_map``, except A_7's (1^7) orbit at d = 3, half its
tabloids, where every pair reads dense spectra.  ``rates`` runs at the zero rule's edges at
d = 2 and 3: g1-4 at ``0,0,0`` and at ``1e300,2e300,1.5e300``, and g1-3
at ``1e300,0``, where the even 3-cycle leaves a second zero in the sign
block.  ``optimize`` (consensus) runs at d = 3
on g1-4 at seeds 0 and 1 and on ring+swap N = 5, whose six blocks of 1
to 6 rows, two pairs of one size, are solved smallest first with rows
pruned between them.  Inputs far past a cap are left out, as a dump of code without
that cap would try to allocate them.

    python tools/same_numbers.py dump /path/to/old/src old.json
    python tools/same_numbers.py dump src new.json
    python tools/same_numbers.py compare old.json new.json
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile

PRESETS = {
    "g1-3": (3, [(0.3, 0.1), (0.2, 0.2), (0.05, 0.41)]),
    "g2-3": (3, [(0.2, 0.2, 0.2), (0.3, 0.1, 0.25), (0.01, 0.7, 0.02)]),
    "g3-3": (3, [(0.3, 0.4), (0.25, 0.25), (0.9, 0.01)]),
    "g1-4": (4, [(0.1, 0.1, 0.1), (0.11, 0.13, 0.17), (0.46, 0.29, 0.29),
                 (0.1, 0.2, 0.15)]),
}


def commands(work):
    """The command list; its topology files are written to ``work``."""
    import numpy as np
    from qconsensus.cli import PRESETS as TOPOLOGIES
    from qconsensus.induced import enumerate_tabloids, partitions_of

    def wa(w):
        return ",".join(repr(float(x)) for x in w)

    def shapes(n, d):
        return [",".join(map(str, p)) for p in partitions_of(n, d * d)]

    cmds = []
    for name, (n, draws) in PRESETS.items():
        for w in draws:
            for d in (2, 3):
                base = (name, "--weights", wa(w), "--d", str(d))
                cmds.append(("rates",) + base)
                cmds.append(("spectrum",) + base + ("--all",))
                cmds += [("spectrum",) + base + ("--partition", p) for p in shapes(n, d)]
        seeds = ("0", "1", "2", "3") if name == "g1-4" else ("0", "1")
        for obj in ("consensus", "synchronization"):
            for seed in seeds:
                cmds.append(("optimize", name, "--objective", obj, "--seed", seed))
        cmds.append(("pareto", name, "--out", "@CSV"))
        cmds.append(("pareto", name, "--resolution", "25", "--out", "@CSV"))
        cmds.append(("pareto", name, "--d", "3", "--resolution", "12", "--out", "@CSV"))

    for name, d in (("g1-3", 2), ("g1-4", 2), ("g3-3", 2), ("g1-3", 3)):
        base = ("simulate", name, "--weights", wa(PRESETS[name][1][0]), "--d", str(d),
                "--t", "2", "--out", "@CSV")
        cmds += [base + ("--seed", seed) for seed in ("0", "3")]
    base = ("simulate", "g1-3", "--weights", wa(PRESETS["g1-3"][1][0]), "--t", "2",
            "--out", "@CSV")
    cmds.append(base + ("--h0", "zsum"))
    cmds.append(base + ("--store-every", "1"))
    # segments of 7 steps and a last one of 1: two step lengths, and groups
    # cut short of their placement index at chunk ends, real and complex
    base = ("simulate", "g1-3", "--weights", "0.2,0.2", "--t", "2.003", "--store-every", "7",
            "--out", "@CSV")
    cmds += [base, base + ("--d", "3", "--h0", "zsum")]

    # --rho0 files: one valid state, then files the state reader refuses
    a = np.random.default_rng(20261019).normal(size=(8, 8, 2)) @ [1.0, 1.0j]
    rho = a @ a.conj().T
    rho0s = {"valid": rho / np.trace(rho).real, "4x4": np.eye(4) / 4,
             "8-by-4": np.full((8, 4), 0.125), "ragged": np.eye(8) / 8,
             "empty": np.zeros((0, 0)), "trace-2": np.eye(8) / 4}
    for name, rho in rho0s.items():
        rows = [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in rho]
        if name == "ragged":
            rows[3] = rows[3].rpartition(" ")[0]
        path = os.path.join(work, f"rho0-{name}.txt")
        with open(path, "w") as fh:
            fh.write("".join(row + "\n" for row in rows))
        cmds.append(base + ("--rho0", path))

    # finite weights whose Laplacians overflow: exit 3 before any output
    base = ("g1-3", "--weights", "1e308,1e308")
    cmds += [("rates",) + base, ("spectrum",) + base + ("--all",),
             ("spectrum",) + base + ("--partition", "2,1")]

    # weights the one weight rule rejects: exit 2 before any output; an
    # argument that starts with "-" must be joined to its option
    for w in ("--weights=-0.5,0.2", "--weights=nan,0.2", "--weights=0.3"):
        cmds += [("rates", "g1-3", w), ("spectrum", "g1-3", w, "--all"),
                 ("spectrum", "g1-3", w, "--partition", "2,1"),
                 ("simulate", "g1-3", w, "--out", "@CSV")]

    for name in ("g1-4", "g2-3"):
        for budget in ("0.5", "2"):
            path = os.path.join(work, f"{name}-budget-{budget}.txt")
            with open(path, "w") as fh:
                fh.write(TOPOLOGIES[name] + f"budget: {budget}\n")
            for obj in ("consensus", "synchronization"):
                cmds.append(("optimize", path, "--objective", obj, "--seed", "0"))

    path = os.path.join(work, "five-4.txt")
    with open(path, "w") as fh:
        fh.write("name: five-4\nN: 4\ngenerator: (1 2 3 4) weight w1234\n"
                 "generator: (1 2) weight w12\ngenerator: (3 4) weight w34\n"
                 "generator: (1 3 2) weight w132\ngenerator: (2 4) weight w24\n")
    for obj in ("consensus", "synchronization"):
        cmds.append(("optimize", path, "--objective", obj, "--seed", "0"))

    # weight labels that contain the word "weight"
    path = os.path.join(work, "g1-3-labels.txt")
    with open(path, "w") as fh:
        fh.write("name: g1-3-labels\nN: 3\ngenerator: (1 2 3) weight weight1\n"
                 "generator: (1 2) weight heavyweight\n")
    base = (path, "--weights", wa(PRESETS["g1-3"][1][0]))
    cmds += [("rates",) + base, ("spectrum",) + base + ("--partition", "2,1")]

    # 8-site ring+swap at d = 3: --all lists the whole tabloid sets, the
    # (1^8) one of 40320 tabloids among them; the (2,1,1,1,1,1,1) graph of
    # 20160 vertices is past the orbit cap of --partition (exit 4, nothing
    # printed)
    draws = 1.0 - np.random.default_rng(20261018).random((3, 2))
    path = os.path.join(work, "ring-swap-8.txt")
    with open(path, "w") as fh:
        fh.write("name: ring-swap-8\nN: 8\ngenerator: (1 2 3 4 5 6 7 8) weight wring\n"
                 "generator: (1 2) weight wswap\n")
    base = ("spectrum", path, "--weights", "0.3,0.7", "--d", "3")
    cmds += [base + ("--all",), base + ("--partition", "2,1,1,1,1,1,1")]
    cmds += [("spectrum", path, "--weights", wa(w), "--d", "2", "--all") for w in draws]

    for n in range(3, 8):
        path = os.path.join(work, f"ring-swap-{n}.txt")
        with open(path, "w") as fh:
            ring = " ".join(map(str, range(1, n + 1)))
            fh.write(f"name: ring-swap-{n}\nN: {n}\n"
                     f"generator: ({ring}) weight wring\ngenerator: (1 2) weight wswap\n")
        for w in draws:
            for d in (2, 3):
                base = (path, "--weights", wa(w), "--d", str(d))
                cmds.append(("rates",) + base)
                cmds.append(("spectrum",) + base + ("--all",))
                for p in partitions_of(n, d * d):
                    if len(enumerate_tabloids(p)) <= 120:
                        part = ",".join(map(str, p))
                        cmds.append(("spectrum",) + base + ("--partition", part))
        if n <= 5:
            cmds.append(("optimize", path, "--objective", "consensus"))
            cmds.append(("optimize", path, "--objective", "synchronization"))
            cmds.append(("pareto", path, "--resolution", "30", "--out", "@CSV"))
        if n == 6:
            cmds.append(("optimize", path))
            cmds.append(("pareto", path, "--resolution", "10", "--out", "@CSV"))

    # groups short of S_N: orbits short of their tabloid sets take the
    # dense intertwining path, and irrep blocks drop fixed vectors
    for name, n, gens, w in (("swaps-5", 5, ("(1 2)", "(3 4)"), "0.3,0.7"),
                             ("cycle-5", 5, ("(1 2 3 4 5)",), "0.3"),
                             ("cycle-3", 3, ("(1 2 3)",), "0.3")):
        path = os.path.join(work, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(f"name: {name}\nN: {n}\n")
            fh.write("".join(f"generator: {g} weight w{i + 1}\n" for i, g in enumerate(gens)))
        for d in (2, 3):
            base = (path, "--weights", w, "--d", str(d))
            cmds += [("rates",) + base, ("spectrum",) + base + ("--all",)]
            cmds += [("spectrum",) + base + ("--partition", p) for p in shapes(n, d)]

    # a zero weight: a generator that adds no entry to any Laplacian
    base = ("g1-4", "--weights", "0.2,0,0.15")
    cmds += [("rates",) + base, ("spectrum",) + base + ("--all",),
             ("simulate",) + base + ("--t", "2", "--out", "@CSV")]

    # the batched rate path on groups short of S_N: blocks with fixed
    # vectors, and (1 3)(2 4)'s blocks with no rows
    double = os.path.join(work, "double-swap-4.txt")
    with open(double, "w") as fh:
        fh.write("name: double-swap-4\nN: 4\ngenerator: (1 3)(2 4) weight w1324\n")
    for path in (os.path.join(work, "swaps-5.txt"), double):
        for d in ("2", "3"):
            cmds += [("optimize", path, "--objective", obj, "--seed", "0", "--d", d)
                     for obj in ("consensus", "synchronization")]
            cmds.append(("pareto", path, "--resolution", "20", "--d", d, "--out", "@CSV"))

    # a budget whose grid products budget * i would overflow
    path = os.path.join(work, "g1-4-budget-1e307.txt")
    with open(path, "w") as fh:
        fh.write(TOPOLOGIES["g1-4"] + "budget: 1e307\n")
    cmds.append(("pareto", path, "--out", "@CSV"))

    # the step cap of 10^7: --t 10000 takes exactly 10^7 steps (exit 0),
    # --t 10000.002 two more (exit 4, nothing printed)
    base = ("simulate", "g1-3", "--weights", "0.2,0.2", "--store-every", "1000000")
    cmds += [base + ("--t", t, "--out", "@CSV") for t in ("10000", "10000.002")]

    # both integrator paths: ring+swap on five sites steps the sparse T1
    # (its powers would fill), real and with zsum complex, and zsum puts
    # complex orbit blocks on g1-3 and g3-3 at d = 3
    base = ("simulate", os.path.join(work, "ring-swap-5.txt"), "--weights", wa(draws[0]),
            "--t", "0.5", "--out", "@CSV")
    cmds += [base, base + ("--h0", "zsum")]
    for name in ("g1-3", "g3-3"):
        cmds.append(("simulate", name, "--weights", wa(PRESETS[name][1][0]), "--d", "3",
                     "--h0", "zsum", "--t", "2", "--out", "@CSV"))

    # the consensus optimizer at d = 3, which solves its blocks smallest
    # first and prunes rows between them: g1-4 (blocks of 1, 2, 3 and 3
    # rows) at seeds 0 and 1, and ring+swap on five sites (1, 4, 4, 5, 5
    # and 6 rows)
    for topo in (("g1-4", "--seed", "0"), ("g1-4", "--seed", "1"),
                 (os.path.join(work, "ring-swap-5.txt"),)):
        cmds.append(("optimize",) + topo + ("--objective", "consensus", "--d", "3"))

    # both sides of the fixed-space test: ring+swap on eight and nine sites
    # holds a transposition that proves S_N, (1 2 3),(1 2 3 4) generates S_4
    # without one and takes the singular value decomposition
    path = os.path.join(work, "ring-swap-9.txt")
    with open(path, "w") as fh:
        fh.write("name: ring-swap-9\nN: 9\ngenerator: (1 2 3 4 5 6 7 8 9) weight wring\n"
                 "generator: (1 2) weight wswap\n")
    for path in (os.path.join(work, "ring-swap-8.txt"), path):
        cmds += [("rates", path, "--weights", wa(w), "--d", d) for w in draws for d in ("2", "3")]
    # spectrum --all on the ladder's largest whole sets: nine sites at d = 3
    # (871,029 tabloids) and ten at d = 2 (109,957) and 3 (5,250,757)
    cmds.append(("spectrum", path, "--weights", "0.3,0.7", "--d", "3", "--all"))
    path = os.path.join(work, "ring-swap-10.txt")
    with open(path, "w") as fh:
        fh.write("name: ring-swap-10\nN: 10\ngenerator: (1 2 3 4 5 6 7 8 9 10) weight wring\n"
                 "generator: (1 2) weight wswap\n")
    cmds += [("spectrum", path, "--weights", "0.3,0.7", "--d", d, "--all") for d in ("2", "3")]
    # rates on ten sites at d = 2 and 3: blocks of up to 768 rows, the most
    # Young letters a shape of this list has, and at d = 3 the largest
    # block set, each stack turned into I - rho in place
    cmds += [("rates", path, "--weights", "0.3,0.7", "--d", d) for d in ("2", "3")]
    path = os.path.join(work, "no-swap-4.txt")
    with open(path, "w") as fh:
        fh.write("name: no-swap-4\nN: 4\ngenerator: (1 2 3) weight w123\n"
                 "generator: (1 2 3 4) weight w1234\n")
    cmds += [("rates", path, "--weights", wa(w), "--d", d)
             for w in PRESETS["g3-3"][1] for d in ("2", "3")]
    # no transposition proves S_4, so spectrum --all searches each orbit,
    # finds it whole and proves each cover by its map
    cmds += [("spectrum", path, "--weights", wa(PRESETS["g3-3"][1][0]), "--d", d, "--all")
             for d in ("2", "3")]
    # A_7 (both generators are even) without a transposition: every block
    # of the one builder call takes the decomposition, and at d = 3 the
    # (1^7) orbit is half its tabloids, so spectrum --all reads dense spectra
    path = os.path.join(work, "no-swap-7.txt")
    with open(path, "w") as fh:
        fh.write("name: no-swap-7\nN: 7\ngenerator: (1 2 3 4 5 6 7) weight w1234567\n"
                 "generator: (1 2 3) weight w123\n")
    cmds += [("rates", path, "--weights", wa(draws[0]), "--d", d) for d in ("2", "3")]
    cmds += [("spectrum", path, "--weights", wa(draws[0]), "--d", d, "--all") for d in ("2", "3")]

    # the zero rule at its edges: all-zero weights, weights near the top
    # of the float range, and g1-3's even 3-cycle alone, which leaves a
    # second zero in the sign block so (1,1,1) prints 0
    for name, w in (("g1-4", "0,0,0"), ("g1-4", "1e300,2e300,1.5e300"), ("g1-3", "1e300,0")):
        cmds += [("rates", name, "--weights", w, "--d", d) for d in ("2", "3")]
    return cmds


def dump(src, out_json):
    sys.path.insert(0, os.path.abspath(src))
    from qconsensus.cli import main

    with tempfile.TemporaryDirectory() as work:
        results = {}
        for i, argv in enumerate(commands(work)):
            csv_path = os.path.join(work, f"c{i}.csv")
            argv = [csv_path if a == "@CSV" else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            rec = {"code": code, "out": out.getvalue().replace(work, "<work>"),
                   "err": err.getvalue().replace(work, "<work>")}
            if os.path.exists(csv_path):
                with open(csv_path) as fh:
                    rec["csv"] = fh.read()
            results[" ".join(argv).replace(work, "<work>")] = rec
    with open(out_json, "w") as fh:
        json.dump(results, fh, indent=0, sort_keys=True)
    print(f"{len(results)} commands written to {out_json}")


def _csv_gap(x, y):
    """', largest absolute difference <g>' for two CSVs of the same shape."""
    if x is None or y is None:
        return ""
    rows_x, rows_y = x.splitlines(), y.splitlines()
    if len(rows_x) != len(rows_y) or rows_x[:1] != rows_y[:1]:
        return " in shape"
    gap = 0.0
    for rx, ry in zip(rows_x[1:], rows_y[1:]):
        fx, fy = rx.split(","), ry.split(",")
        if len(fx) != len(fy):
            return " in shape"
        gap = max([gap] + [abs(float(u) - float(v)) for u, v in zip(fx, fy)])
    return f", largest absolute difference {gap:.3g}"


def compare(a_json, b_json):
    with open(a_json) as fh:
        a = json.load(fh)
    with open(b_json) as fh:
        b = json.load(fh)
    if a.keys() != b.keys():
        print("the two dumps ran different command lists")
        return 1
    bad = [k for k in a if a[k] != b[k]]
    for k in bad:
        print("DIFF:", k)
        for stream, mark in (("out", ""), ("err", "stderr ")):
            for x, y in itertools.zip_longest(a[k][stream].splitlines(),
                                              b[k][stream].splitlines()):
                if x != y:
                    if x is not None:
                        print(f"   {mark}-", x)
                    if y is not None:
                        print(f"   {mark}+", y)
        if a[k].get("csv") != b[k].get("csv"):
            print("   csv differs" + _csv_gap(a[k].get("csv"), b[k].get("csv")))
        if a[k]["code"] != b[k]["code"]:
            print("   exit code", a[k]["code"], "->", b[k]["code"])
    print(f"{len(a) - len(bad)} of {len(a)} identical")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
