"""qcl: consensus-rate toolkit over permutation-driven qudit networks.

Subcommands: rates, pareto, optimize, simulate, spectrum.  Topologies
come from a small text format (described at the end of this help) or
from one of the built-in presets g1-3, g2-3, g3-3, g1-4.  Only optimize
(its starts) and simulate (its initial state) draw random numbers, and
only they take --seed (default 0).  All numeric output uses 12
significant digits, so identical invocations print identical bytes.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 cap
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .induced import induced_laplacian, rate_shapes
from .optimize import TIE_TOL, BudgetConstraint, maximize_rate, pareto_scan
from .permgroup import (
    CapExceededError,
    GeneratorSet,
    check_cap,
    check_weights,
    from_cycles,
    to_cycles,
)
from .quantum import (
    EVOLVE_DIM_CAP,
    InsufficientDecayError,
    StepSizeError,
    check_density,
    check_state,
    evolve_chunks,
    fit_decay_rate,
    frobenius_distances,
    generic_state,
    symmetric_state,
    sync_distance,
    uniform_site_hamiltonian,
)
from .spectra import (
    NumericalFailureError,
    convergence_rates,
    eigenvalues,
    intertwining_check,
    rates_coincide,
)

TOPOLOGY_GRAMMAR = """\
Topology file format (one key per line, '#' starts a comment line):

    name: my-network
    N: 3                      # number of sites
    d: 2                      # site dimension (optional, default 2)
    budget: 1.0               # weight budget D (optional, default 1.0)
    generator: (1 2 3) weight w123
    generator: (1 2) weight w12
    generator: (1 3) weight 0.05   # fixed numeric weight

Cycles use 1-based labels; a generator may be a product of disjoint
cycles, e.g. (1 2)(3 4).  Symbolic weights are supplied in file order
through --weights; fixed weights are taken from the file.
"""

PRESETS: dict[str, str] = {
    "g1-3": (
        "name: g1-3\nN: 3\n"
        "generator: (1 2 3) weight w123\n"
        "generator: (1 2) weight w12\n"
    ),
    "g2-3": (
        "name: g2-3\nN: 3\n"
        "generator: (1 2 3) weight w123\n"
        "generator: (3 2 1) weight w321\n"
        "generator: (1 2) weight w12\n"
    ),
    "g3-3": (
        "name: g3-3\nN: 3\n"
        "generator: (1 2) weight w12\n"
        "generator: (2 3) weight w23\n"
    ),
    "g1-4": (
        "name: g1-4\nN: 4\n"
        "generator: (1 2 3 4) weight w1234\n"
        "generator: (1 2) weight w12\n"
        "generator: (3 4) weight w34\n"
    ),
}


class TopologyError(ValueError):
    """Malformed topology file; message carries the line number."""


@dataclass(frozen=True)
class TopologySpec:
    name: str
    n: int
    d: int
    budget: float
    gens: GeneratorSet
    fixed: dict[str, float]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_topology(text: str, source: str = "<topology>") -> TopologySpec:
    name = None
    n = None
    d = 2
    budget = 1.0
    raw_gens: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise TopologyError(f"{source}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.split("#", 1)[0].strip()
        try:
            if key == "name":
                name = value
            elif key == "n":
                n = int(value)
            elif key == "d":
                d = int(value)
            elif key == "budget":
                budget = float(value)
            elif key == "generator":
                if "weight" not in value:
                    raise ValueError("missing 'weight <label-or-number>'")
                cyc_part, _, w_part = value.partition("weight")
                raw_gens.append((lineno, cyc_part.strip(), w_part.strip()))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise TopologyError(f"{source}:{lineno}: {exc}") from exc
    if n is None:
        raise TopologyError(f"{source}: missing required key 'N'")
    if not raw_gens:
        raise TopologyError(f"{source}: at least one generator required")
    if d < 2:
        raise TopologyError(f"{source}: d must be >= 2")
    if not 0 < budget < np.inf:
        raise TopologyError(f"{source}: budget must be positive and finite")

    perms = []
    labels = []
    fixed: dict[str, float] = {}
    written = {w_text for _, _, w_text in raw_gens}
    for lineno, cyc_text, w_text in raw_gens:
        groups = _CYCLE_RE.findall(cyc_text)
        leftover = _CYCLE_RE.sub("", cyc_text).strip()
        if not groups or leftover:
            raise TopologyError(
                f"{source}:{lineno}: generator must be cycles like (1 2 3)(4 5)"
            )
        try:
            cycles = [[int(tok) for tok in g.split()] for g in groups]
            perms.append(from_cycles(n, cycles))
        except ValueError as exc:
            raise TopologyError(f"{source}:{lineno}: {exc}") from exc
        if not w_text:
            raise TopologyError(f"{source}:{lineno}: empty weight")
        try:
            fixed_val = float(w_text)
        except ValueError:
            labels.append(w_text)
        else:
            # invent a positional label; skip any name taken or in the file
            k = len(labels) + 1
            while f"w{k}" in labels or f"w{k}" in written:
                k += 1
            label = f"w{k}"
            labels.append(label)
            fixed[label] = fixed_val
    try:
        gens = GeneratorSet(n=n, perms=tuple(perms), labels=tuple(labels))
    except ValueError as exc:
        raise TopologyError(f"{source}: {exc}") from exc
    return TopologySpec(
        name=name or "unnamed", n=n, d=d, budget=budget, gens=gens, fixed=fixed
    )


def load_topology(ref: str) -> TopologySpec:
    if ref in PRESETS:
        return parse_topology(PRESETS[ref], source=f"<preset {ref}>")
    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            return parse_topology(fh.read(), source=ref)
    raise TopologyError(
        f"{ref!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file"
    )


def resolve_weights(spec: TopologySpec, weights_arg: str | None) -> np.ndarray:
    """Weight vector in generator order from --weights plus fixed entries."""
    needed = [lb for lb in spec.gens.labels if lb not in spec.fixed]
    given: list[float] = []
    if weights_arg:
        try:
            given = [float(tok) for tok in weights_arg.split(",") if tok.strip()]
        except ValueError as exc:
            raise TopologyError(f"--weights: {exc}") from exc
    if len(given) != len(needed):
        raise TopologyError(
            f"--weights supplies {len(given)} values but the topology has "
            f"{len(needed)} symbolic weights ({', '.join(needed) or 'none'})"
        )
    it = iter(given)
    out = []
    for lb in spec.gens.labels:
        out.append(spec.fixed[lb] if lb in spec.fixed else next(it))
    try:
        return check_weights([out], len(spec.gens))[0]
    except ValueError as exc:
        raise TopologyError(str(exc)) from exc


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def fmt_c(z: complex, scale: float) -> str:
    """z to 12 digits; an imaginary part within 1e-15 * scale prints as real."""
    re_part = fmt(z.real)
    if abs(z.imag) <= 1e-15 * scale:
        return re_part
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_part}{sign}{fmt(abs(z.imag))}i"


def cycles_str(p) -> str:
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in to_cycles(p))


def _topology_lines(spec: TopologySpec, d: int) -> str:
    """The 'topology:' and 'generators:' lines that head a run's echo."""
    gens = spec.gens
    return (f"topology: {spec.name}  N={spec.n}  d={d}  budget={fmt(spec.budget)}\n"
            "generators: "
            + "  ".join(f"{cycles_str(p)}[{lb}]" for p, lb in zip(gens.perms, gens.labels)))


def _echo_config(spec: TopologySpec, w: np.ndarray, head: str) -> None:
    """Print head, the weights and the budget they use; a budget cost that
    overflows is an input error, raised before the first line."""
    gens = spec.gens
    with np.errstate(over="ignore"):
        cost = float(np.dot(gens.cycle_costs(), w))
    if not np.isfinite(cost):
        raise TopologyError("--weights: the budget cost sum(cycle length * weight) overflows")
    print(head)
    print("weights: " + " ".join(f"{lb}={fmt(v)}" for lb, v in zip(gens.labels, w)))
    print(f"budget used: {fmt(cost)} of {fmt(spec.budget)}")


def cmd_rates(args, spec: TopologySpec, d: int) -> int:
    w = resolve_weights(spec, args.weights)
    rates = convergence_rates(spec.gens, w, d=d)
    _echo_config(spec, w, _topology_lines(spec, d))
    print("per-partition lambda2(Re):")
    for parts, rate in rates.per_partition.items():
        print(f"  ({','.join(map(str, parts))}): {fmt(rate)}")
    print(f"lambda_cons: {fmt(rates.lambda_cons)}")
    print(f"lambda_synch: {fmt(rates.lambda_synch)}")
    aldous = rates_coincide(rates.per_partition.values())
    print(f"aldous: {'true' if aldous else 'false'}")
    return 0


def _symbolic_only(spec: TopologySpec) -> None:
    """Reject fixed weights for the commands that choose every weight."""
    if spec.fixed:
        fixed = ", ".join(f"{lb}={fmt(v)}" for lb, v in spec.fixed.items())
        raise TopologyError(f"fixed weights ({fixed}); the search needs symbolic ones")


def cmd_pareto(args, spec: TopologySpec, d: int) -> int:
    _symbolic_only(spec)
    constraint = BudgetConstraint.for_generators(spec.gens, spec.budget)
    weights, cons, synch, on_front = pareto_scan(
        spec.gens, constraint, resolution=args.resolution, d=d
    )
    out = args.out or f"{spec.name}-pareto.csv"
    labels = spec.gens.labels
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + ",lambda_cons,lambda_synch,on_front\n")
        for row, flag in zip(np.column_stack([weights, cons, synch]).tolist(), on_front):
            fh.write(",".join(map(repr, row)) + (",1\n" if flag else ",0\n"))
    print(f"topology: {spec.name}  points: {len(cons)}  front: {int(on_front.sum())}")
    for title, arr in (("lambda_cons", cons), ("lambda_synch", synch)):
        # the first grid point tied with the maximum, as the front ties them
        i = int(np.flatnonzero(arr >= arr.max() - TIE_TOL * spec.budget)[0])
        at = " ".join(f"{lb}={fmt(v)}" for lb, v in zip(labels, weights[i]))
        print(f"max {title}: {fmt(arr[i])} at {at}")
    print(f"wrote: {out}")
    return 0


def cmd_optimize(args, spec: TopologySpec, d: int) -> int:
    _symbolic_only(spec)
    constraint = BudgetConstraint.for_generators(spec.gens, spec.budget)
    weights, value = maximize_rate(
        spec.gens, constraint, objective=args.objective, d=d, seed=args.seed
    )
    _echo_config(spec, weights, f"topology: {spec.name}  objective: {args.objective}  d={d}\n"
                                f"best value: {fmt(value)}")
    return 0


def _load_rho0(path: str, d: int, n: int) -> np.ndarray:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    toks = [tok.partition(",") for tok in line.split()]
                    rows.append([complex(float(a), float(b or 0)) for a, _, b in toks])
                    if len(rows[-1]) != len(rows[0]):
                        raise ValueError(f"{len(rows[-1])} entries where the first row "
                                         f"has {len(rows[0])}")
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
        rho = np.array(rows, dtype=complex)
        check_state(rho, n, d)
        check_density(rho, d)
    except ValueError as exc:
        raise TopologyError(f"{path}: bad initial state: {exc}") from exc
    return rho


def cmd_simulate(args, spec: TopologySpec, d: int) -> int:
    w = resolve_weights(spec, args.weights)
    check_cap("state dimension", d**spec.n, EVOLVE_DIM_CAP)
    if args.rho0 == "generic":
        rho0 = generic_state(d, spec.n, seed=args.seed)
    else:
        rho0 = _load_rho0(args.rho0, d, spec.n)
    h0 = None
    if args.h0 == "zsum":
        h0 = uniform_site_hamiltonian(d, spec.n)
    target = symmetric_state(rho0, spec.gens.perms, d=d)
    # a chunk of states at a time: only the two distances are kept
    times, sync, dist = [], [], []
    for t, states in evolve_chunks(rho0, h0, spec.gens, w, t_final=args.t,
                                   dt=args.dt, d=d, store_every=args.store_every):
        times.append(t)
        sync.append(sync_distance(states, d))
        dist.append(frobenius_distances(states, target))
    times, sync, dist = map(np.concatenate, (times, sync, dist))
    out = args.out or f"{spec.name}-trajectory.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("t,sync_distance,distance_to_consensus\n")
        for t, s, c in zip(times, sync, dist):
            fh.write(f"{repr(float(t))},{repr(float(s))},{repr(float(c))}\n")
    _echo_config(spec, w, _topology_lines(spec, d))
    rates = convergence_rates(spec.gens, w, d=d)
    for label, series, ref in (
        ("sync", sync, rates.lambda_synch),
        ("consensus", dist, rates.lambda_cons),
    ):
        try:
            fitted = fit_decay_rate(times, series)
        except InsufficientDecayError as exc:
            print(f"fitted {label} decay: unavailable ({exc})")
        else:
            rel = abs(fitted - ref) / ref if ref > 0 else float("inf")
            print(
                f"fitted {label} decay: {fmt(fitted)}  "
                f"(spectral {fmt(ref)}, rel dev {fmt(rel)})"
            )
    print(f"wrote: {out}")
    return 0


def cmd_spectrum(args, spec: TopologySpec, d: int) -> int:
    w = resolve_weights(spec, args.weights)
    if args.all:
        report = intertwining_check(spec.gens, w, d=d)
        _echo_config(spec, w, _topology_lines(spec, d))
        print("intertwining:")
        for pc in report.pairs:
            inner = ",".join(map(str, pc.inner))
            outer = ",".join(map(str, pc.outer))
            verdict = "ok"
            if not pc.included:
                # a pair checked by the cover maps has no eigenvalue to name
                verdict = "VIOLATED"
                if pc.witness is not None:
                    verdict += f" at {fmt_c(pc.witness, abs(pc.witness))}"
            print(
                f"  ({inner}) into ({outer}) [{pc.kind}]: {verdict} "
                f"(max defect {pc.max_defect:.3e})"
            )
        print(f"verdict: {'all inclusions hold' if report.ok else 'violations found'}")
        return 0
    if not args.partition:
        raise TopologyError("pass --partition like '2,1' or use --all")
    try:
        parts = tuple(int(tok) for tok in args.partition.split(","))
    except ValueError as exc:
        raise TopologyError(f"--partition: {exc}") from exc
    if parts not in rate_shapes(spec.n, d):
        raise TopologyError(
            f"--partition must be a non-increasing partition of {spec.n} into 2 to "
            f"d*d = {d * d} parts: the one-part partition is excluded (its graph is "
            "a single vertex carrying the conserved trace coefficient), and no rate "
            f"at d={d} reads a shape with more than d*d = {d * d}"
        )
    ig = induced_laplacian(parts, spec.gens, w)
    vals = eigenvalues(ig.laplacian)
    _echo_config(spec, w, _topology_lines(spec, d))
    print(f"partition: ({','.join(map(str, parts))})  vertices: {len(ig.vertices)}")
    print("laplacian:")
    for row in ig.laplacian:
        print("  " + " ".join(fmt(v) for v in row))
    print("spectrum:")
    scale = float(np.abs(vals).max())
    for z in vals:
        print("  " + fmt_c(z, scale))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=TOPOLOGY_GRAMMAR,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, weights: bool = True) -> None:
        p.add_argument("topology", help="preset name or topology file path")
        p.add_argument("--d", type=int, default=None, help="override site dimension")
        if weights:
            p.add_argument(
                "--weights", default=None,
                help="comma-separated values for the symbolic weights, file order",
            )

    p = sub.add_parser("rates", help="convergence rates at one weight vector")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("pareto", help="scan the budget face, write the cloud CSV")
    common(p, weights=False)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path (default <name>-pareto.csv)")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("optimize", help="maximize one rate on the budget face")
    common(p, weights=False)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--objective", choices=("consensus", "synchronization"), default="consensus"
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="integrate the master equation, fit rates")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--rho0", default="generic", help="'generic' or matrix file path")
    p.add_argument("--t", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--h0", choices=("zero", "zsum"), default="zero")
    p.add_argument("--store-every", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="induced Laplacian and its spectrum")
    common(p)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--partition", default=None, help="e.g. '2,1'")
    which.add_argument("--all", action="store_true", help="print intertwining report")
    p.set_defaults(func=cmd_spectrum)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first :func:`main` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = load_topology(args.topology)
        d = spec.d if args.d is None else args.d
        if d < 2:
            raise TopologyError(f"--d must be >= 2, got {d}")
        return int(args.func(args, spec, d) or 0)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailureError, StepSizeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
