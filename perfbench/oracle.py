"""Output checks for every benchmark command.

References are computed here from first principles in numpy (site
Laplacians, the coefficient-space generator, closed forms and published
optima), never through ``qconsensus``, so a wrong answer from the package
cannot vouch for itself.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

from workloads import FRONT_POINTS, FRONT_TOL, OPTIMA

SPECTRAL_TOL = 1e-9      # printed rate vs the benchmark's own eigensolve
SAME_RATE_TOL = 1e-12    # d=3 vs d=2 rates for N <= 4 (identical shapes)
FIT_TOL = 0.05           # fitted decay vs spectral rate (criterion 8)
ZERO_TOL = 1e-9

_FIT_RE = re.compile(
    r"fitted (sync|consensus) decay: (\S+)\s+\(spectral (\S+), rel dev (\S+)\)"
)


def _perm(n, cycles):
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b - 1
    return img


def _lambda2_re(vals):
    """Smallest real part once the one eigenvalue nearest zero is dropped."""
    rest = np.delete(vals, int(np.abs(vals).argmin()))
    if np.any(np.abs(rest) < ZERO_TOL):
        return 0.0
    return float(rest.real.min())


def site_rate(n, gens, w):
    """lambda_2(Re) of the n x n site Laplacian sum_p w_p (I - P_p)."""
    lap = np.zeros((n, n))
    for (cycles, _), wp in zip(gens, w):
        for i, j in enumerate(_perm(n, cycles)):
            if i != j:
                lap[i, i] += wp
                lap[i, j] -= wp
    return _lambda2_re(np.linalg.eigvals(lap))


def coefficient_rate(n, d, gens, w):
    """Slowest nonzero decay of the coefficient dynamics on (d*d)^n indices."""
    q = d * d
    dim = q**n
    digits = np.array(np.unravel_index(np.arange(dim), (q,) * n)).T
    lap = np.zeros((dim, dim))
    rows = np.arange(dim)
    for (cycles, _), wp in zip(gens, w):
        target = np.ravel_multi_index(digits[:, _perm(n, cycles)].T, (q,) * n)
        moved = target != rows
        lap[rows[moved], rows[moved]] += wp
        lap[rows[moved], target[moved]] -= wp
    vals = np.linalg.eigvals(lap)
    return float(vals[np.abs(vals) > ZERO_TOL].real.min())


def closed_form_n3(a, b):
    """(lambda_cons, lambda_synch) of ring (1 2 3) at a plus swap (1 2) at b."""
    lo = 1.5 * a + b - np.sqrt(complex(4.0 * b * b - 3.0 * a * a)) / 2.0
    return min(2.0 * b, lo.real), lo.real


def _value(stdout, key):
    m = re.search(rf"^{re.escape(key)}: (\S+)", stdout, re.M)
    if m is None:
        raise ValueError(f"no '{key}:' line")
    return float(m.group(1))


class Checker:
    """Checks command outputs; memoizes references across passes."""

    def __init__(self):
        self._refs: dict = {}
        self.fit_rel_devs: list[float] = []

    def _ref(self, fn, *args):
        key = (fn.__name__, repr(args))
        if key not in self._refs:
            self._refs[key] = fn(*args)
        return self._refs[key]

    def check_pass(self, commands, results) -> list[list[str]]:
        """Problems per command of one pass; ``results`` is (rc, stdout, csv) each."""
        problems = []
        rates_seen = {}
        for i, (cmd, (rc, stdout, csv_text)) in enumerate(zip(commands, results)):
            if rc != 0:
                problems.append([f"exit code {rc}"])
                continue
            try:
                problems.append(getattr(self, "_" + cmd.expect["kind"])(
                    cmd.expect, stdout, csv_text
                ))
            except (ValueError, KeyError, IndexError, AttributeError) as exc:
                problems.append([f"unparseable output ({exc!r})"])
                continue
            e = cmd.expect
            if e["kind"] == "rates":
                rates_seen[(e["n"], e["d"], e["weights"])] = (i, (
                    _value(stdout, "lambda_cons"), _value(stdout, "lambda_synch")
                ))
        for (n, d, w), (i, pair) in rates_seen.items():
            other = rates_seen.get((n, 2, w))
            if d == 3 and n <= 4 and other is not None:
                if max(abs(x - y) for x, y in zip(pair, other[1])) > SAME_RATE_TOL:
                    problems[i].append(f"d=3 rates {pair} differ from d=2 {other[1]}")
        return [[f"{' '.join(c.argv[:2])}: {p}" for p in ps]
                for c, ps in zip(commands, problems)]

    def _rates(self, e, stdout, _csv):
        out = []
        parts = [float(v) for v in re.findall(r"^  \([\d,]+\): (\S+)$", stdout, re.M)]
        cons = _value(stdout, "lambda_cons")
        synch = _value(stdout, "lambda_synch")
        if not parts or cons != min(parts):
            out.append(f"lambda_cons {cons} is not the minimum of {parts}")
        if cons > synch:
            out.append(f"lambda_cons {cons} > lambda_synch {synch}")
        ref = self._ref(site_rate, e["n"], e["gens"], e["weights"])
        if abs(synch - ref) > SPECTRAL_TOL:
            out.append(f"lambda_synch {synch} vs site Laplacian {ref}")
        if e["n"] == 3:
            c_ref, s_ref = closed_form_n3(*e["weights"])
            if abs(cons - c_ref) > SPECTRAL_TOL or abs(synch - s_ref) > SPECTRAL_TOL:
                out.append(f"N=3 rates ({cons}, {synch}) vs closed form ({c_ref}, {s_ref})")
        return out

    def _spectrum(self, _e, stdout, _csv):
        if "verdict: all inclusions hold" not in stdout:
            return ["intertwining verdict is not 'all inclusions hold'"]
        return []

    def _optimize(self, e, stdout, _csv):
        out = []
        d_budget = e["budget"]
        opt, tol = OPTIMA[(e["preset"], e["objective"])]
        best = _value(stdout, "best value")
        if abs(best - d_budget * opt) >= tol * d_budget:
            out.append(f"best value {best} vs {d_budget * opt} (tol {tol * d_budget})")
        used = float(re.search(r"^budget used: (\S+) of", stdout, re.M).group(1))
        if used > d_budget * (1 + 1e-9):
            out.append(f"budget used {used} exceeds {d_budget}")
        return out

    def _pareto(self, e, stdout, csv_text):
        out = []
        d_budget = e["budget"]
        rows = list(csv.reader(io.StringIO(csv_text)))[1:]
        expected = math.comb(e["resolution"] + len(e["costs"]) - 1, len(e["costs"]) - 1)
        if len(rows) != expected:
            out.append(f"{len(rows)} CSV rows, expected {expected}")
        m = len(e["costs"])
        pts = np.array([[float(x) for x in r[: m + 2]] for r in rows])
        w = pts[:, :m]
        cost = w @ np.asarray(e["costs"], dtype=float)
        if np.any(w < 0) or np.any(cost > d_budget * (1 + 1e-9)):
            out.append("CSV holds infeasible weights")
        for cons, synch in FRONT_POINTS:
            dev = np.maximum(abs(pts[:, m] - d_budget * cons),
                             abs(pts[:, m + 1] - d_budget * synch))
            if not np.any(dev < FRONT_TOL * d_budget):
                out.append(f"front point ({cons}, {synch}) x D missing")
        if f"points: {expected}" not in stdout:
            out.append("stdout point count differs from the grid size")
        return out

    def _simulate(self, e, stdout, csv_text):
        out = []
        rows = list(csv.reader(io.StringIO(csv_text)))[1:]
        vals = np.array([[float(x) for x in r] for r in rows])
        if len(rows) != e["rows"] or not np.all(np.isfinite(vals)):
            out.append(f"trajectory CSV has {len(rows)} rows or non-finite values")
        refs = {
            "sync": self._ref(site_rate, e["n"], e["gens"], e["weights"]),
            "consensus": self._ref(
                coefficient_rate, e["n"], e["d"], e["gens"], e["weights"]
            ),
        }
        fits = {m.group(1): m for m in _FIT_RE.finditer(stdout)}
        devs = {}
        for label, ref in refs.items():
            if label in fits:
                fitted, spectral = (float(fits[label].group(k)) for k in (2, 3))
                if abs(spectral - ref) > SPECTRAL_TOL:
                    out.append(f"spectral {label} rate {spectral} vs own {ref}")
                devs[label] = abs(fitted - ref) / ref
        self.fit_rel_devs.extend(devs.values())
        # One fit of a run may stray when its window is not single-mode (see
        # README.md); an integrator error moves both.
        if e["gate_fits"] and (not devs or min(devs.values()) >= FIT_TOL):
            out.append(f"no decay fit within {FIT_TOL:.0%} of its spectral rate: {devs}")
        return out
