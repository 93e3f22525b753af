"""Spans around the public functions of every ``qconsensus`` module.

The package is measured as it is: nothing under ``src/`` knows about
tracing.  ``Tracer.install`` replaces each traced function by a wrapper
in every module that binds it (``from .x import y`` copies a binding, so
``qconsensus.cli.convergence_rates`` and ``qconsensus.spectra.
convergence_rates`` are patched separately), plus ``numpy.linalg.eigvals``
and ``numpy.linalg.eig`` at module attribute level.  A wrapper records
one span (name, start, end, parent span, command id), returns the
wrapped result and lets exceptions through unchanged.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _matrices(fn, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    count = int(np.prod(a.shape[:-2], dtype=np.int64))
    return {"matrices": count, "n3_sum": count * a.shape[-1] ** 3}


def _group_elements(fn, args, kwargs, result):
    return {"group_elements": len(result)}


def _vertices(fn, args, kwargs, result):
    return {"vertices": len(result.vertices), "max_vertices": len(result.vertices)}


def _evolve_steps(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"steps": int(round(bound.arguments["t_final"] / bound.arguments["dt"]))}


# (module, attribute, span name, count hook).  A hook returns counts to add
# to the layer's totals; keys starting with "max_" keep the maximum.
TRACED = (
    ("qconsensus.permgroup", "generate_group", "permgroup.generate_group", _group_elements),
    ("qconsensus.permgroup", "is_full_symmetric", "permgroup.is_full_symmetric", None),
    ("qconsensus.induced", "induced_laplacian", "induced.induced_laplacian", _vertices),
    ("qconsensus.spectra", "convergence_rates", "spectra.convergence_rates", None),
    ("qconsensus.spectra", "eigenvalues", "spectra.eigenvalues", None),
    ("qconsensus.spectra", "lambda2_re_batch", "spectra.lambda2_re_batch", None),
    ("qconsensus.spectra", "intertwining_check", "spectra.intertwining_check", None),
    ("qconsensus.spectra", "multiset_contained", "spectra.multiset_contained", None),
    ("qconsensus.optimize", "maximize_rate", "optimize.maximize_rate", None),
    ("qconsensus.optimize", "pareto_scan", "optimize.pareto_scan", None),
    ("qconsensus.quantum", "evolve", "quantum.evolve", _evolve_steps),
    ("qconsensus.quantum", "lindblad_rhs", "quantum.lindblad_rhs", None),
    ("qconsensus.quantum", "generic_state", "quantum.generic_state", None),
    ("qconsensus.quantum", "build_lq", "quantum.build_lq", None),
    ("qconsensus.quantum", "symmetric_state", "quantum.symmetric_state", None),
    ("qconsensus.quantum", "sync_distance", "quantum.sync_distance", None),
    ("qconsensus.quantum", "fit_decay_rate", "quantum.fit_decay_rate", None),
    ("numpy.linalg", "eigvals", "linalg.eigvals", _matrices),
    ("numpy.linalg", "eig", "linalg.eig", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, command id)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list[int] = []
        self._cmd = -1
        self._patched: list = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts, maxima = self.spans, self._stack, self.counts, self.maxima

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._cmd)
            if hook is not None:
                for key, val in hook(fn, args, kwargs, result).items():
                    if key.startswith("max_"):
                        maxima[f"{name}.{key}"] = max(maxima.get(f"{name}.{key}", 0), val)
                    else:
                        counts[f"{name}.{key}"] += val
            return result

        return traced

    def command(self, cmd_id: int, name: str, fn, *args):
        """Run one command as the root span ``name`` of command ``cmd_id``."""
        self._cmd = cmd_id
        return self.wrap(name, fn)(*args)

    def install(self):
        targets = {}
        for mod_name, attr, name, hook in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            targets[id(original)] = (original, self.wrap(name, original, hook))
        modules = [m for n, m in sys.modules.items() if n.startswith("qconsensus")]
        for mod in modules + [np.linalg]:
            for attr, val in list(vars(mod).items()):
                original, wrapper = targets.get(id(val), (None, None))
                if original is val:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, val))
        # weight vectors per optimizer evaluation: counted, not spanned, so
        # the evaluator's own work stays in the optimizer's self time
        from qconsensus.optimize import _RateEvaluator

        original_rates = _RateEvaluator.rates
        counts = self.counts

        @functools.wraps(original_rates)
        def rates(*args, **kwargs):
            counts["optimize.rate_evals"] += len(args[1])
            return original_rates(*args, **kwargs)

        _RateEvaluator.rates = rates
        self._patched.append((_RateEvaluator, "rates", original_rates))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def durations(self):
        """Per-span (duration, self time); self excludes child-span time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [
            (t1 - t0, t1 - t0 - child[i])
            for i, (_, t0, t1, _, _) in enumerate(self.spans)
        ]

    def write(self, path):
        """CSV of every span, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,command\n")
            for name, t0, t1, parent, cmd in self.spans:
                fh.write(f"{name},{t0 - origin:.9f},{t1 - origin:.9f},{parent},{cmd}\n")


def layer_metrics(tracer: Tracer, fit_rel_devs) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metrics."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for (name, *_), (dur, own) in zip(tracer.spans, tracer.durations()):
        calls[name] += 1
        total[name] += dur
        self_s[name] += own
    c = tracer.counts
    eig_calls = calls["linalg.eigvals"]
    out = {
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        **{f"cli.{sub}.s": total[f"cli.{sub}"]
           for sub in ("rates", "spectrum", "optimize", "pareto", "simulate")},
        "permgroup.generate_group.calls": calls["permgroup.generate_group"],
        "permgroup.generate_group.s": total["permgroup.generate_group"],
        "permgroup.group_elements": c["permgroup.generate_group.group_elements"],
        "permgroup.is_full_symmetric.calls": calls["permgroup.is_full_symmetric"],
        "induced.induced_laplacian.calls": calls["induced.induced_laplacian"],
        "induced.induced_laplacian.self_s": self_s["induced.induced_laplacian"],
        "induced.vertices": c["induced.induced_laplacian.vertices"],
        "induced.max_vertices": tracer.maxima.get("induced.induced_laplacian.max_vertices", 0),
        "spectra.convergence_rates.calls": calls["spectra.convergence_rates"],
        "spectra.convergence_rates.s": total["spectra.convergence_rates"],
        "spectra.eigenvalues.calls": calls["spectra.eigenvalues"],
        "spectra.eigenvalues.s": total["spectra.eigenvalues"],
        "spectra.lambda2_re_batch.calls": calls["spectra.lambda2_re_batch"],
        "spectra.lambda2_re_batch.self_s": self_s["spectra.lambda2_re_batch"],
        "spectra.intertwining_check.s": total["spectra.intertwining_check"],
        "spectra.multiset_contained.s": total["spectra.multiset_contained"],
        "linalg.eigvals.calls": eig_calls,
        "linalg.eigvals.matrices": c["linalg.eigvals.matrices"],
        "linalg.eigvals.n3_sum": c["linalg.eigvals.n3_sum"],
        "linalg.eigvals.s": total["linalg.eigvals"],
        "linalg.matrices_per_call": c["linalg.eigvals.matrices"] / eig_calls if eig_calls else 0.0,
        "linalg.eig.s": total["linalg.eig"],
        "optimize.maximize_rate.calls": calls["optimize.maximize_rate"],
        "optimize.maximize_rate.s": total["optimize.maximize_rate"],
        "optimize.maximize_rate.self_s": self_s["optimize.maximize_rate"],
        "optimize.pareto_scan.s": total["optimize.pareto_scan"],
        "optimize.rate_evals": c["optimize.rate_evals"],
        "quantum.evolve.s": total["quantum.evolve"],
        "quantum.evolve.self_s": self_s["quantum.evolve"],
        "quantum.evolve.steps": c["quantum.evolve.steps"],
        "quantum.lindblad_rhs.calls": calls["quantum.lindblad_rhs"],
        "quantum.generic_state.s": total["quantum.generic_state"],
        "quantum.build_lq.s": total["quantum.build_lq"],
        "quantum.symmetric_state.s": total["quantum.symmetric_state"],
        "quantum.sync_distance.s": total["quantum.sync_distance"],
        "quantum.fit_decay_rate.s": total["quantum.fit_decay_rate"],
        "quantum.fit_rel_dev.max": max(fit_rel_devs, default=0.0),
    }
    return out


# Counts that must repeat exactly for a fixed seed.
EXACT = (
    "permgroup.generate_group.calls", "permgroup.group_elements",
    "permgroup.is_full_symmetric.calls", "induced.induced_laplacian.calls",
    "induced.vertices", "induced.max_vertices", "spectra.convergence_rates.calls",
    "spectra.eigenvalues.calls", "spectra.lambda2_re_batch.calls",
    "linalg.eigvals.calls", "linalg.eigvals.matrices", "linalg.eigvals.n3_sum",
    "optimize.maximize_rate.calls", "optimize.rate_evals", "quantum.evolve.steps",
    "quantum.lindblad_rhs.calls",
)
