"""Per-layer spans and counts, recorded from outside the program.

A Tracer replaces, for the length of a traced pass, the public names each
nlcasimir module imports from the layer below (for example
nlcasimir.lifshitz.reflection_pair) with wrappers that record a span and
count the work, and puts the originals back afterwards.  No file of the
program changes, and untraced passes run with no wrapper installed.

A span's self time is its duration minus the time of the spans it
directly caused.  Times called *_s in the metrics are inclusive unless
the name says self_s.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import nlcasimir.cli
import nlcasimir.kramers_kronig
import nlcasimir.lifshitz
import nlcasimir.reflection

_KK_VERIFIERS = ("verify_kk_real_from_imag_T", "verify_kk_imag_from_real_T",
                 "verify_kk_imag_axis_T", "verify_kk_L")
_OPTICAL = ("parse_optical_table", "interband_im_eps", "build_core_table")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.total = defaultdict(float)     # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.pressure_calls = []            # (model, a_um, T, result, fallback)
        self._stack = []                    # [name, child seconds, start]
        self._fallback_xi = None
        self._saved = []

    def enter(self, name):
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        elapsed = time.perf_counter() - frame[2]
        self._stack.pop()
        name = frame[0]
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _spanned(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.leave(frame)
            return wrapper
        return make

    @contextmanager
    def installed(self):
        cli, lif, refl, kk = (nlcasimir.cli, nlcasimir.lifshitz,
                              nlcasimir.reflection, nlcasimir.kramers_kronig)
        self._patch(cli, "casimir_pressure", self._wrap_pressure)
        self._patch(cli, "force_gradient", self._spanned("sphere_plate"))
        self._patch(cli, "parse_experiment_csv",
                    self._spanned("sphere_plate.parse"))
        for name in _OPTICAL:
            self._patch(cli, name, self._spanned("optical_data"))
        for name in _KK_VERIFIERS:
            self._patch(cli, name, self._wrap_verifier)
        self._patch(lif, "reflection_pair", self._wrap_lifshitz_reflection)
        self._patch(lif, "zero_freq_limit",
                    self._spanned("reflection.zero_freq"))
        self._patch(refl, "eval_imag_axis", self._wrap_response("imag"))
        self._patch(kk, "eval_imag_axis", self._wrap_response("imag"))
        self._patch(kk, "eval_real_axis", self._wrap_response("real"))
        self._patch(kk, "pv_integral", self._wrap_pv)
        self._patch(kk, "quad", self._wrap_quad)
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def _wrap_pressure(self, fn):
        def wrapper(query):
            outer = self._fallback_xi
            self._fallback_xi = set()
            try:
                with self.span("lifshitz"):
                    result = fn(query)
                self.pressure_calls.append(
                    (type(query.model).__name__, query.separation,
                     query.temperature, result, len(self._fallback_xi)))
                return result
            finally:
                self.counts["lifshitz.fallback_terms"] += len(self._fallback_xi)
                self._fallback_xi = outer
        return wrapper

    def _wrap_lifshitz_reflection(self, fn):
        # the block pass hands over a (terms x 1) xi column and a 2-d
        # k_hat; the scalar adaptive path one xi and a 1-d k_hat
        def wrapper(model, xi, k_hat):
            if np.ndim(k_hat) == 2:
                self.counts["block_rows"] += np.shape(k_hat)[0]
                self.counts["block_points"] += np.size(k_hat)
                name = "reflection.block"
            else:
                self.counts["scalar_points"] += np.size(k_hat)
                if self._fallback_xi is not None:
                    self._fallback_xi.add(float(xi))
                name = "reflection.scalar"
            frame = self.enter(name)
            try:
                return fn(model, xi, k_hat)
            finally:
                self.leave(frame)
        return wrapper

    def _wrap_response(self, axis):
        name, points = f"response.{axis}", f"response.{axis}_points"

        def make(fn):
            def wrapper(model, x, k_hat=0.0):
                self.counts[points] += np.broadcast(x, k_hat).size
                frame = self.enter(name)
                try:
                    return fn(model, x, k_hat)
                finally:
                    self.leave(frame)
            return wrapper
        return make

    def _wrap_verifier(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("kk"):
                result = fn(*args, **kwargs)
            self.counts["kk.relations"] += \
                len(result) if isinstance(result, tuple) else 1
            return result
        return wrapper

    def _wrap_pv(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            counts["kk.pv_calls"] += 1

            def counted(x):
                counts["kk.integrand_evals"] += 1
                return f(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _wrap_quad(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["kk.quad_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_signature(self):
        """Everything a traced pass counts, for exact pass-to-pass checks."""
        calls = tuple(sorted(self.calls.items()))
        counts = tuple(sorted(self.counts.items()))
        per_call = tuple((m, a, t, r.terms_used, fb)
                         for m, a, t, r, fb in self.pressure_calls)
        return calls, counts, per_call


def _ratio(num, den):
    return num / den if den else 0.0


_LABELS = {"Drude": "drude", "NonlocalAlt": "nonlocal", "Plasma": "plasma"}


def err_cover_max(tracer, ref_points):
    """Largest |P - P_ref| / quad_error_estimate over the checked points.

    ref_points holds (model label, a_um, T, P_ref) as workloads.References
    records them.
    """
    results = {(_LABELS.get(m), a, t): r
               for m, a, t, r, _ in tracer.pressure_calls}
    worst = 0.0
    for label, a, t, ref in ref_points:
        result = results.get((label, a, t))
        if result is not None and result.quad_error_estimate > 0.0:
            worst = max(worst, abs(result.pressure - ref)
                        / result.quad_error_estimate)
    return worst


def layer_metrics(tracers, ref_points, overhead_frac):
    """Per-layer metrics from the traced passes of one run.

    Counts come from the first pass (the caller checks that every pass
    counted the same); times are medians over the passes.
    """
    first = tracers[0]
    c = first.counts

    def med(pick):
        return statistics.median(pick(t) for t in tracers)

    terms = sum(r.terms_used for _, _, _, r, _ in first.pressure_calls)
    calls = len(first.pressure_calls)
    summed_terms = terms - calls            # l >= 1 terms
    fallback = c["lifshitz.fallback_terms"]
    scalar_calls = first.calls["reflection.scalar"]
    block_s = med(lambda t: t.total["reflection.block"])
    impedance_calls = first.calls["reflection.impedance"]
    m = {
        "lifshitz.calls": (calls, "count"),
        "lifshitz.terms": (terms, "count"),
        "lifshitz.s_per_term": (
            med(lambda t: _ratio(t.total["lifshitz"], terms)), "s/term"),
        "lifshitz.self_s": (med(lambda t: t.self_time["lifshitz"]), "s"),
        "lifshitz.fallback_terms": (fallback, "count"),
        "lifshitz.fallback_share": (_ratio(fallback, summed_terms), "frac"),
        "lifshitz.refinements": (scalar_calls - fallback, "count"),
        "lifshitz.block_rows": (c["block_rows"], "count"),
        "lifshitz.block_accept_frac": (
            _ratio(summed_terms - fallback, c["block_rows"]), "frac"),
        "lifshitz.err_cover_max": (err_cover_max(first, ref_points), "ratio"),
        "reflection.block_s": (block_s, "s"),
        "reflection.block_mpts_s": (
            _ratio(c["block_points"], block_s) / 1e6, "Mpt/s"),
        "reflection.scalar_s": (med(lambda t: t.total["reflection.scalar"]),
                                "s"),
        "reflection.scalar_pts_per_call": (
            _ratio(c["scalar_points"], scalar_calls), "pt/call"),
        "reflection.zero_freq_s": (
            med(lambda t: t.total["reflection.zero_freq"]), "s"),
        "reflection.impedance_calls": (impedance_calls, "count"),
        "reflection.impedance_s": (
            med(lambda t: t.total["reflection.impedance"]), "s"),
        "reflection.impedance_evals_per_call": (
            _ratio(c["impedance_evals"], impedance_calls), "eval/call"),
        "response.imag_points": (c["response.imag_points"], "count"),
        "response.imag_s": (med(lambda t: t.total["response.imag"]), "s"),
        "response.real_calls": (first.calls["response.real"], "count"),
        "response.real_s": (med(lambda t: t.total["response.real"]), "s"),
        "kk.relations": (c["kk.relations"], "count"),
        "kk.pv_calls": (c["kk.pv_calls"], "count"),
        "kk.quad_calls": (c["kk.quad_calls"], "count"),
        "kk.integrand_evals": (c["kk.integrand_evals"], "count"),
        "kk.self_s": (med(lambda t: t.self_time["kk"]), "s"),
        "sphere_plate.gradient_calls": (first.calls["sphere_plate"], "count"),
        "sphere_plate.self_s": (med(lambda t: t.self_time["sphere_plate"]),
                                "s"),
        "sphere_plate.parse_s": (
            med(lambda t: t.total["sphere_plate.parse"]), "s"),
        "optical_data.core_build_s": (
            med(lambda t: t.total["optical_data"]), "s"),
        "cli.self_s": (med(lambda t: t.self_time["cli"]), "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}
