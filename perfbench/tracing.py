"""Per-layer tracing installed from outside the library, inside one child.

Coarse calls into a layer become spans (name, start, end, parent); hot
calls are aggregated into call counts and busy time, timed only at their
outermost entry so recursion is not counted twice.  Everything is kept in
memory and written once, when the child exits.  A layer's self time is the
time its spans cover minus the time covered by their child spans.

The wrappers replace names where the caller looks them up: class
attributes for arithmetic, and the module global a caller in another layer
resolves at call time (``hurwitz.zeta_twisted_ch`` is the name hurwitz
calls into bundles through).
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.busy: defaultdict[str, float] = defaultdict(float)
        self._depth: defaultdict[str, int] = defaultdict(int)

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def hot(self, name: str, fn, on_call=None):
        """Count calls and time the outermost ones; ``on_call`` sees the args."""
        counts, busy, depth = self.counts, self.busy, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_call is not None:
                on_call(args)
            if depth[name]:
                result = fn(*args, **kwargs)
            else:
                depth[name] = 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy[name] += perf_counter() - start
                    depth[name] = 0
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, span_name: str) -> bool:
        return any(self.spans[i][0] == span_name for i in self._stack)

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        span_s: defaultdict[str, float] = defaultdict(float)
        span_n: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            span_s[name] += end - start
            span_n[name] += 1
            self_s[name.split(".")[0]] += end - start - child_time[i]
        return {
            "spans": self.spans,
            "span_s": dict(span_s),
            "span_calls": dict(span_n),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "busy_s": dict(self.busy),
        }

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**self.summary(), **extra}, fh)


def install(tr: Tracer) -> None:
    """Wrap the public entry points of every cecalc layer."""
    from cecalc import bundles, gring, hurwitz, plmin, splitting

    # gring: polynomial multiply and the normalizing constructor.
    def count_pairs(args):
        if isinstance(args[1], gring.GradedPoly):
            tr.counts["gring.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)

    poly_mul = tr.hot("gring.mul", gring.GradedPoly.__mul__, on_call=count_pairs)
    gring.GradedPoly.__mul__ = gring.GradedPoly.__rmul__ = poly_mul

    poly_init = gring.GradedPoly.__init__

    def init(self, ring, terms):
        tr.counts["gring.ctor"] += 1
        tr.counts["gring.ctor_terms_in"] += len(terms)
        poly_init(self, ring, terms)
        tr.counts["gring.ctor_terms_kept"] += len(self.terms)

    gring.GradedPoly.__init__ = init
    gring.RingSpec.weighted_degree = tr.counter(
        "gring.weighted_degree", gring.RingSpec.weighted_degree
    )

    # bundles: zeta-class multiply and reduction, fiber multiply.
    zmul = tr.hot("bundles.zeta_mul", bundles.ZetaClass.__mul__)
    bundles.ZetaClass.__mul__ = bundles.ZetaClass.__rmul__ = zmul
    bundles.ZetaClass.__init__ = tr.hot("bundles.zeta_reduce", bundles.ZetaClass.__init__)
    fmul = tr.hot("bundles.fiber_mul", bundles.FiberClass.__mul__)
    bundles.FiberClass.__mul__ = bundles.FiberClass.__rmul__ = fmul
    hurwitz.zeta_twisted_ch = tr.span("bundles.zeta_twisted_ch", hurwitz.zeta_twisted_ch)

    # hurwitz: the class-calculus entry points.
    hurwitz.ce_setup = tr.span("hurwitz.ce_setup", hurwitz.ce_setup)
    hurwitz.curve_class = tr.span("hurwitz.curve_class", hurwitz.curve_class)

    def kappa_done(args, kwargs, result):
        tr.counts["hurwitz.kappa_terms"] += len(result.polynomial.terms)

    hurwitz.kappa = tr.span("hurwitz.kappa", hurwitz.kappa, kappa_done)

    # splitting: the stratum table and the constraint predicates.
    def strata_done(args, kwargs, result):
        tr.counts["splitting.strata_rows"] += len(result)

    splitting.enumerate_strata4 = tr.span(
        "splitting.enumerate_strata4", splitting.enumerate_strata4, strata_done
    )
    splitting.constraints_4 = tr.counter("splitting.constraints_4", splitting.constraints_4)
    splitting.constraints_5 = tr.counter("splitting.constraints_5", splitting.constraints_5)

    # plmin: solver, its objective evaluations, the sampler, the errors.
    solve = plmin.solve

    def solve_counted(p):
        try:
            result = solve(p)
        except (plmin.InfeasibleError, plmin.UnboundedError):
            tr.counts["plmin.errors"] += 1
            raise
        tr.counts["plmin.candidates"] += result.candidates_examined
        return result

    plmin.solve = tr.span("plmin.solve", functools.wraps(solve)(solve_counted))
    evaluate = plmin.objective_value
    in_solve = tr.hot("plmin.eval", evaluate)

    def objective_value(p, x):
        if tr.inside("plmin.solve"):
            return in_solve(p, x)
        return evaluate(p, x)

    plmin.objective_value = functools.wraps(evaluate)(objective_value)

    def sample_done(args, kwargs, result):
        tr.counts["plmin.sample_trials"] += kwargs.get("trials", args[1] if len(args) > 1 else 0)

    plmin.sample_check = tr.span("plmin.sample_check", plmin.sample_check, sample_done)

    # The remaining calls the command line makes into a layer, so that the
    # cli's self time is argument parsing, formatting and printing only.
    for module, name in (
        (plmin, "bound"),
        (plmin, "preset"),
        (plmin, "program_from_json"),
        (hurwitz, "presentation"),
        (hurwitz, "ce_rank"),
        (splitting, "codim_hurwitz4"),
        (splitting, "codim_hurwitz5"),
    ):
        layer = module.__name__.rsplit(".", 1)[1]
        setattr(module, name, tr.span(f"{layer}.{name}", getattr(module, name)))
