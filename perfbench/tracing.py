"""Traced mode: spans and counters around the public entry points of each
griess layer, installed from the benchmark, never inside griess.

Methods are replaced on their classes.  A module-level function is
replaced in every griess module that imported it, so calls made through
any import site are seen.  Each call records a span (name, parent span,
op, start, end); a span's self time is its duration minus the durations
of its child spans.  A layer's busy time counts only the outermost span
of each name, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from griess import (algebra, bplus, cli, exactlin, niemeier, rootalgebra,
                    rootsys, verify)

# Fixed here, not read from griess, so the metric names stay the same.
TARGETS = ("lemma2.1", "prop2.2", "lemma2.3", "lemma2.4", "eq2.5",
           "lemma2.5", "lemma2.6", "thm2.7", "thm3.1", "cor3.2", "lemma4.2",
           "formula4.1", "table1", "table2")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op, start, end]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self):
        self.spans, self.counts, self.op = [], Counter(), None

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn):
        """Time each call of fn as a span; name may depend on the args."""
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            rec = [label, self._stack[-1] if self._stack else -1, self.op,
                   perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self._stack.pop()
        return functools.wraps(fn)(wrapper)

    def tally(self, name, fn, amount=lambda result, *args: 1):
        """Count calls of fn, or the amount each result contributes."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += amount(result, *args)
            return result
        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------

    def _method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        if isinstance(orig, classmethod):
            setattr(cls, attr, classmethod(make(orig.__func__)))
        else:
            setattr(cls, attr, make(orig))

    def _function(self, fn, wrapper):
        for mod in [m for k, m in sys.modules.items()
                    if k == "griess" or k.startswith("griess.")]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self):
        A, S = algebra.AlgebraElement, algebra.StructureAlgebra
        m = self._method
        m(rootsys.RootSystem, "__init__",
          lambda f: self.span("rootsys.build", f))
        m(exactlin.QMatrix, "rref", lambda f: self.span("exactlin.rref", f))

        def add_equation(f):
            timed = self.span("exactlin.add_equation", f)

            def wrapper(solver, row, rhs):
                before = solver.rank
                ok = timed(solver, row, rhs)
                self.counts["exactlin.rank_gained"] += solver.rank - before
                return ok
            return wrapper
        m(exactlin.SparseSolver, "add_equation", add_equation)

        def init(f):
            # Count calls of a lazily evaluated product table: the misses
            # of the algebra's product cache.
            def wrapper(alg, basis_labels, product, form):
                if callable(product):
                    product = self.tally("algebra.product_fn", product)
                f(alg, basis_labels, product, form)
            return functools.wraps(f)(wrapper)
        m(S, "__init__", init)
        m(S, "basis_product",
          lambda f: self.tally("algebra.basis_product", f))
        m(A, "__mul__", lambda f: self.span("algebra.mul", f))
        m(A, "form", lambda f: self.span("algebra.form", f))
        m(S, "is_associative_span",
          lambda f: self.span("algebra.assoc_span", f))
        m(S, "find_identity", lambda f: self.span("algebra.find_identity", f))
        m(S, "to_json", lambda f: self.span("algebra.to_json", f))
        m(S, "from_json", lambda f: self.span("algebra.from_json", f))
        m(bplus.PhiMap, "apply", lambda f: self.span("bplus.phi_apply", f))

        idempotents = lambda rep, *args: len(rep.idempotents)  # noqa: E731
        fn = self._function
        for f in (rootalgebra.coset_chain_decompose,
                  rootalgebra.generalized_chain_decompose):
            fn(f, self.tally("rootalgebra.idempotents",
                             self.span("rootalgebra.decompose", f),
                             idempotents))
        fn(bplus.build_bplus, self.span("bplus.build", bplus.build_bplus))
        fn(bplus.verify_theorem_3_1,
           self.span("bplus.thm31", bplus.verify_theorem_3_1))
        fn(niemeier.lemma_4_2_subalgebra,
           self.span("niemeier.lemma42", niemeier.lemma_4_2_subalgebra))
        fn(niemeier.brute_force_lagrangians,
           self.span("niemeier.lagrangians", niemeier.brute_force_lagrangians))
        for f in (niemeier.table1_consistency, niemeier.table2_consistency):
            fn(f, self.span("niemeier.tables", f))

        def reports(result, *args):
            self.counts["verify.clauses"] += sum(len(r.clauses)
                                                 for r in result)
            self.counts["verify.clauses_failed"] += sum(
                not ok for r in result for _, ok, _ in r.clauses)
            return len(result)
        fn(verify.run_target,
           self.tally("verify.targets",
                      self.span(lambda target, *a: f"verify.{target}",
                                verify.run_target),
                      reports))
        fn(cli.run, self.span("cli.run", cli.run))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for k, (name, parent, _, t0, t1) in enumerate(spans):
            calls[name] += 1
            own[name] += t1 - t0 - child[k]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                busy[name] += t1 - t0
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "rootsys.build_s": busy["rootsys.build"],
            "rootsys.build_self_s": own["rootsys.build"],
            "rootsys.builds": calls["rootsys.build"],
            "exactlin.rref_s": busy["exactlin.rref"],
            "exactlin.rref_calls": calls["exactlin.rref"],
            "exactlin.add_equation_s": busy["exactlin.add_equation"],
            "exactlin.equations": calls["exactlin.add_equation"],
            "exactlin.equation_useful_ratio": ratio(
                c["exactlin.rank_gained"], calls["exactlin.add_equation"]),
            "algebra.mul_s": busy["algebra.mul"],
            "algebra.mul_calls": calls["algebra.mul"],
            "algebra.form_s": busy["algebra.form"],
            "algebra.form_calls": calls["algebra.form"],
            "algebra.basis_product_calls": c["algebra.basis_product"],
            "algebra.product_cache_hit_ratio": 1 - ratio(
                c["algebra.product_fn"], c["algebra.basis_product"]),
            "algebra.assoc_span_s": busy["algebra.assoc_span"],
            "algebra.assoc_span_self_s": own["algebra.assoc_span"],
            "algebra.find_identity_s": busy["algebra.find_identity"],
            "algebra.find_identity_self_s": own["algebra.find_identity"],
            "algebra.to_json_s": busy["algebra.to_json"],
            "algebra.from_json_s": busy["algebra.from_json"],
            "rootalgebra.decompose_s": busy["rootalgebra.decompose"],
            "rootalgebra.idempotents": c["rootalgebra.idempotents"],
            "bplus.build_s": busy["bplus.build"],
            "bplus.phi_apply_s": busy["bplus.phi_apply"],
            "bplus.thm31_s": busy["bplus.thm31"],
            "niemeier.lemma42_s": busy["niemeier.lemma42"],
            "niemeier.lagrangians_s": busy["niemeier.lagrangians"],
            "niemeier.tables_s": busy["niemeier.tables"],
            "verify.targets": c["verify.targets"],
            "verify.clauses": c["verify.clauses"],
            "verify.clauses_failed": c["verify.clauses_failed"],
            "cli.calls": calls["cli.run"],
            "cli.self_s": own["cli.run"],
        }
        out.update({f"verify.{t}_s": busy[f"verify.{t}"] for t in TARGETS})
        return out
