"""Spans around qval's public functions, installed from outside at run time.

Nothing under src/ knows about this module.  ``install`` wraps the public
functions and methods named in ``TARGETS``: methods are patched on their
classes, and a module-level function is replaced in every qval module
that holds a reference to it, because ``from .valuations import v_p``
copies the reference into the importing module.

Each span has a name, a start, an end, its parent span and the id of the
benchmark op it belongs to.  Hot calls (value(), constructions, integer
valuations, arithmetic, ball membership, sampling) are only aggregated in
memory per (name, parent name); the rest are also kept one by one and
written out by ``dump``.  A layer's self time is its busy time minus the
part covered by traced child spans.
"""

import functools
import itertools
import json
import math
import time

# (layer name, where it lives, hot?).  "module:attr" is a module-level
# function; "module:Class.method" a method patched on its class.
TARGETS = (
    ("batch.pairwise_axiom_check", "qval.batch:pairwise_axiom_check", False),
    ("quasi.check_axioms", "qval.quasi:check_axioms", False),
    ("quasi.value", "qval.quasi:MinOf.value", True),
    ("quasi.value", "qval.quasi:NAdic.value", True),
    ("quasi.value", "qval.quasi:Scaled.value", True),
    ("valuations.value", "qval.valuations:PAdicValuation.value", True),
    ("valuations.value", "qval.valuations:ExtendedValuation.value", True),
    ("valuations.split_value_at_precision",
     "qval.valuations:ExtendedValuation.split_value_at_precision", True),
    ("valuations.hensel_sqrt", "qval.valuations:hensel_sqrt", True),
    ("primes.int_valuation", "qval.primes:int_valuation", True),
    ("primes.factorize", "qval.primes:factorize", True),
    ("topology.ring_value_equivalence", "qval.topology:ring_value_equivalence", False),
    ("topology.ball_contains", "qval.topology:Ball.contains", True),
    ("topology.ball_gauge", "qval.topology:Ball.gauge", True),
    ("lemmas.run_lemma", "qval.lemmas:run_lemma", False),
    ("approximation.weak_approx", "qval.approximation:weak_approx", False),
    ("approximation.rational_approx", "qval.approximation:rational_approx", False),
    ("approximation.crt", "qval.approximation:crt", False),
    ("exprparse.parse_element", "qval.exprparse:parse_element", False),
    ("qvspec.parse_qv", "qval.qvspec:parse_qv", False),
    ("cli.main", "qval.cli:main", False),
) + tuple(
    ("sampling", f"qval.sampling:{fn}", True)
    for fn in ("rationals", "quad_elements", "elements_for", "shift_above",
               "ball_members", "element_at_exact_value", "shift_below")
) + tuple(
    ("quadratic.arith", f"qval.quadratic:QuadElem.{fn}", True)
    for fn in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
               "norm", "conjugate")
)

# Constructions are only counted (per parent), not timed.
COUNTED = (
    ("values.constructions", "qval.values:Value.__init__"),
    ("quadratic.constructions", "qval.quadratic:QuadElem.__init__"),
)

# Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("batch.pairwise_axiom_check.calls", "count", "lower"),
    ("batch.pairwise_axiom_check.self_s", "s", "lower"),
    ("batch.exact_patches", "count", "lower"),
    ("batch.engine_hit_ratio", "ratio", "higher"),
    ("quasi.check_axioms.self_s", "s", "lower"),
    ("quasi.value.calls", "count", "lower"),
    ("quasi.value.self_s", "s", "lower"),
    ("valuations.value.calls", "count", "lower"),
    ("valuations.value.self_s", "s", "lower"),
    ("values.constructions", "count", "lower"),
    ("quadratic.arith.calls", "count", "lower"),
    ("quadratic.arith.self_s", "s", "lower"),
    ("quadratic.constructions", "count", "lower"),
    ("valuations.split_rounds_per_value", "ratio", "lower"),
    ("valuations.max_precision_k", "count", "lower"),
    ("valuations.hensel_sqrt.calls", "count", "lower"),
    ("valuations.hensel_sqrt.self_s", "s", "lower"),
    ("valuations.precision_exceeded", "count", "lower"),
    ("primes.int_valuation.calls", "count", "lower"),
    ("primes.int_valuation.self_s", "s", "lower"),
    ("primes.factorize.calls", "count", "lower"),
    ("primes.factorize.self_s", "s", "lower"),
    ("topology.ring_value_equivalence.calls", "count", "lower"),
    ("topology.ring_value_equivalence.self_s", "s", "lower"),
    ("topology.ball_contains.calls", "count", "lower"),
    ("topology.ball_contains.self_s", "s", "lower"),
    ("topology.gauges_per_check", "ratio", "lower"),
    ("sampling.busy_s", "s", "lower"),
    ("lemmas.run_lemma.self_s", "s", "lower"),
    ("approximation.weak_approx.calls", "count", "lower"),
    ("approximation.weak_approx.self_s", "s", "lower"),
    ("approximation.rational_approx.self_s", "s", "lower"),
    ("approximation.crt.self_s", "s", "lower"),
    ("approximation.crt_modulus_bits_max", "bits", "lower"),
    ("exprparse.parse_element.calls", "count", "lower"),
    ("exprparse.parse_element.self_s", "s", "lower"),
    ("qvspec.parse_qv.calls", "count", "lower"),
    ("qvspec.parse_qv.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# individually kept spans beyond this many are only aggregated
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.stack: list = []  # frames: [name, child_ns, kept span id]
        self.agg: dict = {}  # (name, parent name) -> [calls, busy_ns, self_ns]
        self.counts: dict = {}  # (name, parent name) -> calls
        self.spans: list = []  # (id, name, parent id, op, start_ns, end_ns)
        self.dropped_spans = 0
        self._ids = itertools.count()
        self.op = None
        self.engine_results = 0  # pairwise_axiom_check calls that returned a result
        self.split_values = 0  # ExtendedValuation.value calls on split primes
        self.max_precision_k = 0
        self.precision_exceeded = 0
        self.crt_bits_max = 0
        self.nonzero_exits = 0
        self._patches: list = []
        self.missing: list = []

    # -- span bookkeeping ------------------------------------------------

    def wrap(self, name, fn, hot, before=None, after=None, on_error=None):
        stack, agg, spans, ids = self.stack, self.agg, self.spans, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                frame = [name, 0, parent[2] if parent else None]
            else:
                frame = [name, 0, next(ids)]
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent else None)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if not hot:
                    if len(spans) < MAX_KEPT_SPANS:
                        spans.append((frame[2], name, parent[2] if parent else None,
                                      self.op, start, end))
                    else:
                        self.dropped_spans += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (name, stack[-1][0] if stack else None)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def op_span(self, op_id, call):
        """Run one benchmark op as the root span "op"."""
        self.op = op_id
        try:
            return self.wrap("op", call, hot=False)()
        finally:
            self.op = None

    # -- hooks for the derived counters ---------------------------------

    def _engine_after(self, args, result):
        if result is not None:
            self.engine_results += 1

    def _value_before(self, args, kwargs):
        if getattr(args[0].kind, "name", None) == "SPLIT":
            self.split_values += 1

    def _value_error(self, exc):
        if type(exc).__name__ == "PrecisionExceededError":
            self.precision_exceeded += 1

    def _split_round_before(self, args, kwargs):
        k = kwargs["k"] if "k" in kwargs else args[2]
        self.max_precision_k = max(self.max_precision_k, k)

    def _crt_before(self, args, kwargs):
        moduli = kwargs["moduli"] if "moduli" in kwargs else args[1]
        self.crt_bits_max = max(self.crt_bits_max, math.prod(moduli).bit_length())

    def _main_after(self, args, result):
        if result:
            self.nonzero_exits += 1

    def _main_error(self, exc):
        if isinstance(exc, SystemExit) and exc.code not in (0, None):
            self.nonzero_exits += 1

    # -- patching --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch the targets; ``modules`` maps names to loaded qval modules."""
        hooks = {
            "qval.batch:pairwise_axiom_check": {"after": self._engine_after},
            "qval.valuations:ExtendedValuation.value": {
                "before": self._value_before, "on_error": self._value_error},
            "qval.valuations:ExtendedValuation.split_value_at_precision": {
                "before": self._split_round_before},
            "qval.approximation:crt": {"before": self._crt_before},
            "qval.cli:main": {"after": self._main_after, "on_error": self._main_error},
        }
        for name, where, hot in TARGETS:
            self._patch(modules, where, lambda fn, n=name, h=hot, kw=hooks.get(where, {}):
                        self.wrap(n, fn, h, **kw))
        for name, where in COUNTED:
            self._patch(modules, where, lambda fn, n=name: self.counter(n, fn))

    def _patch(self, modules, where, make):
        module_name, _, attr = where.partition(":")
        module = modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = module
        if module is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            self.missing.append(where)
            return
        wrapped = make(original)
        if owner_name:
            # methods: patch on the class itself
            self._set(owner, method, original, wrapped)
            return
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def _sum(self, name, field, parent=None):
        return sum(v[field] for (n, p), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def _calls(self, name):
        return self._sum(name, 0)

    def _self_s(self, name):
        return self._sum(name, 2) / 1e9

    def metrics(self, assertions: int, overhead_ratio: float) -> dict:
        calls = self._calls
        self_s = self._self_s
        engine_calls = calls("batch.pairwise_axiom_check")
        split_rounds = calls("valuations.split_value_at_precision")
        gauges = calls("topology.ball_gauge")
        sampling_busy = sum(v[1] for (n, p), v in self.agg.items()
                            if n == "sampling" and p != "sampling") / 1e9
        values = {
            "batch.pairwise_axiom_check.calls": engine_calls,
            "batch.pairwise_axiom_check.self_s": self_s("batch.pairwise_axiom_check"),
            "batch.exact_patches": self._sum("valuations.value", 0,
                                             parent="batch.pairwise_axiom_check"),
            "batch.engine_hit_ratio": (self.engine_results / engine_calls
                                       if engine_calls else 0.0),
            "quasi.check_axioms.self_s": self_s("quasi.check_axioms"),
            "quasi.value.calls": calls("quasi.value"),
            "quasi.value.self_s": self_s("quasi.value"),
            "valuations.value.calls": calls("valuations.value"),
            "valuations.value.self_s": self_s("valuations.value"),
            "values.constructions": sum(c for (n, _), c in self.counts.items()
                                        if n == "values.constructions"),
            "quadratic.arith.calls": calls("quadratic.arith"),
            "quadratic.arith.self_s": self_s("quadratic.arith"),
            "quadratic.constructions": sum(c for (n, _), c in self.counts.items()
                                           if n == "quadratic.constructions"),
            "valuations.split_rounds_per_value": (split_rounds / self.split_values
                                                  if self.split_values else 0.0),
            "valuations.max_precision_k": self.max_precision_k,
            "valuations.hensel_sqrt.calls": calls("valuations.hensel_sqrt"),
            "valuations.hensel_sqrt.self_s": self_s("valuations.hensel_sqrt"),
            "valuations.precision_exceeded": self.precision_exceeded,
            "primes.int_valuation.calls": calls("primes.int_valuation"),
            "primes.int_valuation.self_s": self_s("primes.int_valuation"),
            "primes.factorize.calls": calls("primes.factorize"),
            "primes.factorize.self_s": self_s("primes.factorize"),
            "topology.ring_value_equivalence.calls": calls("topology.ring_value_equivalence"),
            "topology.ring_value_equivalence.self_s": self_s("topology.ring_value_equivalence"),
            "topology.ball_contains.calls": calls("topology.ball_contains"),
            "topology.ball_contains.self_s": self_s("topology.ball_contains"),
            "topology.gauges_per_check": gauges / assertions if assertions else 0.0,
            "sampling.busy_s": sampling_busy,
            "lemmas.run_lemma.self_s": self_s("lemmas.run_lemma"),
            "approximation.weak_approx.calls": calls("approximation.weak_approx"),
            "approximation.weak_approx.self_s": self_s("approximation.weak_approx"),
            "approximation.rational_approx.self_s": self_s("approximation.rational_approx"),
            "approximation.crt.self_s": self_s("approximation.crt"),
            "approximation.crt_modulus_bits_max": self.crt_bits_max,
            "exprparse.parse_element.calls": calls("exprparse.parse_element"),
            "exprparse.parse_element.self_s": self_s("exprparse.parse_element"),
            "qvspec.parse_qv.calls": calls("qvspec.parse_qv"),
            "qvspec.parse_qv.self_s": self_s("qvspec.parse_qv"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.nonzero_exits": self.nonzero_exits,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def dump(self, path) -> None:
        """Write the aggregates and the kept spans as JSON."""
        table = [
            {"name": n, "parent": p, "calls": v[0], "busy_ns": v[1], "self_ns": v[2]}
            for (n, p), v in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
        ]
        counted = [{"name": n, "parent": p, "calls": c}
                   for (n, p), c in sorted(self.counts.items(), key=lambda kv: -kv[1])]
        spans = [dict(zip(("id", "name", "parent", "op", "start_ns", "end_ns"), s))
                 for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"aggregates": table, "counted": counted, "spans": spans,
                       "dropped_spans": self.dropped_spans, "untraced": self.missing}, fh)
