"""Span tracer for the benchmark's traced run.

The tracer wraps the public calls into each sievelab layer from outside
the package: while it is installed, module attributes are swapped for
timing wrappers, and oracles and quotients handed to the program are
subclass proxies whose per-element methods are timed. Nothing in src/
changes, and generators are never wrapped because the walk kernels
dispatch on their tag.

Calls marked as spans become records (id, name, start, end, parent, op
id) kept in memory. Per-element calls (hit_raw, residual_contains,
multiply, ...) only add a count and busy time to the enclosing span.
Every wrapped call is timed on one stack, so the self time of a call is
its duration minus the time covered by the wrapped calls beneath it.
"""

import time
from collections import Counter
from contextlib import contextmanager

from sievelab import cli, gfpoly, lab, prng, quotients, sieve, spectra, thinsets, walker

_now = time.perf_counter


def _spectra_kind(spec):
    return "spectra.dense" if spec.method == "dense" else "spectra.iterative"


def _checked(report):
    return report.checked


# (module, attribute, trace name or f(result), record a span, work units of the result)
SPANS = (
    (prng, "draw_block", "prng.draw_block", True, lambda out: out.size),
    (prng, "draw_indices", "prng.draw_indices", False, len),
    (walker, "mc_sweep", "walker.mc_sweep", True, lambda out: out[0].trials * out[-1].n),
    (walker, "convolve_counts", "walker.exact", True, None),
    (walker, "exact_origin_scan_z", "walker.exact", True, None),
    (spectra, "convolve_counts", "walker.exact", True, None),
    (lab, "run_experiment", "lab.run_experiment", True, None),
    (lab, "theory_bound", "lab.theory_bound", True, None),
    (lab, "second_eigenvalue", _spectra_kind, True, lambda out: out.order),
    (spectra, "second_eigenvalue", _spectra_kind, True, lambda out: out.order),
    (lab, "residual", "thinsets.residual", True, _checked),
    (thinsets, "residual", "thinsets.residual", True, _checked),
    (quotients, "bfs_closure", "quotients.bfs_closure", True, lambda out: out.size),
    (gfpoly, "is_irreducible", "gfpoly.is_irreducible", False, None),
    (sieve, "single_prime_bound", "sieve", False, None),
    (sieve, "plan_for_n", "sieve", False, None),
    (cli, "main", "cli.main", True, None),
)

QUOTIENT_METHODS = (
    ("multiply", "quotients.multiply", False, None),
    ("enumerate_elements", "quotients.enumerate", True, len),
)


class Tracer:
    """Timing stack, span records and per-phase aggregates.

    agg[phase][name] = [calls, total_s, self_s, units], where phase is
    "setup" or "ops", so that setup work and per-op work are reported
    apart. unknown[phase] counts UNKNOWN verdicts by reason.
    """

    def __init__(self):
        self.spans = []
        self.agg = {"setup": {}, "ops": {}}
        self.unknown = {"setup": Counter(), "ops": Counter()}
        self.phase = "setup"
        self.op_id = None
        self._open = [{"id": 0, "counts": {}}]
        self._stack = [[0.0, 0.0, None]]
        self._next_id = 1
        self._saved = []
        self._classes = {}

    # ----- timing stack -----

    def _enter(self, record):
        rec = None
        if record:
            rec = {"id": self._next_id, "parent": self._open[-1]["id"],
                   "op": self.op_id, "counts": {}}
            self._next_id += 1
            self._open.append(rec)
        frame = [_now(), 0.0, rec]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, units):
        end = _now()
        self._stack.pop()
        dur = end - frame[0]
        self._stack[-1][1] += dur
        agg = self.agg[self.phase]
        a = agg.get(name)
        if a is None:
            a = agg[name] = [0, 0.0, 0.0, 0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[1]
        a[3] += units
        rec = frame[2]
        if rec is not None:
            self._open.pop()
            rec.update(name=name, start=frame[0], end=end, units=units)
            self.spans.append(rec)
        else:
            counts = self._open[-1]["counts"]
            c = counts.get(name)
            if c is None:
                c = counts[name] = [0, 0.0]
            c[0] += 1
            c[1] += dur

    def _timed(self, fn, name, record, units, after=None):
        """fn wrapped in a timed frame; name may be a function of the result."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(record)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name if isinstance(name, str) else "error", 0)
                raise
            tracer._exit(frame, name if isinstance(name, str) else name(out),
                         units(out) if units else 0)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name, op_id=None):
        """One benchmark-level span (setup or one op).

        Its self time, the part no wrapped call covers, is booked as
        "other": matgroup arithmetic and glue that cannot be wrapped.
        """
        self.op_id = op_id
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(frame, "bench", 0)
            frame[2]["name"] = name
            self.op_id = None

    # ----- installing the wrappers -----

    def install(self):
        if self._saved:
            return
        for module, attr, name, record, units in SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._timed(fn, name, record, units))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    # ----- proxies -----

    def _proxy_class(self, base, methods, extra):
        cls = self._classes.get(base)
        if cls is None:
            ns = dict(extra)
            for meth, name, record, units, *after in methods:
                fn = getattr(base, meth, None)
                if fn is not None:
                    ns[meth] = self._timed(fn, name, record, units, *after)
            cls = self._classes[base] = type("Traced" + base.__name__, (base,), ns)
        return cls

    @staticmethod
    def _clone(obj, cls):
        proxy = cls.__new__(cls)
        proxy.__dict__.update(obj.__dict__)
        return proxy

    def proxy_quotient(self, quotient):
        """Same quotient, with multiply and enumerate_elements timed."""
        return self._clone(quotient, self._proxy_class(type(quotient), QUOTIENT_METHODS, {}))

    def proxy_oracle(self, oracle):
        """Same oracle, with its verdict methods timed.

        The proxy class derives from the oracle's class and overrides
        only the methods that class has, so hit_raw_batch exists exactly
        when the wrapped oracle has it and the walk kernel takes the
        same path. quotient_for_prime hands out proxy quotients.
        """
        tracer = self
        base = type(oracle)

        def verdict_unknown(out):
            if out.status == "UNKNOWN":
                tracer.unknown[tracer.phase][out.reason] += 1

        def hit_unknown(out):
            if out is None:
                tracer.unknown[tracer.phase]["hit_raw undecided"] += 1

        def quotient_for_prime(obj, p):
            return tracer.proxy_quotient(base.quotient_for_prime(obj, p))

        methods = (
            ("hit_raw", "thinsets.hit_raw", False, None, hit_unknown),
            ("hit_raw_batch", "thinsets.hit_raw_batch", False, lambda out: out.size),
            ("global_verdict", "thinsets.global_verdict", False, None, verdict_unknown),
            ("residual_contains", "thinsets.residual_contains", False, None),
        )
        cls = self._proxy_class(base, methods, {"quotient_for_prime": quotient_for_prime})
        return self._clone(oracle, cls)

    # ----- reading the aggregates -----

    def round_total(self, cycles, *names):
        """[calls, total_s, self_s, units] summed over names for one round:
        the setup once plus one cycle of the op list."""
        out = [0.0, 0.0, 0.0, 0.0]
        for phase, scale in (("setup", 1.0), ("ops", 1.0 / cycles)):
            for name in names:
                a = self.agg[phase].get(name)
                if a is not None:
                    for i in range(4):
                        out[i] += a[i] * scale
        return out

    def round_unknown(self, cycles):
        return (sum(self.unknown["setup"].values())
                + sum(self.unknown["ops"].values()) / cycles)

    def layer_self_table(self, cycles):
        """Self time per layer for one round, largest first."""
        layers = {}
        for phase, scale in (("setup", 1.0), ("ops", 1.0 / cycles)):
            for name, a in self.agg[phase].items():
                layer = "other" if name == "bench" else name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + a[2] * scale
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

