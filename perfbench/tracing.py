"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``symvar`` module from the
benchmark's side; nothing under ``src/`` is edited.  A wrapper goes into
every namespace that binds the wrapped function, so calls that reach it
through a re-export (``symvar/__init__``) or a ``from .x import y`` binding
(``principles`` imports ``approx_symmetrize`` and ``polarize`` by name) are
seen as well.  Spans record name, start, end, parent and operation id; they
stay in memory and are summarised when the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import types
from collections import Counter, defaultdict

import symvar
from symvar import _descent, applications, cli, funcspace, principles, \
    rearrange, slopes
from symvar.errors import ConvergenceFailure, SymvarError

# Layer name as the metrics print it -> module.  Metric names must start
# with a letter or digit, so ``_descent`` reports as ``descent``.
LAYERS = {
    "funcspace": funcspace,
    "rearrange": rearrange,
    "slopes": slopes,
    "principles": principles,
    "descent": _descent,
    "applications": applications,
    "cli": cli,
}

# Called so often (per sample, per norm evaluation) that a span per call
# would swamp the run: these are counted, not timed.
COUNT_ONLY = {
    "funcspace.theta", "funcspace.inner_X",
    "funcspace.gram_matrix", "funcspace.GridFunction.__init__",
    "funcspace.Functional.__call__", "rearrange.polarize",
    "rearrange.schwarz_order", "applications.petal_membership",
}

# Certificate-issuing entry points of ``principles``; their self time is
# mostly the Ekeland chain and the engine prologues.
ENGINES = {
    "principles.ekeland_point", "principles.symmetric_ekeland",
    "principles.symmetric_borwein_preiss", "principles.symmetric_zhong",
    "principles.dgz_check", "principles.constrained_symmetric_ekeland",
    "principles.path_minimax", "principles.sqps_sequence",
}

# Every norm entry point, public or private.  The hot paths call the
# private kernels directly (``principles``' metrics, the ``dist`` of
# ``approx_symmetrize``, K estimation in ``make_grid``), and the public
# norms call them in turn, so a norm evaluation is counted once, at the
# outermost of these calls.
NORMS = ("norm_X", "norm_V", "norm_W", "norm_Lr", "_norm_X_raw",
         "_norm_V_raw", "_lr_norm_raw")

# Every per-layer metric the traced run prints, with its unit.  The owning
# layer is the metric name's first component.
LAYER_METRICS = {
    "funcspace.make_grid.s": "s",
    "funcspace.make_grid.calls": "count",
    "funcspace.riesz_from_euclidean.s": "s",
    "funcspace.riesz_from_euclidean.calls": "count",
    "funcspace.functional_evals": "count",
    "funcspace.gridfunction_new": "count",
    "funcspace.norm.calls": "count",
    "rearrange.approx_symmetrize.s": "s",
    "rearrange.approx_symmetrize.calls": "count",
    "rearrange.word_len": "count",
    "rearrange.stuck": "count",
    "rearrange.is_family_fixed.s": "s",
    "rearrange.polarize.calls": "count",
    "principles.sample_inequality.s": "s",
    "principles.sample_inequality.samples": "count",
    "principles.sample_inequality.us_per_sample": "us",
    "principles.estimate_inf.s": "s",
    "principles.check_symmetry.s": "s",
    "principles.verify_certificate.s": "s",
    "principles.engine.self_s": "s",
    "descent.minimize_multistart.s": "s",
    "descent.minimize_multistart.calls": "count",
    "slopes.strong_slope.s": "s",
    "applications.drop_membership.s": "s",
    "applications.drop_membership.calls": "count",
    "applications.drop_membership.ball_norms_per_query": "count",
    "applications.petal_membership.calls": "count",
    "applications.dual_norm.s": "s",
    "applications.lower_derivative.s": "s",
    "cli.run_config.self_s": "s",
    "cli.bytes_written": "bytes",
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = "s"
    LAYER_METRICS[f"{_layer}.errors"] = "count"
LAYER_METRICS["trace_overhead"] = "ratio"


def _public_functions(module):
    """Functions a module defines under a name without a leading underscore
    (wider than ``__all__``, which omits e.g. ``sample_inequality``)."""
    for name, obj in list(vars(module).items()):
        if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__):
            yield name, obj


def _namespaces():
    """Every symvar namespace a public function can be bound in."""
    return [vars(symvar)] + [vars(m) for m in LAYERS.values()]


class Tracer:
    """Install wrappers, collect spans and counts, summarise per layer.

    ``op`` is the operation id stamped on every span opened while it is
    set; the benchmark sets it before each operation.
    """

    def __init__(self, clock):
        self.clock = clock       # times spans; the benchmark's skips probes
        self.spans = []          # [name, start, end, parent, op]
        self.counts = Counter()  # calls and other counters by name
        self.op = None
        self._stack = []
        self._errors = defaultdict(set)
        self._error_refs = []
        self._patches = []       # (namespace, key, original)
        self._hooks = {
            "principles.sample_inequality": self._on_sample_inequality,
            "rearrange.approx_symmetrize": self._on_approx_symmetrize,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        namespaces = _namespaces()
        for layer, module in LAYERS.items():
            for name, fn in _public_functions(module):
                if module is not funcspace or name not in NORMS:
                    self._patch_everywhere(namespaces, fn,
                                           self._wrap(f"{layer}.{name}", fn))
        in_norm = [False]
        for name in NORMS:
            fn = vars(funcspace)[name]
            self._patch_everywhere(namespaces, fn,
                                   self._count_norm(fn, in_norm))
        for cls, attr in ((funcspace.GridFunction, "__init__"),
                          (funcspace.Functional, "__call__")):
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr,
                    self._wrap(f"funcspace.{cls.__name__}.{attr}", fn))

    def _patch_everywhere(self, namespaces, fn, wrapper):
        for ns in namespaces:
            for key, val in list(ns.items()):
                if val is fn:
                    self._patches.append((ns, key, fn))
                    ns[key] = wrapper

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def count_calls(self, obj, attr, name):
        """Count calls to ``obj.attr`` (an instance attribute the benchmark
        owns, such as a ball's norm) until :meth:`uninstall`."""
        fn = getattr(obj, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patches.append((obj, attr, fn))
        setattr(obj, attr, counted)

    # -- spans -------------------------------------------------------------

    def _count_norm(self, fn, in_norm):
        counts = self.counts

        def counted(*args, **kwargs):
            if in_norm[0]:
                return fn(*args, **kwargs)
            in_norm[0] = True
            counts["funcspace.norm"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                in_norm[0] = False

        return functools.wraps(fn)(counted)

    def _wrap(self, qualname, fn):
        counts = self.counts
        layer = qualname.split(".", 1)[0]
        if qualname in COUNT_ONLY:
            def counted(*args, **kwargs):
                counts[qualname] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        spans, stack = self.spans, self._stack
        hook = self._hooks.get(qualname)
        clock = self.clock

        def traced(*args, **kwargs):
            counts[qualname] += 1
            rec = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            out = exc = None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except SymvarError as err:
                exc = err
                self._error(layer, err)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, out, exc)

        return functools.wraps(fn)(traced)

    def _error(self, layer, err):
        # one exception leaving several spans of a layer counts once there
        if id(err) not in self._errors[layer]:
            self._errors[layer].add(id(err))
            self._error_refs.append(err)   # keeps ids unique for the run

    def _on_sample_inequality(self, args, kwargs, out, exc):
        self.counts["principles.sample_inequality.samples"] += \
            int(kwargs["n_samples"])

    def _on_approx_symmetrize(self, args, kwargs, out, exc):
        if isinstance(exc, ConvergenceFailure):
            self.counts["rearrange.stuck"] += 1
            self.counts["rearrange.word_len"] += len(exc.sequence or ())
        elif out is not None:
            self.counts["rearrange.word_len"] += len(out[1])

    # -- summary -----------------------------------------------------------

    def summary(self, ops=None):
        """Per-function totals over the spans whose op id is in ``ops``
        (all spans when None): calls, inclusive seconds (outermost span of
        a name only) and self seconds, plus self seconds per layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        incl, self_s, calls = Counter(), Counter(), Counter()
        layer_self = Counter()
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            if ops is not None and op not in ops:
                continue
            calls[name] += 1
            own = (t1 - t0) - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += t1 - t0
        return {"calls": calls, "incl_s": incl, "self_s": self_s,
                "layer_self_s": layer_self}

    def errors(self):
        return {layer: len(ids) for layer, ids in self._errors.items()}
