"""Spans and counters around the calls into each freesb layer.

The wrappers are installed from outside the package, at every place a
wrapped function can be looked up: module globals (including names that
one module imports from another), class attributes (``__rmul__`` is a
separate attribute that aliases ``__mul__``) and module-level dicts such
as ``operators._NAMED``.  ``Tracer.install`` replaces each of them and
``Tracer.uninstall`` puts the originals back, so an untraced pass runs
the program exactly as shipped.

A span records its name, start, end, parent span and the id of the op
that caused it.  A span's self time is its duration minus the time its
child spans cover.  Spans stay in memory and ``write_spans`` saves them
at the end of a run.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

import numpy as np

from freesb import cli, matrixlab, moments, operators, tracepoly, transform, words

# (span name, owner, attribute): the functions wrapped, by defining owner
TARGETS = (
    ("tracepoly.mul", tracepoly.TracePoly, "__mul__"),
    ("tracepoly.add", tracepoly.TracePoly, "__add__"),
    ("tracepoly.parse", tracepoly, "parse"),
    ("operators.exp_series", operators, "exp_series"),
    ("operators.exp_apply", operators, "exp_apply"),
    ("operators.apply_D", operators, "apply_D"),
    ("operators.apply_L", operators, "_apply_L"),
    ("moments.pi_eval", moments, "pi_eval"),
    ("transform.G", transform, "G"),
    ("transform.H", transform, "H"),
    ("transform.biane", transform, "biane"),
    ("transform.verify_gen_fn", transform, "verify_gen_fn"),
    ("words.expectation", words, "expectation"),
    ("words.apply_tilde", words, "apply_tilde"),
    ("words.derive_generators", words, "derive_generators"),
    ("words.mul", words.WordPoly, "__mul__"),
    ("words.add", words.WordPoly, "__add__"),
    ("words.sesq_B", words, "sesq_B"),
    ("words.l2_norm_sq", words, "l2_norm_sq"),
    ("matrixlab.sample_batch", matrixlab, "_sample_batch"),
    ("matrixlab.expm_batch", matrixlab, "_expm_batch"),
    ("matrixlab.stream", matrixlab, "_stream"),
    ("matrixlab.eval", matrixlab, "_eval_scalar"),
    ("matrixlab.eval", matrixlab, "evaluate"),
    ("matrixlab.eval", matrixlab, "evaluate_word"),
    ("matrixlab.laplacian_eval", matrixlab, "laplacian_eval"),
    ("cli.main", cli, "main"),
)

# lru_caches keyed by float s (moments) and the generator caches (words)
S_CACHES = (moments._nu_hat_exact, moments._c_hat, moments._b_table)
GEN_CACHES = (words._q_family, words._r_family)
CACHES = S_CACHES + GEN_CACHES

MAX_SPANS = 2_000_000

# per-layer metric -> (unit, better); the traced run prints all of them
LAYER_METRICS = {
    "tracepoly.mul.calls": ("count", "lower"),
    "tracepoly.mul.self_s": ("s", "lower"),
    "tracepoly.add.calls": ("count", "lower"),
    "tracepoly.add.self_s": ("s", "lower"),
    "tracepoly.parse.self_s": ("s", "lower"),
    "tracepoly.terms_peak": ("count", "lower"),
    "operators.exp_series.calls": ("count", "lower"),
    "operators.exp_series.self_s": ("s", "lower"),
    "operators.gen_apply.calls": ("count", "lower"),
    "operators.terms_per_exp": ("count/call", "lower"),
    "operators.apply_D.calls": ("count", "lower"),
    "operators.apply_D.self_s": ("s", "lower"),
    "operators.apply_L.calls": ("count", "lower"),
    "operators.apply_L.self_s": ("s", "lower"),
    "moments.pi_eval.calls": ("count", "lower"),
    "moments.pi_eval.self_s": ("s", "lower"),
    "moments.nu_cache_hit_ratio": ("ratio", "higher"),
    "moments.cache_entries": ("count", "lower"),
    "transform.G.self_s": ("s", "lower"),
    "transform.H.self_s": ("s", "lower"),
    "transform.biane.calls": ("count", "lower"),
    "transform.verify_gen_fn.self_s": ("s", "lower"),
    "words.expectation.calls": ("count", "lower"),
    "words.expectation.self_s": ("s", "lower"),
    "words.apply_Dst.calls": ("count", "lower"),
    "words.apply_Dst.self_s": ("s", "lower"),
    "words.apply_Lst.calls": ("count", "lower"),
    "words.apply_Lst.self_s": ("s", "lower"),
    "words.derive_generators.calls": ("count", "lower"),
    "words.derive_generators.self_s": ("s", "lower"),
    "words.gen_cache_hit_ratio": ("ratio", "higher"),
    "words.mul.calls": ("count", "lower"),
    "words.mul.self_s": ("s", "lower"),
    "words.add.calls": ("count", "lower"),
    "words.add.self_s": ("s", "lower"),
    "words.sesq_B.self_s": ("s", "lower"),
    "words.terms_peak": ("count", "lower"),
    "matrixlab.sample_batch.calls": ("count", "lower"),
    "matrixlab.sample_batch.self_s": ("s", "lower"),
    "matrixlab.expm_batch.calls": ("count", "lower"),
    "matrixlab.expm_batch.matrices": ("count", "lower"),
    "matrixlab.expm_batch.self_s": ("s", "lower"),
    "matrixlab.draw.self_s": ("s", "lower"),
    "matrixlab.draw_bytes": ("B", "lower"),
    "matrixlab.eval.self_s": ("s", "lower"),
    "matrixlab.samples_per_s": ("1/s", "higher"),
    "matrixlab.unitarity_drift": ("1", "lower"),
    "matrixlab.laplacian_eval.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _freesb_namespaces():
    """Every namespace in the package that can hold a wrapped function."""
    for name, mod in list(sys.modules.items()):
        if name != "freesb" and not name.startswith("freesb."):
            continue
        yield mod, vars(mod)
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__ == mod.__name__:
                yield val, vars(val)


def lookup_sites(obj):
    """All (container, key, label) places in freesb that hold ``obj``."""
    sites = []
    for owner, ns in _freesb_namespaces():
        label = getattr(owner, "__qualname__", None) or owner.__name__
        if isinstance(owner, type):
            label = f"{owner.__module__}.{label}"
        for key, val in ns.items():
            if val is obj:
                sites.append((owner, key, f"{label}.{key}"))
            elif isinstance(val, dict) and not key.startswith("__"):
                for k2, v2 in val.items():
                    if v2 is obj:
                        sites.append((val, k2, f"{label}.{key}[{k2!r}]"))
    return sites


class _Draws:
    """A numpy Generator whose normal draws are timed as matrixlab.draw."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, size=None, *args, **kwargs):
        tr = self._tracer
        if tr.active and size is not None:
            tr.counts["matrixlab.draw_bytes"] += 8 * int(np.prod(size))
        return tr.span("matrixlab.draw", self._gen.standard_normal,
                       (size,) + args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.spans_dropped = 0
        self._stack: list[int] = []       # open span indices (-1 once dropped)
        self._child: list[float] = []     # time covered by each open span's children
        self.site_calls: dict[str, int] = {}
        self._installed: list[tuple] = []
        self._reset_pass()
        self.passes: list[dict] = []

    # -- spans -----------------------------------------------------------

    def _reset_pass(self):
        self.agg: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts = {"operators.gen_apply.calls": 0, "matrixlab.draw_bytes": 0,
                       "matrixlab.expm_batch.matrices": 0, "matrixlab.samples": 0,
                       "cli.report_bytes": 0, "tracepoly.terms_peak": 0,
                       "words.terms_peak": 0}
        # per cache in CACHES: [hits, misses, entries added], over op runs only
        self.cache_use = [[0, 0, 0] for _ in CACHES]
        self.drift = 0.0

    def run_op(self, name, fn, op):
        """``fn(op)`` in a span, counting the use of freesb's caches.

        The caches are process-wide and the checks use them too, so only
        lookups and entries made while an op runs are counted.
        """
        before = [c.cache_info() for c in CACHES]
        try:
            return self.span(name, fn, (op,), {})
        finally:
            if self.active:
                for use, c, b in zip(self.cache_use, CACHES, before):
                    now = c.cache_info()
                    use[0] += now.hits - b.hits
                    use[1] += now.misses - b.misses
                    use[2] += now.currsize - b.currsize

    def span(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.s_start)
        if idx < MAX_SPANS:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.span_names)
                self.span_names.append(name)
            self.s_name.append(nid)
            self.s_parent.append(self._stack[-1] if self._stack else -1)
            self.s_op.append(self.op_id)
            self.s_end.append(float("nan"))
        else:
            idx = -1
            self.spans_dropped += 1
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        if idx >= 0:
            self.s_start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            dur = t1 - t0
            if self._child:
                self._child[-1] += dur
            if idx >= 0:
                self.s_end[idx] = t1
            rec = self.agg.get(name)
            if rec is None:
                rec = self.agg[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, name, fn, label):
        tr = self
        calls = self.site_calls
        calls.setdefault(label, 0)

        def count(label=label):
            if tr.active:
                calls[label] += 1

        if name in ("tracepoly.mul", "tracepoly.add", "words.mul", "words.add"):
            peak = "tracepoly.terms_peak" if name.startswith("tracepoly") else "words.terms_peak"

            def wrapped(*args, **kwargs):
                count()
                out = tr.span(name, fn, args, kwargs)
                if tr.active and len(out.terms) > tr.counts[peak]:
                    tr.counts[peak] = len(out.terms)
                return out
        elif name == "operators.exp_series":
            def wrapped(apply_fn, *args, **kwargs):
                count()

                def counted(q):
                    if tr.active:
                        tr.counts["operators.gen_apply.calls"] += 1
                    return apply_fn(q)
                return tr.span(name, fn, (counted,) + args, kwargs)
        elif name == "words.apply_tilde":
            def wrapped(gen, *args, **kwargs):
                count()
                return tr.span(f"words.apply_{gen}", fn, (gen,) + args, kwargs)
        elif name == "matrixlab.expm_batch":
            def wrapped(Ms, *args, **kwargs):
                count()
                if tr.active:
                    tr.counts["matrixlab.expm_batch.matrices"] += int(np.shape(Ms)[0])
                return tr.span(name, fn, (Ms,) + args, kwargs)
        elif name == "matrixlab.stream":
            def wrapped(*args, **kwargs):
                count()
                return _Draws(tr, fn(*args, **kwargs))
        elif name == "matrixlab.sample_batch":
            def wrapped(cfg, indices, *args, **kwargs):
                count()
                U = tr.span(name, fn, (cfg, indices) + args, kwargs)
                if tr.active:
                    tr.counts["matrixlab.samples"] += len(indices)
                    if cfg.t == 0.0:
                        gram = np.conj(np.swapaxes(U, -1, -2)) @ U - np.eye(U.shape[-1])
                        drift = float(np.linalg.norm(gram, 2, axis=(-2, -1)).max())
                        tr.drift = max(tr.drift, drift)
                return U
        elif name == "cli.main":
            def wrapped(*args, **kwargs):
                count()
                out = sys.stdout
                try:
                    pos = out.tell()
                except (AttributeError, OSError, ValueError):
                    pos = None
                code = tr.span(name, fn, args, kwargs)
                if tr.active and pos is not None:
                    tr.counts["cli.report_bytes"] += out.tell() - pos
                return code
        else:
            def wrapped(*args, **kwargs):
                count()
                return tr.span(name, fn, args, kwargs)
        return wrapped

    def install(self):
        """Wrap every lookup site of every target."""
        if self._installed:
            return
        for name, owner, attr in TARGETS:
            fn = vars(owner)[attr]
            for container, key, label in lookup_sites(fn):
                w = self._wrapper(name, fn, label)
                if isinstance(container, dict):
                    container[key] = w
                else:
                    setattr(container, key, w)
                self._installed.append((container, key, fn))

    def uninstall(self):
        for container, key, fn in reversed(self._installed):
            if isinstance(container, dict):
                container[key] = fn
            else:
                setattr(container, key, fn)
        self._installed = []

    # -- passes ----------------------------------------------------------

    def begin_pass(self):
        self._reset_pass()
        self.install()
        self.active = True

    def end_pass(self, wall_s: float):
        self.active = False
        self.uninstall()
        self.passes.append(self._pass_metrics(wall_s))

    def pause(self):
        was, self.active = self.active, False
        return was

    def resume(self, was: bool):
        self.active = was

    def _pass_metrics(self, wall_s: float) -> dict:
        agg, counts = self.agg, self.counts

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        def hit_ratio(uses):
            hits, miss = sum(u[0] for u in uses), sum(u[1] for u in uses)
            return (hits / (hits + miss) if hits + miss else 0.0), hits, miss

        use = self.cache_use
        nu_ratio, nu_hits, nu_miss = hit_ratio(use[:1])
        gen_ratio, gen_hits, gen_miss = hit_ratio(use[len(S_CACHES):])
        n_exp = calls("operators.exp_series")
        sample_s = agg.get("matrixlab.sample_batch", (0, 0.0, 0.0))[1]
        m = {}
        for layer in ("tracepoly.mul", "tracepoly.add", "operators.exp_series",
                      "operators.apply_D", "operators.apply_L", "moments.pi_eval",
                      "words.expectation", "words.apply_Dst", "words.apply_Lst",
                      "words.derive_generators", "words.mul", "words.add",
                      "matrixlab.sample_batch", "matrixlab.expm_batch", "cli.main"):
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.self_s"] = self_s(layer)
        for layer in ("tracepoly.parse", "transform.G", "transform.H",
                      "transform.verify_gen_fn", "words.sesq_B", "matrixlab.draw",
                      "matrixlab.eval", "matrixlab.laplacian_eval"):
            m[f"{layer}.self_s"] = self_s(layer)
        m["transform.biane.calls"] = calls("transform.biane")
        m["tracepoly.terms_peak"] = counts["tracepoly.terms_peak"]
        m["words.terms_peak"] = counts["words.terms_peak"]
        m["operators.gen_apply.calls"] = counts["operators.gen_apply.calls"]
        m["operators.terms_per_exp"] = counts["operators.gen_apply.calls"] / n_exp if n_exp else 0.0
        m["moments.nu_cache_hit_ratio"] = nu_ratio
        m["moments.cache_entries"] = sum(u[2] for u in use[:len(S_CACHES)])
        m["words.gen_cache_hit_ratio"] = gen_ratio
        m["matrixlab.expm_batch.matrices"] = counts["matrixlab.expm_batch.matrices"]
        m["matrixlab.draw_bytes"] = counts["matrixlab.draw_bytes"]
        m["matrixlab.samples_per_s"] = counts["matrixlab.samples"] / sample_s if sample_s else 0.0
        m["matrixlab.unitarity_drift"] = self.drift
        m["cli.report_bytes"] = counts["cli.report_bytes"]
        bases = {
            "operators.terms_per_exp": {"gen_apply": counts["operators.gen_apply.calls"],
                                        "exp_series": n_exp},
            "moments.nu_cache_hit_ratio": {"hits": nu_hits, "misses": nu_miss},
            "moments.cache_entries": "entries the pass's op runs added to the s-keyed caches",
            "words.gen_cache_hit_ratio": {"hits": gen_hits, "misses": gen_miss},
            "matrixlab.samples_per_s": {"samples": counts["matrixlab.samples"],
                                        "sample_batch_s": sample_s},
            "matrixlab.draw_bytes": "computed from draw shapes (float64)",
        }
        return {"wall_s": wall_s, "metrics": {k: m[k] for k in LAYER_METRICS if k in m},
                "bases": bases}

    def layer_metrics(self, untraced_walls: list[float]) -> dict:
        """Median over traced passes of each per-layer metric."""
        out = {k: statistics.median(p["metrics"][k] for p in self.passes)
               for k in self.passes[0]["metrics"]}
        traced = statistics.median(p["wall_s"] for p in self.passes)
        out["trace.overhead_s"] = traced - statistics.median(untraced_walls)
        return out

    def write_spans(self, path: str) -> None:
        np.savez(path, names=np.array(self.span_names),
                 name=np.frombuffer(self.s_name, dtype=np.int32),
                 start=np.frombuffer(self.s_start, dtype=np.float64),
                 end=np.frombuffer(self.s_end, dtype=np.float64),
                 parent=np.frombuffer(self.s_parent, dtype=np.int32),
                 op=np.frombuffer(self.s_op, dtype=np.int32))
