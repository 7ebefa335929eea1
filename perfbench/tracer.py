"""Layer spans for the traced benchmark pass, installed from outside the package.

Each target below is a public function or method of one wplus layer module.
``Tracer.install`` replaces it with a wrapper that records a span (name,
start, end, parent span, optional value) and calls through.  A function is
replaced in every ``wplus`` module that binds it, because several modules
import names with ``from ... import`` (``pipeline.extract_Fp``,
``weierstrass.divisor_polynomial``, ``supersingular.j_function``, ...); a
method is replaced on its class.  Spans stay in memory until ``write``.

The self time of a span is its duration minus the time its child spans
cover.  Per-layer metrics are sums of self times by span name, call counts,
and the few values some spans carry (see ``TARGETS``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _second_arg(args, kwargs, result):
    return args[1]


def _bits(args, kwargs, result):
    return result.float_precision_bits


def _hit(args, kwargs, result):
    return int(result is not None)


#: (span name, "module:qualified name", value recorded per call or None)
TARGETS = [
    ("modsym.space", "modsym:ModSymSpace.__init__", None),
    ("modsym.hecke", "modsym:ModSymSpace.hecke_matrix", _second_arg),
    ("modsym.basis_init", "modsym:BasisComputer.__init__", None),
    ("modsym.basis", "modsym:BasisComputer.basis", None),
    ("linalg.mat_mul", "linalg:mat_mul", None),
    ("linalg.rref", "linalg:rref", None),
    ("linalg.solve", "linalg:solve", None),
    ("linalg.nullspace", "linalg:nullspace", None),
    ("linalg.charpoly", "linalg:charpoly", None),
    ("level1.delta", "level1:delta", None),
    ("level1.eisenstein", "level1:eisenstein", None),
    ("level1.j_function", "level1:j_function", None),
    ("level1.context", "level1:Level1Context.__init__", None),
    ("level1.miller_mod", "level1:miller_basis_mod", None),
    ("level1.divisor_poly", "level1:divisor_polynomial", None),
    ("series.q_mul", "series:QExpansion.__mul__", None),
    ("series.q_div", "series:QExpansion.__truediv__", None),
    ("series.fp_mul", "series:FpSeries.__mul__", None),
    ("series.fp_div", "series:FpSeries.__truediv__", None),
    ("weierstrass.extract", "weierstrass:extract_Fp", None),
    ("weierstrass.lift", "weierstrass:lift_to_level1", None),
    ("weierstrass.wronskian", "weierstrass:wronskian", None),
    ("weierstrass.cross_check",
     "weierstrass:cross_check_wronskian_congruence", None),
    ("supersingular.ss_polys", "supersingular:ss_polys", None),
    ("supersingular.ss_oracle", "supersingular:ss_oracle", None),
    ("supersingular.class_poly", "supersingular:class_poly", _bits),
    ("fppoly.factor", "fppoly:FpPoly.factor", None),
    ("fppoly.exact_div", "fppoly:FpPoly.exact_div", None),
    ("fppoly.sqrt", "fppoly:FpPoly.sqrt", None),
    ("cache.get", "cache:DiskCache.get", _hit),
    ("cache.put", "cache:DiskCache.put", None),
    ("pipeline.self", "pipeline:verify_prime", None),
]


class Tracer:
    """Nested spans recorded by wrappers; one thread, one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.spans = []      # [name id, start, end, parent index or -1, value]
        self._open = []
        self._undo = []

    def wrap(self, name, fn, value=None):
        """Wrapper of fn that records one span per call."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    span[4] = value(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target that exists; return the targets that do not."""
        missing = []
        for name, target, value in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(f"wplus.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(target)
                continue
            wrapper = self.wrap(name, original, value)
            owners = [owner] if owner_name else [
                mod for key, mod in list(sys.modules.items())
                if (key == "wplus" or key.startswith("wplus."))
                and getattr(mod, attr, None) is original]
            for each in owners:
                setattr(each, attr, wrapper)
                self._undo.append((each, attr, original))
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self):
        """{span name: {"self_s", "calls", "values"}} over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0, "values": []}
               for name in self.names}
        for (name_id, start, end, _, value), covered in zip(self.spans, child):
            entry = out[self.names[name_id]]
            entry["self_s"] += end - start - covered
            entry["calls"] += 1
            if value is not None:
                entry["values"].append(value)
        return out

    def write(self, path, **meta):
        """Write every span, with the caller's metadata, as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names,
                       "span_fields": ["name", "start", "end", "parent",
                                       "value"],
                       "spans": self.spans}, fh)


def layer_metrics(summary):
    """Per-layer metrics of one traced pass from ``Tracer.summary``; a target
    that was missing reads as never called."""
    empty = {"self_s": 0.0, "calls": 0, "values": []}
    spans = {name: summary.get(name, empty) for name, _, _ in TARGETS}
    out = {}
    for name, entry in spans.items():
        out[f"{name}_s"] = entry["self_s"]
        out[f"{name}_calls"] = entry["calls"]
    out["modsym.hecke_ell_max"] = max(spans["modsym.hecke"]["values"],
                                      default=0)
    out["supersingular.class_poly_bits_max"] = max(
        spans["supersingular.class_poly"]["values"], default=0)
    gets = spans["cache.get"]
    out["cache.hit_ratio"] = (sum(gets["values"]) / gets["calls"]
                              if gets["calls"] else 0.0)
    return out
