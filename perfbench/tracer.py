"""Spans and counts around needlecomp's public functions, installed from outside.

`from .numerics import integrate` binds the same function object under
`needlecomp.numerics.integrate`, `needlecomp.geometry.integrate`,
`needlecomp.hk.integrate` and so on, and each module looks the name up in its
own globals.  `Tracer.install` therefore replaces every binding of the original
object in every loaded needlecomp module, and then checks that none is left.

A span records (id, parent id, name, operation, start, end); the operation is
the benchmark operation the span ran under.  A layer's self time is its span
durations minus the durations of its direct child spans.  Count-only layers
(cheap functions called many thousands of times) get no span: their time
stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layers that get spans (module, attribute).  DensityProfile is a class: its
# __init__ is wrapped, which covers every construction however it is named.
SPAN_LAYERS = (
    ("cli", "parse_config"), ("cli", "run"), ("cli", "emit"),
    ("geometry", "decompose"), ("geometry", "tube_volume"),
    ("geometry", "minkowski_content_from_dec"),
    ("hk", "hk_outer"), ("hk", "hk_full"), ("hk", "levy_gromov_check"),
    ("hk", "equality_detect"), ("hk", "closed_form_bounds"),
    ("model1d", "model_profile"), ("model1d", "model_density_normalizer"),
    ("needle", "check_cd_density"), ("needle", "sturm_bound_check"),
    ("needle", "density_ratio_check"), ("numerics", "integrate"),
)
CLASS_LAYERS = (("needle", "DensityProfile"),)
COUNT_LAYERS = (
    ("model1d", "jacobian"), ("model1d", "sigma_kappa"),
    ("needle", "one_sided_log_derivative"), ("numerics", "bisect_increasing"),
    ("numerics", "one_sided_derivative"),
)
# Layers whose first argument is a callable whose evaluations are counted.
EVAL_COUNTERS = {"numerics.integrate": "numerics.integrand_evals",
                 "numerics.bisect_increasing": "numerics.bisect_evals"}

FAMILY, NEEDLE = "family_sweep", "needle_grid"
# Per-layer metric -> workloads it is measured on (and should be above 0 on).
METRICS = {
    "cli.parse_config.calls": (FAMILY,), "cli.parse_config.self_ms": (FAMILY,),
    "cli.run.self_ms": (FAMILY,), "cli.emit.calls": (FAMILY,), "cli.emit.self_ms": (FAMILY,),
    "geometry.decompose.calls": (FAMILY, NEEDLE), "geometry.decompose.self_ms": (FAMILY, NEEDLE),
    "needle.DensityProfile.calls": (FAMILY, NEEDLE),
    "needle.DensityProfile.self_ms": (FAMILY, NEEDLE),
    "geometry.tube_volume.calls": (FAMILY,), "geometry.tube_volume.self_ms": (FAMILY,),
    "geometry.minkowski_content_from_dec.self_ms": (FAMILY,),
    **{f"hk.{name}.{what}": (FAMILY,)
       for name in ("hk_outer", "hk_full", "levy_gromov_check", "equality_detect",
                    "closed_form_bounds")
       for what in ("calls", "self_ms")},
    "hk.closed_form_bounds.raised": (FAMILY,),
    "model1d.model_profile.calls": (FAMILY,), "model1d.model_profile.self_ms": (FAMILY,),
    "model1d.model_density_normalizer.calls": (FAMILY,),
    "model1d.model_density_normalizer.self_ms": (FAMILY,),
    "model1d.jacobian.calls": (FAMILY,),
    "model1d.sigma_kappa.calls": (NEEDLE,),
    "needle.check_cd_density.calls": (NEEDLE,), "needle.check_cd_density.self_ms": (NEEDLE,),
    "needle.sturm_bound_check.calls": (NEEDLE,), "needle.sturm_bound_check.self_ms": (NEEDLE,),
    "needle.density_ratio_check.calls": (NEEDLE,),
    "needle.density_ratio_check.self_ms": (NEEDLE,),
    "needle.one_sided_log_derivative.calls": (NEEDLE,),
    "numerics.integrate.calls": (FAMILY,), "numerics.integrate.self_ms": (FAMILY,),
    "numerics.integrand_evals": (FAMILY,), "numerics.bisect_increasing.calls": (FAMILY,),
    "numerics.bisect_evals": (FAMILY,), "numerics.one_sided_derivative.calls": (FAMILY,),
}
# Every needlecomp density carries a closed-form derivative, so no input a
# configuration can express reaches the finite-difference path; this count
# reads 0 today and is kept so that a change routing derivatives through it
# shows.
MAY_READ_ZERO = {"numerics.one_sided_derivative.calls"}


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "needlecomp" or name.startswith("needlecomp."))]


class Tracer:
    def __init__(self):
        self.reset()
        self.absent: list[str] = []

    def reset(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 1
        self.op = ""

    # -- wrappers
    def _span(self, layer: str, fn):
        evals = EVAL_COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if evals is not None:
                args = (self._counting(evals, args[0]),) + args[1:]
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            self.counts[layer + ".calls"] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[layer + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, layer, self.op, start, end))
        return wrapper

    def _count(self, layer: str, fn):
        evals = EVAL_COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            if evals is not None:
                args = (self._counting(evals, args[0]),) + args[1:]
            return fn(*args, **kwargs)
        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    # -- installation
    def install(self) -> int:
        """Wrap every layer at every binding; return the number of bindings."""
        modules = _package_modules()
        by_name = {module.__name__: module for module in modules}
        originals = []
        replaced = 0
        for layers, make in ((SPAN_LAYERS, self._span), (COUNT_LAYERS, self._count)):
            for mod_name, attr in layers:
                layer = f"{mod_name}.{attr}"
                original = getattr(by_name.get(f"needlecomp.{mod_name}"), attr, None)
                if original is None:
                    self.absent.append(layer)
                    continue
                wrapper = make(layer, original)
                originals.append(original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            replaced += 1
        for mod_name, cls_name in CLASS_LAYERS:
            cls = getattr(by_name.get(f"needlecomp.{mod_name}"), cls_name, None)
            if cls is None:
                self.absent.append(f"{mod_name}.{cls_name}")
                continue
            cls.__init__ = self._span(f"{mod_name}.{cls_name}", cls.__init__)
            replaced += 1
        for module in modules:
            for key, value in vars(module).items():
                if any(value is original for original in originals):
                    raise RuntimeError(f"{module.__name__}.{key} still holds an unwrapped layer")
        return replaced

    # -- results
    def self_times_ms(self) -> Counter:
        child = Counter()
        for sid, parent, layer, op, start, end in self.spans:
            child[parent] += end - start
        out = Counter()
        for sid, parent, layer, op, start, end in self.spans:
            out[layer] += 1e3 * (end - start - child[sid])
        return out

    def metrics(self) -> dict[str, float]:
        """Every metric of METRICS as measured in this segment."""
        self_ms = self.self_times_ms()
        out = {}
        for metric in METRICS:
            if metric.endswith(".self_ms"):
                out[metric] = self_ms[metric[:-len(".self_ms")]]
            else:
                out[metric] = self.counts[metric]
        return out
