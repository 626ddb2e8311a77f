"""Spans around the package's public functions, recorded from outside it.

A wrapper is installed wherever a caller bound the function: in every
loaded `heatforms` module whose namespace holds the function object (for
example `heatforms.normsearch.apply_beurling_ahlfors` and
`heatforms.cli.read_ffld`), and on the class for methods. Nothing under
src/ changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from math import prod
from time import perf_counter


def _points(field) -> int:
    return prod(field.dims) * len(field.components)


# Work counters read from a call's arguments and result, summed per function.
PROBES = {
    "fields.random_band_limited": lambda a, kw, r: {"points": _points(r)},
    "fields.read_ffld": lambda a, kw, r: {"bytes": 8 * _points(r)},
    "fields.write_ffld": lambda a, kw, r: {"bytes": 8 * _points(a[0])},
    "fourier.apply_beurling_ahlfors": lambda a, kw, r: {"points": _points(r)},
    "normsearch.norm_search": lambda a, kw, r: {
        "degenerate": r.degenerate,
        "evaluations": r.evaluations,
    },
    "multipliers.laplace_symbol_eval_many": lambda a, kw, r: {"max_err": float(r[1].max())},
    "stochastic.simulate_paths": lambda a, kw, r: {
        "bytes": r.increments.nbytes + r.starts.nbytes
    },
}
# Functions too small and too frequent for a span: calls are only counted.
COUNTED = ("exterior.substitute_with_sign",)
MAX_COUNTERS = ("max_err",)


def _resolve(name):
    """(owner, attribute, original) for a dotted name below heatforms."""
    module, *path = name.split(".")
    owner = sys.modules[f"heatforms.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


def _binding_sites(owner, attr, original):
    """Every (namespace owner, attribute) through which callers reach original."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "heatforms" or mod_name.startswith("heatforms."):
            sites += [(mod, key) for key, val in vars(mod).items() if val is original]
    return sites


class Tracer:
    """Records spans (name, start, end, parent) and call counters."""

    def __init__(self, functions):
        """Wrap each dotted name below heatforms, e.g. "fields.lp_norm"."""
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.work = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._patches = []  # (owner, attribute, wrapper, original)
        for name in functions:
            owner, attr, original = _resolve(name)
            if name in COUNTED:
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, PROBES.get(name))
            for site_owner, site_attr in _binding_sites(owner, attr, original):
                self._patches.append((site_owner, site_attr, wrapper, original))

    def _span_wrapper(self, name, fn, probe):
        spans, stack, work = self.spans, self._stack, self.work

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if probe is not None:
                acc = work[name]
                for key, value in probe(args, kwargs, result).items():
                    acc[key] = max(acc[key], value) if key in MAX_COUNTERS else acc[key] + value
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, _, original in self._patches:
            setattr(owner, attr, original)

    def top_level_time(self, first_span: int) -> float:
        """Summed duration of the parentless spans recorded since first_span."""
        return sum(e - s for _, s, e, parent in self.spans[first_span:] if parent < 0)

    def layer_stats(self):
        """Per function: calls, busy seconds, self seconds and work counters."""
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, parent in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["busy_s"] += end - start
            st["self_s"] += end - start
            if parent >= 0:
                stats[self.spans[parent][0]]["self_s"] -= end - start
        for name, count in self.counts.items():
            stats[name]["calls"] += count
        for name, counters in self.work.items():
            stats[name].update(counters)
        return stats

    def dump(self, path):
        """Write the spans, one [name, start, end, parent] JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')
