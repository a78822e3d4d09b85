"""Span recorder for the traced benchmark run, installed from outside pwdpd.

Each layer function in LAYERS is replaced by a wrapper that records one span
(name, start, end, parent) per call plus the work counts named for it. The
wrapper is bound under every module-level name that held the original, so
calls through ``from .plant import array_forward`` in ``scenarios`` or
``metrics`` are recorded as well as calls through ``plant.array_forward``.
``numpy.fft.fft``/``ifft`` are wrapped to count transforms, and whether the
length is 5-smooth, against every open span. Spans stay in memory until
``layer_stats`` folds them into per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _is_smooth(n: int) -> bool:
    """True when n has no prime factor above 5 (a fast FFT length)."""
    for p in (2, 3, 5):
        while n % p == 0 and n > 1:
            n //= p
    return n == 1


_LEDGER_CACHE: dict = {}


def _ledger_per_sample(spec) -> float:
    """DPD-path FLOPs per sample (bf_gen + filt) of the complexity ledger for spec.

    Both columns are the same for every unpruned configuration, so the
    piecewise self-orthogonalized row stands for all of them (K = 1 gives the
    single-polynomial figures).
    """
    from pwdpd import complexity

    key = (spec.family, spec.max_order, spec.memory_depth, spec.cross_memory_depth,
           spec.orders, spec.memories, spec.n_regions)
    if key not in _LEDGER_CACHE:
        params = complexity.params_from_spec(spec, b_cl=1, i_cl=1, b_ila=1, i_ila=1)
        row = complexity.flops("pwcl_self_orth", params)
        _LEDGER_CACHE[key] = row["bf_gen"] + row["filt"]
    return _LEDGER_CACHE[key]


def _predistort_counts(args, kwargs) -> dict:
    model, a1 = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "a1")
    counts = {"samples": len(a1)}
    if np.any(model.gamma):  # gamma = 0 returns a1 without running the filter
        counts["ledger_samples"] = len(a1)
        counts["ledger_flops"] = _ledger_per_sample(model.spec) * len(a1)
    return counts


# layer function -> counts recorded per call (None: calls only)
LAYERS = {
    "waveform.generate_ofdm": None,
    "waveform.crest_factor_reduce": lambda a, k: {"samples": len(_arg(a, k, 0, "sig"))},
    "basis.base_matrix": lambda a, k: {"rows": int(_arg(a, k, 3, "n"))},
    "basis.gram_matrix": None,
    "basis.apply_gamma": lambda a, k: {"samples": _arg(a, k, 1, "x").size},
    "basis.cross_correlation": lambda a, k: {"samples": _arg(a, k, 1, "x").size},
    "basis.regularized_lstsq": lambda a, k: {"rows": _arg(a, k, 0, "a").shape[0]},
    "plant.array_forward": lambda a, k: {"samples": len(_arg(a, k, 1, "a1"))},
    "plant.observation_receive": None,
    "metrics.beam_pattern": None,
    "metrics.aclr_single_direction": None,
    "metrics.evm": None,
    "dpd.learn": None,
    "dpd.predistort": _predistort_counts,
    "ila.ila_learn": None,
    "partition.fit_amam": None,
    "partition.partition_regions": None,
    "partition.kmeans_partition": None,
    "scenarios.derive_partition": None,
    "scenarios.train_method": None,
    "scenarios.evaluate": None,
    "scenarios.write_manifest": None,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.counts: dict = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter is not None else None
            span = Span(name, self._stack[-1] if self._stack else None)
            if counts:
                span.counts.update(counts)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def wrap_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, n=None, axis=-1, *args, **kwargs):
            length = n if n is not None else np.shape(a)[axis]
            smooth = _is_smooth(int(length))
            for span in self._stack:
                span.counts["fft_calls"] = span.counts.get("fft_calls", 0) + 1
                if not smooth:
                    span.counts["fft_nonsmooth_calls"] = span.counts.get("fft_nonsmooth_calls", 0) + 1
            return fn(a, n, axis, *args, **kwargs)
        return counted

    def install(self) -> list[str]:
        """Wrap every layer function and rebind each module-level name that
        refers to one; returns the rebound names as ``module.attribute``.

        A call path this misses (a function held in a container or a default
        argument) shows as a wrong count in checks.EXPECTED_COUNTS.
        """
        import pwdpd.cli  # noqa: F401  (imports every pwdpd module)

        wrappers = {}
        for name, counter in LAYERS.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"pwdpd.{module}"], attr)
            wrappers[id(original)] = (original, self.wrap(name, original, counter))
        rebound = []
        for mod_name, mod in _pwdpd_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    rebound.append(f"{mod_name}.{attr}")
        np.fft.fft = self.wrap_fft(np.fft.fft)
        np.fft.ifft = self.wrap_fft(np.fft.ifft)
        return sorted(rebound)

    def layer_stats(self) -> dict:
        """Per layer: calls, total_s, self_s and every summed count."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_time[key] = child_time.get(key, 0.0) + (span.end - span.start)
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
        ledger_s = 0.0
        for span in self.spans:
            entry = stats[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(id(span), 0.0)
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
            if span.counts.get("ledger_flops"):
                ledger_s += duration
        stats["dpd.predistort"]["ledger_s"] = ledger_s
        return stats


def _pwdpd_modules():
    return [(name[len("pwdpd."):] if name != "pwdpd" else name, mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pwdpd" or name.startswith("pwdpd."))]
