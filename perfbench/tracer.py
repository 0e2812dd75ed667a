"""Outside-in span tracer for klconc.

The tracer never edits the package. It replaces a name in the namespace of
the module that imported it (``klconc.harness.derive_trial_rng``, not
``klconc.sampling.derive_trial_rng``) with a wrapper that records one span
per call, so only calls that cross from one module into the next are
timed. A name that no longer exists is recorded as absent instead of
raising, so a later restructuring of the package's internals does not
break the benchmark; its layer then reports zero calls.

Spans are kept in memory, one list per thread (registered under a lock the
first time a thread records a span), and merged when the run ends. A
span's parent is the innermost open span of the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

# Layers whose work is one call per trial inside the trial loop.
PER_TRIAL_LAYERS = (
    "sampling.derive_trial_rng",
    "sampling.multinomial_counts",
    "distributions.add_t_estimate",
    "losses.kl_divergence",
)


def _len_arg(index):
    return lambda args, kwargs: len(args[index])


def _trial_symbols(args, kwargs):
    # _kl_loss_samples(pmf, n, t, master_seed, reps, threads): reps trials of k symbols.
    return len(args[0]) * int(args[4])


def _draws(args, kwargs):
    # coupled_pairs(rng, n, prob, size)
    return int(kwargs["size"]) if "size" in kwargs else int(args[3])


# (importing module, name, layer, size of one call) -- one entry per wrapped name.
TARGETS = (
    ("klconc.harness", "_kl_loss_samples", "harness.trial_loop", _trial_symbols),
    ("klconc.harness", "_bootstrap_variance_interval", "harness.bootstrap", None),
    ("klconc.harness", "_moments_blockwise", "harness.aggregate", None),
    ("klconc.harness", "_exact_quantiles", "harness.aggregate", None),
    ("klconc.harness", "chi_square_gof", "harness.chi_square_gof", None),
    ("klconc.harness", "coupled_pairs", "sampling.coupled_pairs", _draws),
    ("klconc.harness", "derive_trial_rng", "sampling.derive_trial_rng", None),
    ("klconc.harness", "multinomial_counts", "sampling.multinomial_counts", _len_arg(1)),
    ("klconc.harness", "add_t_estimate", "distributions.add_t_estimate", _len_arg(0)),
    ("klconc.harness", "kl_divergence", "losses.kl_divergence", _len_arg(0)),
)

# Every function that one module imports from another is wrapped as that
# source module's layer, whatever its name: (importing module, source module, layer).
IMPORTED_FROM = (
    ("klconc.cli", "klconc.harness", "harness.api"),
    ("klconc.cli", "klconc.bounds", "bounds"),
    ("klconc.harness", "klconc.bounds", "bounds"),
)


class Tracer:
    """Records spans of wrapped calls; thread-safe, in memory until ``dump``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[list[list]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def wrap(self, layer: str, fn, size=None):
        """``fn`` with every call recorded as a span of ``layer``.

        A span is ``[layer, parent index, start ns, end ns, size]``; ``size``
        is the call's amount of work as ``size(args, kwargs)`` returns it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = 0
            if size is not None:
                try:
                    amount = size(args, kwargs)
                except (IndexError, KeyError, TypeError, ValueError):
                    amount = 0
            spans, stack = self._thread_state()
            span = [layer, stack[-1] if stack else -1, 0, 0, amount]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()

        return traced

    def patch(self, module_name: str, name: str, layer: str, size=None) -> None:
        """Replace ``module_name.name`` by a traced wrapper, or record it absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{name}")
            return
        original = getattr(module, name, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{name}")
            return
        setattr(module, name, self.wrap(layer, original, size))
        self._patched.append((module, name, original))

    def install(self) -> None:
        """Wrap every name in ``TARGETS`` and ``IMPORTED_FROM``."""
        for module_name, name, layer, size in TARGETS:
            self.patch(module_name, name, layer, size)
        for importer, source, layer in IMPORTED_FROM:
            try:
                module = importlib.import_module(importer)
            except ImportError:
                self.absent.append(f"{importer} ({layer})")
                continue
            for name, value in sorted(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == source:
                    self.patch(importer, name, layer)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def threads(self) -> list[list[list]]:
        with self._lock:
            return list(self._threads)

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, self and total seconds, and summed size. Self
        time is a span's duration minus the durations of its direct children
        in the same thread."""
        out: dict[str, dict] = {}
        for spans in self.threads():
            child_ns = [0] * len(spans)
            for layer, parent, start, end, _ in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for (layer, _, start, end, amount), inner in zip(spans, child_ns):
                row = out.setdefault(
                    layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0}
                )
                row["calls"] += 1
                row["self_s"] += (end - start - inner) / 1e9
                row["total_s"] += (end - start) / 1e9
                row["size"] += amount
        return out

    def dump(self, path) -> None:
        """Write every span, grouped by thread, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "threads": self.threads()}, fh)
