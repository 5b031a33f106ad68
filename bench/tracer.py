"""In-memory span tracer that wraps the package's functions from outside.

The package imports its collaborators with ``from .x import f``, so each
caller module holds its own reference to ``f``. A span is therefore
recorded by replacing the name in the module that *calls* it, not in the
module that defines it. A target the program no longer has is skipped, so
its metrics read zero calls instead of failing.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists.
Calls nest on one thread, so the time a span's children cover is the sum
of their durations, and a span's self time is its duration minus that sum.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager


def _predict_noise_name(args, kwargs) -> str:
    cond = kwargs["cond"] if "cond" in kwargs else (args[1] if len(args) > 1 else None)
    return "classmodels.predict_noise." + ("mixture" if cond is None else "cond")


def _policy_attrs(args, kwargs, result) -> dict:
    # apply_policy hands back the input batch unchanged when its gate does not fire
    batch = args[0] if args else kwargs.get("batch")
    return {"fired": result is not batch}


def _train_attrs(args, kwargs, result) -> dict:
    _, history = result
    accs = [h.val_accuracy for h in history]
    best = max(range(len(accs)), key=lambda i: (accs[i], -i)) if accs else -1
    return {"epochs": len(history), "best_epoch": best}


def _write_attrs(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def targets(pkg) -> list[tuple[object, str, object]]:
    """(caller module, attribute, span name or name function) to wrap.

    Names follow the layer that does the work, whichever module calls it.
    """
    samplers, harness = pkg["samplers"], pkg["harness"]
    out = [(samplers, "predict_noise", _predict_noise_name)]
    out += [(samplers, a, f"samplers.{a}") for a in sorted(vars(samplers)) if a.startswith("step_")]
    for module in (samplers, pkg["augment"]):
        out += [(module, "sample_mask", "mixing.sample_mask"), (module, "sample_lambda", "mixing.sample_lambda")]
    out += [
        (harness, "generate_single", "samplers.generate"),
        (harness, "generate_noisecutmix", "samplers.generate"),
        (harness, "train", "classifier.train"),
        (harness, "evaluate", "classifier.evaluate"),
        (harness, "run_method", "harness.run_method"),
        (pkg["classifier"], "apply_policy", "augment.apply_policy"),
        (pkg["classifier"], "evaluate", "classifier.evaluate"),
    ]
    out += [(harness, a, "recordio.write") for a in sorted(vars(harness)) if a.startswith("write_")]
    return out


_ATTRS = {
    "augment.apply_policy": _policy_attrs,
    "classifier.train": _train_attrs,
    "recordio.write": _write_attrs,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        name_fn = name if callable(name) else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_fn(args, kwargs) if name_fn else name
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            attrs = _ATTRS.get(span_name)
            if attrs is not None:
                try:
                    tracer.spans[idx][4] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    pass  # a changed signature or result leaves the attribute unrecorded
            return result

        return wrapper

    def install(self, wrap_targets) -> None:
        for module, attr, name in wrap_targets:
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the attrs lists."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": []})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
            if attrs is not None:
                s["attrs"].append(attrs)
        return out
