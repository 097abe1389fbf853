"""In-memory span tracing by rebinding public oamturb functions.

A span is [name, start, end, parent index].  Wrapping replaces the name a
calling module uses (``oamturb.sweepfit.channel_ab`` and so on), so calls
made inside the package are seen as well as the benchmark's own.
"""

import importlib
import json
import statistics
import time

_ALL = ("oamturb", "oamturb.sweepfit", "oamturb.cli")
_TOP = ("oamturb", "oamturb.cli")
# (layer, attribute, modules whose binding of that attribute is replaced)
SITES = (
    ("turbulence.channel_ab", "channel_ab", _ALL),
    ("qstate.werner_like", "werner_like", _ALL),
    ("qstate.apply_channel", "apply_channel", _ALL),
    ("measures.measure_triple", "measure_triple", _ALL),
    ("measures.concurrence_analytic", "concurrence_analytic", ("oamturb", "oamturb.sweepfit")),
    ("sweepfit.sweep", "sweep", _TOP),
    ("sweepfit.find_esd", "find_esd", _TOP),
    ("sweepfit.detect_sudden_change", "detect_sudden_change", _TOP),
    ("sweepfit.fit", "fit_poly_form", _TOP),
    ("sweepfit.fit", "fit_exp_form", _TOP),
    ("cli.main", "main", ("oamturb.cli",)),
)


class Tracer:
    """Records spans while installed; uninstall restores the original names."""

    def __init__(self):
        self.spans = []
        self.raised = {}
        self.missing = []
        self._stack = []
        self._patches = []  # (module, attribute, original, wrapped)
        for layer, attr, modules in SITES:
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                else:
                    self._patches.append((module, attr, original, self._wrap(layer, original)))
        installed = {wrapped.layer for *_, wrapped in self._patches}
        self.missing_layers = {layer for layer, *_ in SITES} - installed

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def step(self, name, fn, *args, **kwargs):
        """Run fn inside a root span named after the benchmark step."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            finally:
                self._close()
        traced.layer = name
        return traced

    def install(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def aggregate(spans):
    """Per-name calls, total time, self time and durations; self time is the
    span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["durations"].append(end - start)
    return stats


def calls_under(spans, ancestor, name):
    """Number of `name` spans that have an `ancestor` span above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def percentile(values, pct):
    """Inclusive percentile (0 < pct < 100) of the values; 0 for none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
