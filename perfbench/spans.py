"""Layer spans recorded from outside the program.

Tracer wraps the library's public functions at every name their callers
look them up by (each `zenojc.*` module global bound to the function, or the
class attribute for a method) and records one span per call:
(name, start, end, parent, command id). Spans stay in memory; the benchmark
folds each command's spans into per-layer totals once the command ends.

Span times are process CPU time (`time.process_time`), the clock the
end-to-end command times use. A layer's self time is its span's duration
minus the part of that interval its child spans cover. A target that no
longer exists is skipped, and the metrics built on it are reported absent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict


class Recorder:
    """In-memory span log plus counters attributed to the current command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.command = -1
        self.counts: Counter = Counter()
        self.build_keys: set = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent, self.command])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    def take(self):
        """Hand over and forget the spans, counts and build keys gathered so far."""
        out = (self.spans, self.counts, self.build_keys)
        self.spans, self.counts, self.build_keys = [], Counter(), set()
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals, clipped to it."""
    children = defaultdict(list)
    for name, start, end, parent, _cmd in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _cmd) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[i] if min(e, end) > max(s, start)]
        out.append((end - start) - _covered(clipped))
    return out


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time (outermost spans of that name) and self time."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for i, (name, start, end, parent, _cmd) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["total"] += end - start
    return dict(totals)


# --- hooks: counters read from a wrapped call's arguments and result


def _steps(route):
    def hook(rec, args, kwargs, result):
        n = len(result.steps)
        rec.counts["engine.steps"] += n
        rec.counts[f"engine.{route}_steps"] += n

    return hook


def _density_bytes(rec, args, kwargs, result):
    rec.counts["hilbert.density_bytes"] += args[0].matrix.nbytes


def _build_key(rec, args, kwargs, result):
    params, b = (list(args) + list(kwargs.values()))[:2]
    rec.build_keys.add((repr(params), b.dim, hashlib.sha1(b.amplitudes.tobytes()).hexdigest()))


def _check_results(rec, args, kwargs, result):
    rec.counts["checks.count"] += len(result)
    rec.counts["checks.failed"] += sum(1 for r in result if not r.passed)


# span name -> (dotted targets, hook)
LAYERS = {
    "cli.parse": (("zenojc.cli.parse_config",), None),
    "cli.write": (("zenojc.cli.run_experiment",), None),
    "checks.run": (("zenojc.checks.run_all_checks",), _check_results),
    "states.realize": (("zenojc.states.realize_field_state", "zenojc.states.realize_atomic_state"), None),
    "models.build": (("zenojc.models.build_hamiltonians",), _build_key),
    "models.average": (("zenojc.models.effective_hamiltonian",), None),
    "hilbert.density": (("zenojc.hilbert.DensityMatrix.__post_init__",), _density_bytes),
    "hilbert.propagator": (("zenojc.hilbert.unitary_from_hamiltonian",), None),
    "hilbert.partial_trace": (("zenojc.hilbert.partial_trace_field",), None),
    "engine.step_exact": (("zenojc.engine.step_exact",), None),
    "engine.exact": (("zenojc.engine.run_zeno_exact",), _steps("exact")),
    "engine.superoperator": (("zenojc.engine.run_superoperator",), _steps("superoperator")),
    "engine.effective": (("zenojc.engine.run_effective",), _steps("effective")),
    "analysis.purity": (("zenojc.analysis.purity",), None),
    "analysis.trace_distance": (("zenojc.analysis.trace_distance",), None),
    "analysis.fit": (("zenojc.analysis.fit_convergence_order",), None),
    "analysis.entropy": (("zenojc.analysis.entanglement_entropy",), None),
}


def _wrap(fn, name: str, rec: Recorder, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def _resolve(dotted: str):
    """(owner, attribute, object) for a dotted name, or None when it no longer exists."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        if owner is not None and hasattr(owner, parts[-1]):
            return owner, parts[-1], getattr(owner, parts[-1])
        return None
    return None


class Tracer:
    """Installs and removes the span wrappers; `present` names the layers found."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def install(self):
        for name, (targets, hook) in LAYERS.items():
            for dotted in targets:
                found = _resolve(dotted)
                if found is None:
                    continue
                owner, attr, fn = found
                wrapper = _wrap(fn, name, self.recorder, hook)
                if isinstance(owner, type):
                    sites = [owner]
                else:
                    # every module-level name the callers look the function up by
                    sites = [
                        m for key, m in list(sys.modules.items())
                        if (key == "zenojc" or key.startswith("zenojc.")) and m.__dict__.get(attr) is fn
                    ]
                for site in sites:
                    self._patches.append((site, attr, fn))
                    setattr(site, attr, wrapper)
                self.present.add(name)

    def remove(self):
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches.clear()
