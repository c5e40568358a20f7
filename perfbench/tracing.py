"""Span tracing of the twinfo layers from outside the library.

``Tracer.install`` replaces every public function of every ``twinfo``
module with a timing wrapper, in each module namespace that holds it by
name (the defining module, the package, and every module that imported it
with ``from .x import f``).  Calls between library functions therefore go
through the wrappers too, and spans nest: a span's self time is its
duration minus the durations of the spans it directly encloses.  The layer
of a function is the module that defines it (``kernels``, ``optimize``, ...).

``import_times`` reads ``python -X importtime`` output for the import cost
of twinfo, numpy and scipy.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import subprocess
import sys
import types
from time import perf_counter

LAYERS = ("kernels", "optimize", "measurement", "twins", "linalg", "states", "entropy",
          "sampling", "io", "cli")
SUPREMA = ("optimize.sup_information_gain", "optimize.sup_joint_mutual_information")
GRID = "optimize.grid_information_gain_qubit"
OBJECTIVES = ("kernels.info_gain_side1", "kernels.joint_mutual_info")
# Spans that count the calls and time of every span nested inside them.
MARKERS = (*SUPREMA, GRID)


class Tracer:
    """Per-function call counts, inclusive time and self time."""

    def __init__(self):
        self.stats = {}  # "layer.function" -> [calls, inclusive_s, self_s]
        self.within = {}  # ("layer.function", marker) -> [calls, inclusive_s]
        self.restarts = 0
        self.bytes_out = 0
        self._child_time = []  # one accumulator per open span
        self._markers = []  # open marker spans, innermost last
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        wrappers = {}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "twinfo" or modname.startswith("twinfo.")):
                continue
            for attr, obj in list(vars(module).items()):
                if not _is_public_function(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                setattr(module, attr, wrappers[id(obj)])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn):
        key = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        child_time = self._child_time
        markers = self._markers
        is_marker = key in MARKERS
        signature = inspect.signature(fn) if key in SUPREMA else None
        counts_bytes = key == "io.format_json"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            if is_marker:
                markers.append(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if is_marker:
                    markers.pop()
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                for marker in markers:  # a marker span never encloses itself
                    cell = self.within.setdefault((key, marker), [0, 0.0])
                    cell[0] += 1
                    cell[1] += dt
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.restarts += bound.arguments["cfg"].restarts
            if counts_bytes:
                self.bytes_out += len(result.encode("utf-8"))
            return result

        return wrapper

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def _inclusive(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def us_per_call(self, key: str) -> float:
        n = self.calls(key)
        return 1e6 * self._inclusive(key) / n if n else 0.0

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for k, s in self.stats.items() if k.split(".")[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.split(".")[0] == layer)

    def _within(self, keys, markers) -> tuple:
        cells = [self.within.get((k, m), [0, 0.0]) for k in keys for m in markers]
        return sum(c[0] for c in cells), sum(c[1] for c in cells)

    def metrics(self) -> dict:
        """The per-layer metrics, as ``name -> (value, unit)``.

        A ratio whose base is zero (the layer did no such work on this
        workload) is reported as 0.
        """
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")
        out["kernels.calls"] = (self.layer_calls("kernels"), "count")
        out["measurement.calls"] = (self.layer_calls("measurement"), "count")
        for key in ("kernels.info_gain_side1", "kernels.joint_mutual_info", "kernels.vn_entropy",
                    "kernels.unitary_from_params", "measurement.luders_apply_subsystem",
                    "measurement.joint_distribution", "measurement.distant_decomposition",
                    "twins.verify_twins", "linalg.hermitian_eig", "states.validate_density",
                    "entropy.relative_entropy", "io.load_state_file", "io.format_json"):
            out[f"{key}.us_per_call"] = (self.us_per_call(key), "us")
        for key in ("linalg.partial_trace", "linalg.tensor_product", "states.make_bipartite"):
            out[f"{key}.calls"] = (self.calls(key), "count")

        verifies = self.calls("twins.verify_twins")
        for key in ("twins.detectable_spectrum", "twins.pair_spectra"):
            value = self.calls(key) / verifies if verifies else 0.0
            out[f"{key}.calls_per_verify"] = (value, "count")

        sups = sum(self.calls(k) for k in SUPREMA)
        evaluations, _ = self._within(OBJECTIVES, SUPREMA)
        _, grid_in_sup_s = self._within((GRID,), SUPREMA)
        sup_s = sum(self._inclusive(k) for k in SUPREMA)
        out["optimize.evaluations_per_sup"] = (evaluations / sups if sups else 0.0, "count")
        out["optimize.s_per_restart"] = (
            (sup_s - grid_in_sup_s) / self.restarts if self.restarts else 0.0, "s")
        grids = self.calls(GRID)
        grid_evaluations, _ = self._within(OBJECTIVES, (GRID,))
        out["optimize.grid.s_per_call"] = (self._inclusive(GRID) / grids if grids else 0.0, "s")
        out["optimize.grid.evaluations_per_call"] = (
            grid_evaluations / grids if grids else 0.0, "count")
        out["io.bytes_out"] = (self.bytes_out, "B")
        return out


def _is_public_function(obj) -> bool:
    if not isinstance(obj, types.FunctionType):
        return False
    module = getattr(obj, "__module__", "") or ""
    name = obj.__name__
    return module.startswith("twinfo.") and name.isidentifier() and not name.startswith("_")


def _parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of twinfo, and of the numpy and scipy imports it makes."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        name = name_field.rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"twinfo": 0.0, "numpy": 0.0, "scipy": 0.0}
    ancestors = []
    # importtime prints children before their parent; reversed, parents come first.
    for depth, name, seconds in reversed(rows):
        del ancestors[depth:]
        root = name.split(".")[0]
        # A numpy module that scipy imports counts toward scipy only.
        outer = {a.split(".")[0] for a in ancestors}
        if root in totals and not outer & {root, "numpy", "scipy"}:
            totals[root] += seconds
        ancestors.append(name)
    return totals


def import_times(env: dict, repeats: int) -> dict:
    """Median over ``repeats`` fresh interpreters of the import cost, in seconds."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twinfo"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(_parse_importtime(proc.stderr))
    return {f"import.{k}_s": statistics.median(s[k] for s in samples) for k in samples[0]}
