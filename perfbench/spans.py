"""In-memory span tracer that wraps raytail's public functions from outside.

The tracer replaces functions and methods of the raytail modules with thin
wrappers that record one span per call: (name, start, end, parent, error
class). Nothing under ``src/`` is edited; the wrappers are installed on the
imported modules and removed again by ``uninstall``. A wrap target that does
not exist (a function a later version deleted or renamed) is recorded as
absent instead of failing, so the same benchmark code can measure every
version of the package.

Spans stay in memory until the run exports them at its end; ``summarize``
derives calls, inclusive and self time, errors and computed byte counts
from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

RAYTAIL_MODULES = ("copulas", "margins", "estimators", "_kernels", "bench", "cli")


def import_raytail_modules():
    """``{short name: module}`` for the raytail modules that exist."""
    modules = {}
    for key in RAYTAIL_MODULES:
        try:
            modules[key] = importlib.import_module("raytail." + key)
        except ModuleNotFoundError:
            pass
    return modules


def _bytes_in_out(nargs):
    """Computed traffic of a kernel: bytes of its first ``nargs`` array
    arguments read plus the bytes of an array result written."""

    def count(args, result):
        total = sum(getattr(a, "nbytes", 0) for a in args[:nargs])
        return total + getattr(result, "nbytes", 0)

    return count


# (span name, module, dotted attribute path, computed-bytes rule). These are
# the names the per-layer metrics refer to; every other public function of
# the six modules is wrapped under its own "module.function" name.
EXPLICIT_TARGETS = (
    ("estimators.minimize", "estimators", "minimize", None),
    ("_kernels.structure_min", "_kernels", "structure_min", _bytes_in_out(2)),
    ("_kernels.excess_stats", "_kernels", "excess_stats", None),
    (
        "_kernels.count_joint_exceedances",
        "_kernels",
        "count_joint_exceedances",
        _bytes_in_out(2),
    ),
    ("_kernels.ht_profile_nll_grad", "_kernels", "ht_profile_nll_grad", None),
    ("_kernels.ht_indicator_fraction", "_kernels", "ht_indicator_fraction", None),
    ("margins.ExponentialSample", "margins", "ExponentialSample.__post_init__", None),
    ("cli.main", "cli", "main", None),
)

# model methods are wrapped on every class that defines them
MODEL_METHODS = ("sample", "survivor")


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        # span: [name_id, start, end, parent_index, error_class_or_None]
        self.spans = []
        self.counters = defaultdict(float)
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, byte_rule):
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, clock(), 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if byte_rule is not None:
                counters[name + ".bytes_computed"] += byte_rule(args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _install_function(self, modules, module_key, attr, name, byte_rule):
        owner = modules.get(module_key)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(original, name, byte_rule)
        # rebind the function wherever a raytail module imported it by name,
        # so calls through "from .copulas import survivor_exp" are seen too
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, wrapper)

    def _install_method(self, cls, attr, name, byte_rule):
        original = cls.__dict__.get(attr)
        if original is None or getattr(original, "__isabstractmethod__", False):
            return False
        self._patch(cls, attr, self._wrap(original, name, byte_rule))
        return True

    def install(self, modules):
        """Wrap the explicit targets and every other public function of the
        given ``{short name: module}`` mapping."""
        explicit = set()
        for name, module_key, path, byte_rule in EXPLICIT_TARGETS:
            explicit.add(name)
            if module_key not in modules:
                self.absent.append(name)
                continue
            if "." in path:
                cls_name, attr = path.split(".", 1)
                cls = getattr(modules[module_key], cls_name, None)
                if cls is None or not self._install_method(cls, attr, name, byte_rule):
                    self.absent.append(name)
            else:
                self._install_function(modules, module_key, path, name, byte_rule)

        copulas = modules.get("copulas")
        for attr in MODEL_METHODS:
            name = f"copulas.{attr}"
            explicit.add(name)
            base = getattr(copulas, "CopulaModel", None)
            classes = [
                c
                for c in (vars(copulas).values() if copulas else ())
                if inspect.isclass(c) and base is not None and issubclass(c, base)
            ]
            found = [self._install_method(c, attr, name, None) for c in classes]
            if not any(found):
                self.absent.append(name)

        for module_key, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                name = f"{module_key}.{attr}"
                if (
                    attr.startswith("_")
                    or name in explicit
                    or not inspect.isfunction(val)
                    or val.__module__ != mod.__name__
                    or hasattr(val, "__perfbench_original__")
                ):
                    continue
                self._install_function(modules, module_key, attr, name, None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived numbers --------------------------------------------------

    def export(self):
        return {
            "names": list(self.names),
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


def summarize(*exports):
    """Merge exported span sets (e.g. from several processes) into per-name
    statistics: {"calls", "total_s", "self_s", "errors": {class: n}}. Self
    time is a span's duration minus the time its direct children cover; an
    error counts once for every wrapped call the exception passed through."""
    stats = {}
    counters = defaultdict(float)
    absent = set()
    for exp in exports:
        names, spans = exp["names"], exp["spans"]
        child_time = [0.0] * len(spans)
        for nid, start, end, parent, _err in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (nid, start, end, _parent, err) in enumerate(spans):
            st = stats.setdefault(
                names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}}
            )
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child_time[i]
            if err is not None:
                st["errors"][err] = st["errors"].get(err, 0) + 1
        for key, val in exp["counters"].items():
            counters[key] += val
        absent.update(exp["absent"])
    return {"layers": stats, "counters": dict(counters), "absent": sorted(absent)}
