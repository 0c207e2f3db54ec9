"""Spans around calls into each library layer, recorded from outside.

``from x import f`` copies the binding, so a function is wrapped by
replacing every module global in the package that is the same object;
methods are wrapped on their class.  Each span records its name, start,
end and parent; spans stay in memory until the run ends and are then
reduced to per-layer call counts, self time (span time minus the time
its child spans cover) and the ratios named in ``LAYERS``.
"""

import sys
import time
from array import array

from synchrolab.errors import NotConstructive

# An observer maps a call's (args, result, exception) to (useful, attempts)
# for the layer's ratio, or to (size, 0) for a layer in SIZE.


def _yes(args, result, exc):
    return (result == "yes", 1)


def _defined(args, result, exc):
    return (exc is None, 1)


def _refused(args, result, exc):
    return (isinstance(exc, NotConstructive), 1)


def _periodic_hits(args, result, exc):
    s, n = args[0], args[1]
    return (0 if result is None else len(result.points), len(s.alphabet) ** n)


def _det_states(args, result, exc):
    return (0 if result is None else len(result.states), 0)


def _nonsync_states(args, result, exc):
    return (0 if result is None else len(result.presentation.states), 0)


def _smith_dim(args, result, exc):
    return (args[0].rows, 0)


# (metric prefix, module, attribute path, observer).
LAYERS = (
    ("presentation.step", "synchrolab.presentation", "Presentation.step", None),
    ("presentation.run", "synchrolab.presentation", "Presentation.run", None),
    ("presentation.determinize", "synchrolab.presentation", "determinize", _det_states),
    ("presentation.trim", "synchrolab.presentation", "trim", None),
    ("presentation.minimal_cover", "synchrolab.presentation", "minimal_cover", None),
    ("shift.fischer_cover", "synchrolab.shift", "fischer_cover", None),
    ("points.BiSeq", "synchrolab.points", "BiSeq.__post_init__", None),
    ("points.point_in_shift", "synchrolab.points", "point_in_shift", _yes),
    ("points.bracket", "synchrolab.points", "bracket", _defined),
    ("points.cylinder.contains", "synchrolab.points", "CylinderS.contains", None),
    ("points.cylinder.contains", "synchrolab.points", "CylinderU.contains", None),
    ("points.decide_relation", "synchrolab.points", "decide_relation", None),
    ("sync.rectangle_check", "synchrolab.sync", "rectangle_check", None),
    ("sync.cylinder_representatives", "synchrolab.sync", "cylinder_representatives", None),
    ("sync.classify_point", "synchrolab.sync", "classify_point", None),
    ("sync.nonsync_subshift", "synchrolab.sync", "nonsync_subshift", _nonsync_states),
    ("periodic.enumerate_periodic", "synchrolab.periodic", "enumerate_periodic",
     _periodic_hits),
    ("conjugacy.construct_germ", "synchrolab.conjugacy", "construct_germ", _refused),
    ("conjugacy.verify_germ", "synchrolab.conjugacy", "verify_germ", None),
    ("conjugacy.Germ.apply", "synchrolab.conjugacy", "Germ.apply", None),
    ("factor.preimage_count", "synchrolab.factor", "preimage_count", None),
    ("factor.almost_one_to_one_check", "synchrolab.factor", "almost_one_to_one_check",
     None),
    ("invariants.smith_normal_form", "synchrolab.invariants", "smith_normal_form",
     _smith_dim),
    ("invariants.IntMatrix.mul", "synchrolab.invariants", "IntMatrix.mul", None),
    ("invariants.IntMatrix.determinant", "synchrolab.invariants", "IntMatrix.determinant",
     None),
    ("specfile.load_spec", "synchrolab.specfile", "load_spec", None),
    ("cli.main", "synchrolab.cli", "main", None),
)

# The statistic each observer feeds: a ratio useful / attempts, or a
# size summed over calls.
RATIO = {"points.point_in_shift": "yes_ratio", "points.bracket": "defined_ratio",
         "conjugacy.construct_germ": "refusal_ratio",
         "periodic.enumerate_periodic": "hit_ratio"}
SIZE = {"presentation.determinize": "states", "sync.nonsync_subshift": "states",
        "invariants.smith_normal_form": "dim"}


class Tracer:
    """Installs span-recording wrappers; ``enabled`` gates recording."""

    def __init__(self):
        self.enabled = False
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.useful = {}
        self.attempts = {}
        self.size = {}
        self.restore = []

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name, fn, observe=None):
        """A function recording one span per call of ``fn``."""
        ident = self._id(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(ident)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.stack.append(index)
            tracer.span_end.append(0.0)
            result = exc = None
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                tracer.span_end[index] = clock()
                tracer.stack.pop()
                if observe is not None:
                    useful, attempts = observe(args, result, exc)
                    if name in SIZE:
                        tracer.size[name] = tracer.size.get(name, 0) + useful
                    else:
                        tracer.useful[name] = tracer.useful.get(name, 0) + useful
                        tracer.attempts[name] = tracer.attempts.get(name, 0) + attempts

        return wrapper

    def install(self):
        """Wraps every layer in ``LAYERS`` and every binding of it."""
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "synchrolab" or name.startswith("synchrolab.")]
        for (name, module_name, path, observe) in LAYERS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self.span(name, original, observe))
                self.restore.append((cls, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self.span(name, original, observe)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self.restore.append((m, attr, original))

    def uninstall(self):
        for (owner, attr, original) in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore = []

    def task(self, run):
        """Runs one task under a root span so every span has a request."""
        return self.span("bench.task", run)()

    def layer_totals(self):
        """Per span name: (calls, self seconds)."""
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = {}
        self_s = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i] - child[i])
        return calls, self_s


def per_layer_spec():
    """The per-layer metrics, in ``BENCHMARK.json`` order."""
    out = []
    for name in dict.fromkeys(layer for (layer, _, _, _) in LAYERS):
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in RATIO:
            better = "lower" if name == "conjugacy.construct_germ" else "higher"
            out.append((f"{name}.{RATIO[name]}", "ratio", better))
        if name in SIZE:
            out.append((f"{name}.{SIZE[name]}", "count", "lower"))
    out.append(("shift.fischer_cover.hits", "count", "higher"))
    out.append(("shift.fischer_cover.misses", "count", "lower"))
    out.append(("shift.fischer_cover.hit_ratio", "ratio", "higher"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


def per_layer_values(tracer, cache_hits, cache_misses, overhead):
    calls, self_s = tracer.layer_totals()
    values = {}
    for (metric, _, _) in per_layer_spec():
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls.get(layer, 0)
        elif stat == "self_s":
            values[metric] = self_s.get(layer, 0.0)
        elif layer in RATIO:
            attempts = tracer.attempts.get(layer, 0)
            values[metric] = tracer.useful.get(layer, 0) / attempts if attempts else 0.0
        elif layer in SIZE:
            values[metric] = tracer.size.get(layer, 0)
    lookups = cache_hits + cache_misses
    values["shift.fischer_cover.hits"] = cache_hits
    values["shift.fischer_cover.misses"] = cache_misses
    values["shift.fischer_cover.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    values["trace.overhead"] = overhead
    return values
