"""Per-layer call counts and times of calls into infopower, installed at run time.

The tracer replaces every public function of each layer module, in every
infopower namespace that binds it, with a wrapper that times the call, and
wraps the constructor of every public class. The program's files are not
edited, and an untraced run never creates a Tracer.

A span opens only where a call crosses into another layer; a call from a
layer into itself is counted but stays inside its caller's span. A layer's
busy time is the union of its spans (a re-entered layer counts once); its
self time is busy time minus the spans of other layers nested inside it,
so the self times of all layers add up to the traced wall time.
"""

import functools
import inspect
import time

LAYERS = ("cli", "states", "hilbert", "sic", "infotheory", "optimize")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack = []  # open spans: [layer, time in other-layer children]
        self._undo = []

    def install(self):
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        namespaces = [self.package, *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not hasattr(obj, "__traced_layer__"):
                    traced = self._wrap(layer, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._replace(ns, attr, traced)
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    init = vars(obj)["__init__"]
                    self._replace(obj, "__init__", self._wrap(layer, init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        traced.__traced_layer__ = layer
        return traced

    def _call(self, layer, fn, args, kwargs):
        self.calls[layer] += 1
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        self._depth[layer] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._depth[layer] -= 1
            if self._depth[layer] == 0:
                self.busy[layer] += t1 - t0
            self.self_time[layer] += t1 - t0 - frame[1]
            if stack:
                stack[-1][1] += t1 - t0
