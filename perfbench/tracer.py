"""Span tracing of spintip's public functions, installed from outside the package.

Every public function of the traced modules (plus a few named methods) is
replaced, through module and class attributes, by a wrapper that records a
span: name, start, end, parent span and op id. Aliases of the same function
in other modules of spintip (``from .program import validate_program``)
are replaced too, so calls are seen whichever name they go through. Spans
stay in memory until the caller writes them out. ``uninstall`` puts every
original object back.
"""

import contextlib
import dataclasses
import functools
import sys
import time

PACKAGE = "spintip"
MODULES = ("program", "compiler", "physics", "engine", "readout", "timing",
           "scheduler", "config", "cli")
#: Methods traced in addition to module-level functions: (module, class, method).
METHODS = (("config", "MachineConfig", "validate"), ("engine", "PureState", "product"))


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    op: "int | None"
    error: "str | None" = None
    data: "dict | None" = None

    @property
    def duration(self):
        return self.end - self.start

    def to_row(self):
        """[name, start, end, parent, op, error, data] for a JSON-lines dump."""
        return [self.name, self.start, self.end, self.parent, self.op, self.error, self.data]


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def traced_functions():
    """(span name, function) for each public function of the traced modules."""
    found = []
    for module_name in MODULES:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        for attr, value in sorted(vars(module).items()):
            if (attr.startswith("_") or not callable(value) or isinstance(value, type)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            found.append((f"{module_name}.{attr}", value))
    return found


def self_times(spans):
    """Each span's duration minus the part of its interval its child spans cover."""
    children = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        )
        covered, reach = 0.0, span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


class Tracer:
    """Installs span-recording wrappers; ``observers`` add data to chosen spans.

    An observer is called as ``observer(args, kwargs, result)`` after the
    span's clock stops and returns a dict stored as the span's ``data``.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    def _wrap(self, name, function):
        tracer = self
        observer = self.observers.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                span.start = start
                tracer._stack.pop()
            if observer is not None:
                span.data = observer(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, function in traced_functions():
            wrapper = self._wrap(name, function)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is function:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for module_name, class_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], class_name)
            original = cls.__dict__[method]
            name = f"{module_name}.{class_name}.{method}"
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            self._patches.append((cls, method, original))
            setattr(cls, method, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Install on entry; uninstall on any exit."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def snapshot():
    """Every callable attribute of spintip's modules and the traced methods.

    Compare two snapshots with ``changed`` to prove uninstall restored them.
    """
    state = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if callable(value):
                state[(module.__name__, attr)] = value
    for module_name, class_name, method in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], class_name)
        state[(module_name, class_name, method)] = cls.__dict__[method]
    return state


def changed(before, after):
    """Keys of two snapshots whose objects differ (empty when fully restored)."""
    keys = set(before) | set(after)
    return sorted(k for k in keys if before.get(k) is not after.get(k))
