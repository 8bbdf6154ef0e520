"""Outside-in tracing: timing wrappers around the public API of each layer.

A :class:`Tracer` wraps every public function and method defined in the
layer packages (``repro.sparse`` ... ``repro.matrices``) from the
benchmark's own code; nothing under ``src/`` changes.  Each call records
one span — name, start, end, parent span, thread, wall and thread-CPU
time, plus the benchmark phase it ran in — kept in memory and written
out once at the end of the run.

Python binds ``from m import f`` to a second name at import time, so a
wrapper is installed under *every* name that refers to the original
object: module globals of every module of the checkout (``repro`` and
the benchmark's own), class dictionaries, and the kernel fields of the
registered :class:`~repro.sparse.registry.KernelSpec` instances (the
sweep interpreter calls kernels through those).
:meth:`Tracer.uninstall` restores every reference, and
:func:`assert_unwrapped` proves that no wrapper is left anywhere, which
the untraced run checks before it measures.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from pathlib import Path

#: The layers the benchmark wraps, named by their package.
LAYERS = (
    "repro.sparse",
    "repro.program",
    "repro.core",
    "repro.comm",
    "repro.mpilite",
    "repro.solvers",
    "repro.serve",
    "repro.matrices",
)

_MARK = "_perfbench_traced"


@dataclasses.dataclass(frozen=True)
class Span:
    """One traced call."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    cpu: float
    phase: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def import_layers() -> list[str]:
    """Import every module of every layer so that all of them get wrapped."""
    names = []
    for pkg_name in LAYERS:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        for info in pkgutil.walk_packages(pkg.__path__, prefix=pkg_name + "."):
            importlib.import_module(info.name)
            names.append(info.name)
    return names


def _alias_modules() -> list:
    """Loaded modules that may hold a layer function under another name.

    That is every module of this checkout: the ``repro`` package under
    ``src/`` and the benchmark's own modules, which import layer
    functions by name too.
    """
    import repro

    root = str(Path(repro.__file__).resolve().parents[2])
    found = []
    for mod in list(sys.modules.values()):
        path = getattr(mod, "__file__", None)
        if path and str(Path(path).resolve()).startswith(root):
            found.append(mod)
    return found


def _unwrapped(fn):
    return fn.__wrapped__ if getattr(fn, _MARK, False) else fn


def _kernel_specs() -> list:
    """The registered kernel specs, looked up without leaving a span."""
    from repro.sparse import registry

    get_kernel = _unwrapped(registry.get_kernel)
    return [get_kernel(key) for key in _unwrapped(registry.available_kernels)()]


def _assign(owner, attr: str, value) -> None:
    if dataclasses.is_dataclass(owner) and not isinstance(owner, type):
        object.__setattr__(owner, attr, value)  # a frozen KernelSpec instance
    else:
        setattr(owner, attr, value)


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not (
        inspect.isgeneratorfunction(obj) or inspect.iscoroutinefunction(obj)
    )


class Tracer:
    """Installs timing wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: label stored with every span; the benchmark sets it per phase
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        local = self._local
        record = self.spans.append
        ids = self._ids
        tracer = self
        perf = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = getattr(local, "ctx", None)
            if ctx is None:
                ctx = local.ctx = ([], threading.current_thread().name)
            stack = ctx[0]
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                record((sid, name, t0, t1, parent, ctx[1], c1 - c0, tracer.phase))

        setattr(traced, _MARK, True)
        self._wrappers[key] = traced
        self._originals[key] = fn
        return traced

    def _set(self, owner, attr: str, new, old) -> None:
        _assign(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _wrapper_of(self, obj):
        """The wrapper made for *obj*, or None when *obj* is not wrapped."""
        return self._wrappers.get(id(obj)) if self._originals.get(id(obj)) is obj else None

    def install(self) -> "Tracer":
        """Wrap every public function and method of the layers."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod_name in import_layers():
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if _wrappable(obj):
                    self._wrap(obj, f"{mod_name}.{obj.__qualname__}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, mod_name)
        # every module-level alias of a wrapped function
        for mod in _alias_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrapper_of(obj)
                if wrapper is not None:
                    self._set(mod, attr, wrapper, obj)
        # kernel references held by the registered specs
        for spec in _kernel_specs():
            for field in dataclasses.fields(spec):
                obj = getattr(spec, field.name)
                wrapper = self._wrapper_of(obj)
                if wrapper is not None:
                    self._set(spec, field.name, wrapper, obj)
        return self

    def _wrap_class(self, cls, mod_name: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{mod_name}.{cls.__qualname__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                if _wrappable(member.__func__):
                    new = type(member)(self._wrap(member.__func__, name))
                    self._set(cls, attr, new, member)
            elif _wrappable(member):
                self._set(cls, attr, self._wrap(member, name), member)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            _assign(owner, attr, old)
        self._wrappers.clear()
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def collected(self) -> list[Span]:
        """The spans recorded so far, in completion order."""
        return [Span(*s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus what its children cover.

    A child runs on its parent's thread and nests inside it, so the
    children of one span never overlap and their walls simply add up.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.wall
    return {s.sid: s.wall - covered.get(s.sid, 0.0) for s in spans}


def write_spans(spans: list[Span], path: Path) -> Path:
    """Write *spans* as gzip-compressed JSON lines, times relative to the first."""
    t0 = min((s.start for s in spans), default=0.0)
    selfs = self_times(spans)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "id": s.sid,
                        "name": s.name,
                        "start": s.start - t0,
                        "end": s.end - t0,
                        "parent": s.parent,
                        "thread": s.thread,
                        "wall": s.wall,
                        "cpu": s.cpu,
                        "self": selfs[s.sid],
                        "phase": s.phase,
                    }
                )
                + "\n"
            )
    return path


def find_wrappers() -> list[str]:
    """Every place a tracing wrapper is still installed (empty when clean)."""
    found = []
    for mod in _alias_modules():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if getattr(fn, _MARK, False):
                        found.append(f"{mod.__name__}.{obj.__qualname__}.{cattr}")
    for spec in _kernel_specs():
        for field in dataclasses.fields(spec):
            if getattr(getattr(spec, field.name), _MARK, False):
                found.append(f"KernelSpec({spec.key}).{field.name}")
    return found


def assert_unwrapped() -> None:
    """Raise if any tracing wrapper is still installed."""
    left = find_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left[:5]} ({len(left)} total)")
