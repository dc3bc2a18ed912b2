"""In-memory span tracing installed from outside the traced program.

A :class:`Tracer` replaces functions with timing wrappers.  Each call
records one span ``[name, start, end, parent]`` in a list kept in memory;
the caller writes the list out when the run ends.  Nothing inside the
traced package is edited: the wrappers are installed by rebinding names.

Callers bind functions directly (``from repro.partition import
bisection_bandwidth``), so wrapping the defining module alone would miss
most call sites.  :meth:`Tracer.wrap_function` therefore rebinds *every*
module attribute, in every loaded module under the given package prefix,
that is the same function object.  Methods are wrapped on their class and
on each loaded subclass that overrides them.

A span's self time is its duration minus the durations of its direct
children.  Calls nest strictly on one thread, so children never overlap
and the self times of all spans under a root add up to the root's
duration: no interval is counted twice, whatever the nesting.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Index of each field in a span record.
NAME, START, END, PARENT = range(4)

#: ``hook(result)``, run after an outermost call returns.
ReturnHook = Callable[[Any], None]


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter()

    def outermost(self, idx: int) -> bool:
        """True unless span ``idx`` nests inside a span of the same name."""
        parent = self.spans[idx][PARENT]
        return parent < 0 or self.spans[parent][NAME] != self.spans[idx][NAME]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block (roots and per-experiment spans)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrapper(self, fn: Callable, name: str, on_return: ReturnHook | None = None) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None and self.outermost(idx):
                on_return(result)
            return result

        return traced

    # -- installing ------------------------------------------------------------
    def _set(self, holder: Any, key: str, value: Any) -> None:
        if isinstance(holder, dict):
            self._restore.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._restore.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, value)

    def wrap_function(self, fn: Callable, name: str, package: str,
                      on_return: ReturnHook | None = None) -> int:
        """Rebind every module-level alias of ``fn`` under ``package``.

        Returns the number of bindings replaced (at least the defining
        module's, or ``ValueError``).
        """
        traced = self.wrapper(fn, name, on_return)
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)
                    count += 1
        if count == 0:
            raise ValueError(f"{fn.__module__}.{fn.__qualname__} is bound in no loaded {package} module")
        return count

    def wrap_method(self, cls: type, method: str, name: str,
                    on_return: ReturnHook | None = None) -> int:
        """Wrap ``cls.method`` and every loaded subclass's override of it."""
        count = 0
        todo = [cls]
        seen: set[type] = set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            fn = klass.__dict__.get(method)
            if callable(fn):
                self._set(klass, method, self.wrapper(fn, name, on_return))
                count += 1
        if count == 0:
            raise ValueError(f"{cls.__qualname__} defines no {method!r}")
        return count

    def wrap_item(self, holder: dict, key: str, name: str) -> None:
        """Wrap a callable stored in a dict (e.g. a table of builders)."""
        self._set(holder, key, self.wrapper(holder[key], name))

    def uninstall(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._restore:
            holder, key, value = self._restore.pop()
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    # -- analysis ----------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the direct children's durations."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time and the count of outermost calls."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for idx, (span, own) in enumerate(zip(self.spans, self.self_times())):
            entry = out[span[NAME]]
            entry["self_s"] += own
            if self.outermost(idx):
                entry["calls"] += 1
        return dict(out)
