"""Span recorder and the wrappers the traced runs install around layers.

A span is one call of a wrapped function: its name, its duration and its
self time (the duration minus the part covered by spans opened beneath it
on the same thread).  Spans nest through a per-thread stack, and the
outermost span of a stack is the *root*: its ``cls`` (the request class,
e.g. ``/simulate``) is charged with the self time of every span below it,
which is what the ledger adds up.  Spans that run outside any root (the
micro-batcher's worker thread, the in-process experiment drivers) are
charged to the class ``None``.

Wrappers are installed where the caller looks the name up -- the module
attribute a caller imported (``repro.service.http.task_from_dict``) or the
class attribute a method call resolves through -- so the program's own
source is never edited.  Everything is kept in memory; :meth:`snapshot`
hands the aggregates out when the run ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

__all__ = ["Recorder", "install", "json_shim"]


class Recorder:
    """Thread-safe aggregates of span counts, durations and self times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (cls, name) -> [count, total seconds, self seconds]
        self._spans: dict = {}
        #: free-form counters the wrappers feed (lanes, tasks, ...)
        self.counters: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cls=None):
        """Time one span; ``cls`` names the request class of a root span."""
        stack = self._stack()
        frame = [name, cls if not stack else stack[0][1], 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][2] += duration
            with self._lock:
                entry = self._spans.setdefault((frame[1], name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def snapshot(self) -> dict:
        """JSON-ready aggregates: ``spans`` rows and ``counters``."""
        with self._lock:
            return {
                "spans": [
                    {
                        "cls": cls,
                        "name": name,
                        "count": count,
                        "total_s": total,
                        "self_s": self_time,
                    }
                    for (cls, name), (count, total, self_time) in sorted(
                        self._spans.items(), key=lambda item: repr(item[0])
                    )
                ],
                "counters": dict(self.counters),
            }


def install(recorder: Recorder, owner, attr: str, name: str, *, root=None,
            observe=None) -> None:
    """Replace ``owner.attr`` by a wrapper that records span ``name``.

    ``root(args, kwargs)`` returns the request class when the wrapper opens
    a root span; ``observe(recorder, args, kwargs, result)`` feeds counters
    from a finished call.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        cls = root(args, kwargs) if root is not None else None
        with recorder.span(name, cls):
            result = original(*args, **kwargs)
        if observe is not None:
            observe(recorder, args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", attr)
    setattr(owner, attr, wrapper)


def json_shim(recorder: Recorder, json_module, encode: str, decode: str):
    """A stand-in for a module's ``json`` global with spanned dumps/loads."""
    shim = SimpleNamespace(**{
        key: getattr(json_module, key)
        for key in dir(json_module)
        if not key.startswith("__")
    })
    install(recorder, shim, "dumps", encode)
    install(recorder, shim, "loads", decode)
    return shim
