"""In-memory spans around calls into the program's layers.

The traced run wraps public functions of the program from the
outside — :meth:`SpanRecorder.wrap` swaps a module or class attribute
for a timing wrapper and :meth:`SpanRecorder.uninstall` puts the
original back — so the program itself carries no tracing code.  Each
span records its name, start, end, parent span and a group id; spans
opened inside another span inherit its group, so every span of one
job (or one fleet record) shares the id of its outermost span.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: one finished span: (id, name, start, end, parent id, group id).
#: A group id is the outermost span's id unless the caller names one.
Span = Tuple[int, str, float, float, Optional[int], Any]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []
        #: span name -> sum of ``measure(result)`` (see :meth:`wrap`).
        self.counts: Dict[str, float] = {}

    def _stack(self) -> List[Tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        group: Optional[Callable[..., Any]] = None,
        measure: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``group(*args, **kwargs)`` may name the group of an outermost
        span (``"record:<seq>"`` for a fleet record); when it returns
        None, or is not given, the group is the span's own id.
        Nested spans always join their parent's group.  ``measure``
        turns each call's result into a count summed in
        ``counts[name]`` (points per telemetry sample, for instance).
        """
        original = owner.__dict__[attr] if attr in vars(owner) else getattr(
            owner, attr
        )
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        counts = self.counts
        counts.setdefault(name, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            if stack:
                parent, grp = stack[-1]
            else:
                parent = None
                grp = group(*args, **kwargs) if group is not None else None
                if grp is None:
                    grp = sid
            stack.append((sid, grp))
            start = clock()
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    counts[name] += measure(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, grp))

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]  # type: ignore[misc]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _grp in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _grp in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def rollup(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, total ``time`` and ``self`` time."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, start, end, _parent, _grp in spans:
        row = out.setdefault(name, {"count": 0, "time": 0.0, "self": 0.0})
        row["count"] += 1
        row["time"] += end - start
        row["self"] += selfs[sid]
    return out
