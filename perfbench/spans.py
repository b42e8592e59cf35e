"""Span tracer that wraps the public methods of layer objects from outside.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces a bound
method on one *instance* with a timing wrapper (an instance attribute, so the
class and every other instance stay untouched) and :meth:`Tracer.unwrap_all`
restores it.  Calls the object makes on itself (``self.search_many(...)``
inside ``search_many``) also go through the wrapper, which is what makes
re-entrant calls visible as nested spans.

Accounting rules:

* Spans live on a per-thread stack; each span links to the span below it on
  the *same* thread.  Work started on another thread (the ingest worker, the
  feedback sender, a scoring pool) opens a root span on that thread, so it
  is never subtracted from a span on the thread that merely waited for it.
* A span's self time is its duration minus the durations of its direct
  children.  On one thread the self times of all spans therefore never sum
  to more than the wall time the thread spent inside traced calls.
* Every span carries a metric key.  A wrapped method either names its key or
  inherits the key of the enclosing span of the same layer (a model call
  made by the summarizer is summarizer time); with no such span it falls
  back to the layer's home key.  Nested spans with the same key (a
  re-entrant ``search_many``) add their own self time to that key once, so
  the key never counts the same interval twice.
* Counters fire on the outermost span of their site only -- the explicit
  key, or else the wrapped method -- so a re-entrant ``search_many`` does not
  count its queries twice, nor does ``add`` calling ``add_many`` count one
  write twice.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A counter callback: (args, kwargs, result) -> {counter name: increment}.
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]


class Span:
    """One timed call of a wrapped method."""

    __slots__ = ("key", "layer", "thread", "start", "parent", "site", "outermost",
                 "end", "child_seconds")

    def __init__(self, key: str, layer: str, thread: int, start: float,
                 parent: Optional["Span"], site: str, outermost: bool) -> None:
        self.key = key
        self.layer = layer
        self.thread = thread
        self.start = start
        self.parent = parent
        #: Counter identity: the explicit key, else the wrapped method.
        self.site = site
        #: True when no enclosing span on this thread has the same site.
        self.outermost = outermost
        self.end = 0.0
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        """Wall duration of the span."""
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration not covered by direct children on the same thread."""
        return self.seconds - self.child_seconds


class _ThreadState:
    """The calling thread's open spans and how many of each site are open."""

    __slots__ = ("thread", "stack", "open_sites")

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.stack: List[Span] = []
        self.open_sites: Dict[str, int] = {}


class Tracer:
    """Collects spans and counters from wrapped methods."""

    def __init__(
        self,
        home_keys: Optional[Dict[str, str]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        #: Layer -> key for spans that neither name a key nor sit inside a
        #: span of their own layer.
        self.home_keys = dict(home_keys or {})
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, bool, Any]] = []

    # ----------------------------------------------------------------- spans
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            self._local.state = _ThreadState()
            return self._local.state

    def open(self, layer: str, key: Optional[str] = None, site: Optional[str] = None) -> Span:
        """Push a span on the calling thread's stack.

        ``site`` identifies what the span's counters count (defaults to the
        resolved key); a span is outermost when no span of the same site is
        open below it on this thread.
        """
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        if key is None:
            if parent is not None and parent.layer == layer:
                key = parent.key
            else:
                key = self.home_keys.get(layer, layer)
        site = site or key
        depth = state.open_sites.get(site, 0)
        state.open_sites[site] = depth + 1
        span = Span(key, layer, state.thread, self.clock(), parent, site, depth == 0)
        state.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Pop ``span`` (which must be the top of its thread's stack)."""
        span.end = self.clock()
        state = self._state()
        top = state.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.key} closed out of order (top is {top.key})")
        state.open_sites[span.site] -= 1
        if span.parent is not None:
            span.parent.child_seconds += span.seconds
        self.spans.append(span)  # list.append is atomic under the GIL

    def count(self, values: Dict[str, float]) -> None:
        """Add to named counters (thread-safe)."""
        with self._lock:
            for name, value in values.items():
                self.counters[name] += value

    # -------------------------------------------------------------- wrapping
    def wrap(
        self,
        obj: object,
        method: str,
        layer: str,
        key: Optional[str] = None,
        count: Optional[CountFn] = None,
        on_enter: Optional[Callable[[tuple, dict], None]] = None,
    ) -> None:
        """Time every call of ``obj.method`` as a span of ``layer``.

        ``count`` runs after an outermost call returns and adds its result
        to the counters; ``on_enter`` runs when the span opens (the
        benchmark uses it to stamp queue waits).
        """
        original = getattr(obj, method)
        had_instance_attr = method in vars(obj)
        tracer = self
        site = key or f"{layer}:{method}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, key, site)
            if on_enter is not None:
                on_enter(args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None and span.outermost:
                tracer.count(count(args, kwargs, result))
            return result

        setattr(obj, method, wrapper)
        self._patched.append((obj, method, had_instance_attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._patched:
            obj, method, had_instance_attr, original = self._patched.pop()
            if had_instance_attr:
                setattr(obj, method, original)
            else:
                delattr(obj, method)

    # ------------------------------------------------------------- summaries
    def self_seconds(self) -> Dict[str, float]:
        """Self time per key."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.key] += span.self_seconds
        return dict(totals)

    def span_self_seconds(self, key: str) -> List[float]:
        """Self time of each span with ``key`` (for per-call distributions)."""
        return [s.self_seconds for s in self.spans if s.key == key]

    def thread_budget(self) -> Dict[int, Tuple[float, float]]:
        """Per thread: (sum of self times, wall time covered by root spans).

        Root spans of one thread never overlap, so the second number is the
        thread's wall time inside traced calls; the first may never exceed
        it.
        """
        budget: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0.0])
        for span in self.spans:
            entry = budget[span.thread]
            entry[0] += span.self_seconds
            if span.parent is None:
                entry[1] += span.seconds
        return {thread: (pair[0], pair[1]) for thread, pair in budget.items()}
