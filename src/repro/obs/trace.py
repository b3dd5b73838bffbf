"""Hierarchical span tracing with an aggregating, thread-local tree.

The observability layer's timing primitive.  A *span* is one named
region of work; entering a span pushes a node onto the current
thread's span stack, exiting it accumulates the elapsed monotonic
wall time into that node.  Repeated spans with the same name under
the same parent **aggregate** (``count`` + ``total_s``) instead of
growing the tree - a Monte-Carlo chunk loop that enters
``link.afe`` ten thousand times produces one tree node, not ten
thousand, so tracing a whole campaign stays O(distinct span names)
in memory and the rendered tree reads like a flame graph collapsed
by name.

**Disabled fast path.** Tracing is off by default.  The contract for
hot loops is a *module-level flag check*, not a function call::

    from repro.obs import trace as _trace

    if _trace.ENABLED:
        for stage in self.stages:
            with _trace.span(stage.span_name):
                stage.process(state)
    else:
        for stage in self.stages:        # zero-overhead fast path
            stage.process(state)

so the disabled cost per chunk is one attribute load and one branch
(pinned <2% on the fig6 fast-scale run by
``tests/obs/test_overhead.py``).  Warm paths (once per scenario, per
run) may simply call :func:`span`, which returns a shared no-op
context manager while disabled.

**Threading.** ``ENABLED`` is process-global; the span stack and tree
are thread-local, so concurrent threads trace into independent trees
and never contend.  A thread that blocks on another thread's work
times the block with :func:`wait`, which files it *beside* the leaf
span it interrupts (the interrupted span stays a leaf) and *under* an
interior one: the blocked time shows in the tree, inside the span
that waited.  Child *processes* (campaign fan-out) do not report back
into the parent's tree - trace serially when a full tree is wanted
(the ``repro trace`` CLI does).

This module is dependency-free (stdlib only); JSON import/export and
rendering live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["ENABLED", "SpanNode", "collect", "disable",
           "enable", "reset", "span", "wait"]

#: Module-level tracing switch.  Hot loops read this attribute
#: directly (``if trace.ENABLED:``) to skip instrumentation entirely.
ENABLED = False


@dataclass
class SpanNode:
    """One aggregated node of a span tree.

    Attributes:
        name: span name (unique among its siblings - same-name spans
            under one parent merge into a single node).
        count: completed enter/exit cycles accumulated here.
        total_s: wall seconds accumulated over those cycles
            (inclusive of child spans).
        children: child nodes keyed by name, in first-seen order.
    """

    name: str
    count: int = 0
    total_s: float = 0.0
    children: dict[str, "SpanNode"] = field(default_factory=dict)

    def child(self, name: str) -> "SpanNode":
        """Get-or-create the child span node *name*."""
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first ``(depth, node)`` traversal, self included."""
        yield depth, self
        for node in self.children.values():
            yield from node.walk(depth + 1)

    def leaf_walls(self) -> dict[str, float]:
        """Aggregate wall seconds of the *leaf* spans below this node,
        keyed by span name.  Leaves are where actual work was timed;
        interior nodes only wrap them, so summing leaves never
        double-counts.  The node itself is never one of its leaves: it
        is the total they explain."""
        acc: dict[str, float] = {}
        for child in self.children.values():
            for _depth, node in child.walk():
                if not node.children and node.total_s:
                    acc[node.name] = acc.get(node.name, 0.0) + node.total_s
        return acc

    def coverage(self) -> float:
        """Fraction of this node's wall accounted for by leaf spans
        (0.0 when this node has no recorded wall or no children)."""
        if self.total_s <= 0.0:
            return 0.0
        return sum(self.leaf_walls().values()) / self.total_s

    def find(self, name: str) -> "SpanNode | None":
        """First node named *name* in depth-first order, or ``None``."""
        for _depth, node in self.walk():
            if node.name == name:
                return node
        return None


_local = threading.local()


def _stack() -> list[SpanNode]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = [SpanNode("trace")]
        _local.stack = stack
    return stack


def reset(name: str = "trace") -> SpanNode:
    """Start a fresh span tree for this thread; returns its root."""
    root = SpanNode(name)
    _local.stack = [root]
    return root


def enable() -> None:
    """Turn tracing on (process-global)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn tracing off (process-global)."""
    global ENABLED
    ENABLED = False


class _Span:
    """The live span context manager (tracing enabled)."""

    __slots__ = ("name", "_start")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> SpanNode:
        stack = _stack()
        node = stack[-1].child(self.name)
        stack.append(node)
        self._start = time.perf_counter()
        return node

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        node = _stack().pop()
        node.count += 1
        node.total_s += elapsed
        return False


class _NoopSpan:
    """Shared do-nothing context manager (tracing disabled)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class _Wait(_Span):
    """The live wait context manager (tracing enabled)."""

    __slots__ = ()

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        stack = _stack()
        host = stack[-1]
        if len(stack) > 1 and not host.children:
            # The open leaf adds its inclusive wall on exit; take the
            # block back out so the two nodes never overlap.
            host.total_s -= elapsed
            host = stack[-2]
        node = host.child(self.name)
        node.count += 1
        node.total_s += elapsed
        return False


def wait(name: str) -> "_Wait | _NoopSpan":
    """Context manager timing a block where this thread waits for
    another thread's work.

    While the innermost open span is a leaf (a stage), the block is
    recorded as *name* beside it (under its parent) and taken out of
    its wall, so leaf walls stay disjoint and the interrupted span
    keeps its leaf status.  While that span already has children (a
    scenario around its stages), the block is one more child of it,
    and its wall keeps the block.  With no span open it lands under
    the root.  Shared no-op while disabled, like :func:`span`.
    """
    if not ENABLED:
        return _NOOP
    return _Wait(name)


def span(name: str) -> "_Span | _NoopSpan":
    """Context manager timing one region under the current span.

    Returns a shared no-op object while tracing is disabled, so warm
    call sites need no flag check of their own.  Hot loops should
    still guard on :data:`ENABLED` to skip even this call.
    """
    if not ENABLED:
        return _NOOP
    return _Span(name)


@contextmanager
def collect(name: str = "trace"):
    """Trace a block into a fresh tree; yields the root node.

    Enables tracing, resets this thread's tree, runs the block, stamps
    the root's wall time, and restores the previous enabled state.  The
    canonical harness for ``repro trace`` and the test suite::

        with trace.collect("fig6") as root:
            run_fig6(...)
        print(root.total_s, root.leaf_walls())
    """
    was_enabled = ENABLED
    root = reset(name)
    enable()
    start = time.perf_counter()
    try:
        yield root
    finally:
        root.count += 1
        root.total_s += time.perf_counter() - start
        if not was_enabled:
            disable()


def timed(name: str) -> Callable:
    """Decorator tracing every call of the wrapped function as *name*
    (no-op per call while disabled)."""
    def decorate(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            with _Span(name):
                return fn(*args, **kwargs)
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__",
                                       wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper
    return decorate
