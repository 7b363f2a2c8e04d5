"""Spans recorded from the benchmark's own files, around each layer's
public entry.

The program's built-in tracer (``repro.observe.TRACER``) stays off: it is
part of the code under test.  Instead :class:`Tracer` replaces a layer's
entry function with a timing wrapper at *every* name that binds it --
``repro.api`` imports ``parse``/``parse_query`` by name,
``repro.resilience.guarded`` imports ``parse_query`` and
``execute_planned``, ``repro.service.core`` and ``repro.net.client``
import ``parse`` -- so patching the defining module alone would
undercount.

Each span is ``[id, name, start, end, parent_id, stmt_id, note]`` and is
kept in memory until :meth:`Tracer.write` saves them.  A layer's self
time is the span's duration minus the duration of its direct children.
"""

from __future__ import annotations

import inspect
import itertools
import json
import socket
import sys
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, STMT, NOTE = range(7)


class Tracer:
    """In-memory span recorder with install/restore of layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, stmt_id: int | None = None) -> list:
        """Open a span on this thread; ``stmt_id`` tags it and its children."""
        stack = self._stack()
        if stmt_id is None:
            stmt_id = stack[-1][STMT] if stack else None
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                stack[-1][ID] if stack else None, stmt_id, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list, note=None) -> None:
        span[END] = time.perf_counter()
        if note is not None:
            span[NOTE] = note
        self._stack().pop()

    def wrap(self, name: str, fn, note_of=None):
        """A wrapper that records one *name* span per call of *fn*."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span, "error")
                raise
            tracer.end(span, note_of(result) if note_of is not None else None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, note_of=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module name bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, note_of)
        owners = [module] + [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "repro" or key.startswith("repro."))
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._patches.append((owner, key, original))

    def patch_attr(self, owner, attr: str, name: str, note_of=None) -> None:
        """Wrap one attribute of one class or module (methods, ``socket``)."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, note_of))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (latest patch first)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Save every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_engine_layers(tracer: Tracer) -> None:
    """Wrap the statement path: parse, rewrite, plan, execute, write."""
    import repro.api
    from repro.core.rewrite.engine import Optimizer
    from repro.engine import planner
    from repro.engine.txn import Transaction
    from repro.sql import parser

    tracer.patch_function(parser, "parse", "sql.parse")
    tracer.patch_function(parser, "parse_query", "sql.parse")
    tracer.patch_attr(Optimizer, "optimize", "core.optimize",
                      note_of=lambda outcome: bool(outcome.changed))
    tracer.patch_attr(planner.Planner, "plan", "plan.plan")
    tracer.patch_function(planner, "execute_planned", "engine.execute_planned")
    tracer.patch_attr(Transaction, "commit", "txn.commit")
    tracer.patch_function(repro.api, "run_dml_with_options", "txn.write_stmt")


def install_client_net_layers(tracer: Tracer) -> None:
    """Wrap the HTTP client's connects and its protocol encode/decode."""
    from repro.net import protocol
    from repro.net.client import HttpBackend

    # http.client looks socket.create_connection up per connection.
    tracer.patch_attr(socket, "create_connection", "net.connect")
    for attr, value in list(vars(protocol).items()):
        if inspect.isfunction(value) and value.__module__ == protocol.__name__:
            tracer.patch_function(protocol, attr, "net.codec")
    tracer.patch_attr(HttpBackend, "_parse_body", "net.codec")


class Summary:
    """Per-name aggregates over a set of spans.

    ``calls`` counts outermost spans (a span whose parent has the same
    name is a nested call of one entry, e.g. ``parse_query`` -> ``parse``).
    ``self_s`` sums self time; ``total_s`` sums outermost durations.
    """

    def __init__(self, spans: list[list], window: int | None = None) -> None:
        """Aggregate *spans*; with *window*, only statements ``0..window-1``."""
        by_id = {span[ID]: span for span in spans}
        child_s: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] is not None:
                child_s[span[PARENT]] += span[END] - span[START]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.notes: dict[str, list] = defaultdict(list)
        for span in spans:
            if window is not None and (span[STMT] is None or span[STMT] >= window):
                continue
            name = span[NAME]
            self.self_s[name] += span[END] - span[START] - child_s[span[ID]]
            parent = by_id.get(span[PARENT])
            if parent is None or parent[NAME] != name:
                self.calls[name] += 1
                self.total_s[name] += span[END] - span[START]
                self.notes[name].append(span[NOTE])

    def as_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "notes": {k: [n for n in v if n is not None] for k, v in self.notes.items()},
        }
