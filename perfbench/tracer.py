"""Spans around the program's public functions, installed from outside.

A :class:`Tracer` replaces each traced function in every ``provopt`` module
namespace that holds it with a wrapper, and restores the originals on
:meth:`Tracer.uninstall`; nothing under ``src/`` changes. Each outermost
call becomes one span (name, start, end, parent, operation). A call made
while a span of the same name is open, as in recursion, is not a span of
its own. Spans stay in memory; :meth:`Tracer.write` saves them at the end.

The wrappers can also keep the arguments and result of the last call per
operation, which is how the benchmark gets the plans the optimizer
enumerated and the bag ``provopt run`` evaluated without parsing output.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Target:
    """A function to trace: ``owner.attr`` at install time."""

    span: str
    owner: object
    attr: str
    #: keep (args, result) of the last call in each operation
    capture: bool = False
    #: result -> counts added to the operation's counters
    count: Optional[Callable[[object], dict]] = None


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    #: duration minus the durations of the spans directly inside it
    self_s: float


@dataclass
class Tracer:
    targets: list[Target]
    spans: list[Span] = field(default_factory=list)
    #: operation index -> span name -> (args, kwargs, result) of the last call
    captured: dict[int, dict[str, tuple]] = field(default_factory=dict)
    #: operation index -> counter name -> total
    counts: dict[int, Counter] = field(default_factory=dict)
    op: int = -1
    _next_id: int = 0
    _stack: list = field(default_factory=list)
    _open: set = field(default_factory=set)
    _patched: list = field(default_factory=list)

    def install(self) -> None:
        for t in self.targets:
            orig = getattr(t.owner, t.attr)
            wrapper = self._wrap(t, orig)
            if isinstance(t.owner, type):
                holders = [t.owner]
            else:
                holders = [m for name, m in sorted(sys.modules.items())
                           if name.split(".")[0] == "provopt"
                           and getattr(m, t.attr, None) is orig]
            for holder in holders:
                self._patched.append((holder, t.attr, orig))
                setattr(holder, t.attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def begin_op(self, op: int) -> None:
        """Start attributing spans to a new operation."""
        self.op = op
        self._stack.clear()
        self._open.clear()
        self.captured[op] = {}
        self.counts[op] = Counter()

    def _wrap(self, t: Target, orig):
        name, capture, count = t.span, t.capture, t.count
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name in self._open:
                return orig(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            self._open.add(name)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._open.discard(name)
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(Span(frame[0], parent[0] if parent else None, self.op,
                                       name, start, end, end - start - frame[1]))
            if capture:
                self.captured[self.op][name] = (args, kwargs, result)
            if count is not None:
                self.counts[self.op].update(count(result))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.name,
                                     round(s.start, 7), round(s.end, 7)]) + "\n")


def stage_targets() -> list[Target]:
    """The three public calls ``cmd_run`` makes; the only wrappers that run
    in a timed pass."""
    from provopt import cli, datafiles, optimizer

    return [Target("datafiles.load", datafiles, "load_directory"),
            Target("optimizer.optimize", optimizer, "optimize", capture=True),
            Target("executor.evaluate", cli, "evaluate", capture=True)]


def _loaded_rows(result) -> dict:
    db, _keys = result
    return {"datafiles.rows": sum(rel.total for rel in db.values())}


def _sql_size(unit) -> dict:
    return {"sqlgen.sql_bytes": len(unit.text), "sqlgen.ctes": len(unit.cte_defs)}


PROPERTY_FNS = ("infer_keys", "infer_ec", "infer_ec_bottom_up", "infer_icols", "infer_set")

#: spans that report their whole duration: the pipeline stages. Every other
#: span reports self time.
STAGES = frozenset({
    "datafiles.load", "plantext.parse", "instrument.instrument", "instrument.reenact",
    "instrument.scope", "instrument.store_apply", "rewrites.apply_pats",
    "executor.cost", "executor.evaluate", "sqlgen.to_sql",
})


def layer_targets() -> list[Target]:
    """Every traced function of a traced pass, by layer."""
    from provopt import algebra, executor, instrument, plantext, properties, rewrites, sqlgen

    load, optimize, evaluate = stage_targets()
    load.count = _loaded_rows
    evaluate.count = lambda bag: {"executor.rows_out": bag.total}
    store = instrument.VersionedStore
    return [
        load, optimize, evaluate,
        Target("plantext.parse", plantext, "parse_plan"),
        Target("instrument.instrument", instrument, "instrument_query"),
        Target("instrument.reenact", instrument, "reenact"),
        Target("instrument.scope", instrument, "scope_to_updated"),
        Target("instrument.store_apply", store, "load"),
        Target("instrument.store_apply", store, "apply_transaction"),
        Target("rewrites.apply_pats", rewrites, "apply_pats"),
        *(Target(f"rewrites.{rule}", rewrites, rule) for rule in rewrites.RULE_ORDER),
        *(Target(f"properties.{fn}", properties, fn) for fn in PROPERTY_FNS),
        Target("algebra.schema_of", algebra, "schema_of"),
        Target("algebra.structurally_equal", algebra, "structurally_equal"),
        Target("executor.cost", executor, "cost", capture=True),
        Target("sqlgen.to_sql", sqlgen, "to_sql", count=_sql_size),
    ]
