"""Layer tracing from outside the package.

``Tracer.install`` replaces each layer-boundary function with a wrapper in
every ``agendamech`` module that holds it, because ``cli`` and ``regimes``
look names up in their own globals (``from .x import f``): patching only the
defining module would miss their calls. Schedule construction and
allocation are wrapped on the class. ``uninstall`` puts the originals back.

A wrapper opens a span: name, start, end and the span that caused it. Spans
live on a per-thread stack; a span opened in a worker thread with an empty
stack (the sweep's thread pool) is a child of the innermost span open on
the main thread. Counts and times are summed per thread and merged at the
end, so no update is lost between threads.
"""

from __future__ import annotations

import sys
import threading
import time

# (metric prefix, module, attribute) of each wrapped function.
FUNCTIONS = [
    ("model.validate", "agendamech.model", "validate_economy"),
    ("solver_core.weighted_foc", "agendamech.solver_core", "solve_weighted_foc"),
    ("regimes.solve", "agendamech.regimes", "solve"),
    ("verify.oracle", "agendamech.verify", "verify_solution"),
    ("cli.load_model", "agendamech.cli", "load_model"),
    ("cli.sweep", "agendamech.cli", "cmd_sweep"),
]
# (metric prefix, module, class, method) of each wrapped method.
METHODS = [
    ("transfers.foc_schedule", "agendamech.transfers", "FocSchedule", "__init__"),
    ("transfers.allocation", "agendamech.transfers", "FocSchedule", "allocation"),
]


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _Span:
    __slots__ = ("name", "child_s", "cross", "threads")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0  # time covered by same-thread children
        self.cross = []  # (start, end) of children in other threads
        self.threads = set()  # threads that ran a solve under this span


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list = []
        self._per_thread: list = []
        self._patches: list = []
        self.missing: list = []
        self.sweep_threads = 0

    # -- per-thread state ----------------------------------------------------

    def _stats(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if main else []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
            return local.stack, local.stats

    def totals(self) -> dict:
        """name -> [calls, busy seconds, self seconds, schedules returned]."""
        out: dict = {}
        for stats in self._per_thread:
            for name, row in stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for k in range(4):
                    acc[k] += row[k]
        return out

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, returns_schedules=None):
        tracer = self
        main_stack = self._main_stack

        def wrapper(*args, **kwargs):
            stack, stats = tracer._stats()
            if stack:
                parent, cross = stack[-1], False
            else:
                parent, cross = (main_stack[-1] if main_stack else None), True
            span = _Span(name)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s = dur - span.child_s - _union_length(span.cross)
                row = stats.get(name)
                if row is None:
                    row = stats[name] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dur
                row[2] += self_s
                if parent is not None:
                    if cross:
                        parent.cross.append((t0, t1))
                    else:
                        parent.child_s += dur
                if name == "cli.sweep":
                    tracer.sweep_threads = max(tracer.sweep_threads, len(span.threads))
            if returns_schedules is not None:
                row[3] += returns_schedules(result)
                if parent is not None and parent.name == "cli.sweep":
                    parent.threads.add(threading.get_ident())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary."""
        schedule_cls = getattr(sys.modules.get("agendamech.transfers"), "FocSchedule", None)

        def returned_schedules(solution) -> int:
            return sum(isinstance(s, schedule_cls) for s in getattr(solution, "schedules", ()))

        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "agendamech" or n.startswith("agendamech."))]
        for name, module, attr in FUNCTIONS:
            orig = getattr(sys.modules.get(module), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig,
                                 returned_schedules if name == "regimes.solve" else None)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
