"""Spans and counters recorded around the calls into each layer.

The tracer patches functions and methods of ``multsquares`` from outside:
nothing in the package knows it is traced.  Spans (name, start, end,
parent) are kept in memory and written out at the end; a layer's self time
is its span minus the spans nested inside it.  Very hot calls (value
construction, one narrowing attempt) are counted without a span, since a
span each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# Span name -> per-layer metric that reports its self time.
SELF_TIME_METRICS = {
    "replay.replay_script": "replay.s",
    "constraints.generate_constraints": "constraints.generate_s",
    "solver.add_constraints": "solver.add_constraints_s",
    "solver.drain": "solver.drain_s",
    "solver.stall_round": "solver.stall_s",
    "squares.enumerate_representations": "squares.enumerate_s",
    "squares.count_representations": "squares.count_s",
    "squares.is_representable": "squares.exists_s",
    "squares.exceptional_set": "squares.dp_s",
    "squares.verify_dubouis": "squares.closed_form_s",
}

THEOREM_KS = (4, 5, 6, 7, 8, 10, 13)
NARROW_RULES = ("forward", "backward", "product", "paired", "eliminated", "square-root")

_COUNTS = (
    "theorem.solve_calls",
    "constraints.generated",
    "solver.narrow_attempts",
    "solver.stall_rounds",
    "solver.stall_useful",
    "gaussian.values_created",
    "squares.enumerate_calls",
)

# Counts read from the package's private attributes; absent if they go away.
_PRIVATE_STATE_COUNTS = {
    "solver.queue_pops": lambda s: s._ops,
    "solver.equations": lambda s: len(s._equations),
    "solver.resultants": lambda s: s._resultants,
}

# Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    **{f"theorem.case_s.k{k}": "s" for k in THEOREM_KS},
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    **{name: "count" for name in _COUNTS},
    **{name: "count" for name in _PRIVATE_STATE_COUNTS},
    "solver.narrowings": "count",
    **{f"solver.narrow.{rule}": "count" for rule in NARROW_RULES},
    "solver.induction_step_ms.low": "ms",
    "solver.induction_step_ms.high": "ms",
    "squares.memo_entries": "count",
    "traced.wall_s": "s",
}


class Tracer:
    """Records spans and counts while ``enabled``; one summary per round."""

    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.enabled = False
        self.names: List[str] = []
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []
        self._reset_round()

    def _reset_round(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.case_s: Dict[int, float] = defaultdict(float)
        self.step_ms: Dict[int, List[float]] = defaultdict(list)
        self._sweeps: List[List[float]] = []
        self._watched: List[tuple] = []
        self._state_counts: Counter = Counter()
        self._absent: set = set()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer entry points of an imported ``multsquares``."""
        from multsquares import (
            constraints, gaussian, replay, solver, squares, theorem,
        )

        def on_case(args, result, duration):
            self.case_s[args[0]] += duration
            self.harvest()  # the case's solver states are done with

        def on_solve(args, result, duration):
            self.counts["theorem.solve_calls"] += 1

        def on_generate(args, result, duration):
            self.counts["constraints.generated"] += len(result)

        def on_stall(args, result, duration):
            self.counts["solver.stall_rounds"] += 1
            self.counts["solver.stall_useful"] += bool(result)

        def on_step(args, result, duration):  # keyed by state until harvest
            self.step_ms[id(args[0])].append(duration * 1000.0)

        def on_enumerate(args, result, duration):
            self.counts["squares.enumerate_calls"] += 1

        for module, name, hook in (
            (theorem, "theorem_check", on_case),
            (theorem, "verify_case_k4", None),
            (theorem, "verify_case_k", None),
            (theorem, "verify_case_general", None),
            (replay, "replay_script", None),
            (constraints, "generate_constraints", on_generate),
            (solver, "solve", on_solve),
            (solver, "pin_by_induction", on_step),
            (squares, "enumerate_representations", on_enumerate),
            (squares, "count_representations", None),
            (squares, "is_representable", None),
            (squares, "exceptional_set", None),
            (squares, "verify_dubouis", None),
        ):
            original = getattr(module, name)
            span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            self._replace_function(original, self._span(span_name, original, hook))

        state_cls = solver.SolverState
        for method, span_name, hook in (
            ("add_constraints", "solver.add_constraints", None),
            ("propagate", "solver.propagate", None),
            ("_drain", "solver.drain", None),
            ("_stall_round", "solver.stall_round", on_stall),
        ):
            original = state_cls.__dict__[method]
            setattr(state_cls, method, self._span(span_name, original, hook))
        setattr(
            state_cls,
            "_narrow_var",
            self._counted("solver.narrow_attempts", state_cls.__dict__["_narrow_var"]),
        )
        setattr(
            gaussian.GaussianRational,
            "__init__",
            self._counted(
                "gaussian.values_created", gaussian.GaussianRational.__dict__["__init__"]
            ),
        )

        original_init = state_cls.__dict__["__init__"]
        tracer = self

        @functools.wraps(original_init)
        def state_init(state, *args, **kwargs):
            original_init(state, *args, **kwargs)
            if tracer.enabled:
                tracer.watch(state)

        setattr(state_cls, "__init__", state_init)

    def _replace_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind every module-level name in the package that holds original."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("multsquares"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    def _span(self, name: str, fn: Callable, hook) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                stack.pop()
                duration = end - start
                tracer.spans[frame[0]] = (name_id, start, end, parent)
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, result, duration)
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- rounds -----------------------------------------------------------

    def watch(self, state) -> None:
        """Count what happens to state from now until the next harvest."""
        self._watched.append((state, len(state.trace), self._private_counts(state)))

    def _private_counts(self, state) -> Dict[str, Optional[int]]:
        out = {}
        for metric, read in _PRIVATE_STATE_COUNTS.items():
            try:
                out[metric] = read(state)
            except AttributeError:
                out[metric] = None
        return out

    def harvest(self) -> None:
        """Fold the watched states' new trace steps and counters in, and let
        the states go so that traced runs keep no more memory alive."""
        for state, trace_base, private_base in self._watched:
            steps = self.step_ms.pop(id(state), None)
            if steps:
                self._sweeps.append(steps)
            new_steps = state.trace[trace_base:]
            self._state_counts["solver.narrowings"] += len(new_steps)
            for step in new_steps:
                self._state_counts[f"solver.narrow.{step.rule}"] += 1
            for metric, now in self._private_counts(state).items():
                before = private_base[metric]
                if now is None or before is None:
                    self._absent.add(metric)
                else:
                    self._state_counts[metric] += now - before
        self._watched.clear()

    def begin_round(self, seeds=()) -> None:
        self._reset_round()
        for state in seeds:
            self.watch(state)
        self.enabled = True

    def end_round(self, squares_module) -> Dict[str, Optional[float]]:
        """Stop recording and summarise the round as per-layer metrics."""
        self.enabled = False
        self.harvest()
        out: Dict[str, Optional[float]] = {}
        for k in THEOREM_KS:
            out[f"theorem.case_s.k{k}"] = self.case_s.get(k, 0.0)
        for span_name, metric in SELF_TIME_METRICS.items():
            out[metric] = self.self_s.get(span_name, 0.0)
        for name in _COUNTS:
            out[name] = self.counts.get(name, 0)
        out["solver.narrowings"] = self._state_counts.get("solver.narrowings", 0)
        for rule in NARROW_RULES:
            out[f"solver.narrow.{rule}"] = self._state_counts.get(f"solver.narrow.{rule}", 0)
        for metric in _PRIVATE_STATE_COUNTS:
            out[metric] = None if metric in self._absent else self._state_counts.get(metric, 0)
        low, high = [], []
        for steps in self._sweeps:
            stretch = max(1, len(steps) // 10)
            low.extend(steps[:stretch])
            high.extend(steps[-stretch:])
        out["solver.induction_step_ms.low"] = statistics.median(low) if low else 0.0
        out["solver.induction_step_ms.high"] = statistics.median(high) if high else 0.0
        try:
            memo = len(squares_module._exists_memo) + len(squares_module._count_memo)
        except AttributeError:
            memo = None
        out["squares.memo_entries"] = memo
        return out

    def write(self, path) -> None:
        """Write every span recorded in the run."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [list(s) for s in self.spans if s is not None],
                },
                handle,
            )
