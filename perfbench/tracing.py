"""Spans recorded from outside the program, by replacing public functions.

A ``Probe`` swaps each named attribute (a module function, a name another
module imported, or a method on a class) for a wrapper, and puts the original
back on exit.  The wrapper looks up nothing at call time except the probe, so
callers that resolve the attribute at call time (``sdp.solve`` inside
``feasibility_phase1``, ``cli.lhs_membership`` inside ``cmd_certify``) reach it.

Two modes share the mechanism:

* watch only: ``sdp.solve`` is wrapped to record every solver status that is
  not ``optimal``, and to count iterations.  This runs in every timed pass,
  because the CLI's own log reports ``optimal`` whatever happened and
  ``feasibility_phase1`` turns a failed solve into ``feasible=False``.
* traced: every target in ``targets()`` records a span (name, start, end,
  parent) and the solver wrapper adds the problem size and iteration count.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and the
    covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    return [span.seconds - child_time[i] for i, span in enumerate(spans)]


def _solver_attrs(span: Span, args: tuple, result: Any) -> None:
    from steercert import sdp

    problem = args[0]
    rows = problem.num_rows
    svec = sum(sdp.svec_dim(n) for n in problem.block_dims)
    span.attrs.update(
        status=result.status,
        iterations=result.iterations,
        rows=rows,
        blocks=len(problem.block_dims),
        svec_dim=svec,
        dense_a_mb=rows * svec * 8 / 1e6,
    )


def targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every boundary the trace records.

    The span name's first component is the layer.  Names that ``cli`` imported
    directly are wrapped in ``cli``'s namespace, and names the benchmark calls
    through ``steering`` are wrapped there as well.
    """
    from steercert import cli, sdp, serialize, steering

    out: list[tuple[Any, str, str]] = [
        (cli, "main", "cli.main"),
        (sdp, "solve", "sdp.solve"),
        (sdp, "feasibility_phase1", "sdp.phase1"),
        (sdp.HermitianBlockBuilder, "build", "sdp.build"),
        (steering.MomentMatrix, "residuals", "steering.residuals"),
    ]
    for fn in (
        "lhs_bound",
        "lhs_membership",
        "ns_bound",
        "qtilde_solution",
        "qtilde_membership",
        "build_qtilde_problem",
    ):
        out.append((steering, fn, f"steering.{fn}"))
        out.append((cli, fn, f"steering.{fn}"))
    for fn in ("assemblage_from_json", "functional_from_json", "realization_to_json"):
        out.append((serialize, fn, "serialize"))
    for fn in ("validate_ns_bwi", "validate_ns_sequential", "validate_instrumental"):
        out.append((cli, fn, "assemblages.validate"))
    for fn in ("bell_correlations", "chsh_value"):
        out.append((cli, fn, "assemblages.bell"))
    out.append((cli, "pure_state_lemma_check", "ptp.certificate"))
    for fn in ("ghjw_traditional", "ghjw_sequential", "reconstruct_traditional", "reconstruct_sequential"):
        out.append((cli, fn, "ghjw.realize"))
    return out


class Probe:
    """Install wrappers for one pass; ``spans``, ``bad_statuses`` and ``iterations`` collect results."""

    def __init__(
        self,
        trace: bool,
        clock: Callable[[], float] = time.perf_counter,
        target_list: list[tuple[Any, str, str]] | None = None,
    ) -> None:
        self.trace = trace
        self.clock = clock
        self.spans: list[Span] = []
        self.bad_statuses: list[str] = []
        self.iterations = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        if target_list is None:
            from steercert import sdp

            target_list = targets() if trace else [(sdp, "solve", "sdp.solve")]
        self._targets = target_list

    def _wrap(self, fn: Callable, name: str) -> Callable:
        probe = self
        is_solver = name == "sdp.solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.trace:
                result = fn(*args, **kwargs)
                if is_solver:
                    probe.watch(result)
                return result
            span = Span(name, probe._stack[-1] if probe._stack else None)
            probe._stack.append(len(probe.spans))
            probe.spans.append(span)
            span.start = probe.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = probe.clock()
                probe._stack.pop()
            if is_solver:
                _solver_attrs(span, args, result)
                probe.watch(result)
            return result

        return wrapper

    def watch(self, solution: Any) -> None:
        self.iterations += solution.iterations
        if solution.status != "optimal":
            self.bad_statuses.append(solution.status)

    def __enter__(self) -> "Probe":
        for owner, attr, name in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
