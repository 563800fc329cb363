"""Residual checks over sampled chart points and their verdicts.

A check makes one pass over its points: :func:`run_laws` calls each of the
check's laws once on the whole point set, each returning a residual, a
scale and a skip reason per point, then reduces each law to its verdict.
During the pass it holds its points as the sample set of
:func:`~semiweyl.fields.sample_set`, so the laws, and every later pass over
the same points in the same result store, read each field's results there
(:func:`~semiweyl.fields.result_store`)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import DegeneratePointError, sample_set
from .jets import EvaluationDomainError
from .sampling import halton_points

__all__ = [
    "RunConfig",
    "Verdict",
    "SkipPoint",
    "run_laws",
    "run_pointwise_check",
    "row_max",
    "outcome",
    "gated",
    "agreement",
]


class SkipPoint(Exception):
    """Raised by a residual function to skip a sample point with a reason."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class RunConfig:
    samples: int = 200
    seed: int = 0
    tol: float = 1e-8
    min_valid_points: int = 50

    def __post_init__(self):
        # below these bounds a run tests no point, or one corner point over
        # and over (seed < 0), or cannot compare a residual with tol
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.min_valid_points < 1:
            raise ValueError(f"min_valid_points must be at least 1, got {self.min_valid_points}")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and at least 0, got {self.tol}")

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass
class Verdict:
    name: str
    max_residual: float
    points_tested: int
    points_skipped: int
    tol: float
    passed: bool
    worst_point: tuple | None = None
    skipped: bool = False
    detail: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "max_residual": None if self.max_residual != self.max_residual else float(self.max_residual),
            "points_tested": int(self.points_tested),
            "points_skipped": int(self.points_skipped),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "worst_point": [float(x) for x in self.worst_point] if self.worst_point is not None else None,
            "skipped": bool(self.skipped),
            "detail": self.detail,
        }

    def __str__(self):
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return (
            f"{status:4s} {self.name}: max residual {self.max_residual:.3e} "
            f"(tol {self.tol:.1e}, {self.points_tested} pts, {self.points_skipped} skipped)"
        )


def run_laws(chart, config: RunConfig, laws):
    """One verdict per law ``(name, residual_fn, tol, detail)``, where
    ``tol`` (default ``config.tol``) and ``detail`` may be left off.

    ``residual_fn`` is called once, on the pass's point set ``(P, n)``, and
    returns ``(residual, scale)`` or ``(residual, scale, reason)`` with one
    entry per point (a scalar stands for every point); ``reason`` is why a
    point is skipped, ``""`` where it is kept.  At a point ``(n,)`` it
    returns the same for that point alone.  When the call on the set raises
    a skip (:class:`SkipPoint`, a degenerate point or a domain error), the
    law is called at each point alone, and a point that raises is skipped
    with the exception's message; a point with a non-finite residual is
    skipped too.

    A law passes when ``residual <= tol * scale`` at every point it tested
    and at least ``min_valid_points`` of its points were kept.  A point one
    law skips is not skipped for the others.
    """
    laws = [law + (None, "")[len(law) - 2:] for law in laws]
    pts = halton_points(chart, config.samples, seed=config.seed)
    with sample_set(pts):
        outcomes = [_outcomes(fn, pts) for _, fn, _, _ in laws]
    return [
        _reduce(name, pts, *out, config, config.tol if tol is None else tol, detail)
        for (name, _, tol, detail), out in zip(laws, outcomes)
    ]


def run_pointwise_check(name, chart, residual_fn, config: RunConfig, detail=""):
    """:func:`run_laws` for the one law ``(name, residual_fn, config.tol,
    detail)``."""
    return run_laws(chart, config, [(name, residual_fn, config.tol, detail)])[0]


def row_max(x, p):
    """The largest ``|x|`` at each point of ``p`` (a point or a point set):
    the maximum over the axes of ``x`` after the leading axis of a set."""
    a = np.abs(x)
    return a.max() if np.ndim(p) == 1 else a.max(axis=tuple(range(1, a.ndim)))


_SKIPS = (DegeneratePointError, EvaluationDomainError, SkipPoint)


def _triple(out):
    res, scale, *reason = out
    return res, scale, reason[0] if reason else ""


def _evaluate(residual_fn, p):
    """``(residual, scale, reason)`` at the point ``p`` alone."""
    try:
        return _triple(residual_fn(p))
    except _SKIPS as exc:
        return np.nan, np.nan, str(exc)


def _outcomes(residual_fn, pts):
    """The ``(P,)`` arrays ``(residual, scale, reason)`` of a law on
    ``pts``: the reason a law gives a point comes first, then a non-finite
    residual."""
    try:
        out = _triple(residual_fn(pts))
    except _SKIPS:
        out = zip(*[_evaluate(residual_fn, p) for p in pts])
    res, scale, reason = (np.broadcast_to(x, len(pts)) for x in out)
    return res, scale, np.where((reason == "") & ~np.isfinite(res), "non-finite residual", reason)


def _reduce(name, pts, res, scale, reason, config: RunConfig, tol, detail):
    """The verdict of one law from its outcome at each point."""
    kept = reason == ""
    tested = int(np.count_nonzero(kept))
    skipped = len(pts) - tested
    worst = worst_rel = -1.0
    worst_point = None
    if tested:
        rel = np.divide(res, np.maximum(scale, 1e-300), out=np.full(len(pts), -np.inf), where=kept)
        row = int(np.argmax(rel))  # the first of equal maxima
        worst, worst_rel = float(res[row]), float(rel[row])
        worst_point = tuple(float(x) for x in pts[row])
    if tested < config.min_valid_points:
        skip_reason = reason[~kept][-1] if skipped else ""
        too_few = f"too few valid points ({tested} < {config.min_valid_points}): {skip_reason}"
        detail = f"{detail}; {too_few}" if detail else too_few
        return Verdict(name, float("nan") if tested == 0 else worst, tested, skipped, tol, False, worst_point,
                       skipped=True, detail=detail)
    return Verdict(name, worst, tested, skipped, tol, worst_rel <= tol, worst_point, detail=detail)


def outcome(v: Verdict):
    """``"pass"``, ``"fail"`` or ``"skip"``."""
    if v.skipped:
        return "skip"
    return "pass" if v.passed else "fail"


def gated(name, reason, tol):
    """The skipped verdict of a check whose hypothesis is not met."""
    return Verdict(name, float("nan"), 0, 0, tol, False, skipped=True, detail=f"hypothesis not met: {reason}")


def agreement(name, groups, tol, detail):
    """Verdict that the verdicts within each group share one outcome.

    Its residual is the number of groups whose outcomes differ, so 0 when
    all agree, and its detail lists the outcome of each input.  An
    equivalence cannot be decided from a verdict that skipped, so when any
    input skipped the result skips too, with no residual.  Point counts are
    taken over the distinct input verdicts.
    """
    inputs = list({id(v): v for group in groups for v in group}.values())
    differ = sum(len({outcome(v) for v in group}) > 1 for group in groups)
    skipped = [v.name for v in inputs if v.skipped]
    notes = [f"undecided, skipped: {', '.join(skipped)}"] if skipped else []
    notes.append("inputs: " + ", ".join(f"{v.name} {outcome(v)}" for v in inputs))
    return Verdict(
        name,
        max_residual=float("nan") if skipped else float(differ),
        points_tested=sum(v.points_tested for v in inputs),
        points_skipped=sum(v.points_skipped for v in inputs),
        tol=tol,
        passed=not skipped and differ == 0,
        skipped=bool(skipped),
        detail="; ".join([detail] + notes),
    )
