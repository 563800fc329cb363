"""Residual checks over sampled chart points and their verdicts.

A check makes one pass over its points: :func:`run_laws` evaluates all the
check's laws at a point before the next, then reduces each law to its
verdict.  During the pass it holds its points as the sample set of
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
    ``tol`` (default ``config.tol``) and ``detail`` may be left off and
    ``residual_fn(p) -> (residual, scale)``.

    A law passes when ``residual <= tol * scale`` at every point it tested
    and at least ``min_valid_points`` of its points survived the degeneracy
    and domain-error skipping.  A point one law skips is not skipped for
    the others.
    """
    laws = [law + (None, "")[len(law) - 2:] for law in laws]
    pts = halton_points(chart, config.samples, seed=config.seed)
    with sample_set(pts):
        outcomes = [[_evaluate(fn, p) for _, fn, _, _ in laws] for p in pts]
    return [
        _reduce(name, pts, [row[i] for row in outcomes], config, config.tol if tol is None else tol, detail)
        for i, (name, _, tol, detail) in enumerate(laws)
    ]


def run_pointwise_check(name, chart, residual_fn, config: RunConfig, tol=None, detail=""):
    """:func:`run_laws` for the one law ``(name, residual_fn, tol, detail)``."""
    return run_laws(chart, config, [(name, residual_fn, tol, detail)])[0]


def _evaluate(residual_fn, p):
    """``(residual, scale)`` at ``p``, or the reason the point is skipped."""
    try:
        res, scale = residual_fn(p)
    except (DegeneratePointError, EvaluationDomainError, SkipPoint) as exc:
        return str(exc)
    if not np.isfinite(res):
        return "non-finite residual"
    return res, scale


def _reduce(name, pts, outcomes, config: RunConfig, tol, detail):
    """The verdict of one law from its outcome at each point."""
    worst = -1.0
    worst_rel = -1.0
    worst_point = None
    tested = 0
    skipped = 0
    skip_reason = ""
    for p, out in zip(pts, outcomes):
        if isinstance(out, str):
            skipped += 1
            skip_reason = out
            continue
        res, scale = out
        tested += 1
        rel = res / max(scale, 1e-300)
        if rel > worst_rel:
            worst_rel = rel
            worst = res
            worst_point = tuple(float(x) for x in p)
    if tested < config.min_valid_points:
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


def agreement(name, groups, tol, detail=""):
    """Verdict that the verdicts within each group share one outcome.

    An equivalence cannot be decided from a verdict that skipped, so when
    any input skipped the result skips too.  Residual and point counts are
    taken over the distinct input verdicts.
    """
    inputs = list({id(v): v for group in groups for v in group}.values())
    residuals = [v.max_residual for v in inputs if v.max_residual == v.max_residual]
    skipped = [v.name for v in inputs if v.skipped]
    return Verdict(
        name,
        max_residual=max(residuals, default=float("nan")),
        points_tested=sum(v.points_tested for v in inputs),
        points_skipped=sum(v.points_skipped for v in inputs),
        tol=tol,
        passed=not skipped and all(len({outcome(v) for v in group}) == 1 for group in groups),
        skipped=bool(skipped),
        detail=f"{detail}; undecided, skipped: {', '.join(skipped)}" if skipped else detail,
    )
