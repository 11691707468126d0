"""Float reference for tests only: adaptive quadrature and Monte Carlo.

These estimates cross-check proploc's exact closed forms from an
independent route (numpy floats, no shared code with the integer CDF
integral). They carry an explicit error bound and never decide a verdict;
proploc itself computes every verdict in exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from proploc.core import MechanismError, Profile, RandomizedMechanism, evaluate


@dataclass(frozen=True)
class Estimate:
    value: float
    error: float
    seed: int | None = None


def _mean_and_three_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), 3.0 * float(values.std(ddof=1)) / math.sqrt(len(values))


def order_stat_mc(count: int, index: int, samples: int = 1_000_000, seed: int = 0):
    """Monte Carlo mean of a uniform order statistic with a 3-SE bound."""
    if not (1 <= index <= count):
        raise MechanismError(f"order statistic index {index} out of range 1..{count}")
    draws = np.random.default_rng(seed).random((samples, count))
    return _mean_and_three_se(np.partition(draws, index - 1, axis=1)[:, index - 1])


def _batch_integrand(agents: list[float], point: float):
    fixed = np.array(agents + [0.0, 1.0])

    def feval(points: np.ndarray) -> np.ndarray:
        stacked = np.concatenate(
            [np.tile(fixed, (points.shape[0], 1)), points], axis=1
        )
        return np.abs(point - np.median(stacked, axis=1))

    return feval


def _adaptive_cells(feval, dims: int, tol: float, max_cells: int, min_depth: int = 4):
    """Level-synchronous adaptive midpoint cubature on [0,1]^dims.

    The integrand is piecewise linear, so cells away from its kinks agree
    between the coarse (centroid) and refined (subcell centroids) rules
    and get accepted; kink-crossing cells keep splitting until the global
    error estimate fits the tolerance.
    """
    offsets = np.array(
        [[corner >> d & 1 for d in range(dims)] for corner in range(1 << dims)],
        dtype=float,
    )
    lo = np.zeros((1, dims))
    hi = np.ones((1, dims))
    accepted_value = 0.0
    accepted_err = 0.0
    evaluated = 0
    depth = 0
    while lo.shape[0]:
        evaluated += lo.shape[0]
        if evaluated > max_cells:
            raise MechanismError("quadrature cell budget exceeded; loosen the tolerance")
        span = hi - lo
        vol = np.prod(span, axis=1)
        coarse = feval(lo + span / 2)
        fine = np.zeros(lo.shape[0])
        for off in offsets:
            fine += feval(lo + span * (0.25 + 0.5 * off))
        fine /= 1 << dims
        err = np.abs(fine - coarse) * vol
        pending = float(err.sum())
        if depth >= min_depth and accepted_err + pending <= tol:
            accepted_value += float((fine * vol).sum())
            accepted_err += pending
            break
        if depth >= min_depth:
            # bank the cheapest cells against half the remaining budget
            order = np.argsort(err)
            budget = max(0.0, (tol - accepted_err) / 2)
            cumulative = np.cumsum(err[order])
            keep = int(np.searchsorted(cumulative, budget, side="right"))
            accept = order[:keep]
            refine = order[keep:]
            accepted_value += float((fine[accept] * vol[accept]).sum())
            accepted_err += float(err[accept].sum())
        else:
            refine = np.arange(lo.shape[0])
        lo_r, span_r = lo[refine], span[refine]
        children_lo = []
        for off in offsets:
            children_lo.append(lo_r + span_r * 0.5 * off)
        lo = np.concatenate(children_lo, axis=0)
        hi = lo + np.tile(span_r / 2, (1 << dims, 1))
        depth += 1
    return accepted_value, 2.0 * max(accepted_err, 1e-15)


def oracle_point_distance(
    mechanism: RandomizedMechanism,
    profile: Profile,
    point,
    mode: str = "quadrature",
    tol: float = 1e-9,
    samples: int = 1_000_000,
    seed: int = 0,
) -> Estimate:
    """Approximate E|point - facility| for a mechanism with a uniform
    continuous phantom family; finite components enter exactly.
    """
    if not isinstance(mechanism, RandomizedMechanism) or not mechanism.has_continuous:
        raise MechanismError("the numeric oracle needs a continuous phantom family")
    if mechanism.n != profile.n or mechanism.domain != profile.domain:
        raise MechanismError("mechanism and profile disagree on n or domain")
    point = Fraction(point)
    finite_part = 0.0
    for mech, weight in mechanism.components:
        finite_part += float(weight) * abs(float(point - evaluate(mech, profile)))
    weight_cont = float(mechanism.continuous_weight)
    feval = _batch_integrand([float(x) for x in profile.locations], float(point))
    dims = profile.n - 1
    if mode == "quadrature":
        value, err = _adaptive_cells(feval, dims, tol, max_cells=2_000_000)
        return Estimate(finite_part + weight_cont * value, weight_cont * err)
    if mode == "monte_carlo":
        draws = np.random.default_rng(seed).random((samples, dims))
        mean, three_se = _mean_and_three_se(feval(draws))
        return Estimate(finite_part + weight_cont * mean, weight_cont * three_se, seed)
    raise MechanismError(f"unknown oracle mode {mode!r}")
