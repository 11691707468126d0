"""Phantom vectors for tests only: a reference that reads no normal form.

:func:`to_phantom_form` writes a rank, the median or the uniform phantoms
as the n + 1 sorted phantoms of a generalized median (Moulin 1980) from
their definitions alone, not through :func:`proploc.core.part_form`, so the
tests can hold that normal form, the lottery and the exact rules against it.
"""

from __future__ import annotations

from fractions import Fraction

from proploc.core import (
    NEG_INF,
    POS_INF,
    UNIT_INTERVAL,
    DomainMismatchError,
    Median,
    MechanismError,
    Phantom,
    RankK,
    UniformPhantom,
)


class PhantomFormError(MechanismError):
    """Mechanism has no phantom-median representation."""


def to_phantom_form(mechanism, n: int, domain: str = UNIT_INTERVAL) -> Phantom:
    """Phantom vector of length n + 1 equivalent to ``mechanism`` for n agents.

    The median of the reports and n + 1 phantoms is entry n (from 0) of the
    merge, so k phantoms at the domain's low end and the rest at its high
    end output entry n - k of the sorted reports: the k-th largest, rank k.
    The leftmost median is entry (n - 1) // 2, rank n - (n - 1) // 2, and the
    uniform phantoms sit at j/n on [0,1]. A phantom vector of n + 1 entries
    comes back as it is. Dictatorships and the average have no median
    representation and raise ``PhantomFormError``.
    """
    low, high = (Fraction(0), Fraction(1)) if domain == UNIT_INTERVAL else (NEG_INF, POS_INF)
    if isinstance(mechanism, Median):
        mechanism = RankK(n - (n - 1) // 2)
    if isinstance(mechanism, RankK):
        if mechanism.k > n:
            raise MechanismError(f"rank {mechanism.k} out of range for n={n}")
        return Phantom((low,) * mechanism.k + (high,) * (n + 1 - mechanism.k))
    if isinstance(mechanism, UniformPhantom):
        if domain != UNIT_INTERVAL:
            raise DomainMismatchError("uniform phantoms are defined on [0,1] only")
        return Phantom(tuple(Fraction(j, n) for j in range(n + 1)))
    if isinstance(mechanism, Phantom):
        if mechanism.n != n:
            raise MechanismError(f"phantom vector has {mechanism.n + 1} entries, expected {n + 1}")
        return mechanism
    raise PhantomFormError(f"{type(mechanism).__name__} is not phantom-representable")
