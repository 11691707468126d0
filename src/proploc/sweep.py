"""The integer-rescaled mixture and its vectorized block sweeps.

The engine behind the strategyproofness, manipulation-search and group
checks of :mod:`proploc.axioms`:

- :class:`Scaled` rescales a finite mixture and its grid to integers and
  lays its parts out by kind;
- :func:`sweep_profiles` and :func:`two_valued_profiles` enumerate the
  profiles a sweep visits: multisets when the cost ignores labels
  (:func:`label_free`), those through the grid's lowest point when
  translation allows it (:func:`sweep_profiles`);
- :class:`SpSweep` prices every breakpoint misreport, and
  :class:`GroupSweep` every sorted slot for the one group block rule,
  :func:`spf_fails`, or its row form :func:`spf_first_row`;
  :func:`order_statistics` gives the rank and phantom outputs of a block.

Blocks run in enumeration order as int64 arrays while every scaled value
provably stays below ``INT64_BOUND``, as Python ints (``dtype=object``)
otherwise, and no block temporary exceeds ``BLOCK_ELEMENTS`` elements. A
group sweep's first block, at most 8 profiles, runs in plain Python ints,
with no array.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations_with_replacement, islice, product
from operator import gt

import numpy as np

from .core import (
    NEG_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    ZERO,
    Dictator,
    Infinite,
    Phantom,
    RankK,
)

# Cap, in array elements, on every temporary of one sweep block, so peak
# memory does not grow with the grid. 2^14 int64 values are 128 KiB: at 2^15
# the allocator kept about two freed 256 KiB blocks resident, and peak RSS
# over a long run of checks rose by 0.3 MB with no measurable speed-up.
BLOCK_ELEMENTS = 1 << 14
# A sweep whose largest scaled value could reach this runs on Python ints.
INT64_BOUND = 1 << 62


class Scaled:
    """A finite mixture and check grid rescaled to integer arithmetic.

    ``components`` are (mechanism, weight) pairs, each part in the normal
    form of :func:`proploc.core.part_form`, which has validated it: a rank,
    a phantom vector, a dictator or an average. Every grid point, finite
    phantom and breakpoint candidate (a report, a phantom, a window end or
    step beyond it, the average's balance report n * true - sum of the
    others) is an integer over the common denominator D, so no midpoints
    are needed. Costs carry the fixed scale wden * n * D: part c, of
    integer weight ``u[c]``, adds u[c] * n * |true - output|, an average
    u[c] * |n * true - sum of reports|.

    The parts are laid out once, by kind, each kind in part order:

    - ``ranked``: (part, finite phantoms, position) of every rank and
      phantom part, whose output is the position-th (from 0) of the sorted
      reports and its finite phantoms: n minus its number of -inf phantoms,
      so a rank k is (part, (), n - k). The median and every vector of the
      domain's ends come as ranks, so they need no merge;
    - ``dictators``: (part, agent index); ``averages``: part indices.

    ``translation_equivariant``: every part commutes with x -> x + t (see
    :func:`sweep_profiles`).
    """

    def __init__(self, components, n: int, domain: str, grid: int):
        self.n, self.domain = n, domain
        denoms = [grid if domain == UNIT_INTERVAL else 1]
        for mech, _ in components:
            if isinstance(mech, Phantom):
                denoms.extend(y.denominator for y in mech.phantoms if not isinstance(y, Infinite))
        self.D = D = math.lcm(*denoms)
        self.wden = wden = math.lcm(*(weight.denominator for _, weight in components))
        self.cost_scale = wden * n * D
        # D and wden are common multiples of the denominators, so the
        # integer divisions below are exact.
        self.u = tuple(weight.numerator * (wden // weight.denominator) for _, weight in components)

        ranked, dictators, averages = [], [], []
        for c, (mech, _) in enumerate(components):
            if isinstance(mech, RankK):
                ranked.append((c, (), n - mech.k))
            elif isinstance(mech, Phantom):
                fins = tuple(y.numerator * (D // y.denominator)
                             for y in mech.phantoms if not isinstance(y, Infinite))
                ranked.append((c, fins, n - sum(1 for y in mech.phantoms if y is NEG_INF)))
            elif isinstance(mech, Dictator):
                dictators.append((c, mech.agent - 1))
            else:
                averages.append(c)
        self.components = components
        self.ranked, self.dictators, self.averages = tuple(ranked), tuple(dictators), tuple(averages)
        # Ranks, dictators and averages commute with x -> x + t. A phantom
        # part in normal form has a phantom strictly inside the domain, or is
        # a constant on [0,1], and does not.
        self.translation_equivariant = not any(isinstance(mech, Phantom) for mech, _ in components)
        self.phantom_values = tuple(sorted({y for _, fins, _ in ranked for y in fins}))
        self.pad = max((len(fins) for _, fins, _ in ranked), default=0)
        # grid_points(domain, grid) over D, without building the Fractions.
        if domain == UNIT_INTERVAL:
            self.grid_ints = tuple(j * (D // grid) for j in range(grid + 1))
        else:
            self.grid_ints = tuple(v * D for v in range(-grid, grid + 1))

    def coef(self) -> list[int]:
        """Each part's cost factor: its weight u times n, or times 1 for an
        average (its distance is already n times its output's). A universal
        check hands every part in at weight 1, so there u is 1."""
        return [u * (1 if c in self.averages else self.n) for c, u in enumerate(self.u)]

    def anonymous(self, combine: bool) -> bool:
        """Whether the swept cost ignores agent labels, so that one profile
        per multiset of reports is swept: see :func:`label_free`."""
        return label_free(self.components, self.n, combine)

    def to_frac(self, value: int) -> Fraction:
        return Fraction(value, self.D)

    def cost_frac(self, scaled_cost: int) -> Fraction:
        return Fraction(scaled_cost, self.cost_scale)

    def padded_phantoms(self, fill, dtype):
        """(ranked part, slot): each rank or phantom part's finite phantoms,
        in ``ranked`` order, padded with ``fill`` to the longest, ``pad``."""
        rows = [[*fins] + [fill] * (self.pad - len(fins)) for _, fins, _ in self.ranked]
        return np.array(rows, dtype=dtype).reshape(len(rows), self.pad)


def dictator_shares(components, n: int) -> list[Fraction]:
    """Each agent's summed dictator weight over (mechanism, weight) pairs."""
    shares = [ZERO] * n
    for mech, weight in components:
        if isinstance(mech, Dictator):
            shares[mech.agent - 1] += weight
    return shares


def last_labelled(shares):
    """The last agent (from 0) whose summed dictator weight differs from
    agent n's, or None when all are equal (see :func:`label_free`)."""
    last = shares[-1]
    if shares.count(last) == len(shares):
        return None
    return next(j for j in range(len(shares) - 2, -1, -1) if shares[j] != last)


def label_free(components, n: int, combine: bool) -> bool:
    """Whether the (mechanism, weight) pairs ignore agent labels: with
    ``combine`` the weighted mixture (its expected cost), otherwise each
    part alone, at weight 1. Every kind but a dictator reads only the
    multiset of reports, so the mixture is label-free exactly when every
    agent's summed dictator weight is equal (:func:`last_labelled`), and
    each part alone exactly when none is a dictator.

    A label-free sweep visits one profile per orbit of the relabellings,
    its sorted tuple, and finds the first failure an ordered sweep finds.
    Relabelling a profile keeps its violations (the agents relabelled with
    it), and sorting it gives a profile no later in the sweep's order
    (lexicographic; on two-valued profiles the same pair, a pattern no
    later), so the first failing ordered profile is sorted: a label-free
    part stacked with dictators over ordered profiles meets it first too.
    Restricted to sorted tuples, the order of ``product`` is that of
    ``combinations_with_replacement``. On that profile both sweeps check
    the same agents, reports and subsets in the same order, except that a
    multiset sweep may skip an agent repeating the previous agent's report:
    the swap of the two leaves the profile unchanged, so the two cost the
    same, and the first agent and its smallest violating report stay. The
    same holds for the largest manipulation gain and its first instance
    (``tests/test_orbit_sweep.py::
    test_equal_dictator_shares_sweep_multisets_with_the_ordered_verdicts``).
    """
    if combine:
        return last_labelled(dictator_shares(components, n)) is None
    return not any(isinstance(mech, Dictator) for mech, _ in components)


def profile_blocks(profiles, size: int):
    """Consecutive runs of profiles, in enumeration order, as lists. The
    first run holds 8 profiles and each next one four times more, up to
    ``size``: a sweep that fails on an early profile, as most failing
    checks do, stops after a small block, and a full sweep adds only a few
    blocks."""
    step = min(size, 8)
    while chunk := list(islice(profiles, step)):
        yield chunk
        step = min(size, 4 * step)


def order_statistics(rows, phantoms, positions):
    """Entry ``positions[c]`` (from 0) of each sorted row of ``rows`` merged
    with part c's ``phantoms[c]``: shape (*positions.shape, row). Phantoms
    are (part, slot), padded with a value no entry of ``rows`` exceeds;
    positions are (part,) or (part, k). Without phantoms, a gather."""
    if not phantoms.shape[1]:
        return rows.T[positions]
    width = rows.shape[1]
    merged = np.empty((len(phantoms), len(rows), width + phantoms.shape[1]), dtype=rows.dtype)
    merged[..., :width] = rows
    merged[..., width:] = phantoms[:, None]
    merged.sort(axis=2)
    parts = np.arange(len(phantoms)).reshape(-1, *[1] * (positions.ndim - 1))
    return merged[parts, :, positions]


def first_hit(mask):
    """Flat index of the first True of a mask, in C order, or None. With the
    component on the leading axis, it lies in the first failing component."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def first_failure(hits):
    """First failure over a block sweep, in (component, block order, index
    within the block) order. ``hits`` yields, block by block, the first
    failure (component, result) of every component on that block, or None,
    and is read lazily: a later block's hit counts only if its component is
    earlier, and once component 0 fails, no later block is read.
    """
    found = None
    for hit in hits:
        if hit is not None and (found is None or hit[0] < found[0]):
            found = hit
            if found[0] == 0:
                break
    return found


class SpSweep:
    """Misreport costs of one rescaled mixture, swept in profile blocks.

    Every part is a generalized median of the deviating agent's report r
    (Moulin, Public Choice 1980): with the other reports fixed it outputs
    clip(r, lo, hi). For a rank or phantom part at position t (see
    :class:`Scaled`), lo and hi are entries t and t + 1 of the other
    reports between sentinels -big and big, merged with its finite
    phantoms: :func:`order_statistics`, sentinels beyond every candidate
    where an entry is missing. The agent's own dictator part has
    lo = -inf, hi = +inf; another agent's is the constant x_j. So each part
    costs coef * |b - clip(r, lo, hi)|, with b the true point, except that
    the average costs |n*true - S_others - r|: b = n*true - S_others, no clip.

    That cost is piecewise linear in r, with kinks only at lo, hi, the true
    point and the average's balance report, so the candidates are the
    breakpoints: the window ends, the profile's reports (true point
    included), the finite phantoms, the balance report and, on the real
    line, one step beyond each end of the window. Beyond the outermost kink
    every part's cost is constant or grows, so these candidates cover every
    real misreport. Repeated candidates and the true point cost the
    truthful amount and never count as a violation; the witness of a row is
    its smallest violating (or best) report, so no per-row sort is needed.

    ``combine`` sums the parts with their weights into one component (the
    in-expectation cost); otherwise each part is its own component (a
    universal check). Alone, only an average can gain (see
    ``axioms._sp_theorem``), so a universal sweep tries only an average's
    breakpoints, the finite phantoms left out.
    """

    def __init__(self, scaled, combine: bool):
        n, ranked = scaled.n, scaled.ranked
        ends = [scaled.grid_ints[0], scaled.grid_ints[-1]]
        if scaled.domain == REAL_LINE:
            ends += [ends[0] - scaled.D, ends[1] + scaled.D]
        # Every candidate, the balance report included, and every phantom lies
        # strictly inside (-big, big); a part's cost stays below 2 * big * coef.
        big = 2 * n * max(map(abs, [*ends, *scaled.phantom_values])) + 1
        dtype = np.int64 if 4 * n * big * sum(scaled.u) < INT64_BOUND else object
        self.scaled, self.combine, self.big, self.dtype = scaled, combine, big, dtype
        self.anonymous = scaled.anonymous(combine)
        self.fixed = np.array(ends + list(scaled.phantom_values) if combine else ends, dtype=dtype)
        self.other_agents = np.array([[j for j in range(n) if j != i] for i in range(n)])

        self.clip = [c for c, _, _ in ranked]
        self.phantoms = scaled.padded_phantoms(big, dtype)
        self.positions = np.array([(t, t + 1) for _, _, t in ranked], dtype=np.intp).reshape(len(ranked), 2)
        self.coef = np.array(scaled.coef(), dtype=dtype)[:, None]
        self.width = width = len(self.fixed) + n + bool(scaled.averages)  # candidates per row
        # Per (part, row): the candidates' costs, or the merged reports and phantoms.
        per_row = len(scaled.u) * max(width, n + 1 + self.phantoms.shape[1])
        self.block_profiles = max(1, BLOCK_ELEMENTS // (per_row * n))

    def blocks(self):
        profiles = sweep_profiles(self.scaled, self.combine, misreports=True)
        return (np.array(chunk, dtype=self.dtype) for chunk in profile_blocks(profiles, self.block_profiles))

    def _bounds(self, rows, others, agent, true, balance):
        """(lo, hi, b), each (part, row)."""
        big, n = self.big, self.scaled.n
        lo = np.full((len(self.scaled.u), len(rows)), -big, dtype=self.dtype)
        hi = np.full_like(lo, big)
        b = np.empty_like(lo)
        b[:] = true
        if self.clip:
            if not self.anonymous:
                others = np.sort(others, axis=1)
            reports = np.empty((len(rows), n + 1), dtype=self.dtype)
            reports[:, 0], reports[:, 1:-1], reports[:, -1] = -big, others, big
            bounds = order_statistics(reports, self.phantoms, self.positions)
            lo[self.clip], hi[self.clip] = bounds[:, 0], bounds[:, 1]
        for c, j in self.scaled.dictators:
            own = agent == j
            lo[c] = np.where(own, -big, rows[:, j])
            hi[c] = np.where(own, big, rows[:, j])
        for c in self.scaled.averages:
            b[c] = balance
        return lo, hi, b

    def costs(self, X):
        """(prof, agent, candidates, deviating, truthful) of one block.

        Rows are (profile, agent) pairs in order; a label-free sweep, whose
        profiles are sorted, skips an agent repeating the previous agent's
        report, whose costs are the same (see :func:`label_free`).
        ``deviating`` is (component, row, candidate) and ``truthful``
        (component, row).
        """
        scaled, n = self.scaled, self.scaled.n
        keep = np.ones(X.shape, dtype=bool)
        if self.anonymous:
            keep[:, 1:] = X[:, 1:] != X[:, :-1]
        prof, agent = np.nonzero(keep)
        rows = X[prof]
        at = np.arange(len(rows))
        true = rows[at, agent]
        others = rows[at[:, None], self.other_agents[agent]]
        balance = n * true - others.sum(axis=1)
        nfixed = len(self.fixed)
        candidates = np.empty((len(rows), self.width), dtype=self.dtype)
        candidates[:, :nfixed] = self.fixed
        candidates[:, nfixed : nfixed + n] = rows
        if scaled.averages:
            inside = (balance >= 0) & (balance <= scaled.D) | (scaled.domain == REAL_LINE)
            candidates[:, -1] = np.where(inside, balance, true)

        lo, hi, b = self._bounds(rows, others, agent, true, balance)
        truthful = self.coef * abs(b - np.minimum(np.maximum(true, lo), hi))
        # In place, so one block holds a single (component, row, candidate)
        # array: coef * |b - clip(candidate, lo, hi)|.
        deviating = np.maximum(candidates, lo[..., None])
        np.minimum(deviating, hi[..., None], out=deviating)
        np.subtract(b[..., None], deviating, out=deviating)
        np.abs(deviating, out=deviating)
        np.multiply(deviating, self.coef[..., None], out=deviating)
        if self.combine:
            truthful = truthful.sum(axis=0, keepdims=True)
            deviating = deviating.sum(axis=0, keepdims=True)
        return prof, agent, candidates, deviating, truthful

    def _violation(self, X, costs, mask):
        """(component, (profile, agent, report, deviating, truthful)) at the
        first (component, row) of ``mask`` and its smallest marked report,
        or None if nothing is marked."""
        flat = first_hit(mask)
        if flat is None:
            return None
        prof, agent, candidates, deviating, truthful = costs
        component, row, _ = np.unravel_index(flat, mask.shape)
        marked = np.flatnonzero(mask[component, row])
        column = min(marked, key=lambda j: candidates[row, j])
        return int(component), (
            tuple(int(v) for v in X[prof[row]]),
            int(agent[row]),
            int(candidates[row, column]),
            int(deviating[component, row, column]),
            int(truthful[component, row]),
        )

    def first_violation(self):
        """(component, (profile, agent, report, deviating, truthful)) of the
        first profitable misreport, or None."""

        def block_hit(X):
            costs = self.costs(X)
            return self._violation(X, costs, costs[3] < costs[4][..., None])

        return first_failure(map(block_hit, self.blocks()))

    def best_gain(self):
        """The largest truthful-minus-deviating gain, first instance on ties,
        as (profile, agent, report, deviating, truthful); None if no gain."""

        def block_best(X):
            costs = self.costs(X)
            gain = costs[4][..., None] - costs[3]
            top = gain.max()
            return top, self._violation(X, costs, gain == top)[1]

        best, best_gain = None, 0
        for X in self.blocks():
            gain, violation = block_best(X)
            # Strictly larger only: ties keep the earlier instance.
            if gain > best_gain:
                best, best_gain = violation, gain
        return best


def grid_profiles(values, n: int, anonymous: bool):
    """Every profile of n reports from ``values``, lexicographic: multisets
    (sorted tuples) for a label-free cost, ordered vectors otherwise."""
    if anonymous:
        return combinations_with_replacement(values, n)
    return product(values, repeat=n)


def anchored_profiles(values, n: int, anonymous: bool):
    """The profiles of :func:`grid_profiles` that contain ``values[0]``, in
    the same order."""
    low = values[0]
    if anonymous:
        return ((low, *rest) for rest in combinations_with_replacement(values, n - 1))
    return (X for X in product(values, repeat=n) if low in X)


def sweep_profiles(scaled, combine: bool, misreports: bool = False):
    """The grid profiles a sweep of ``scaled`` visits, in check order:
    multisets when the swept cost ignores agent labels (see
    :func:`label_free`), ordered vectors otherwise, and only those through
    the grid's lowest point when every part commutes with translation,
    unless ``misreports`` marks a strategyproofness sweep on [0,1].

    Such a mixture has the same costs and bounds on every translate of a
    profile. A failing profile shifted down until its minimum is the grid's
    lowest point stays on the evenly spaced grid, comes no later in the
    sweep and still fails, so the first failing profile, and the first
    instance of the largest manipulation gain, contains that point. A
    misreport shifts with its profile: on the real line the candidates
    cover every real misreport (see :class:`SpSweep`), but on [0,1] the
    shifted one may leave the domain (1/2 ``RankK(1)`` + 1/2 ``Average`` at
    n=2, grid 2 fails in expectation only off the profiles through 0).
    Without ``combine`` the parts are swept stacked, over the widest
    enumeration any of them needs; a part that commutes with translation
    first fails there on a profile through the lowest point (as above), the
    one its anchored sweep meets first. An anchored PASS covers every
    real translate of a grid profile that stays in the domain
    (``tests/test_sweep_differential.py::
    test_sp_sweep_counts_one_multiset_per_translation_orbit``).
    """
    anchored = scaled.translation_equivariant and not (misreports and scaled.domain == UNIT_INTERVAL)
    profiles = anchored_profiles if anchored else grid_profiles
    return profiles(scaled.grid_ints, scaled.n, scaled.anonymous(combine))


def two_valued_profiles(values, n: int, anonymous: bool):
    """Every profile ``low + pattern * (high - low)`` for low < high in
    ``values``, in check order: the pairs as ``values`` lists them (low
    outer, high inner), then the 0/1 patterns in lexicographic order, as
    multisets for a label-free cost and as ordered vectors otherwise.
    Both proportionality axioms read their instances in this order, on the
    block sweep and on the exact path alike."""
    patterns = list(grid_profiles((0, 1), n, anonymous))
    for a, low in enumerate(values):
        for high in values[a + 1 :]:
            for pattern in patterns:
                # A list, not a generator, into tuple: a third of the time.
                yield tuple([high if bit else low for bit in pattern])


class GroupSweep:
    """Per-slot costs of one rescaled mixture over ``profiles``, swept in
    blocks and decided by :func:`spf_fails`: the one block rule of SPF, and
    of proportionality and Strong Proportionality on two-valued profiles
    (see :func:`two_valued_profiles`), where it is exactly the group bound.
    Only the first failing (component, profile) leaves the engine, with its
    prices, for the walk that names the witness.

    A part's output is its order statistic of the reports (a rank), of the
    reports plus its finite phantoms (a phantom), a dictator's report, or
    the sum of the reports (the average, whose cost is |n*true - sum|).
    ``combine`` sums the parts with their weights into one component (the
    in-expectation cost); otherwise each part is its own component, all
    swept at once over the same profiles, which are iterated once: multisets
    when the swept cost ignores agent labels (see :func:`label_free`),
    ordered vectors otherwise. The first block runs in Python ints, a
    profile at a time, and later blocks as arrays (:meth:`first_violation`).
    """

    def __init__(self, scaled, profiles, combine: bool):
        n = scaled.n
        self.scaled, self.profiles, self.combine = scaled, profiles, combine
        # Every report and phantom lies in (-big, big), so every cost stays
        # below 2 * n * big * weight and every bound below 8 * n * big * wden
        # (see spf_fails).
        big = max(map(abs, [*scaled.grid_ints, *scaled.phantom_values])) + 1
        weight = sum(scaled.u) if combine else max(scaled.u)
        dtype = np.int64 if 8 * n * big * (weight + scaled.wden) < INT64_BOUND else object
        self.big, self.dtype = big, dtype
        # Per part: its cost factor and its output's scale, n for the average's sum.
        self.factors = [(k, n if c in scaled.averages else 1) for c, k in enumerate(scaled.coef())]
        self.block_profiles = max(1, BLOCK_ELEMENTS // (len(scaled.u) * (n + scaled.pad)))

    @cached_property
    def arrays(self):
        """(phantoms, positions, coef, scale) of :meth:`prices`, built at its
        first block: a sweep that fails in its first block needs none."""
        scaled, dtype = self.scaled, self.dtype
        positions = np.array([t for _, _, t in scaled.ranked], dtype=np.intp)
        coef, scale = (np.array(f, dtype=dtype)[:, None, None] for f in zip(*self.factors))
        return scaled.padded_phantoms(self.big, dtype), positions, coef, scale

    def prices(self, X):
        """(true, cost) of one block: ``true`` is (profile, slot), each
        profile sorted, and ``cost`` (component, profile, slot) the cost of
        an agent at ``true[profile, slot]``. Every part's output reads the
        profile alone, so an agent's cost depends only on its own location."""
        scaled, (phantoms, positions, coef, scale) = self.scaled, self.arrays
        X = np.array(X, dtype=self.dtype)
        true = np.sort(X, axis=1)
        out = np.empty((len(scaled.u), len(X)), dtype=self.dtype)
        if scaled.ranked:
            out[[c for c, _, _ in scaled.ranked]] = order_statistics(true, phantoms, positions)
        for c, j in scaled.dictators:
            out[c] = X[:, j]
        for c in scaled.averages:
            out[c] = X.sum(axis=1)
        cost = scale * true - out[..., None]
        np.abs(cost, out=cost)
        np.multiply(cost, coef, out=cost)
        if self.combine:
            cost = cost.sum(axis=0, keepdims=True)
        return true, cost

    def row_hit(self, X):
        """The first failure (component, (profile, prices)) of the one
        profile X, or None: :meth:`prices` and :func:`spf_fails` of a block
        of one profile, in Python ints."""
        scaled = self.scaled
        true, out = sorted(X), [0] * len(scaled.u)
        for c, fins, t in scaled.ranked:
            out[c] = sorted([*true, *fins])[t] if fins else true[t]
        for c, j in scaled.dictators:
            out[c] = X[j]
        for c in scaled.averages:
            out[c] = sum(X)
        cost = [[k * abs(s * x - y) for x in true] for (k, s), y in zip(self.factors, out)]
        if self.combine:
            cost = [list(map(sum, zip(*cost)))]
        component = spf_first_row(true, cost, scaled.wden)
        return None if component is None else (component, (tuple(X), dict(zip(true, cost[component]))))

    def first_violation(self):
        """(component, (profile, prices)) of the first profile that
        :func:`spf_fails` marks, or None: ``prices`` maps each location of
        the profile to that component's cost there.

        The first block of :func:`profile_blocks`, where almost every
        failing check stops, runs in Python ints (:meth:`row_hit`), which
        cost less there than numpy's set-up and small-array calls, and reads
        only the profiles it needs. Each of its profiles is a block to
        :func:`first_failure`, so the hit is still the first in (component,
        profile) order; the arrays' blocks start again from the next one."""
        wden = self.scaled.wden

        def block_hit(profiles):
            true, cost = self.prices(profiles)
            flat = first_hit(spf_fails(true, cost, wden))
            if flat is None:
                return None
            component, row, _ = np.unravel_index(flat, cost.shape)
            prices = {int(x): int(c) for x, c in zip(true[row], cost[component, row])}
            return int(component), (tuple(profiles[row]), prices)

        profiles = iter(self.profiles)
        rows = map(self.row_hit, islice(profiles, min(self.block_profiles, 8)))
        return first_failure(chain(rows, map(block_hit, profile_blocks(profiles, self.block_profiles))))


def spf_fails(true, cost, scale):
    """Mask, shaped as ``cost``, of the slots that cost more than their SPF
    bound: ``true`` is (profile, slot), each profile sorted, and ``cost``
    (profile, slot) or (component, profile, slot). A profile fails SPF
    exactly when one of its slots is marked.

    SPF asks, of every subset S of the agents with inner range r on a
    profile of range R, that each member cost at most
    scale * ((n - |S|) * R + n * r). Sort the reports as
    x_0 <= ... <= x_{n-1}. A subset whose members span the slots a..b has
    inner range x_b - x_a and at most b - a + 1 members, so its bound is at
    least that of the window a..b, a subset that holds all its members. So
    some member of some subset fails exactly when some slot j of some window
    a <= j <= b costs more than the window's bound. With
    g_k = n * x_k - k * R, that bound,
    scale * ((n - (b - a + 1)) * R + n * (x_b - x_a)), is
    scale * ((n - 1) * R + g_b - g_a). For slot j it is least at the largest
    g_a over a <= j and the smallest g_b over b >= j: a running maximum and
    a reversed running minimum, O(n) per profile, where there are O(n^2)
    windows and 2^n subsets
    (``tests/test_sweep_differential.py::test_spf_window_test_matches_every_subset``).

    The same rule decides proportionality and Strong Proportionality. On a
    two-valued profile with s agents at low (slots 0..s-1) and R = high -
    low, g_k = n * low - k * R for a low slot and n * low + (n - k) * R for
    a high one. For a low slot j the largest g_a over a <= j is n * low
    (a = 0) and the smallest g_b over b >= j is n * low - (s - 1) * R
    (b = s - 1; a high slot's g is at least n * low + R), so the bound is
    scale * (n - s) * R. For a high slot the largest g_a over a <= j is
    n * low + (n - s) * R (a = s) and the smallest g_b is n * low + R
    (b = n - 1), so the bound is scale * s * R. Each is scale times the
    size of the other group times the gap: the group bound, (n - s)/n of
    the gap at scale 1/n. An agent's cost depends only on its location, so
    a group's members cost the same, and the first marked slot is the
    lowest-index member of the first failing group, the low group first
    (``tests/test_sweep_differential.py::
    test_spf_rule_is_the_group_bound_on_two_valued_profiles``).

    The rule reads int64 or Python ints (``dtype=object``), the exact path's
    too, over one common denominator (``axioms._spf_exact_violation``). For
    reports in (-big, big), R < 2 * big, |g| < 3 * n * big and every bound
    is below 8 * n * big * scale: the int64 guard of :class:`GroupSweep`.
    """
    n = true.shape[1]
    spread = true[:, -1:] - true[:, :1]
    g = n * true - np.arange(n) * spread
    high = np.maximum.accumulate(g, axis=1)
    low = np.minimum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
    return cost > scale * ((n - 1) * spread + low - high)


def spf_first_row(true, costs, scale):
    """The first row of ``costs`` in which :func:`spf_fails` marks a slot,
    or None: ``true`` is one sorted profile and each row its slots' costs,
    all Python ints. The slots' bounds are the block rule's, computed once
    for every row."""
    n, spread = len(true), true[-1] - true[0]
    g = [n * x - k * spread for k, x in enumerate(true)]
    high, low = accumulate(g, max), list(accumulate(reversed(g), min))[::-1]
    bounds = [scale * ((n - 1) * spread + b - a) for a, b in zip(high, low)]
    return next((i for i, cost in enumerate(costs) if any(map(gt, cost, bounds))), None)
