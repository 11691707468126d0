"""The integer-rescaled mixture and its vectorized block sweeps.

The engine behind the strategyproofness, manipulation-search,
proportionality, Strong Proportionality and SPF checks in
:mod:`proploc.axioms`. :class:`Scaled` rescales a finite mixture and its
check grid to integers over a common denominator and lays its parts out
once, by kind: rank and phantom parts, dictators and averages.
The sweeps read that layout and run its grid profiles in blocks, in
enumeration order, as numpy arrays: int64 while every scaled value provably
stays below 2^62, Python ints (``dtype=object``) on the same code path
otherwise. The three group axioms share one sweep, :class:`GroupSweep`,
and one block rule, :func:`spf_fails`: an agent's cost there depends only
on its own location, so each sorted slot of a profile is priced once, and
an O(n) window rule decides SPF from those prices; on a two-valued profile
that rule is exactly the proportionality bound of each co-located group.

Every rank and phantom part outputs an order statistic of the reports and
its finite phantoms (Moulin, Public Choice 1980): :func:`order_statistics`
computes them for a block, in every block sweep, by a gather when no part
has a finite phantom and by a merge otherwise. The engine reads each part
in the normal form of :func:`proploc.core.part_form`, so the median and
every vector of the domain's ends are ranks there.

A sweep whose cost ignores agent labels (no dictator part, or, for the
weighted mixture, equal summed dictator weights for every agent) visits one
profile per multiset of reports and finds the same first failure as an
ordered sweep: see :func:`label_free`. A mixture that commutes with
translation may visit only the profiles through the grid's lowest point:
see :meth:`Scaled.anchored`.

A sweep computes, per block, a (component, row, ...) array and reduces it:
the first failing component in order, a weighted sum over components, or
the largest gain. Every block temporary holds at most
``BLOCK_ELEMENTS`` elements, so peak memory does not grow with the grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product

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

    ``translation_equivariant`` says whether every part commutes with
    translations x -> x + t that keep the profile in the domain, so that
    every agent's expected distance is translation-invariant (see
    :meth:`anchored`).
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

    def anchored(self, misreports: bool) -> bool:
        """Whether a sweep visits only the profiles through the grid's lowest
        point (:func:`sweep_profiles`; for two-valued profiles, the pairs
        whose low value is that point), a filter of the full sweep in its
        order. ``misreports`` marks a strategyproofness sweep.

        A mixture whose every part commutes with translation has the same
        costs and bounds on every translate of a profile. A failing profile
        shifted down until its minimum is the grid's lowest point stays on
        the evenly spaced grid, comes no later in the sweep and still fails,
        so the first failing profile, and the first instance of the largest
        manipulation gain, contains that point. A misreport shifts with the
        profile: on the real line the candidates cover every real misreport
        (see :class:`SpSweep`), so the shifted one is met too, but on [0,1]
        it may leave the domain, and a misreport sweep there keeps every
        profile.

        Without ``combine`` every part is its own component, all swept at
        once over the widest enumeration any of them needs: ordered profiles
        if some part is a dictator, every profile if some part does not
        commute with translation. The anchored profiles hold the first
        failure of each part that commutes with translation, so the full
        grid meets that same profile first, and a label-free part's first
        failing ordered profile is sorted, the multiset it meets alone (see
        :func:`label_free`). The first hit of the (component, row) mask then
        lies in the first failing component's first failing profile.
        """
        return self.translation_equivariant and not (misreports and self.domain == UNIT_INTERVAL)

    def to_frac(self, value: int) -> Fraction:
        return Fraction(value, self.D)

    def cost_frac(self, scaled_cost: int) -> Fraction:
        return Fraction(scaled_cost, self.cost_scale)

    def padded_phantoms(self, fill, dtype):
        """(ranked part, slot): each rank or phantom part's finite phantoms,
        in ``ranked`` order, padded with ``fill`` to the longest."""
        pad = max((len(fins) for _, fins, _ in self.ranked), default=0)
        rows = [[*fins] + [fill] * (pad - len(fins)) for _, fins, _ in self.ranked]
        return np.array(rows, dtype=dtype).reshape(len(rows), pad)


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
    part alone. Every kind but a dictator reads only the multiset of
    reports, so the mixture is label-free exactly when every agent's summed
    dictator weight is equal (:func:`last_labelled`; a permutation of the
    reports then permutes the dictators' equal weights), and each part
    alone exactly when none is a dictator. Equal shares prove nothing part
    by part: each part is then checked at weight 1.

    A label-free sweep visits one profile per orbit of the relabellings,
    its sorted tuple, and finds the first failure an ordered sweep finds.
    Relabelling a profile keeps its violations (the agents relabelled with
    it), and sorting it gives a profile no later in lexicographic order, so
    the first failing ordered profile is sorted. Restricted to sorted
    tuples, the order of ``product`` is that of
    ``combinations_with_replacement``. On that profile both sweeps check
    the same agents, reports and subsets in the same order, except that a
    multiset sweep may skip an agent repeating the previous agent's report:
    the swap of the two leaves the profile unchanged, so the two cost the
    same, and the first agent and its smallest violating report stay. The
    same holds for the largest manipulation gain and its first instance.
    """
    if combine:
        return last_labelled(dictator_shares(components, n)) is None
    return not any(isinstance(mech, Dictator) for mech, _ in components)


def profile_blocks(profiles, size: int, dtype):
    """Consecutive runs of profiles, in enumeration order, as arrays. The
    first run holds 8 profiles and each next one four times more, up to
    ``size``: a sweep that fails on an early profile, as most failing
    checks do, stops after a small block, and a full sweep adds only a few
    blocks."""
    step = min(size, 8)
    while chunk := list(islice(profiles, step)):
        yield np.array(chunk, dtype=dtype)
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


def first_failure(blocks, block_hit):
    """First failure over a block sweep, in (component, block order, index
    within the block) order. ``block_hit(block)`` returns the first failure
    (component, result) of every component on one block, or None, and keeps
    no block array alive. A later block's hit counts only if its component
    is earlier; once component 0 fails, no later block can come first.
    """
    found = None
    for block in blocks:
        hit = block_hit(block)
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
    universal check). Alone, only an average can gain: every other part is
    a generalized median, nearest the true point at r = that point. So a
    universal sweep tries only an average's breakpoints, the finite
    phantoms left out, and finds the witness the average meets alone.

    A mixture that commutes with translation sweeps only the profiles
    through the grid's lowest point on the real line, and every profile on
    [0,1], where the reports are bounded (see :meth:`Scaled.anchored`).
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
        return profile_blocks(profiles, self.block_profiles, self.dtype)

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

        return first_failure(self.blocks(), block_hit)

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
    the grid's lowest point when :meth:`Scaled.anchored` allows it."""
    profiles = anchored_profiles if scaled.anchored(misreports) else grid_profiles
    return profiles(scaled.grid_ints, scaled.n, scaled.anonymous(combine))


def two_valued_profiles(values, n: int, anonymous: bool, anchored: bool = False):
    """Every profile ``low + pattern * (high - low)`` for low < high in
    ``values``, in check order: the pairs as ``values`` lists them (low
    outer, high inner), then the 0/1 patterns in lexicographic order, as
    multisets for a label-free cost and as ordered vectors otherwise.
    Both proportionality axioms read their instances in this order, on the
    block sweep and on the exact path alike. ``anchored`` keeps the pairs
    whose low value is ``values[0]``, a prefix of that order (see
    :meth:`Scaled.anchored`)."""
    patterns = list(grid_profiles((0, 1), n, anonymous))
    for a, low in enumerate(values[:1] if anchored else values):
        for high in values[a + 1 :]:
            for pattern in patterns:
                yield tuple(high if bit else low for bit in pattern)


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
    swept at once over the same profiles, which are iterated once. Callers
    pass multisets when the swept cost ignores agent labels
    (:meth:`Scaled.anonymous`, see :func:`label_free`), ordered vectors
    otherwise: for the weighted mixture, when some agent's summed dictator
    weight differs from another's; part by part, when some part is a
    dictator. Ordered profiles need no multiset filter for the label-free
    parts: such a part's first failing ordered profile is sorted, the
    multiset it would meet when swept alone. On two-valued profiles sorting
    keeps the pair and, among the patterns with the same number of ones,
    the sorted one 0...01...1 comes first.
    """

    def __init__(self, scaled, profiles, combine: bool):
        n, ranked = scaled.n, scaled.ranked
        self.scaled, self.profiles, self.combine = scaled, profiles, combine
        self.clip = [c for c, _, _ in ranked]
        # Every report and phantom lies in (-big, big), so every cost stays
        # below 2 * n * big * weight and every bound below 8 * n * big * wden
        # (see spf_fails).
        big = max(map(abs, [*scaled.grid_ints, *scaled.phantom_values])) + 1
        weight = sum(scaled.u) if combine else max(scaled.u)
        dtype = np.int64 if 8 * n * big * (weight + scaled.wden) < INT64_BOUND else object
        self.dtype = dtype
        self.phantoms = scaled.padded_phantoms(big, dtype)
        self.positions = np.array([t for _, _, t in ranked], dtype=np.intp)
        self.coef = np.array(scaled.coef(), dtype=dtype)[:, None, None]
        # An average's output is the sum of the reports: n times its location.
        scale = [n if c in scaled.averages else 1 for c in range(len(scaled.u))]
        self.scale = np.array(scale, dtype=dtype)[:, None, None]
        self.block_profiles = max(1, BLOCK_ELEMENTS // (len(scaled.u) * (n + self.phantoms.shape[1])))

    def blocks(self):
        return profile_blocks(self.profiles, self.block_profiles, self.dtype)

    def prices(self, X):
        """(true, cost) of one block: ``true`` is (profile, slot), each
        profile sorted, and ``cost`` (component, profile, slot) the cost of
        an agent at ``true[profile, slot]``. Every part's output reads the
        profile alone, so an agent's cost depends only on its own location."""
        scaled = self.scaled
        true = np.sort(X, axis=1)
        out = np.empty((len(scaled.u), len(X)), dtype=self.dtype)
        if self.clip:
            out[self.clip] = order_statistics(true, self.phantoms, self.positions)
        for c, j in scaled.dictators:
            out[c] = X[:, j]
        for c in scaled.averages:
            out[c] = X.sum(axis=1)
        cost = self.scale * true - out[..., None]
        np.abs(cost, out=cost)
        np.multiply(cost, self.coef, out=cost)
        if self.combine:
            cost = cost.sum(axis=0, keepdims=True)
        return true, cost

    def first_violation(self):
        """(component, (profile, prices)) of the first profile that
        :func:`spf_fails` marks, or None: ``prices`` maps each location of
        the profile to that component's cost there."""
        wden = self.scaled.wden

        def block_hit(X):
            true, cost = self.prices(X)
            flat = first_hit(spf_fails(true, cost, wden))
            if flat is None:
                return None
            component, row, _ = np.unravel_index(flat, cost.shape)
            prices = {int(x): int(c) for x, c in zip(true[row], cost[component, row])}
            return int(component), (tuple(int(v) for v in X[row]), prices)

        return first_failure(self.blocks(), block_hit)


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
    windows and 2^n subsets.

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
    lowest-index member of the first failing group, the low group first.

    The rule reads int64 or Python ints (``dtype=object``), the exact path's
    too, over one common denominator (``axioms._spf_exact``). For reports
    in (-big, big), R < 2 * big, |g| < 3 * n * big and every bound is below
    8 * n * big * scale: the int64 guard of :class:`GroupSweep`.
    """
    n = true.shape[1]
    spread = true[:, -1:] - true[:, :1]
    g = n * true - np.arange(n) * spread
    high = np.maximum.accumulate(g, axis=1)
    low = np.minimum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
    return cost > scale * ((n - 1) * spread + low - high)
