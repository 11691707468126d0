"""Vectorized block sweeps over an integer-rescaled mixture.

The engine behind the strategyproofness, manipulation-search, anonymity,
proportionality and Strong Proportionality checks in :mod:`proploc.axioms`.
It takes the rescaled mixture those checks build (integer reports over a
common denominator, parts tagged rank, phantom, dictator or average) and
sweeps its grid profiles in blocks, in enumeration order, as numpy arrays:
int64 while every scaled value provably stays below 2^62, Python ints
(``dtype=object``) on the same code path otherwise.

A sweep computes, per block, a (component, row, ...) array and reduces it:
the first failing component in order, a weighted sum over components, or
the largest gain. Every block temporary is capped at
``BLOCK_ELEMENTS`` elements, so peak memory does not grow with the grid.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement, islice, product

import numpy as np

from .core import REAL_LINE

# Cap, in array elements, on every temporary of one sweep block, so peak
# memory does not grow with the grid. 2^14 int64 values are 128 KiB: at 2^15
# the allocator kept about two freed 256 KiB blocks resident, and peak RSS
# over a long run of checks rose by 0.3 MB with no measurable speed-up.
BLOCK_ELEMENTS = 1 << 14
# A sweep whose largest scaled value could reach this runs on Python ints.
INT64_BOUND = 1 << 62


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


def first_hit(mask):
    """Flat index of the first True of a mask, in C order, or None. With the
    component on the leading axis, it lies in the first failing component."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def first_failure(blocks, count: int, block_hit):
    """First failure over a block sweep, in (component, block order, index
    within the block) order. ``block_hit(block, limit)`` returns the first
    failure (component, result) of components ``0..limit-1`` on one block,
    or None, and keeps no block array alive. Once component c fails, later
    blocks are evaluated only for the components before c: c's first
    failure is already known, and only an earlier component can come first.
    """
    found = None
    for block in blocks:
        hit = block_hit(block, count)
        if hit is not None:
            found, count = hit, hit[0]
            if count == 0:
                break
    return found


class SpSweep:
    """Misreport costs of one rescaled mixture, swept in profile blocks.

    Every part is a generalized median of the deviating agent's report r
    (Moulin, Public Choice 1980): with the other reports fixed it outputs
    clip(r, lo, hi). For a rank or phantom part, lo and hi are the entries
    at n - neg - 1 and n - neg of the sorted other reports plus its finite
    phantoms, where neg counts its -inf phantoms; missing entries are
    sentinels beyond every candidate. The agent's own dictator part has
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
    in-expectation cost); otherwise each part is its own component.
    """

    def __init__(self, scaled, combine: bool):
        n, parts = scaled.n, scaled.parts
        ends = [scaled.grid_ints[0], scaled.grid_ints[-1]]
        fixed = ends + list(scaled.phantom_values)
        if scaled.domain == REAL_LINE:
            fixed += [ends[0] - scaled.D, ends[1] + scaled.D]
        # Every candidate, the balance report included, lies strictly inside
        # (-big, big); a part's cost stays below 2 * big * coef.
        big = 2 * n * max(map(abs, fixed)) + 1
        weight = sum(part[-1] for part in parts)
        dtype = np.int64 if 4 * n * big * weight < INT64_BOUND else object
        self.scaled, self.combine, self.big, self.dtype = scaled, combine, big, dtype
        self.fixed = np.array(fixed, dtype=dtype)
        self.count = 1 if combine else len(parts)
        self.other_agents = np.array([[j for j in range(n) if j != i] for i in range(n)])

        kinds = [part[0] for part in parts]
        self.clip = [c for c, kind in enumerate(kinds) if kind in ("rank", "ph")]
        fins = [parts[c][2] if kinds[c] == "ph" else () for c in self.clip]
        pad = max(map(len, fins), default=0)
        # B[c]: part c's finite phantoms between -big and big (padding). For
        # each split i of _bounds keep B[c, index - i] and B[c, index + 1 - i],
        # clamped to B's ends: shape (split, lo or hi, part).
        B = [[-big, *f] + [big] * (pad + 1 - len(f)) for f in fins]
        index = [n - parts[c][1] for c in self.clip]
        self.splits = np.array(
            [
                [[row[min(max(t + shift - i, 0), pad + 1)] for row, t in zip(B, index)] for shift in (0, 1)]
                for i in range(n)
            ],
            dtype=dtype,
        ).reshape(n, 2, len(B))
        self.dicts = [(c, part[1]) for c, part in enumerate(parts) if part[0] == "dict"]
        self.avg = [c for c, kind in enumerate(kinds) if kind == "avg"]
        coef = [1 if kind == "avg" else n for kind in kinds]
        if combine:
            coef = [a * part[-1] for a, part in zip(coef, parts)]
        self.coef = np.array(coef, dtype=dtype)[:, None]
        self.width = len(fixed) + n + scaled.has_avg  # candidates per row
        # Per (part, row): the candidates' costs, or the 2n split bounds.
        per_row = len(parts) * max(self.width, 2 * n)
        self.block_profiles = max(1, BLOCK_ELEMENTS // (per_row * n))

    def blocks(self):
        return profile_blocks(self.scaled.profiles(), self.block_profiles, self.dtype)

    def _bounds(self, rows, others, agent, true, balance, parts: int):
        """(lo, hi, b), each (part, row), of the first ``parts`` parts."""
        big, n = self.big, self.scaled.n
        lo = np.full((parts, len(rows)), -big, dtype=self.dtype)
        hi = np.full_like(lo, big)
        b = np.empty_like(lo)
        b[:] = true
        k = bisect_left(self.clip, parts)
        if k:
            # A[:, i] and B[c, j] are the i-th and j-th smallest of the other
            # reports and of part c's phantoms (-big at 0, big past the end).
            # The t-th smallest of both together is the least, over splits
            # i + j = t, of max(A[:, i], B[c, j]); lo and hi are the index-th
            # and (index + 1)-th.
            if not self.scaled.anonymous:
                others = _sorted_rows(others)
            A = np.empty((len(rows), n), dtype=self.dtype)
            A[:, 0] = -big
            A[:, 1:] = others
            least = np.maximum(A.T[:, None, None, :], self.splits[:, :, :k, None]).min(axis=0)
            lo[self.clip[:k]], hi[self.clip[:k]] = least
        for c, j in self.dicts:
            if c < parts:
                own = agent == j
                lo[c] = np.where(own, -big, rows[:, j])
                hi[c] = np.where(own, big, rows[:, j])
        for c in self.avg:
            if c < parts:
                b[c] = balance
        return lo, hi, b

    def costs(self, X, limit: int):
        """(prof, agent, candidates, deviating, truthful) of one block.

        Rows are (profile, agent) pairs in order; an anonymous mixture skips
        an agent repeating the previous agent's report, whose costs are the
        same. ``deviating`` is (component, row, candidate) and ``truthful``
        (component, row), for the first ``limit`` components.
        """
        scaled, n = self.scaled, self.scaled.n
        keep = np.ones(X.shape, dtype=bool)
        if scaled.anonymous:
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
        if scaled.has_avg:
            inside = (balance >= 0) & (balance <= scaled.D) | (scaled.domain == REAL_LINE)
            candidates[:, -1] = np.where(inside, balance, true)

        parts = len(scaled.parts) if self.combine else limit
        lo, hi, b = self._bounds(rows, others, agent, true, balance, parts)
        coef = self.coef[:parts]
        truthful = coef * abs(b - np.minimum(np.maximum(true, lo), hi))
        # In place, so one block holds a single (component, row, candidate)
        # array: coef * |b - clip(candidate, lo, hi)|.
        deviating = np.maximum(candidates, lo[..., None])
        np.minimum(deviating, hi[..., None], out=deviating)
        np.subtract(b[..., None], deviating, out=deviating)
        np.abs(deviating, out=deviating)
        np.multiply(deviating, coef[..., None], out=deviating)
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
        column = min(np.flatnonzero(mask[component, row]), key=lambda j: candidates[row, j])
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

        def block_hit(X, limit):
            costs = self.costs(X, limit)
            return self._violation(X, costs, costs[3] < costs[4][..., None])

        return first_failure(self.blocks(), self.count, block_hit)

    def best_gain(self):
        """The largest truthful-minus-deviating gain, first instance on ties,
        as (profile, agent, report, deviating, truthful); None if no gain."""

        def block_best(X):
            costs = self.costs(X, self.count)
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


def _sorted_rows(a):
    """The rows of a narrow 2-d array, each sorted ascending, by an odd-even
    transposition network of column minima and maxima."""
    a = a.copy()
    width = a.shape[1]
    for step in range(width):
        for j in range(step % 2, width - 1, 2):
            low = np.minimum(a[:, j], a[:, j + 1])
            a[:, j + 1] = np.maximum(a[:, j], a[:, j + 1])
            a[:, j] = low
    return a


def first_dictator_shift(scaled, perms, combine: bool):
    """(part index, profile, permutation) of the first relabelling that
    moves the output, over ordered grid profiles, or None.

    Rank, phantom and average parts read only the multiset of reports, so
    relabelling cannot move them: only dictator parts are swept, and a
    mixture without one passes without a profile loop. With ``combine`` the
    dictator weights form one component (the expected location); otherwise
    each dictator part is its own component.
    """
    n = scaled.n
    dictators = [c for c, part in enumerate(scaled.parts) if part[0] == "dict"]
    if not dictators:
        return None
    groups = [dictators] if combine else [[c] for c in dictators]
    weights = [[0] * n for _ in groups]
    for row, members in zip(weights, groups):
        for c in members:
            row[scaled.parts[c][1]] += scaled.parts[c][-1]
    bound = 2 * max(map(abs, scaled.grid_ints)) * sum(map(sum, weights))
    dtype = np.int64 if bound < INT64_BOUND else object
    weights = np.array(weights, dtype=dtype)
    perm_index = np.array(perms).reshape(len(perms), n)

    def block_hit(X, limit):
        # Shift of the dictator-weighted location, (block, perm, component).
        moved = X[:, perm_index] - X[:, None, :]
        shift = (moved[:, :, None, :] * weights[:limit]).sum(axis=3)
        mask = np.moveaxis(shift != 0, 2, 0)
        flat = first_hit(mask)
        if flat is None:
            return None
        component, row, perm = np.unravel_index(flat, mask.shape)
        return int(component), tuple(int(v) for v in X[row]), perms[perm]

    size = max(1, BLOCK_ELEMENTS // (len(perms) * n * len(groups)))
    blocks = profile_blocks(product(scaled.grid_ints, repeat=n), size, dtype)
    found = first_failure(blocks, len(groups), block_hit)
    return found and (groups[found[0]][0], *found[1:])


def two_valued_profiles(values, n: int, anonymous: bool):
    """Every profile ``low + pattern * (high - low)`` for low < high in
    ``values``, in check order: the pairs as ``values`` lists them (low
    outer, high inner), then the 0/1 patterns in lexicographic order, as
    multisets for an anonymous mechanism and as ordered vectors otherwise.
    Both proportionality axioms read their instances in this order, on the
    block sweep and on the exact path alike."""
    patterns = list(
        combinations_with_replacement((0, 1), n) if anonymous else product((0, 1), repeat=n)
    )
    for a, low in enumerate(values):
        for high in values[a + 1 :]:
            for pattern in patterns:
                yield tuple(high if bit else low for bit in pattern)


class GroupSweep:
    """Co-located group costs of one rescaled mixture on two-valued profiles.

    A profile of two values low < high splits the agents into a low and a
    high group; an agent in a group of size s violates the bound when its
    scaled cost exceeds wden * (n - s) * (high - low), which is
    (n - s)/n * (high - low) at the cost scale. The slots of a profile list
    the low group's agents in index order, then the high group's, so the
    first hit of a (component, profile, slot) mask is the instance a loop
    over profiles, groups and members meets first.

    A part's output is its order statistic of the reports (a rank), of the
    reports plus its finite phantoms (a phantom), a dictator's report, or
    the sum of the reports (the average, whose cost is |n*true - sum|).
    ``combine`` sums the parts with their weights into one component (the
    in-expectation cost); otherwise each part is its own component. Ordered
    profiles, swept when some part is a dictator, need no multiset filter
    for the anonymous parts: among the patterns with the same number of
    ones, the sorted one 0...01...1 comes first, so an anonymous part's
    first failure lies on the multiset it would meet when swept alone.
    """

    def __init__(self, scaled, values, combine: bool):
        n, parts = scaled.n, scaled.parts
        self.scaled, self.values, self.combine = scaled, values, combine
        self.count = 1 if combine else len(parts)
        kinds = [part[0] for part in parts]
        self.clip = [c for c, kind in enumerate(kinds) if kind in ("rank", "ph")]
        self.dicts = [(c, part[1]) for c, part in enumerate(parts) if part[0] == "dict"]
        self.avg = [c for c, kind in enumerate(kinds) if kind == "avg"]
        # Every report and phantom lies in (-big, big), so every cost stays
        # below 2 * n * big * weight and every bound below 2 * n * big * wden.
        big = max(map(abs, [*scaled.grid_ints, *scaled.phantom_values])) + 1
        weight = sum(part[-1] for part in parts) if combine else 1
        dtype = np.int64 if 4 * n * big * (weight + scaled.wden) < INT64_BOUND else object
        self.dtype = dtype
        fins = [parts[c][2] if kinds[c] == "ph" else () for c in self.clip]
        pad = max(map(len, fins), default=0)
        # Part c's finite phantoms, padded past every report, and the index
        # of its output among the reports and those phantoms sorted.
        self.phantoms = np.array(
            [[*f] + [big] * (pad - len(f)) for f in fins], dtype=dtype
        ).reshape(len(fins), 1, pad)
        self.index = np.array([n - parts[c][1] for c in self.clip], dtype=np.intp)
        self.clip_rows = np.arange(len(self.clip))
        self.slots = np.arange(n)
        coef = [1 if kind == "avg" else n for kind in kinds]
        if combine:
            coef = [a * part[-1] for a, part in zip(coef, parts)]
        self.coef = np.array(coef, dtype=dtype)[:, None, None]
        self.scale = np.array([n if kind == "avg" else 1 for kind in kinds], dtype=dtype)[:, None, None]
        self.block_profiles = max(1, BLOCK_ELEMENTS // (len(parts) * (n + pad)))

    def blocks(self):
        profiles = two_valued_profiles(self.values, self.scaled.n, self.scaled.anonymous)
        return profile_blocks(profiles, self.block_profiles, self.dtype)

    def costs(self, X, limit: int):
        """(cost, bound) of one block: ``cost`` is (component, profile, slot)
        for the first ``limit`` components, ``bound`` (profile, slot). Slot
        j holds the j-th smallest report, whose agent is the j-th in a
        stable sort of the profile."""
        scaled, n = self.scaled, self.scaled.n
        parts = len(scaled.parts) if self.combine else limit
        true = np.sort(X, axis=1)
        low, high = true[:, :1], true[:, -1:]
        lows = (X == low).sum(axis=1, keepdims=True)
        # n - s: the size of the other group.
        others = np.where(self.slots < lows, n - lows, lows)
        bound = others * (scaled.wden * (high - low))

        out = np.empty((parts, len(X)), dtype=self.dtype)
        k = bisect_left(self.clip, parts)
        pad = self.phantoms.shape[2]
        if k and pad:
            merged = np.empty((k, len(X), n + pad), dtype=self.dtype)
            merged[..., :n] = true
            merged[..., n:] = self.phantoms[:k]
            merged.sort(axis=2)
            out[self.clip[:k]] = merged[self.clip_rows[:k], :, self.index[:k]]
        elif k:
            out[self.clip[:k]] = true.T[self.index[:k]]
        for c, j in self.dicts:
            if c < parts:
                out[c] = X[:, j]
        for c in self.avg:
            if c < parts:
                out[c] = X.sum(axis=1)
        cost = self.scale[:parts] * true - out[..., None]
        np.abs(cost, out=cost)
        np.multiply(cost, self.coef[:parts], out=cost)
        if self.combine:
            cost = cost.sum(axis=0, keepdims=True)
        return cost, bound

    def first_violation(self):
        """(component, (profile, agent, group, cost, bound)) of the first
        group member whose cost exceeds its bound, or None."""
        n = self.scaled.n

        def block_hit(X, limit):
            cost, bound = self.costs(X, limit)
            mask = cost > bound
            flat = first_hit(mask)
            if flat is None:
                return None
            component, row, slot = np.unravel_index(flat, mask.shape)
            profile = tuple(int(v) for v in X[row])
            agent = sorted(range(n), key=profile.__getitem__)[slot]
            group = tuple(j + 1 for j in range(n) if profile[j] == profile[agent])
            return int(component), (
                profile,
                agent,
                group,
                int(cost[component, row, slot]),
                int(bound[row, slot]),
            )

        return first_failure(self.blocks(), self.count, block_hit)
