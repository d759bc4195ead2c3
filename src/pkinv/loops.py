"""The loop census of crossing arc diagrams and the interval ladder.

Every diagram splits uniquely into hairpin, interior, multi, and
pseudoknot loops.  This module reads that split off the maximal stacks
and their crossing and nesting masks, without listing the loops:
loop_census counts the loops of each kind, as the energy model scores
them, and build_intervals orders them into the loop components and the
growing interval sequence that drives the local search.  Crossing stacks
are grouped into pseudoknot loops; every other stack closes its stacked
pairs and the one standard loop beneath its innermost arc.  Each
component contributes its own span, the span padded by adjacent unpaired
runs, and the running union of everything seen so far.
"""

from __future__ import annotations

import functools
from itertools import accumulate, chain, groupby
from typing import NamedTuple, Sequence

from .structure import Structure, _stack_masks, stacks

HAIRPIN = "hairpin"
INTERIOR = "interior"
MULTI = "multi"
PSEUDOKNOT = "pseudoknot"
HELIX = "helix"


class LoopComponent(NamedTuple):
    """A unit the local search orders, read off the target's stacks.

    Each stack outside every pseudoknot is one component spanning its
    outer arc, of the kind of the content loop its innermost arc closes
    (its stacked pairs travel with it).  A pseudoknot loop is one
    component spanning its arcs; each of its stacks of size at least two
    also stands alone as a helix component, since its stacked pairs form
    a ladder worth optimizing on its own.
    """

    kind: str
    span: tuple[int, int]
    padded_span: tuple[int, int]


class IntervalPlan(NamedTuple):
    """Ordered components plus the flattened interval sequence I_1..I_m.

    Every interval is contained in the final one, which covers [1, n]
    unless n = 0 and there is no interval.
    """

    components: tuple[LoopComponent, ...]
    intervals: tuple[tuple[int, int], ...]


def _members(mask: int) -> list[int]:
    """Set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pseudoknot_groups(
    chosen: int, crossing: list[int], inside: list[int]
) -> list[int]:
    """Group the stacks in the chosen mask into pseudoknot loops.

    A stack joins a pseudoknot when it is a nesting-minimal element of the
    crossing set of some chosen stack; stacks whose crossing partners are
    all witnessed by a strictly nested stack close standard loops instead.
    The kept stacks split into connected components of the crossing
    graph, one pseudoknot loop each, returned as disjoint stack masks.
    """
    kept = 0
    rest = chosen
    while rest:
        low = rest & -rest
        rest ^= low
        partners = crossing[low.bit_length() - 1] & chosen
        todo = partners & ~kept
        while todo:
            x = todo & -todo
            todo ^= x
            if not inside[x.bit_length() - 1] & partners:
                kept |= x
    groups = []
    while kept:
        group = frontier = kept & -kept
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = crossing[low.bit_length() - 1] & kept & ~group
            group |= new
            frontier |= new
        kept &= ~group
        groups.append(group)
    return groups


def _closed_loop(below: int, inside: list[int]) -> str:
    """Kind of the content loop closed by a stack outside every pseudoknot.

    below masks the stacks nested inside it; its children are the
    nesting-maximal ones.  The lowest stack below has the smallest i, so
    nothing below encloses it and it is a child; a second child exists
    exactly when some other stack below lies outside that first one.
    """
    if not below:
        return HAIRPIN
    first = below & -below
    if below & ~first & ~inside[first.bit_length() - 1]:
        return MULTI
    return INTERIOR


def _census(
    chosen: int, sizes: Sequence[int], crossing: list[int], inside: list[int],
    knotted: int,
) -> tuple[int, int, int, int, int]:
    """loop_census of the stacks in the chosen mask, from their relation masks.

    Bits index stacks in ascending outer i; sizes[c] is the size of stack
    c and crossing/inside are as structure._stack_masks builds them.
    knotted is false only when no two chosen stacks cross, and then no
    pseudoknot forms, so the grouping is skipped.  A stack outside every
    pseudoknot closes size - 1 stacked pairs plus one loop of the kind
    _closed_loop gives.
    """
    rest = chosen
    pseudoknots = 0
    if knotted:
        groups = _pseudoknot_groups(chosen, crossing, inside)
        rest &= ~sum(groups)  # groups are disjoint: sum is union
        pseudoknots = len(groups)
    hairpins = gapped = stacked = multis = 0
    while rest:
        low = rest & -rest
        rest ^= low
        c = low.bit_length() - 1
        stacked += sizes[c] - 1
        kind = _closed_loop(inside[c] & chosen, inside)
        if kind == HAIRPIN:
            hairpins += 1
        elif kind == MULTI:
            multis += 1
        else:
            gapped += 1
    return (hairpins, gapped, stacked, multis, pseudoknots)


def loop_census(s: Structure) -> tuple[int, int, int, int, int]:
    """Loop-kind counts of s, taken over its maximal stacks.

    The counts are (hairpin, gapped interior, stacked pair, multi,
    pseudoknot), as EnergyModel.loop_energy weighs them.
    """
    triples = stacks(s)
    crossing, inside, _, _ = _stack_masks(s.n, triples)
    return _census((1 << len(triples)) - 1, [size for _, _, size in triples],
                   crossing, inside, any(crossing))


def _padded(span: tuple[int, int], s: Structure) -> tuple[int, int]:
    lo, hi = span
    partner = s.partner
    while lo > 1 and partner[lo - 1] == 0:
        lo -= 1
    while hi < s.n and partner[hi + 1] == 0:
        hi += 1
    return lo, hi


# every trial of a design walks the same target's ladder
@functools.lru_cache(maxsize=256)
def build_intervals(target: Structure) -> IntervalPlan:
    """Derive the interval ladder the local search walks.

    The components come from the target's stacks, as LoopComponent
    describes, in search order: nested components first, otherwise the
    one starting further left.  No two share a span (stacks have distinct
    outer arcs, and a pseudoknot's hull is no member's outer arc, since
    that member would cross no other), and of two spans that do not nest
    the one starting further left also ends further left, so sorting by
    (right end, -left end) gives that order.  Each component emits its
    span, its padded span and the running hull of all padded spans;
    consecutive duplicates are dropped.  The final interval covers [1, n];
    the empty chain (n = 0) has no interval.  Plans are cached per target
    in an LRU of 256 entries; a plan holds only tuples, so every caller
    can share it.
    """
    sts = stacks(target)
    crossing, inside, _, _ = _stack_masks(target.n, sts)
    everything = (1 << len(sts)) - 1
    groups = _pseudoknot_groups(everything, crossing, inside)
    found = [
        (_closed_loop(inside[c], inside), sts[c][:2])
        for c in _members(everything & ~sum(groups))
    ]
    for group in groups:
        members = [sts[c] for c in _members(group)]
        found.append((PSEUDOKNOT, (members[0][0], max(j for _, j, _ in members))))
        found += [(HELIX, (i, j)) for i, j, size in members if size >= 2]
    found.sort(key=lambda kind_span: (kind_span[1][1], -kind_span[1][0]))
    components = tuple(
        LoopComponent(kind, span, _padded(span, target)) for kind, span in found
    )
    hulls = accumulate((c.padded_span for c in components),
                       lambda h, p: (min(h[0], p[0]), max(h[1], p[1])))
    ladder = [(c.span, c.padded_span, hull) for c, hull in zip(components, hulls)]
    ladder.append(((1, target.n),) if target.n else ())
    intervals = tuple(span for span, _ in groupby(chain.from_iterable(ladder)))
    return IntervalPlan(components, intervals)
