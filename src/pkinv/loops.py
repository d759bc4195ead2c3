"""Loop decomposition of crossing arc diagrams and the interval ladder.

Every diagram splits uniquely into hairpin, interior, multi, and
pseudoknot loops.  Arcs that cross are grouped stack-wise into pseudoknot
loops; every remaining arc closes exactly one standard loop, namely the
one formed by the maximal arcs directly nested beneath it.  Unpaired
positions inside a pseudoknot span that no standard loop claims belong to
the pseudoknot loop.  The same stack-level grouping yields loop_census,
the per-kind loop counts the energy model scores.

From the same stack view this module builds the ordered loop components
and the growing interval sequence that drives the local search: each
component contributes its own span, the span padded by adjacent unpaired
runs, and the running union of everything seen so far.
"""

from __future__ import annotations

from itertools import accumulate, chain, groupby
from typing import NamedTuple, Sequence

from .structure import Arc, Structure, _relations, _stack_arcs, stacks

HAIRPIN = "hairpin"
INTERIOR = "interior"
MULTI = "multi"
PSEUDOKNOT = "pseudoknot"
HELIX = "helix"


class ArcNotInStructure(ValueError):
    """The given arc is not part of the structure."""


class InvalidStructure(ValueError):
    """The decomposition did not partition the structure (internal check)."""


class Loop(NamedTuple):
    """One loop of the decomposition.

    arcs lists the constituent arcs: the closing arc plus the boundary
    arcs of directly nested blocks for standard loops, or the full
    crossing arc set for pseudoknots.  intervals are the maximal runs of
    unpaired positions the loop claims.  Ownership for the arc partition
    is the closing arc alone for standard loops and all arcs for
    pseudoknot loops.
    """

    kind: str
    arcs: tuple[Arc, ...]
    intervals: tuple[tuple[int, int], ...]
    closing_arc: Arc | None

    @property
    def owned_arcs(self) -> tuple[Arc, ...]:
        if self.kind == PSEUDOKNOT:
            return self.arcs
        return (self.closing_arc,)

    @property
    def is_stacked_pair(self) -> bool:
        """Interior loop with both gaps empty (two consecutive stack arcs)."""
        if self.kind != INTERIOR:
            return False
        outer, inner = self.arcs
        return inner.i == outer.i + 1 and inner.j == outer.j - 1

    @property
    def span(self) -> tuple[int, int]:
        # arcs are sorted, and the claimed positions lie inside them
        return self.arcs[0].i, max(a.j for a in self.arcs)


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
    c and crossing/inside are as structure._relations builds them.
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
    pseudoknot), as EnergyModel.loop_energy weighs them, and equal the
    loop kinds of decompose_loops.
    """
    triples = stacks(s)
    crossing, inside = _relations(s.n, triples)
    return _census((1 << len(triples)) - 1, [size for _, _, size in triples],
                   crossing, inside, any(crossing))


def _unpaired_runs(positions: list[int]) -> tuple[tuple[int, int], ...]:
    runs: list[tuple[int, int]] = []
    for pos in positions:
        if runs and pos == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], pos)
        else:
            runs.append((pos, pos))
    return tuple(runs)


def decompose_loops(s: Structure) -> tuple[Loop, ...]:
    """Split a structure into its hairpin, interior, multi, and pseudoknot loops.

    Every arc belongs to exactly one loop and every unpaired position
    inside an arc is claimed by exactly one loop.  The result is sorted
    by leftmost position and is independent of the arc input order.
    """
    sts = stacks(s)
    crossing, inside = _relations(s.n, sts)
    group_arcs = [
        tuple(sorted(a for c in _members(group) for a in _stack_arcs(*sts[c])))
        for group in _pseudoknot_groups((1 << len(sts)) - 1, crossing, inside)
    ]
    pk_arcs = {a for p_arcs in group_arcs for a in p_arcs}

    partner = s.partner
    arcs = s.arcs
    loops: list[Loop] = []
    claimed: set[int] = set()

    for arc in arcs:
        if arc in pk_arcs:
            continue
        # reach is the furthest end of the nested arcs scanned so far: a nested
        # arc ending beyond it is a child, an unpaired position beyond it a gap
        children: list[Arc] = []
        gaps: list[int] = []
        reach = arc.i
        for w in range(arc.i + 1, arc.j):
            p = partner[w]
            if p == 0 and w > reach:
                gaps.append(w)
            elif w < p < arc.j and p > reach:
                children.append(Arc(w, p))
                reach = p
        claimed.update(gaps)
        kind = MULTI if len(children) > 1 else INTERIOR if children else HAIRPIN
        loops.append(Loop(kind, (arc, *children), _unpaired_runs(gaps), arc))

    # Pseudoknot loops claim the leftover unpaired positions inside their
    # span; with nested pseudoknots the innermost span wins.
    for p_arcs in sorted(
        group_arcs, key=lambda g: (max(a.j for a in g) - g[0].i, g[0].i)
    ):
        lo, hi = p_arcs[0].i, max(a.j for a in p_arcs)
        mine = [w for w in range(lo + 1, hi) if partner[w] == 0 and w not in claimed]
        claimed.update(mine)
        loops.append(Loop(PSEUDOKNOT, p_arcs, _unpaired_runs(mine), None))

    owned = sorted(a for lp in loops for a in lp.owned_arcs)
    if owned != list(arcs):
        raise InvalidStructure(
            f"loop decomposition does not partition the {len(arcs)} arcs"
        )
    loops.sort(key=lambda lp: lp.span)
    return tuple(loops)


def _padded(span: tuple[int, int], s: Structure) -> tuple[int, int]:
    lo, hi = span
    partner = s.partner
    while lo > 1 and partner[lo - 1] == 0:
        lo -= 1
    while hi < s.n and partner[hi + 1] == 0:
        hi += 1
    return lo, hi


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
    the empty chain (n = 0) has no interval.
    """
    sts = stacks(target)
    crossing, inside = _relations(target.n, sts)
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
