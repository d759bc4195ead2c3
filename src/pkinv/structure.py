"""Arc-diagram representation of RNA structures.

Structures are sets of arcs (i, j) over positions 1..n drawn in the upper
half-plane, with every position in at most one arc.  This module owns
parsing and serialization of the extended dot-bracket notation, crossing
analysis, canonicity validation, structure distance, and the stack
view used by the rest of the package: stacks as (i, j, size) triples,
their crossing, nesting and overlap masks, and the search for mutually
crossing stacks.
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

UNPAIRED_CHAR = ":"
_UNPAIRED_INPUT = {":", "."}  # "." tolerated on input, ":" is canonical
FAMILIES = ("()", "[]", "{}")
_OPENERS = {"(": 0, "[": 1, "{": 2}
_CLOSERS = {")": 0, "]": 1, "}": 2}


class IllegalCharacter(ValueError):
    """A character outside ':()[]{}' was found while parsing."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"illegal character {char!r} at position {position}")


class UnbalancedBracket(ValueError):
    """A bracket without a matching partner in its own family."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"unbalanced bracket at position {position}")


class TooManyFamilies(ValueError):
    """Serialization would need more than the three bracket families."""


class LengthMismatch(ValueError):
    """Two objects that must have equal length do not."""


class OutOfRange(ValueError):
    """A window of positions lies outside [1, n]."""


class Arc(NamedTuple):
    """Base pair (i, j) with 1 <= i < j.  Arc length is j - i."""

    i: int
    j: int

    @property
    def length(self) -> int:
        return self.j - self.i


class _StructureFields(NamedTuple):
    n: int
    arcs: tuple[Arc, ...]
    partner: tuple[int, ...]


class Structure(_StructureFields):
    """A diagram over [1, n]: sorted arcs plus the derived partner vector.

    partner[w] is the position paired with w, or 0 when w is unpaired;
    index 0 of the vector is a placeholder so positions stay 1-based.
    Construction rejects a negative n, arcs outside [1, n] and
    doubly-paired positions.
    """

    __slots__ = ()

    def __new__(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Structure":
        if n < 0:
            raise ValueError("length must be nonnegative")
        arcs = tuple(sorted(Arc(*a) for a in arcs))
        partner = [0] * (n + 1)
        for arc in arcs:
            if not 1 <= arc.i < arc.j <= n:
                raise ValueError(f"arc {arc} outside positions [1, {n}]")
            for w in (arc.i, arc.j):
                if partner[w]:
                    raise ValueError(f"position {w} is paired more than once")
            partner[arc.i] = arc.j
            partner[arc.j] = arc.i
        return super().__new__(cls, n, arcs, tuple(partner))

    @classmethod
    def _trusted(cls, n: int, arcs: tuple[Arc, ...]) -> "Structure":
        """A structure from a sorted tuple of valid Arcs, without checks.

        For callers that built the arcs valid by construction; equal to
        Structure(n, arcs) whenever that accepts the same arcs.
        """
        partner = [0] * (n + 1)
        for i, j in arcs:
            partner[i] = j
            partner[j] = i
        # tuple.__new__ skips super() and the namedtuple's __new__ frame
        return tuple.__new__(cls, (n, arcs, tuple(partner)))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Structure":
        # _replace builds through _make: validate, and derive partner anew
        n, arcs, _ = iterable
        return cls(n, arcs)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Structure":
        return cls(n, tuple(Arc(min(i, j), max(i, j)) for i, j in pairs))

    def __getnewargs__(self) -> tuple[int, tuple[Arc, ...]]:
        # copy and pickle rebuild through __new__, which derives partner
        return self.n, self.arcs

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, arcs={self.arcs!r})"

    def __str__(self) -> str:
        try:
            return serialize_structure(self)
        except TooManyFamilies:
            return f"<Structure n={self.n} arcs={len(self.arcs)}>"


class _PolicyFields(NamedTuple):
    k: int = 3
    sigma: int = 3
    min_arc_length: int = 4


class ValidationPolicy(_PolicyFields):
    """Canonicity bounds: k-noncrossing, minimum stack size, minimum arc length."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ValidationPolicy":
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.sigma < 1:
            raise ValueError("sigma must be at least 1")
        if self.min_arc_length < 1:
            raise ValueError("min_arc_length must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "ValidationPolicy":
        return cls(*iterable)  # _replace builds through _make: validate


class Violation(NamedTuple):
    kind: str
    message: str

    def __str__(self) -> str:
        return self.message


def parse_structure(text: str) -> Structure:
    """Parse a dot-bracket string over ':()[]{}' into a Structure.

    Each bracket family is matched independently under stack discipline.
    "." is accepted as a synonym for the unpaired character ":".
    Canonicity is not enforced here; see validate_target.
    """
    open_stacks: tuple[list[int], ...] = ([], [], [])
    pairs: list[tuple[int, int]] = []
    for idx, char in enumerate(text):
        pos = idx + 1
        if char in _UNPAIRED_INPUT:
            continue
        if char in _OPENERS:
            open_stacks[_OPENERS[char]].append(pos)
        elif char in _CLOSERS:
            family = open_stacks[_CLOSERS[char]]
            if not family:
                raise UnbalancedBracket(pos)
            pairs.append((family.pop(), pos))
        else:
            raise IllegalCharacter(char, pos)
    for family in open_stacks:
        if family:
            raise UnbalancedBracket(family[-1])
    return Structure.from_pairs(len(text), pairs)


def serialize_structure(s: Structure) -> str:
    """Render a Structure as a dot-bracket string.

    Every arc takes its stack's family.  Stacks take the first families,
    in stack order and trying (), [], {} in that order, such that no two
    crossing stacks share one, so output is deterministic and
    parse(serialize(s)) == s whenever three families can write s.
    """
    triples = stacks(s)
    family = _families(_stack_masks(s.n, triples)[0])
    chars = [UNPAIRED_CHAR] * s.n
    for triple, fam in zip(triples, family):
        for i, j in _stack_arcs(*triple):
            chars[i - 1], chars[j - 1] = FAMILIES[fam]
    return "".join(chars)


def _families(crossing: list[int]) -> list[int]:
    """The first family of each stack, by backtracking in stack order,
    such that no two crossing stacks share one, per the crossing masks.

    A stack left without a family jumps back to the latest earlier stack
    that it, or a stack that jumped to it, crosses (graph-based
    backjumping): the stacks in between cannot free it.  Only choices
    without a solution are skipped, so the first assignment is plain
    backtracking's, and greedy colouring's wherever that succeeds.
    Raises TooManyFamilies when there is no assignment.
    """
    family = [-1] * len(crossing)  # -1: not yet tried
    held = [0] * len(FAMILIES)  # bit b: stack b holds the family
    blame = [0] * len(crossing)  # earlier stacks whose change may free c
    c = 0
    while c < len(crossing):
        before = crossing[c] & ((1 << c) - 1)
        if family[c] < 0:
            blame[c] = before
        else:
            held[family[c]] ^= 1 << c
        family[c] += 1
        while family[c] < len(FAMILIES) and held[family[c]] & before:
            family[c] += 1
        if family[c] < len(FAMILIES):
            held[family[c]] |= 1 << c
            c += 1
            continue
        if not blame[c]:
            raise TooManyFamilies(
                f"{len(FAMILIES)} bracket families cannot keep crossing stacks apart")
        b = blame[c].bit_length() - 1
        blame[b] |= blame[c] ^ 1 << b
        for d in range(b + 1, c):
            held[family[d]] ^= 1 << d
        family[b + 1 : c + 1] = [-1] * (c - b)
        c = b
    return family


# folds of one length expand the same stacks again and again
@functools.lru_cache(maxsize=4096)
def _stack_arcs(i: int, j: int, size: int) -> tuple[Arc, ...]:
    """Arcs of the stack (i, j, size): (i, j), ..., (i + size - 1, j - size + 1)."""
    return tuple([Arc(i + t, j - t) for t in range(size)])


def stacks(s: Structure) -> tuple[tuple[int, int, int], ...]:
    """The maximal parallel runs of s as (i, j, size) triples, sorted by i.

    The triple (i, j, size) stands for the arcs _stack_arcs(i, j, size).
    Sorted arcs meet a run outermost first, right after the run's previous
    arc, so one pass extends the last run whenever an arc lies just inside
    its innermost arc.
    """
    out: list[tuple[int, int, int]] = []
    for i, j in s.arcs:
        if out:
            head_i, head_j, size = out[-1]
            if (head_i + size, head_j - size) == (i, j):
                out[-1] = (head_i, head_j, size + 1)
                continue
        out.append((i, j, 1))
    return tuple(out)


def _stack_masks(
    n: int, triples: Sequence[tuple[int, int, int]]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Crossing, inside, overlap and inner masks of stacks (i, j, size)
    sorted by i, within [1, n].

    Bit b of crossing[a] is set when the outer arcs of stacks a and b
    cross, bit b of inside[a] when b's outer arc nests strictly inside
    a's.  All arcs of one stack relate alike to any other arc, so outer
    arcs decide stack-level crossing and nesting.  The stacks may share
    positions, as the oracle's candidate stacks do.  Bit b of overlap[a]
    is set when stacks a and b share a position, so a stack overlaps
    itself.  Bit b of inner[a] is set when b's outer arc lies just inside
    a's innermost arc, (a + 1, b - 1) for the arms [i, a] and [b, j], so
    that the two stacks form one longer run; maximal stacks have none.

    One pass over positions makes four prefix masks, each holding the
    stacks for which, at position p:

    - opens[p]: the left arm starts at or before p;
    - lefts[p]: the left arm ends before p;
    - rights[p]: the right arm starts at or before p;
    - closes[p]: the right arm ends at or before p.

    For the stack (i, j, size), with arms [i, a] and [b, j]:

    - crossing is (opens[j - 1] & ~opens[i] & ~closes[j])
      | (opens[i - 1] & closes[j - 1] & ~closes[i]);
    - inside is opens[j] & ~opens[i] & closes[j - 1];
    - overlap is (opens[a] & ~lefts[i]) | (rights[a] & ~closes[i - 1])
      | (opens[j] & ~lefts[b]) | (rights[j] & ~closes[b - 1]), the other
      stacks' left and right arms against its left, then its right arm,
      since arms [x, y] and [x', y'] meet when x' <= y and y' >= x.
    """
    # stacks by outer i, by a + 1, by b and by outer j; the prefix ORs
    # of these are opens, lefts, rights and closes
    starts = [0] * (n + 2)
    lefts = [0] * (n + 2)
    rights = [0] * (n + 2)
    ends = [0] * (n + 2)
    bit = 1
    for i, j, size in triples:
        starts[i] |= bit
        lefts[i + size] |= bit
        rights[j - size + 1] |= bit
        ends[j] |= bit
        bit <<= 1
    opens = list(accumulate(starts, operator.or_))
    lefts = list(accumulate(lefts, operator.or_))
    rights = list(accumulate(rights, operator.or_))
    closes = list(accumulate(ends, operator.or_))
    crossing = []
    inside = []
    overlap = []
    inner = []
    for i, j, size in triples:
        # outer arcs with i < i' < j < j' or i' < i < j' < j
        crossing.append((opens[j - 1] & ~opens[i] & ~closes[j])
                        | (opens[i - 1] & closes[j - 1] & ~closes[i]))
        # outer arcs with i < i' < j' < j
        inside.append(opens[j] & ~opens[i] & closes[j - 1])
        a = i + size - 1
        b = j - size + 1
        overlap.append((opens[a] & ~lefts[i]) | (rights[a] & ~closes[i - 1])
                       | (opens[j] & ~lefts[b]) | (rights[j] & ~closes[b - 1]))
        inner.append(starts[a + 1] & ends[b - 1])
    return crossing, inside, overlap, inner


def _has_clique(mask: int, size: int, crossing: list[int]) -> bool:
    """Whether mask holds size mutually crossing stacks, per the crossing masks."""
    if size == 0:
        return True
    while mask.bit_count() >= size:
        low = mask & -mask
        mask ^= low
        if _has_clique(mask & crossing[low.bit_length() - 1], size - 1, crossing):
            return True
    return False


def crossing_number(s: Structure) -> int:
    """Largest k such that k arcs mutually cross; 0 for the empty diagram.

    Two arcs of one stack never cross, and all arcs of one stack cross any
    other arc alike, so this is the largest set of mutually crossing
    stacks: a maximum clique in their crossing graph, computed exactly
    (inputs are desk-scale).
    """
    triples = stacks(s)
    crossing, _, _, _ = _stack_masks(s.n, triples)
    everything = (1 << len(triples)) - 1
    k = 0
    while _has_clique(everything, k + 1, crossing):
        k += 1
    return k


# every trial of a design validates the same target again
@functools.lru_cache(maxsize=256)
def validate_target(
    s: Structure, policy: ValidationPolicy | None = None
) -> tuple[Violation, ...]:
    """Check a structure against a policy; empty result means valid.

    All violations are reported, not just the first, so callers can show
    complete diagnostics.  Results are cached per (s, policy) in an LRU
    of 256 entries; both arguments and the result are immutable records,
    so every caller can share a hit.
    """
    policy = policy or ValidationPolicy()
    out: list[Violation] = []
    cn = crossing_number(s)
    if cn > policy.k - 1:
        out.append(
            Violation(
                "crossing",
                f"crossing number {cn} exceeds {policy.k - 1} "
                f"(structure is not {policy.k}-noncrossing)",
            )
        )
    for i, j, size in stacks(s):
        if size < policy.sigma:
            out.append(
                Violation(
                    "stack-size",
                    f"stack at {(i, j)} has size {size} "
                    f"< {policy.sigma}",
                )
            )
    for arc in s.arcs:
        if arc.length < policy.min_arc_length:
            out.append(
                Violation(
                    "arc-length",
                    f"arc {tuple(arc)} has length {arc.length} "
                    f"< {policy.min_arc_length}",
                )
            )
        if arc.length == 1:
            out.append(
                Violation("adjacent-pair", f"arc {tuple(arc)} joins adjacent positions")
            )
    return tuple(out)


def structure_distance(s1: Structure, s2: Structure) -> int:
    """Number of positions whose partners differ between the two structures.

    This is the Hamming distance of the partner vectors; it counts both
    positions paired to different partners and positions paired in one
    structure but unpaired in the other.
    """
    if s1.n != s2.n:
        raise LengthMismatch(f"structure lengths differ: {s1.n} != {s2.n}")
    # index 0 is 0 in both vectors
    return sum(map(operator.ne, s1.partner, s2.partner))


# every trial of a design cuts the same target along the same ladder
@functools.lru_cache(maxsize=1024)
def restrict_structure(s: Structure, lo: int, hi: int) -> Structure:
    """Substructure over [lo, hi], keeping arcs with both ends inside.

    Positions are shifted so the result is 1-based over hi - lo + 1
    positions.  Arcs leaving the window are dropped.  Results are cached
    per (s, lo, hi) in an LRU of 1,024 entries, which callers share, as
    a Structure is immutable; a window outside [1, n] raises OutOfRange
    on every call, since exceptions are not cached.
    """
    if not (1 <= lo <= hi <= s.n):
        raise OutOfRange(f"window [{lo}, {hi}] outside [1, {s.n}]")
    kept = [
        Arc(a.i - lo + 1, a.j - lo + 1) for a in s.arcs if lo <= a.i and a.j <= hi
    ]
    return Structure(hi - lo + 1, tuple(kept))
