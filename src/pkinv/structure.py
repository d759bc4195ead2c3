"""Arc-diagram representation of RNA structures.

Structures are sets of arcs (i, j) over positions 1..n drawn in the upper
half-plane, with every position in at most one arc.  This module owns
parsing and serialization of the extended dot-bracket notation, crossing
analysis, canonicity validation, structure distance, and the stack
view used by the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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
    """A position lies outside [1, n]."""


def _crosses(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Arcs given as tuples (i, j, ...) cross: i1 < i2 < j1 < j2 or vice versa."""
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def _nested(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Arc a nests strictly inside arc b: b.i < a.i < a.j < b.j."""
    return b[0] < a[0] and a[1] < b[1]


class Arc(NamedTuple):
    """Base pair (i, j) with 1 <= i < j.  Arc length is j - i."""

    i: int
    j: int

    @property
    def length(self) -> int:
        return self.j - self.i

    crosses = _crosses
    nests_inside = _nested


@dataclass(frozen=True)
class Structure:
    """A diagram over [1, n]: sorted arcs plus the derived partner vector.

    partner[w] is the position paired with w, or 0 when w is unpaired;
    index 0 of the vector is a placeholder so positions stay 1-based.
    Construction rejects arcs outside [1, n] and doubly-paired positions.
    """

    n: int
    arcs: tuple[Arc, ...]
    _partner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arcs = tuple(sorted(Arc(*a) for a in self.arcs))
        object.__setattr__(self, "arcs", arcs)
        partner = [0] * (self.n + 1)
        for arc in arcs:
            if not 1 <= arc.i < arc.j <= self.n:
                raise ValueError(f"arc {arc} outside positions [1, {self.n}]")
            for w in (arc.i, arc.j):
                if partner[w]:
                    raise ValueError(f"position {w} is paired more than once")
            partner[arc.i] = arc.j
            partner[arc.j] = arc.i
        object.__setattr__(self, "_partner", tuple(partner))

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
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_partner", tuple(partner))
        return self

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Structure":
        return cls(n, tuple(Arc(min(i, j), max(i, j)) for i, j in pairs))

    @property
    def partner(self) -> tuple[int, ...]:
        return self._partner

    def partner_of(self, w: int) -> int:
        """Paired position of w, or 0 if w is unpaired."""
        if not 1 <= w <= self.n:
            raise OutOfRange(f"position {w} outside [1, {self.n}]")
        return self._partner[w]

    def __str__(self) -> str:
        try:
            return serialize_structure(self)
        except TooManyFamilies:
            return f"<Structure n={self.n} arcs={len(self.arcs)}>"


@dataclass(frozen=True)
class Stack:
    """Maximal run of parallel arcs ((i,j), (i+1,j-1), ..., outermost first)."""

    arcs: tuple[Arc, ...]

    @property
    def size(self) -> int:
        return len(self.arcs)

    @property
    def outer(self) -> Arc:
        return self.arcs[0]

    @property
    def inner(self) -> Arc:
        return self.arcs[-1]


@dataclass(frozen=True)
class ValidationPolicy:
    """Canonicity bounds: k-noncrossing, minimum stack size, minimum arc length."""

    k: int = 3
    sigma: int = 3
    min_arc_length: int = 4

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.sigma < 1:
            raise ValueError("sigma must be at least 1")
        if self.min_arc_length < 1:
            raise ValueError("min_arc_length must be at least 1")


@dataclass(frozen=True)
class Violation:
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

    Bracket families are assigned by greedy coloring of the arc-crossing
    conflict graph in sorted arc order, trying (), [], {} in that order,
    so output is deterministic and parse(serialize(s)) == s.
    """
    family: dict[Arc, int] = {}
    for arc in s.arcs:
        used = {family[other] for other in family if other.crosses(arc)}
        for fam in range(len(FAMILIES)):
            if fam not in used:
                family[arc] = fam
                break
        else:
            raise TooManyFamilies(
                f"arc {arc} conflicts with all {len(FAMILIES)} bracket families"
            )
    chars = [UNPAIRED_CHAR] * s.n
    for arc, fam in family.items():
        chars[arc.i - 1] = FAMILIES[fam][0]
        chars[arc.j - 1] = FAMILIES[fam][1]
    return "".join(chars)


def crossing_number(s: Structure) -> int:
    """Largest k such that k arcs mutually cross; 0 for the empty diagram.

    Mutual pairwise crossing is equivalent to the staircase pattern
    i1 < ... < ik < j1 < ... < jk, so this is a maximum clique in the
    crossing graph, computed exactly (inputs are desk-scale).
    """
    arcs = s.arcs
    if not arcs:
        return 0
    m = len(arcs)
    adjacency = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if arcs[a].crosses(arcs[b]):
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    best = 1

    def grow(size: int, candidates: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while candidates:
            if size + candidates.bit_count() <= best:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            grow(size + 1, candidates & adjacency[v])

    grow(0, (1 << m) - 1)
    return best


def stacks(s: Structure) -> tuple[Stack, ...]:
    """Partition the arcs into maximal parallel runs, sorted by outer arc."""
    arc_set = set(s.arcs)
    out = []
    for arc in s.arcs:
        if Arc(arc.i - 1, arc.j + 1) in arc_set:
            continue  # interior member of a run, not its head
        run = [arc]
        nxt = Arc(arc.i + 1, arc.j - 1)
        while nxt in arc_set:
            run.append(nxt)
            nxt = Arc(nxt.i + 1, nxt.j - 1)
        out.append(Stack(tuple(run)))
    return tuple(out)


def validate_target(
    s: Structure, policy: ValidationPolicy | None = None
) -> tuple[Violation, ...]:
    """Check a structure against a policy; empty result means valid.

    All violations are reported, not just the first, so callers can show
    complete diagnostics.
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
    for stack in stacks(s):
        if stack.size < policy.sigma:
            out.append(
                Violation(
                    "stack-size",
                    f"stack at {tuple(stack.outer)} has size {stack.size} "
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
    return sum(a != b for a, b in zip(s1.partner[1:], s2.partner[1:]))


def restrict_structure(s: Structure, lo: int, hi: int) -> Structure:
    """Substructure over [lo, hi], keeping arcs with both ends inside.

    Positions are shifted so the result is 1-based over hi - lo + 1
    positions.  Arcs leaving the window are dropped.
    """
    if not (1 <= lo <= hi <= s.n):
        raise OutOfRange(f"window [{lo}, {hi}] outside [1, {s.n}]")
    kept = [
        Arc(a.i - lo + 1, a.j - lo + 1) for a in s.arcs if lo <= a.i and a.j <= hi
    ]
    return Structure(hi - lo + 1, tuple(kept))
