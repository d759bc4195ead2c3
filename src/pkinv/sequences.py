"""Nucleotide sequences compatible with a structure.

A sequence is compatible with a structure when it holds only ACGU and
the bases at every arc can bond (AU, UA, GC, CG, GU, UG).  The values sit
on the structure's sites (w, v): an unpaired w is the site (w, 0) and
takes a base, an arc (i, j) is the site (i, j) and takes a pair.
Compatible sequences form a graph whose moves give one site a new value,
so a pair exchange counts as one step even when it changes two
characters.

Sequences that actually fold into the structure are a subset of the
compatible ones, so the compatible distance is a lower bound on any
distance measured along that subset.  Only the compatible side lives
here; insertions and deletions are out of scope.
"""

from __future__ import annotations

import functools
from random import Random

from .structure import LengthMismatch, Structure

BASES = "ACGU"
PAIRS = ("AU", "CG", "GC", "GU", "UA", "UG")
# per base x, the bases y that x pairs with as the ordered pair (x, y);
# PAIRS holds each pair both ways, so these are also the bases pairing
# with x
_PARTNERS = {x: frozenset(p[1] for p in PAIRS if p[0] == x) for x in BASES}
# per base x, the table writing the bases that pair with x as binary
# digit 1 and the others as 0
_PARTNER_DIGITS = {
    x: str.maketrans(BASES, "".join("1" if y in ys else "0" for y in BASES))
    for x, ys in _PARTNERS.items()
}
_DROP_BASES = str.maketrans("", "", BASES)
# per value a site can hold, the site's other values in order: each
# base at an unpaired site, and each two bases at an arc, pairs or not,
# since a sub-target's window can hold a non-pair at one of its arcs
_OTHER_VALUES = {
    **{x: tuple([y for y in BASES if y != x]) for x in BASES},
    **{x + y: tuple([p for p in PAIRS if p != x + y]) for x in BASES for y in BASES},
}


class IncompatibleInput(ValueError):
    """A sequence does not satisfy the pairing rules of the structure."""


def can_pair(x: str, y: str) -> bool:
    """True when the ordered base pair (x, y) can form a bond."""
    return y in _PARTNERS.get(x, ())


def is_compatible(seq: str, s: Structure) -> bool:
    """True when seq holds only ACGU and every arc of s can pair."""
    if len(seq) != s.n:
        raise LengthMismatch(f"sequence length {len(seq)} != structure length {s.n}")
    return not seq.translate(_DROP_BASES) and all(
        can_pair(seq[a.i - 1], seq[a.j - 1]) for a in s.arcs
    )


def _require_compatible(seq: str, s: Structure) -> None:
    if not is_compatible(seq, s):
        raise IncompatibleInput("sequence is not compatible with the structure")


def _partner_masks(seq: str) -> dict[str, int]:
    """masks[x]: bit q set when base x pairs with the base at position q
    (1-based), as the ordered pair (x, seq[q])."""
    if seq.translate(_DROP_BASES):
        position, char = next((p, c) for p, c in enumerate(seq, 1) if c not in BASES)
        raise IncompatibleInput(
            f"sequence contains non-ACGU characters: {char!r} at position {position}"
        )
    # the last digit is position 1; the shift makes bit q position q
    backward = "0" + seq[::-1]
    return {
        x: int(backward.translate(table), 2) << 1
        for x, table in _PARTNER_DIGITS.items()
    }


def _pair_masks(seq: str) -> list[int]:
    """masks[p]: bit q set when position q can pair with position p (1-based)."""
    return [0, *map(_partner_masks(seq).__getitem__, seq)]


# a design walks one target and its sub-targets, a campaign a few dozen
@functools.lru_cache(maxsize=1024)
def sites(s: Structure) -> tuple[tuple[int, int], ...]:
    """The sites of s in position order: (w, 0) for an unpaired w, and
    (i, j) once per arc, at its left end."""
    return tuple((w, v) for w, v in enumerate(s.partner) if w and not 0 < v < w)


def site_values(v: int) -> str | tuple[str, ...]:
    """The values a site (w, v) takes: a base unpaired, a pair at an arc."""
    return PAIRS if v else BASES


def site_value(seq: str, w: int, v: int) -> str:
    """The value seq holds at the site (w, v)."""
    return seq[w - 1] + seq[v - 1] if v else seq[w - 1]


def other_values(seq: str, w: int, v: int) -> tuple[str, ...]:
    """The values of the site (w, v) that seq does not hold, in order."""
    return _OTHER_VALUES[site_value(seq, w, v)]


def put(chars: list[str], w: int, v: int, value: str) -> None:
    """Write value at the site (w, v) of chars, a list holding position p
    at index p and an empty slot 0, which takes an unpaired site's empty
    second half."""
    chars[w], chars[v] = value[0], value[1:]


def put_tracking(chars: list[str], partners: dict[str, int], w: int, v: int,
                 value: str) -> None:
    """put, keeping partners, the _partner_masks of chars, current: a
    base y written over o at p clears bit p for every base that pairs
    with o and sets it for every base that pairs with y."""
    for p, y in zip((w, v), value):
        bit = 1 << p
        for x in _PARTNERS[chars[p]]:
            partners[x] &= ~bit
        for x in _PARTNERS[y]:
            partners[x] |= bit
    put(chars, w, v, value)


def with_value(seq: str, w: int, v: int, value: str) -> str:
    """seq with value at the site (w, v), written by slicing."""
    if v:
        return seq[:w - 1] + value[0] + seq[w:v - 1] + value[1] + seq[v:]
    return seq[:w - 1] + value + seq[w:]


def redraw_site(seq: str, w: int, v: int, rng: Random) -> str:
    """seq with a new value at the site (w, v), drawn by rng.choice over
    the tuple other_values gives."""
    return with_value(seq, w, v, rng.choice(other_values(seq, w, v)))


def _unpaired_first(site: tuple[int, int]) -> bool:
    """Sort key: unpaired sites, then arcs, each kept in position order."""
    return site[1] != 0


def random_compatible_sequence(target: Structure, rng: Random) -> str:
    """Uniform random sequence compatible with the target.

    Each site draws uniformly from its values, independently, in position
    order, which keeps the draws reproducible.
    """
    chars = [""] * (target.n + 1)
    for w, v in sites(target):
        put(chars, w, v, rng.choice(site_values(v)))
    return "".join(chars)


def compatible_neighbors(seq: str, s: Structure) -> list[str]:
    """All one-step compatible mutations of seq, unpaired sites first.

    Three per unpaired position and five per arc, so the count is always
    3 * n_u + 5 * n_p.
    """
    _require_compatible(seq, s)
    return [with_value(seq, w, v, value)
            for w, v in sorted(sites(s), key=_unpaired_first)
            for value in other_values(seq, w, v)]


def compatible_distance(seq_a: str, seq_b: str, s: Structure) -> int:
    """Shortest path length between two compatible sequences: the number
    of sites whose values differ, so an arc counts one step whether one
    or two of its characters change."""
    if len(seq_a) != len(seq_b):
        raise LengthMismatch("sequences have different lengths")
    _require_compatible(seq_a, s)
    _require_compatible(seq_b, s)
    return sum(site_value(seq_a, w, v) != site_value(seq_b, w, v) for w, v in sites(s))
