"""Nucleotide sequences compatible with a structure.

A sequence is compatible with a structure when the bases at every arc can
bond (AU, UA, GC, CG, GU, UG).  Compatible sequences form a graph whose
moves are single-base changes at unpaired positions and whole-pair
exchanges at arcs; a pair exchange counts as one step even when it
changes two characters.

Sequences that actually fold into the structure are a subset of the
compatible ones, so the compatible distance is a lower bound on any
distance measured along that subset.  Only the compatible side lives
here; insertions and deletions are out of scope.
"""

from __future__ import annotations

from random import Random

from .structure import LengthMismatch, Structure

BASES = "ACGU"
PAIRS = ("AU", "CG", "GC", "GU", "UA", "UG")
_PAIR_SET = frozenset(PAIRS)


class IncompatibleInput(ValueError):
    """A sequence does not satisfy the pairing rules of the structure."""


def can_pair(x: str, y: str) -> bool:
    """True when the ordered base pair (x, y) can form a bond."""
    return x + y in _PAIR_SET


def is_compatible(seq: str, s: Structure) -> bool:
    if len(seq) != s.n:
        raise LengthMismatch(f"sequence length {len(seq)} != structure length {s.n}")
    return all(can_pair(seq[a.i - 1], seq[a.j - 1]) for a in s.arcs)


def _require_compatible(seq: str, s: Structure) -> None:
    if not is_compatible(seq, s):
        raise IncompatibleInput("sequence is not compatible with the structure")


def random_compatible_sequence(target: Structure, rng: Random) -> str:
    """Uniform random sequence compatible with the target.

    Each unpaired position draws uniformly from the four bases and each
    arc draws uniformly from the six allowed pairs, independently.  One
    pass over positions 1..n keeps the draw order reproducible.
    """
    out = [""] * target.n
    for w in range(1, target.n + 1):
        v = target.partner[w]
        if v == 0:
            out[w - 1] = rng.choice(BASES)
        elif v > w:
            pair = rng.choice(PAIRS)
            out[w - 1] = pair[0]
            out[v - 1] = pair[1]
    return "".join(out)


def compatible_neighbors(seq: str, s: Structure) -> list[str]:
    """All one-step compatible mutations of seq.

    Three per unpaired position and five per arc, so the count is always
    3 * n_u + 5 * n_p.
    """
    _require_compatible(seq, s)
    out: list[str] = []
    for w in range(1, s.n + 1):
        if s.partner[w] != 0:
            continue
        for base in BASES:
            if base != seq[w - 1]:
                out.append(seq[: w - 1] + base + seq[w:])
    for arc in s.arcs:
        current = seq[arc.i - 1] + seq[arc.j - 1]
        for pair in PAIRS:
            if pair == current:
                continue
            chars = list(seq)
            chars[arc.i - 1] = pair[0]
            chars[arc.j - 1] = pair[1]
            out.append("".join(chars))
    return out


def compatible_distance(seq_a: str, seq_b: str, s: Structure) -> int:
    """Shortest path length between two compatible sequences.

    Unpaired positions that differ contribute one step each; arcs whose
    pairs differ contribute one step regardless of whether one or two
    characters change.
    """
    if len(seq_a) != len(seq_b):
        raise LengthMismatch("sequences have different lengths")
    _require_compatible(seq_a, s)
    _require_compatible(seq_b, s)
    steps = sum(
        1
        for w in range(1, s.n + 1)
        if s.partner[w] == 0 and seq_a[w - 1] != seq_b[w - 1]
    )
    steps += sum(
        1
        for a in s.arcs
        if (seq_a[a.i - 1], seq_a[a.j - 1]) != (seq_b[a.i - 1], seq_b[a.j - 1])
    )
    return steps
