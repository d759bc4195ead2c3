"""Reference folding oracle: exact enumeration of the structures a sequence can pair.

The oracle contract is small: fold(seq, n_best) returns the n_best
lowest-energy structures compatible with seq, sorted ascending, the first
being the mfe structure.  Anything honoring that contract (and exposing
its validation policy) can replace ReferenceFoldOracle in the search.

Energies come from a flat loop-based surrogate model: negative scores per
base pair plus nonnegative penalties per loop.  The defaults reward long
stacks and make pseudoknots pay for their crossings; all values can be
overridden programmatically or from a key=value config file.

Enumeration is exact and exponential: it is guarded by length and capped
at MAX_STRUCTURES structures per call.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .loops import _census, _members, loop_census
from .sequences import BASES, PAIRS, IncompatibleInput, _PAIR_SET, _require_compatible
from .structure import Arc, Structure, ValidationPolicy, stacks

DEFAULT_SIZE_GUARD = 40
# Structures one fold or enumeration may visit: above the 161k valid
# structures of length 28, below what exhausts memory.
MAX_STRUCTURES = 250_000
# Fold results one ReferenceFoldOracle keeps, least recently used out
# first: a design asks for about 16 distinct folds, and its repeats fall
# within the last 256.
MAX_MEMO_ENTRIES = 4096

# loop penalties, in the order of the loop_census counts they weigh
_LOOP_PENALTIES = ("hairpin", "interior", "stacked", "multi", "pseudoknot")
_DEFAULT_PAIR_SCORES = (
    ("AU", -2.0),
    ("CG", -3.0),
    ("GC", -3.0),
    ("GU", -1.0),
    ("UA", -2.0),
    ("UG", -1.0),
)
# per base x, the table writing the bases that pair with x as binary
# digit 1 and the others as 0
_PARTNER_DIGITS = {
    x: str.maketrans(BASES, "".join("1" if x + y in _PAIR_SET else "0" for y in BASES))
    for x in BASES
}
_DROP_BASES = str.maketrans("", "", BASES)


class SizeGuard(ValueError):
    """Refused to enumerate past the length guard or the structure cap."""


@dataclass(frozen=True)
class EnergyModel:
    """Flat loop-based scoring: pair scores <= 0, loop penalties >= 0.

    stacked is the penalty of an interior loop with both gaps empty (two
    consecutive arcs of a stack); interior applies as soon as either gap
    holds an unpaired base.  The empty structure scores 0.
    """

    pair_scores: tuple[tuple[str, float], ...] = _DEFAULT_PAIR_SCORES
    hairpin: float = 3.0
    interior: float = 2.0
    stacked: float = 0.0
    multi: float = 4.0
    pseudoknot: float = 9.0

    def __post_init__(self):
        scores = dict(self.pair_scores)
        if sorted(scores) != sorted(PAIRS):
            raise ValueError(f"pair_scores must cover exactly {PAIRS}")
        if not all(math.isfinite(v) and v <= 0 for v in scores.values()):
            raise ValueError("pair scores must be finite and <= 0")
        for name in _LOOP_PENALTIES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"loop penalty {name} must be finite and >= 0")
        object.__setattr__(
            self, "pair_scores", tuple(sorted(self.pair_scores))
        )

    @classmethod
    def from_mapping(cls, overrides: Mapping[str, float]) -> "EnergyModel":
        """Build a model from keys like 'pair.GC' and 'loop.hairpin'."""
        pairs = dict(_DEFAULT_PAIR_SCORES)
        penalties: dict[str, float] = {}
        for key, value in overrides.items():
            kind, _, name = key.partition(".")
            if kind == "pair" and name in pairs:
                pairs[name] = float(value)
            elif kind == "loop" and name in _LOOP_PENALTIES:
                penalties[name] = float(value)
            else:
                raise ValueError(f"unknown energy model key {key!r}")
        return cls(pair_scores=tuple(sorted(pairs.items())), **penalties)

    @classmethod
    def from_file(cls, path: str | Path) -> "EnergyModel":
        """Read key=value lines; blank lines and '#' comments are ignored."""
        overrides: dict[str, float] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed energy model line {raw!r}")
            overrides[key.strip()] = float(value.strip())
        return cls.from_mapping(overrides)

    def pair_score(self, x: str, y: str) -> float:
        return dict(self.pair_scores)[x + y]

    def loop_energy(self, census: tuple[int, ...]) -> float:
        """Penalty sum over loop_census counts (hairpin, gapped interior,
        stacked pair, multi, pseudoknot)."""
        hairpins, gapped, stacked, multis, pseudoknots = census
        return (hairpins * self.hairpin + gapped * self.interior
                + stacked * self.stacked + multis * self.multi
                + pseudoknots * self.pseudoknot)


DEFAULT_MODEL = EnergyModel()


@dataclass(frozen=True)
class FoldResult:
    """Structures sorted ascending by energy; structures[0] is the mfe."""

    structures: tuple[Structure, ...]
    energies: tuple[float, ...]

    @property
    def mfe(self) -> Structure:
        return self.structures[0]

    @property
    def mfe_energy(self) -> float:
        return self.energies[0]


def energy_of(
    seq: str, s: Structure, model: EnergyModel = DEFAULT_MODEL
) -> float:
    """Sum of pair scores over arcs plus loop penalties over the loop census."""
    _require_compatible(seq, s)
    total = sum(model.pair_score(seq[a.i - 1], seq[a.j - 1]) for a in s.arcs)
    census = loop_census([(*st.outer, st.size) for st in stacks(s)])
    return total + model.loop_energy(census)


def _guard(n: int, size_guard: int, force: bool) -> None:
    if n > size_guard and not force:
        raise SizeGuard(
            f"length {n} exceeds the enumeration guard {size_guard}; "
            "pass force=True to override"
        )


def _pair_masks(seq: str) -> list[int]:
    """masks[p]: bit q set when position q can pair with position p (1-based)."""
    if seq.translate(_DROP_BASES):
        raise IncompatibleInput(f"sequence {seq!r} contains non-ACGU characters")
    # the last digit is position 1; the shift makes bit q position q
    backward = "0" + seq[::-1]
    partners = {
        x: int(backward.translate(table), 2) << 1
        for x, table in _PARTNER_DIGITS.items()
    }
    return [0, *map(partners.__getitem__, seq)]


def _candidate_stacks(
    policy: ValidationPolicy, masks: list[int]
) -> list[tuple[int, int, int]]:
    """Stacks (i, j, size) with size >= sigma whose arcs all pair.

    Bit q of masks[p] says that positions p and q can pair (1-based).  Each
    stack's innermost arc keeps the minimum arc length (never below 2, the
    adjacent-pair bound).  The list is sorted by (i, j, size).
    """
    lmin = max(policy.min_arc_length, 2)
    out = []
    for i in range(1, len(masks)):
        # bit j of run: the arcs (i, j), ..., (i + size - 1, j - size + 1) pair
        run, size = masks[i], 1
        while True:
            shortest = i + lmin + 2 * (size - 1)  # j keeping the inner arc long
            run = run >> shortest << shortest
            if not run:
                break
            if size >= policy.sigma:
                ends = run
                while ends:
                    low = ends & -ends
                    out.append((i, low.bit_length() - 1, size))
                    ends ^= low
            run &= masks[i + size] << size
            size += 1
    out.sort()
    return out


def _has_clique(mask: int, size: int, crossing: list[int]) -> bool:
    """Whether mask holds size mutually crossing candidates."""
    if size == 0:
        return True
    while mask.bit_count() >= size:
        low = mask & -mask
        mask ^= low
        if _has_clique(mask & crossing[low.bit_length() - 1], size - 1, crossing):
            return True
    return False


def _stack_sets(
    n: int,
    policy: ValidationPolicy,
    candidates: list[tuple[int, int, int]],
    scores: list[tuple[float, ...]],
) -> tuple[list[float], list[int], list[int], list[int]]:
    """Every valid structure built from the candidate stacks, each exactly once.

    A structure is a bit mask over candidates, which are sorted by (i, j,
    size); its set bits, lowest first, are its maximal stacks, whose arcs
    in that order form its sorted arc list.  Forbidding two chosen stacks
    from forming one longer run makes the stack decomposition canonical,
    so no arc set appears twice; the crossing bound rejects any policy.k
    mutually crossing stacks.  Each structure comes with its pair-score
    sum: the scores[c] of its candidates c, added in sorted arc order.
    The candidates' crossing and inside masks, as loops._relations
    defines them, come back too.
    """
    cap = MAX_STRUCTURES
    covering = [0] * (n + 2)  # candidates by paired position
    opens = [0] * (n + 2)  # candidates by outer i, then by outer i <= p
    closes = [0] * (n + 2)  # candidates by outer j, then by outer j <= p
    ends: dict[tuple[int, int], int] = {}  # by outer arc and by the arc inside
    for c, (i, j, size) in enumerate(candidates):
        bit = 1 << c
        for t in range(size):
            covering[i + t] |= bit
            covering[j - t] |= bit
        opens[i] = (bit << 1) - 1  # candidates are sorted by i
        closes[j] |= bit
        for arc in ((i, j), (i + size, j - size)):
            ends[arc] = ends.get(arc, 0) | bit
    for p in range(1, n + 2):
        opens[p] |= opens[p - 1]
        closes[p] |= closes[p - 1]
    compatible = []
    crossing = []
    inside = []
    for i, j, size in candidates:
        # runs merge when one's outer arc lies just inside the other; any
        # other shared end arc shares positions too
        clash = ends[i, j] | ends[i + size, j - size]
        for t in range(size):
            clash |= covering[i + t] | covering[j - t]
        compatible.append(~clash)
        # outer arcs with i < i' < j < j' or i' < i < j' < j
        crossing.append((opens[j - 1] & ~opens[i] & ~closes[j])
                        | (opens[i - 1] & closes[j - 1] & ~closes[i]))
        # outer arcs with i < i' < j' < j
        inside.append(opens[j] & ~opens[i] & closes[j - 1])
    max_mutual = policy.k - 1
    sums: list[float] = []
    sets: list[int] = []
    # depth first over (allowed, chosen, pair-score sum); a child only
    # adds candidates above every chosen one
    todo = [((1 << len(candidates)) - 1, 0, 0.0)]
    while todo:
        allowed, chosen, total = todo.pop()
        sums.append(total)
        sets.append(chosen)
        if len(sets) > cap:
            raise SizeGuard(f"more than {cap} structures to enumerate at "
                            f"length {n}; the cap bounds time and memory")
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            c = low.bit_length() - 1
            crossers = crossing[c] & chosen
            if (crossers.bit_count() >= max_mutual
                    and _has_clique(crossers, max_mutual, crossing)):
                continue
            extended = total
            for score in scores[c]:
                extended += score
            todo.append((allowed & compatible[c], chosen | low, extended))
    return sums, sets, crossing, inside


def _arcs(
    candidates: list[tuple[int, int, int]], members: list[int]
) -> tuple[tuple[int, int], ...]:
    """Sorted arc list of the stack set with the given candidate indices."""
    return tuple(
        (i + t, j - t)
        for i, j, size in (candidates[c] for c in members)
        for t in range(size)
    )


def enumerate_structures(
    n: int,
    policy: ValidationPolicy | None = None,
    *,
    size_guard: int = DEFAULT_SIZE_GUARD,
    force: bool = False,
) -> Iterator[Structure]:
    """Yield every valid structure of length n exactly once, in sorted order."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    _guard(n, size_guard, force)
    policy = policy or ValidationPolicy()
    candidates = _candidate_stacks(policy, [(1 << (n + 1)) - 2] * (n + 1))
    _, sets, _, _ = _stack_sets(n, policy, candidates, [()] * len(candidates))
    for arcs in sorted(_arcs(candidates, _members(chosen)) for chosen in sets):
        yield Structure(n, arcs)


def fold(
    seq: str,
    n_best: int = 1,
    policy: ValidationPolicy | None = None,
    model: EnergyModel = DEFAULT_MODEL,
    *,
    size_guard: int = DEFAULT_SIZE_GUARD,
    force: bool = False,
) -> FoldResult:
    """The n_best lowest-energy structures compatible with seq.

    Energy ties break toward the lexicographically smallest sorted arc
    list, so results are fully deterministic.  Fewer than n_best
    structures come back when the compatible space is smaller.

    Only stacks whose pairs all bond with seq are enumerated.  Loop
    penalties are >= 0 and a nonempty structure closes a hairpin or a
    pseudoknot loop, so its pair-score sum plus the smaller of those two
    penalties bounds its energy from below.  Structures are scored in
    ascending bound until the bound exceeds the n_best-th energy found.
    """
    if n_best < 1:
        raise ValueError("n_best must be at least 1")
    policy = policy or ValidationPolicy()
    n = len(seq)
    _guard(n, size_guard, force)
    candidates = _candidate_stacks(policy, _pair_masks(seq))
    pair = dict(model.pair_scores)
    scores = [  # tuple(list) builds short tuples faster than tuple(generator)
        tuple([pair[seq[i + t - 1] + seq[j - t - 1]] for t in range(size)])
        for i, j, size in candidates
    ]
    sums, sets, crossing, inside = _stack_sets(n, policy, candidates, scores)
    sizes = [size for _, _, size in candidates]
    floor = min(model.hairpin, model.pseudoknot)
    bounds = [total + floor if chosen else total for total, chosen in zip(sums, sets)]
    lowest: list[float] = []  # the n_best lowest energies so far
    scored = []
    for row in sorted(range(len(sums)), key=bounds.__getitem__):
        if len(lowest) == n_best and bounds[row] > lowest[-1]:
            break
        census = _census(sets[row], sizes, crossing, inside)
        energy = sums[row] + model.loop_energy(census)
        insort(lowest, energy)
        del lowest[n_best:]
        scored.append((energy, row))
    # a row's arcs are its stacks' arcs in candidate order: stacks pair
    # disjoint positions and each one's left ends are consecutive, so the
    # concatenation is sorted
    stack_arcs: list[tuple[Arc, ...] | None] = [None] * len(candidates)
    best = []
    for energy, row in scored:
        if energy > lowest[-1]:
            continue
        arcs: tuple[Arc, ...] = ()
        for c in _members(sets[row]):
            if stack_arcs[c] is None:
                i, j, size = candidates[c]
                stack_arcs[c] = tuple(Arc(i + t, j - t) for t in range(size))
            arcs += stack_arcs[c]
        best.append((energy, arcs))
    best.sort()
    del best[n_best:]
    return FoldResult(
        tuple(Structure._trusted(n, arcs) for _, arcs in best),
        tuple(energy for energy, _ in best),
    )


class ReferenceFoldOracle:
    """Exhaustive folding oracle with a per-instance LRU memo.

    Duck-typed contract for any substitute: a ``policy`` attribute and a
    ``fold(seq, n_best=1) -> FoldResult`` method that is deterministic
    and safe to call from concurrent searches.
    """

    def __init__(
        self,
        policy: ValidationPolicy | None = None,
        model: EnergyModel = DEFAULT_MODEL,
        *,
        size_guard: int = DEFAULT_SIZE_GUARD,
        force: bool = False,
    ):
        self.policy = policy or ValidationPolicy()
        self.model = model
        self.size_guard = size_guard
        self.force = force
        self._cache: OrderedDict[tuple[str, int], FoldResult] = OrderedDict()

    def fold(self, seq: str, n_best: int = 1) -> FoldResult:
        key = (seq, n_best)
        # pop with a default, never del: a concurrent caller may have evicted it
        result = self._cache.pop(key, None)
        if result is None:
            result = fold(
                seq,
                n_best,
                self.policy,
                self.model,
                size_guard=self.size_guard,
                force=self.force,
            )
        self._cache[key] = result
        if len(self._cache) > MAX_MEMO_ENTRIES:
            self._cache.popitem(last=False)
        return result
