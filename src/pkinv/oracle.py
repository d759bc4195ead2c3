"""Reference folding oracle: exact enumeration of the structures a sequence can pair.

The oracle contract is small: fold(seq, n_best) returns the n_best
lowest-energy structures compatible with seq, sorted ascending, the first
being the mfe structure.  Anything honoring that contract (and exposing
its validation policy) can replace ReferenceFoldOracle in the search.

Energies come from a flat loop-based surrogate model: negative scores per
base pair plus nonnegative penalties per loop.  The defaults reward long
stacks and make pseudoknots pay for their crossings; all values can be
overridden programmatically or from a key=value config file.

Enumeration is exact and exponential: it is capped at MAX_CANDIDATES
candidate stacks and MAX_STRUCTURES structures per call.  fold scores the
enumerated structures lazily, in ascending order of a lower bound: the
pair-score sum plus a loop floor (_loop_floor) that counts the loops a
structure's stacks must close.  A stack outside every pseudoknot closes
exactly one hairpin, interior or multi loop; without crossings some
stack closes a hairpin; any crossing yields a pseudoknot; and a stack
that crosses nothing never joins one.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from bisect import insort
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .loops import _census, loop_census
from .sequences import PAIRS, _pair_masks, _require_compatible
from .structure import (
    Arc,
    Structure,
    ValidationPolicy,
    _has_clique,
    _stack_arcs,
    _stack_masks,
    stacks,
)

# Candidate stacks one fold may list: above the 825 of every structure
# of length 28 and the 650 of the widest fold of 40 or fewer bases that
# completed in a seeded scan.  Each structure mask is that many bits
# wide, and the crossing and overlap masks hold its square, at most
# 1 Mbit.
MAX_CANDIDATES = 1024
# Structures one fold may visit: above the 161k valid structures of
# length 28.  With MAX_CANDIDATES it bounds the rows at about
# 250k x (100 B + 1024 / 8 B), or 57 MB.
MAX_STRUCTURES = 250_000
# Structures one ReferenceFoldOracle's memo holds, least recently used
# sequence out first.  It counts structures, not sequences, because an
# entry's memory grows with the structures it holds (1 to n_best).  A
# design's repeats fall within its last 256 sequences; short designs
# through one oracle keep about 400 sequences in this budget, most held
# at n_best 1, and fold no more often than with an unbounded memo.
MAX_MEMO_STRUCTURES = 1024

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


class SizeGuard(ValueError):
    """Refused to enumerate past the candidate-stack cap or the structure cap."""


class _ModelFields(NamedTuple):
    pair_scores: tuple[tuple[str, float], ...] = _DEFAULT_PAIR_SCORES
    hairpin: float = 3.0
    interior: float = 2.0
    stacked: float = 0.0
    multi: float = 4.0
    pseudoknot: float = 9.0


class EnergyModel(_ModelFields):
    """Flat loop-based scoring: pair scores <= 0, loop penalties >= 0.

    stacked is the penalty of an interior loop with both gaps empty (two
    consecutive arcs of a stack); interior applies as soon as either gap
    holds an unpaired base.  The empty structure scores 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "EnergyModel":
        self = super().__new__(cls, *args, **kwargs)
        if sorted(name for name, _ in self.pair_scores) != sorted(PAIRS):
            raise ValueError(f"pair_scores must list each of {PAIRS} once")
        if not all(math.isfinite(v) and v <= 0 for _, v in self.pair_scores):
            raise ValueError("pair scores must be finite and <= 0")
        for name in _LOOP_PENALTIES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"loop penalty {name} must be finite and >= 0")
        return super().__new__(cls, tuple(sorted(self.pair_scores)), *self[1:])

    @classmethod
    def _make(cls, iterable: Iterable) -> "EnergyModel":
        return cls(*iterable)  # _replace builds through _make: validate

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
        """Read key=value lines; blank lines and '#' comments are ignored,
        and a key given twice is refused."""
        overrides: dict[str, float] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed energy model line {raw!r}")
            key = key.strip()
            if key in overrides:
                raise ValueError(f"energy model key {key!r} given twice")
            overrides[key] = float(value.strip())
        return cls.from_mapping(overrides)

    def loop_energy(self, census: tuple[int, ...]) -> float:
        """Penalty sum over loop_census counts (hairpin, gapped interior,
        stacked pair, multi, pseudoknot)."""
        hairpins, gapped, stacked, multis, pseudoknots = census
        return (hairpins * self.hairpin + gapped * self.interior
                + stacked * self.stacked + multis * self.multi
                + pseudoknots * self.pseudoknot)


DEFAULT_MODEL = EnergyModel()


class FoldResult(NamedTuple):
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
    """Sum of pair scores over arcs plus loop penalties over the loop census.

    The pair scores add as fold adds them: each maximal stack's from 0.0,
    outermost arc first, and those stack totals from 0.0 in stack order.
    Under integral pair scores every order adds alike; under others this
    one can round apart from a plain left-to-right sum over the arcs, and
    the builtin sum compensates its rounding from Python 3.12 on.
    """
    _require_compatible(seq, s)
    pair = _pair_table(model)
    total = 0.0
    for i, j, size in stacks(s):
        stack = 0.0
        for t in range(size):
            stack += pair[seq[i + t - 1]][seq[j - t - 1]]
        total += stack
    return total + model.loop_energy(loop_census(s))


# a process folds under one model, a test run under a few dozen
@functools.lru_cache(maxsize=32)
def _pair_table(model: EnergyModel) -> dict[str, dict[str, float]]:
    """The model's pair scores as pair[x][y] for the pair of bases x, y.

    Every caller shares the cached dictionaries and only reads them.
    """
    pair: dict[str, dict[str, float]] = {}
    for name, score in model.pair_scores:
        pair.setdefault(name[0], {})[name[1]] = score
    return pair


def _candidate_stacks(
    policy: ValidationPolicy,
    masks: list[int],
    seq: str,
    pair: Mapping[str, Mapping[str, float]],
) -> tuple[list[tuple[int, int, int]], list[float]]:
    """Stacks (i, j, size) with size >= sigma whose arcs all pair, and the
    pair-score total of each: pair[x][y] of its arcs added from 0.0,
    outermost first, for x and y the bases seq gives their ends.

    Bit q of masks[p] says that positions p and q can pair (1-based).  Each
    stack's innermost arc keeps the minimum arc length (never below 2, the
    adjacent-pair bound).  The stacks come out sorted by (i, j, size):
    for each i the run mask of every size is collected first, then each
    end j is walked upward through its sizes, and each total after the
    first of an outer arc is the one before it plus one arc's score, the
    same float a fresh sum over the stack would give.
    SizeGuard refuses more than MAX_CANDIDATES stacks before any is
    built on.
    """
    cap = MAX_CANDIDATES
    lmin = max(policy.min_arc_length, 2)
    sigma = policy.sigma
    out: list[tuple[int, int, int]] = []
    totals: list[float] = []
    for i in range(1, len(masks)):
        # bit j of runs[size - 1]: the arcs (i, j), ..., (i + size - 1,
        # j - size + 1) pair; each run lies inside the one before it
        runs = []
        run, size = masks[i], 1
        shortest = i + lmin  # the least j keeping the inner arc long
        while True:
            run = run >> shortest << shortest
            if not run:
                break
            runs.append(run)
            run &= masks[i + size] << size
            size += 1
            shortest += 2
        if size <= sigma:  # no run of sigma arcs
            continue
        ends = runs[sigma - 1]
        while ends:
            low = ends & -ends
            ends ^= low
            j = low.bit_length() - 1
            head = 0.0
            for t in range(sigma):
                head += pair[seq[i + t - 1]][seq[j - t - 1]]
            out.append((i, j, sigma))
            totals.append(head)
            size = sigma
            while size < len(runs) and runs[size] & low:
                head += pair[seq[i + size - 1]][seq[j - size - 1]]
                size += 1
                out.append((i, j, size))
                totals.append(head)
        if len(out) > cap:
            raise SizeGuard(
                f"more than {cap} candidate stacks at length "
                f"{len(masks) - 1}; the cap bounds the width of "
                f"every structure mask")
    return out, totals


def _stack_sets(
    n: int,
    policy: ValidationPolicy,
    candidates: list[tuple[int, int, int]],
    totals: list[float],
) -> tuple[list[float], list[int], list[int], list[int], list[int]]:
    """Every valid structure built from the candidate stacks, each exactly once.

    A structure is a bit mask over candidates, which are sorted by (i, j,
    size); its set bits, lowest first, are its maximal stacks, whose arcs
    in that order form its sorted arc list.  Forbidding two chosen stacks
    from forming one longer run makes the stack decomposition canonical,
    so no arc set appears twice; the crossing bound rejects any policy.k
    mutually crossing stacks.  Each structure comes with its pair-score
    sum: the totals[c] of its candidates c added from 0.0 in candidate
    order, which is its stack order, since its candidates are exactly its
    maximal stacks; and its shape, 2 * free + knotted for _loop_floor:
    free counts its stacks that cross none of its stacks, and knotted is
    1 when any two of them cross.  The candidates' crossing and inside masks come back
    too.

    All masks come from one pass over positions (structure._stack_masks)
    that builds the four prefix masks of the stacks whose left arm
    starts at or before p (opens), whose left arm ends before p (lefts),
    whose right arm starts at or before p (rights) and whose right arm
    ends at or before p (closes).  A candidate c with arms [i, a] and
    [b, j] may not join the candidates sharing one of its positions,
    overlap[c] = (opens[a] & ~lefts[i]) | (rights[a] & ~closes[i - 1])
    | (opens[j] & ~lefts[b]) | (rights[j] & ~closes[b - 1]), nor the
    runs with outer arc (a + 1, b - 1), just inside c.
    """
    cap = MAX_STRUCTURES
    crossing, inside, overlap, inner = _stack_masks(n, candidates)
    # runs merge when one's outer arc lies just inside the other; any
    # other shared arc shares positions.  The search adds only runs above
    # a chosen c, and a run c would sit just inside starts left of c, so
    # only the runs just inside c count
    compatible = [~(clash | run) for clash, run in zip(overlap, inner)]
    max_mutual = policy.k - 1
    # the empty structure, then each child as it is found
    sums: list[float] = [0.0]
    sets: list[int] = [0]
    shapes: list[int] = [0]
    # depth first over (allowed, chosen, pair-score sum, free, shape),
    # where free masks the chosen stacks that cross no chosen stack; a
    # child only adds candidates above every chosen one, and one with
    # none left to add is not pushed
    todo = [((1 << len(candidates)) - 1, 0, 0.0, 0, 0)]
    while todo:
        allowed, chosen, total, free, shape = todo.pop()
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            c = low.bit_length() - 1
            crossers = crossing[c] & chosen
            if crossers:
                if (crossers.bit_count() >= max_mutual
                        and _has_clique(crossers, max_mutual, crossing)):
                    continue
                knotted = crossers & free  # free no longer, like c itself
                child_free = free ^ knotted
                child_shape = (shape | 1) - 2 * knotted.bit_count()
            else:
                child_free = free | low
                child_shape = shape + 2
            extended = total + totals[c]
            child = chosen | low
            sums.append(extended)
            sets.append(child)
            shapes.append(child_shape)
            rest = allowed & compatible[c]
            if rest:
                todo.append((rest, child, extended, child_free, child_shape))
        if len(sets) > cap:
            raise SizeGuard(f"more than {cap} structures to enumerate at "
                            f"length {n}; the cap bounds time and memory")
    return sums, sets, shapes, crossing, inside


def _loop_floor(model: EnergyModel, free: int, knotted: bool) -> float:
    """The loop floor of fold's bound, for a structure of one shape.

    free counts the structure's stacks that cross none of its stacks, and
    knotted says whether any two of them cross; without a crossing every
    stack is free.  The float returned lies 16 ulps below the floor's
    float sum, a margin rather than a derivation from loop_energy's order
    of operations: every value loop_energy and the floor compute is
    nonnegative and at most about their result, and each of their 9 + 2
    roundings moves it by at most 2**-53 of that (a result below the
    normal range is exact), so the floor never exceeds the float
    loop_energy returns, for any finite model.
    """
    cheapest = min(model.hairpin, model.interior, model.multi)
    if knotted:
        floor = model.pseudoknot + free * cheapest
    elif free:
        floor = model.hairpin + (free - 1) * cheapest
    else:
        return 0.0
    floor = min(floor, sys.float_info.max)  # an overflow must not make nan
    return floor - 16 * math.ulp(floor)


# a design folds under one model at one length, a campaign at a few dozen
@functools.lru_cache(maxsize=32)
def _floor_table(model: EnergyModel, n: int) -> tuple[float, ...]:
    """_loop_floor of every shape a structure of length n can have, by shape.

    The shape is 2 * free + knotted, as _stack_sets gives it.  Stacks
    pair disjoint positions, so free <= n // 2 and the shape <= n + 1.
    """
    return tuple(_loop_floor(model, shape >> 1, shape & 1) for shape in range(n + 2))


def _require_n_best(n_best: int) -> None:
    if not isinstance(n_best, int):
        raise TypeError(f"n_best must be an integer, not {type(n_best).__name__}")
    if n_best < 1:
        raise ValueError("n_best must be at least 1")


def fold(
    seq: str,
    n_best: int = 1,
    policy: ValidationPolicy | None = None,
    model: EnergyModel = DEFAULT_MODEL,
) -> FoldResult:
    """The n_best lowest-energy structures compatible with seq.

    Energy ties break toward the lexicographically smallest sorted arc
    list, so results are fully deterministic.  Fewer than n_best
    structures come back when the compatible space is smaller.

    Only stacks whose pairs all bond with seq are enumerated.  A
    structure's energy is at least its pair-score sum plus a loop floor.
    With s its stacks, u of them crossing none of its stacks, and m the
    cheapest of hairpin, interior and multi, the floor is 0 for the open
    chain, hairpin + (s - 1) * m without a crossing and pseudoknot + u * m
    with one, because stacked pairs cost >= 0 and:

    1. a stack outside every pseudoknot closes exactly one hairpin, gapped
       interior or multi loop, so it costs at least m;
    2. without a crossing some stack has nothing inside it and closes a
       hairpin;
    3. a crossing yields at least one pseudoknot, since the nesting-minimal
       crossing partners of a crossed stack are always kept in one;
    4. a stack that crosses nothing never joins a pseudoknot.

    _loop_floor keeps the floor below the energy as computed, too.
    Structures are scored in ascending bound until the bound exceeds the
    n_best-th energy found, so ties with it are still scored.

    A fold is two steps: _rows enumerates the structures with their
    pair-score sums, and _select bounds, scores and returns the best of
    them, so a caller holding one sequence's rows can select again at
    another n_best.  Five pieces of work are skipped, each without
    changing a result:

    - the floors come from a table per model and length, which
      _floor_table keeps for the last few dozen, since a floor depends
      only on the model and the shape; likewise the pair scores come
      from the nested table _pair_table keeps per model;
    - with at most n_best structures every one is returned, so all are
      scored with no floor, bound or sort, which could skip none;
    - the candidate stacks are emitted already in (i, j, size) order,
      each with its pair-score total, so they are neither sorted nor
      walked a second time, and a row adds one float per stack;
    - a total extends the previous candidate's when both share an outer
      arc, adding the same values in the same order as a fresh sum, so
      every total adds alike.  A row's sum adds its stacks' totals in
      stack order, as energy_of does; under integral pair scores, as in
      the default model, that equals the sum in sorted arc order, and
      under others it can round apart from it;
    - a structure none of whose stacks cross skips the pseudoknot
      grouping, since without a crossing no pseudoknot forms.
    """
    _require_n_best(n_best)
    return _select(_rows(seq, policy or ValidationPolicy(), model), n_best, model)


def _rows(seq: str, policy: ValidationPolicy, model: EnergyModel) -> tuple:
    """fold's enumeration step: every structure compatible with seq.

    The rows come as one tuple: the length, the candidate stacks and
    their sizes, each row's pair-score sum, stack set and shape, and the
    candidates' crossing and inside masks.
    """
    candidates, totals = _candidate_stacks(
        policy, _pair_masks(seq), seq, _pair_table(model))
    n = len(seq)
    sums, sets, shapes, crossing, inside = _stack_sets(n, policy, candidates, totals)
    sizes = [size for _, _, size in candidates]
    return n, candidates, sizes, sums, sets, shapes, crossing, inside


def _select(rows: tuple, n_best: int, model: EnergyModel) -> FoldResult:
    """fold's selection step: the n_best lowest-energy rows, as a result.

    It only reads the rows, so one enumeration serves any number of
    selections.
    """
    n, candidates, sizes, sums, sets, shapes, crossing, inside = rows
    if len(sums) <= n_best:  # every row is returned: no bound can skip one
        scored = [
            (total + model.loop_energy(
                _census(chosen, sizes, crossing, inside, shape & 1)), chosen)
            for total, chosen, shape in zip(sums, sets, shapes)
        ]
        cutoff = math.inf
    else:
        floors = _floor_table(model, n)
        bounds = [total + floors[shape] for total, shape in zip(sums, shapes)]
        lowest: list[float] = []  # the n_best lowest energies so far
        scored = []
        for row in sorted(range(len(sums)), key=bounds.__getitem__):
            if len(lowest) == n_best and bounds[row] > lowest[-1]:
                break
            chosen = sets[row]
            census = _census(chosen, sizes, crossing, inside, shapes[row] & 1)
            energy = sums[row] + model.loop_energy(census)
            insort(lowest, energy)
            del lowest[n_best:]
            scored.append((energy, chosen))
        cutoff = lowest[-1]
    # a row's arcs are its stacks' arcs in candidate order: stacks pair
    # disjoint positions and each one's left ends are consecutive, so the
    # concatenation is sorted
    best = []
    for energy, chosen in scored:
        if energy > cutoff:
            continue
        arcs: tuple[Arc, ...] = ()
        while chosen:
            low = chosen & -chosen
            chosen ^= low
            arcs += _stack_arcs(*candidates[low.bit_length() - 1])
        best.append((energy, arcs))
    best.sort()
    del best[n_best:]
    return FoldResult._make((
        tuple([Structure._trusted(n, arcs) for _, arcs in best]),
        tuple([energy for energy, _ in best]),
    ))


class ReferenceFoldOracle:
    """Exhaustive folding oracle with a per-instance LRU memo.

    The memo holds one entry per sequence, (n_best, result), and answers
    any n_best up to the stored one by slicing: fold's list is the first
    n_best structures of one total order, (energy, arcs), so the first k
    of a longer list are fold's k-list.  A larger n_best folds again and
    replaces the entry.  After each store, least recently used entries
    go until the memo holds at most MAX_MEMO_STRUCTURES structures; the
    entry just stored never goes, so one larger than the budget stays
    until the next store.

    A slot keeps the rows (fold's enumeration) of the last sequence
    folded, so refolding that sequence at a larger n_best, as the search
    does when an attempt it folded at n_best 1 leads the next adjust
    round, only selects again.  The slot is emptied before any other
    sequence is enumerated and is never filled by a refused fold, so an
    oracle holds at most one enumeration, no more than one fold builds
    anyway: at most MAX_STRUCTURES rows.

    Duck-typed contract for any substitute: a ``policy`` attribute and a
    ``fold(seq, n_best=1) -> FoldResult`` method that is deterministic
    and safe to call from concurrent searches.
    """

    def __init__(
        self,
        policy: ValidationPolicy | None = None,
        model: EnergyModel = DEFAULT_MODEL,
    ):
        self.policy = policy or ValidationPolicy()
        self.model = model
        self._cache: OrderedDict[str, tuple[int, FoldResult]] = OrderedDict()
        self._held = 0  # structures the memo's results hold
        self._kept: tuple[str, tuple] | None = None  # the last rows enumerated
        # guards _cache, _held and _kept, not folds: rows are only read
        # once built, and concurrent folds at worst replace each other's
        # kept rows, which loses a reuse but never changes a result
        self._lock = threading.Lock()

    def fold(self, seq: str, n_best: int = 1) -> FoldResult:
        _require_n_best(n_best)
        with self._lock:
            stored, result = self._cache.get(seq, (0, None))
            hit = n_best <= stored
            if hit:
                self._cache.move_to_end(seq)
            else:
                kept = self._kept
                if kept is not None and kept[0] != seq:
                    self._kept = kept = None  # free it before enumerating
        if not hit:
            rows = kept[1] if kept else _rows(seq, self.policy, self.model)
            stored, result = n_best, _select(rows, n_best, self.model)
            with self._lock:
                self._kept = seq, rows
                # the entry of a smaller n_best, or a concurrent caller's
                replaced = self._cache.pop(seq, None)
                if replaced is not None:
                    self._held -= len(replaced[1].structures)
                self._cache[seq] = stored, result
                self._held += len(result.structures)
                while self._held > MAX_MEMO_STRUCTURES and len(self._cache) > 1:
                    _, (_, evicted) = self._cache.popitem(last=False)
                    self._held -= len(evicted.structures)
        if n_best < stored:
            return FoldResult(result.structures[:n_best], result.energies[:n_best])
        return result
