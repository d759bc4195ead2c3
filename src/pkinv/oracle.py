"""Reference folding oracle over an exhaustive, cached structure space.

The oracle contract is small: fold(seq, n_best) returns the n_best
lowest-energy structures compatible with seq, sorted ascending, the first
being the mfe structure.  Anything honoring that contract (and exposing
its validation policy) can replace ReferenceFoldOracle in the search.

Energies come from a flat loop-based surrogate model: negative scores per
base pair plus nonnegative penalties per loop.  The defaults reward long
stacks and make pseudoknots pay for their crossings; all values can be
overridden programmatically or from a key=value config file.

Enumeration is exact and exponential, so it is guarded at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .loops import loop_census
from .sequences import BASES, PAIRS, IncompatibleInput, _require_compatible
from .structure import Arc, Structure, ValidationPolicy, _crosses, stacks

DEFAULT_SIZE_GUARD = 40

_DEFAULT_PAIR_SCORES = (
    ("AU", -2.0),
    ("CG", -3.0),
    ("GC", -3.0),
    ("GU", -1.0),
    ("UA", -2.0),
    ("UG", -1.0),
)


class SizeGuard(ValueError):
    """Refused to enumerate a structure space past the size guard."""


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
        if any(v > 0 for v in scores.values()):
            raise ValueError("pair scores must be <= 0")
        for name in ("hairpin", "interior", "stacked", "multi", "pseudoknot"):
            if getattr(self, name) < 0:
                raise ValueError(f"loop penalty {name} must be >= 0")
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
            elif kind == "loop" and name in (
                "hairpin",
                "interior",
                "stacked",
                "multi",
                "pseudoknot",
            ):
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

    @property
    def loop_weights(self) -> tuple[float, float, float, float, float]:
        """Loop penalties in loop_census order: hairpin, gapped interior,
        stacked pair, multi, pseudoknot."""
        return (self.hairpin, self.interior, self.stacked, self.multi,
                self.pseudoknot)


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
    return total + sum(c * w for c, w in zip(census, model.loop_weights))


def _guard(n: int, size_guard: int, force: bool) -> None:
    if n > size_guard and not force:
        raise SizeGuard(
            f"length {n} exceeds the enumeration guard {size_guard}; "
            "pass force=True to override"
        )


def _stack_candidates(n: int, policy: ValidationPolicy):
    lmin = max(policy.min_arc_length, 2)
    out = []
    for i in range(1, n + 1):
        for j in range(i + lmin, n + 1):
            max_size = 1 + (j - i - lmin) // 2
            for size in range(policy.sigma, max_size + 1):
                mask = 0
                for t in range(size):
                    mask |= 1 << (i + t)
                    mask |= 1 << (j - t)
                out.append((i, j, size, mask))
    return out


def _adjacent_runs(a, b) -> bool:
    # Two stacks whose runs would merge into one longer parallel run.
    ai, aj, asize, _ = a
    bi, bj, bsize, _ = b
    return (bi == ai + asize and bj == aj - asize) or (
        ai == bi + bsize and aj == bj - bsize
    )


def _enumerate_stack_sets(
    n: int, policy: ValidationPolicy
) -> list[tuple[tuple[int, ...], tuple[int, int, int, int, int]]]:
    """All valid structures, each exactly once, with their loop census.

    Structures are assembled from maximal stacks; forbidding two chosen
    stacks from forming one longer run makes the stack decomposition
    canonical, so no arc set appears twice.  The crossing bound rejects
    any policy.k mutually crossing stacks.  Arcs are encoded as
    i * (n + 1) + j so rows sort lexicographically like sorted arc lists.
    """
    candidates = _stack_candidates(n, policy)
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    max_mutual = policy.k - 1
    results: list[tuple[tuple[int, ...], tuple[int, int, int, int, int]]] = []
    span = n + 1

    def addable(chosen: list[int], idx: int) -> bool:
        cand = candidates[idx]
        crossers: list[tuple[int, int, int, int]] = []
        for c in chosen:
            other = candidates[c]
            if _adjacent_runs(cand, other):
                return False
            if _crosses(cand, other):
                crossers.append(other)
        if len(crossers) >= max_mutual:
            # adding cand must not complete a (max_mutual + 1)-clique
            def clique(size: int, rest: list[tuple[int, int, int, int]]) -> bool:
                if size == max_mutual:
                    return True
                for t, arc in enumerate(rest):
                    if clique(
                        size + 1,
                        [o for o in rest[t + 1 :] if _crosses(o, arc)],
                    ):
                        return True
                return False

            if clique(0, crossers):
                return False
        return True

    def emit(chosen: list[int]) -> None:
        arcs: list[int] = []
        stacks_ = []
        for c in chosen:
            i, j, size, _ = candidates[c]
            stacks_.append((i, j, size))
            arcs.extend((i + t) * span + (j - t) for t in range(size))
        results.append((tuple(sorted(arcs)), loop_census(stacks_)))

    def rec(start: int, used: int, chosen: list[int]) -> None:
        emit(chosen)
        for idx in range(start, len(candidates)):
            if used & candidates[idx][3]:
                continue
            if not addable(chosen, idx):
                continue
            chosen.append(idx)
            rec(idx + 1, used | candidates[idx][3], chosen)
            chosen.pop()

    rec(0, 0, [])
    results.sort()
    return results


class _FoldTable:
    """Vectorized view of one enumerated structure space."""

    def __init__(self, n: int, policy: ValidationPolicy):
        self.n = n
        self.policy = policy
        entries = _enumerate_stack_sets(n, policy)
        self.size = len(entries)
        arc_ids: dict[int, int] = {}
        rows = []
        counts = np.zeros((self.size, 5), dtype=np.int32)
        for row, (encoded_arcs, census) in enumerate(entries):
            rows.append(
                [arc_ids.setdefault(code, len(arc_ids)) for code in encoded_arcs]
            )
            counts[row] = census
        self._loop_counts = counts
        pad = len(arc_ids)
        width = max((len(r) for r in rows), default=0)
        matrix = np.full((self.size, max(width, 1)), pad, dtype=np.int32)
        for row, ids in enumerate(rows):
            matrix[row, : len(ids)] = ids
        self.arc_matrix = matrix
        span = n + 1
        self.arc_i = np.array([code // span - 1 for code in arc_ids], dtype=np.int32)
        self.arc_j = np.array([code % span - 1 for code in arc_ids], dtype=np.int32)
        self._penalties: dict[EnergyModel, np.ndarray] = {}

    def penalties(self, model: EnergyModel) -> np.ndarray:
        cached = self._penalties.get(model)
        if cached is None:
            cached = self._loop_counts @ np.array(model.loop_weights)
            self._penalties[model] = cached
        return cached

    def structure(self, row: int) -> Structure:
        ids = self.arc_matrix[row]
        ids = ids[ids < len(self.arc_i)]
        arcs = tuple(
            Arc(int(self.arc_i[k]) + 1, int(self.arc_j[k]) + 1) for k in ids
        )
        return Structure(self.n, arcs)


_TABLES: dict[tuple[int, ValidationPolicy], _FoldTable] = {}


def _get_table(n: int, policy: ValidationPolicy) -> _FoldTable:
    key = (n, policy)
    table = _TABLES.get(key)
    if table is None:
        table = _FoldTable(n, policy)
        _TABLES[key] = table
    return table


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
    table = _get_table(n, policy)
    for row in range(table.size):
        yield table.structure(row)


def _base_indices(seq: str) -> np.ndarray:
    try:
        return np.array([BASES.index(c) for c in seq], dtype=np.int32)
    except ValueError:
        raise IncompatibleInput(f"sequence {seq!r} contains non-ACGU characters")


def _pair_matrix(model: EnergyModel) -> np.ndarray:
    matrix = np.full((4, 4), np.inf)
    for pair, score in model.pair_scores:
        matrix[BASES.index(pair[0]), BASES.index(pair[1])] = score
    return matrix


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
    """
    if n_best < 1:
        raise ValueError("n_best must be at least 1")
    policy = policy or ValidationPolicy()
    _guard(len(seq), size_guard, force)
    table = _get_table(len(seq), policy)
    base = _base_indices(seq)
    if len(table.arc_i):
        arc_scores = _pair_matrix(model)[base[table.arc_i], base[table.arc_j]]
    else:
        arc_scores = np.zeros(0)
    extended = np.append(arc_scores, 0.0)
    energies = table.penalties(model) + extended[table.arc_matrix].sum(axis=1)
    finite = np.flatnonzero(np.isfinite(energies))
    # stable sort on a lexicographically pre-sorted table fixes tie order
    order = finite[np.argsort(energies[finite], kind="stable")][:n_best]
    return FoldResult(
        tuple(table.structure(int(row)) for row in order),
        tuple(float(energies[int(row)]) for row in order),
    )


class ReferenceFoldOracle:
    """Exhaustive folding oracle with per-instance memoization.

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
        self._cache: dict[tuple[str, int], FoldResult] = {}

    def fold(self, seq: str, n_best: int = 1) -> FoldResult:
        key = (seq, n_best)
        result = self._cache.get(key)
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
        return result
