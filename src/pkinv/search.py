"""Stochastic search for sequences whose mfe fold is a given target.

The pipeline: draw a random compatible start, adjust it globally against
a set of competing structures harvested from the suboptimal fold list,
then walk the target's interval ladder with a local search that mutates
only positions folding wrongly (and their neighbors), occasionally
accepting uphill moves.  A result is only ever reported after the final
sequence re-folds to the target arc for arc.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from random import Random
from typing import NamedTuple

from .loops import ArcNotInStructure, IntervalPlan, build_intervals
from .oracle import FoldResult, ReferenceFoldOracle, SizeGuard, _pair_masks
from .sequences import BASES, PAIRS, can_pair, random_compatible_sequence
from .structure import (
    Arc,
    Structure,
    Violation,
    parse_structure,
    restrict_structure,
    structure_distance,
    validate_target,
)


class InvalidTarget(ValueError):
    """The target fails validation; carries the violation list."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        details = "; ".join(str(v) for v in violations)
        super().__init__(f"incorrect structure: {details}")


class SearchFailed(RuntimeError):
    """No sequence folding into the target was found within the budgets,
    or the oracle refused a fold the search needed; reason says which."""

    def __init__(
        self,
        target: Structure,
        trace: "SearchTrace",
        oracle_calls: int,
        reason: str | None = None,
    ):
        self.target = target
        self.trace = trace
        self.oracle_calls = oracle_calls
        message = (f"no sequence found for target of length {target.n} "
                   f"after {oracle_calls} oracle calls")
        super().__init__(f"{message}: {reason}" if reason else message)


@dataclass(frozen=True)
class SearchConfig:
    """All tunables of the search.

    adjust_rounds defaults to ceil(sqrt(n) / 2) when left as None.  The
    cap on oracle calls per local-search interval is phase_cap_factor * n.
    """

    n_best: int = 50
    adjust_rounds: int | None = None
    distance_slack: int = 5
    mutation_retries: int = 5
    uphill_probability: float = 0.1
    uphill_margin: int = 5
    phase_cap_factor: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_best < 1 or self.mutation_retries < 1:
            raise ValueError("n_best and mutation_retries must be positive")
        if self.distance_slack < 0 or self.uphill_margin < 0:
            raise ValueError("slack and margin must be nonnegative")
        if not 0.0 <= self.uphill_probability <= 1.0:
            raise ValueError("uphill_probability must be a probability")
        if self.phase_cap_factor < 1:
            raise ValueError("phase_cap_factor must be positive")
        if self.adjust_rounds is not None and self.adjust_rounds < 1:
            raise ValueError("adjust_rounds must be positive")

    def rounds_for(self, n: int) -> int:
        if self.adjust_rounds is not None:
            return self.adjust_rounds
        return max(1, math.ceil(math.sqrt(n) / 2))


@dataclass(frozen=True)
class TraceRecord:
    phase: str  # "adjust" or "local"
    round: int
    distance: int
    best_distance: int
    mutations: int = 0
    accepted_uphill: bool = False
    fallback_positions: tuple[int, ...] = ()
    interval: tuple[int, int] | None = None


@dataclass
class SearchTrace:
    """Append-only record of the search, replayable from the seed."""

    records: list[TraceRecord] = field(default_factory=list)

    def add(self, record: TraceRecord) -> None:
        self.records.append(record)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(r)) for r in self.records)


class CompetitorCensus(NamedTuple):
    """What the competitors of a round say about each position 0..n.

    flagged[w]: some competitor pairs w differently from the target.
    rivals[w]: the partners competitors give w; it may hold the target's
    own partner, which mutation ignores.
    """

    flagged: list[bool]
    rivals: list[set[int]]


@dataclass(frozen=True)
class MutationOutcome:
    sequence: str
    mutated_positions: tuple[int, ...]
    fallback_positions: tuple[int, ...]


@dataclass(frozen=True)
class InvResult:
    sequence: str
    target: Structure
    oracle_calls: int
    trace: SearchTrace


class _CountingOracle:
    def __init__(self, oracle):
        self._oracle = oracle
        self.calls = 0

    def fold(self, seq: str, n_best: int = 1) -> FoldResult:
        self.calls += 1
        return self._oracle.fold(seq, n_best)


def perturb_arc(s: Structure, arc: Arc) -> list[tuple[Arc, ...]]:
    """All one-arc perturbations of s at arc, as raw arc tuples.

    The arc is kept, shifted by at most one at each endpoint, or deleted;
    shifts leaving [1, n] or collapsing the arc are discarded at
    generation.  Results may pair a position twice; consistency is the
    caller's filter.
    """
    arc = Arc(*arc)
    if arc not in set(s.arcs):
        raise ArcNotInStructure(f"{tuple(arc)} not in structure")
    rest = tuple(a for a in s.arcs if a != arc)
    variants: list[tuple[Arc, ...]] = []
    seen: set[tuple[Arc, ...]] = set()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            i, j = arc.i + di, arc.j + dj
            if i < 1 or j > s.n or i >= j:
                continue
            candidate = tuple(sorted(rest + (Arc(i, j),)))
            if candidate not in seen:
                seen.add(candidate)
                variants.append(candidate)
    if rest not in seen:
        variants.append(rest)  # deletion
    return variants


def build_competitors(
    seq: str, fold_result: FoldResult, target: Structure
) -> tuple[Structure, ...]:
    """Perturb every arc of every suboptimal structure and keep the survivors.

    Dropped: duplicates, structures pairing a position twice, structures
    with an arc the sequence cannot pair, and the target itself.  The
    search reads competitors through competitor_census; this is its
    reference.
    """
    n = target.n
    survivors: dict[tuple[Arc, ...], Structure] = {}
    target_arcs = target.arcs
    for candidate_struct in fold_result.structures:
        for arc in candidate_struct.arcs:
            for arcs in perturb_arc(candidate_struct, arc):
                if arcs in survivors or arcs == target_arcs:
                    continue
                endpoints = [w for a in arcs for w in a]
                if len(set(endpoints)) != len(endpoints):
                    continue  # inconsistent: a position paired twice
                if not all(can_pair(seq[a.i - 1], seq[a.j - 1]) for a in arcs):
                    continue  # incompatible with the sequence
                survivors[arcs] = Structure(n, arcs)
    return tuple(survivors[key] for key in sorted(survivors))


def competitor_census(
    seq: str, fold_result: FoldResult, target: Structure
) -> CompetitorCensus:
    """The census of build_competitors' survivors, without building them.

    Every nonempty fold structure S is its own unshifted perturbation, so
    S's whole partner vector counts.  A perturbation at arc (i0, j0)
    differs from S only at its touched ends: deletion leaves 0 at i0 and
    j0, and a shift to (i, j) pairs i with j when it stays in range with
    i < j, lands on ends free in S minus the arc, and can pair.
    Deduplication is not needed, nor is dropping the target: its entries
    are the target partners, which mutation ignores.  The partners of a
    position are read column-wise off the partner vectors, and shifts are
    tested against the sequence's pair masks.
    """
    pairs = _pair_masks(seq)  # bit j of pairs[i]: i and j can pair
    structures = [s for s in fold_result.structures if s.arcs]
    # seen[w]: the partners competitors give w, 0 for unpaired
    seen = [set(column) for column in zip(*(s.partner for s in structures))]
    if not seen:
        seen = [set() for _ in range(target.n + 1)]
    for s in structures:
        paired = 0
        for i0, j0 in s.arcs:
            paired |= 1 << i0 | 1 << j0
        for i0, j0 in s.arcs:
            seen[i0].add(0)
            seen[j0].add(0)
            free = ~paired | 1 << i0 | 1 << j0
            for i in (i0 - 1, i0, i0 + 1):
                if not free >> i & 1:
                    continue
                ends = pairs[i] & free
                for j in (j0 - 1, j0, j0 + 1):
                    if ends >> j & 1 and i < j:
                        seen[i].add(j)
                        seen[j].add(i)
    flagged = [any(p != t for p in ps) for ps, t in zip(seen, target.partner)]
    for ps in seen:
        ps.discard(0)
    return CompetitorCensus(flagged, seen)


def mutate_against_competitors(
    seq: str, target: Structure, census: CompetitorCensus, rng: Random
) -> MutationOutcome:
    """Redraw every position where some competitor pairs differently.

    Unpaired target positions get a new base that no competitor partner
    can bond with; arcs get a new allowed pair whose start-side base
    breaks each competitor pairing there.  Constraints always compare
    against the pre-mutation sequence.  When no base or pair satisfies
    the constraints the position falls back to an unconstrained
    target-compatible redraw and is flagged.
    """
    flagged, rivals = census
    new = list(seq)
    mutated: list[int] = []
    fallbacks: list[int] = []
    for w in range(1, target.n + 1):
        v = target.partner[w]
        if v == 0:
            if not flagged[w]:
                continue
            old = seq[w - 1]
            options = [
                b
                for b in BASES
                if b != old
                and all(not can_pair(b, seq[u - 1]) for u in rivals[w])
            ]
            if options:
                new[w - 1] = rng.choice(options)
            else:
                new[w - 1] = rng.choice([b for b in BASES if b != old])
                fallbacks.append(w)
            mutated.append(w)
        elif v > w:
            if not (flagged[w] or flagged[v]):
                continue
            old_pair = seq[w - 1] + seq[v - 1]
            options = [
                p
                for p in PAIRS
                if p != old_pair
                and all(u == v or not can_pair(p[0], seq[u - 1]) for u in rivals[w])
            ]
            if options:
                pair = rng.choice(options)
            else:
                pair = rng.choice([p for p in PAIRS if p != old_pair])
                fallbacks.append(w)
            new[w - 1], new[v - 1] = pair[0], pair[1]
            mutated.append(w)
        # v < w: end point, handled when its start point was processed
    return MutationOutcome("".join(new), tuple(mutated), tuple(fallbacks))


def adjust_sequence(
    start: str,
    target: Structure,
    oracle,
    config: SearchConfig,
    rng: Random,
    trace: SearchTrace,
) -> str:
    """Globally adjust the start sequence against competing folds.

    Per round: fold with the suboptimal list, stop at distance zero,
    track the best sequence seen, take the competitor census, and mutate.  A
    mutation is accepted when its fold lands within the distance slack of
    the best distance; otherwise up to mutation_retries mutations are
    drawn and the closest one is kept.  When the rounds run out the best
    sequence seen is returned.
    """
    best_distance = None
    best_seq = start
    current = start
    rounds = config.rounds_for(target.n)
    for round_index in range(1, rounds + 1):
        result = oracle.fold(current, config.n_best)
        distance = structure_distance(result.mfe, target)
        if distance == 0:
            trace.add(TraceRecord("adjust", round_index, 0, 0))
            return current
        if best_distance is None or distance < best_distance:
            best_distance = distance
            best_seq = current
        census = competitor_census(current, result, target)
        attempts: list[tuple[int, int, str]] = []
        accepted = False
        uphill = False
        for attempt in range(config.mutation_retries):
            outcome = mutate_against_competitors(current, target, census, rng)
            refold = oracle.fold(outcome.sequence, 1)
            attempt_distance = structure_distance(refold.mfe, target)
            attempts.append((attempt_distance, attempt, outcome.sequence))
            if attempt_distance <= best_distance + config.distance_slack:
                current = outcome.sequence
                accepted = True
                uphill = attempt_distance > best_distance
                break
        if not accepted:
            attempts.sort()
            current = attempts[0][2]
        trace.add(
            TraceRecord(
                "adjust",
                round_index,
                distance,
                best_distance,
                mutations=len(outcome.mutated_positions),
                accepted_uphill=accepted and uphill,
                fallback_positions=outcome.fallback_positions,
            )
        )
    return best_seq


def _flagged_candidates(
    folded: Structure, target_sub: Structure
) -> list[tuple[str, tuple[int, ...]]]:
    length = target_sub.n
    mismatched = [
        w
        for w in range(1, length + 1)
        if folded.partner[w] != target_sub.partner[w]
    ]
    examine: set[int] = set()
    for w in mismatched:
        examine.add(w)
        if w > 1:
            examine.add(w - 1)
        if w < length:
            examine.add(w + 1)
    unpaired = sorted(w for w in examine if target_sub.partner[w] == 0)
    pairs = sorted(
        {
            (min(w, target_sub.partner[w]), max(w, target_sub.partner[w]))
            for w in examine
            if target_sub.partner[w] != 0
        }
    )
    return [("u", (w,)) for w in unpaired] + [("p", pq) for pq in pairs]


def _mutate_candidate(
    sub: str, kind: str, where: tuple[int, ...], rng: Random
) -> str:
    chars = list(sub)
    if kind == "u":
        (w,) = where
        chars[w - 1] = rng.choice([b for b in BASES if b != sub[w - 1]])
    else:
        w, v = where
        old_pair = sub[w - 1] + sub[v - 1]
        pair = rng.choice([p for p in PAIRS if p != old_pair])
        chars[w - 1], chars[v - 1] = pair[0], pair[1]
    return "".join(chars)


def local_search(
    seq: str,
    target: Structure,
    plan: IntervalPlan,
    oracle,
    config: SearchConfig,
    rng: Random,
    trace: SearchTrace,
) -> str:
    """Interval-wise local search for a sequence folding into the target.

    For each interval the subsequence is folded and only wrongly folding
    positions (plus their neighbors) are mutated, one candidate per
    flagged position per pass, in random order.  Strict improvements are
    kept; moves within the uphill margin are accepted with the uphill
    probability without resetting the best distance; among equal-distance
    candidates the one with the lowest mfe wins.  An interval ends at
    local distance zero or when its oracle-call cap fires.
    """
    if structure_distance(oracle.fold(seq, 1).mfe, target) == 0:
        return seq
    cap = config.phase_cap_factor * target.n
    for lo, hi in plan.intervals:
        target_sub = restrict_structure(target, lo, hi)
        calls = 0
        passes = 0
        while calls < cap:
            sub = seq[lo - 1 : hi]
            result = oracle.fold(sub, 1)
            calls += 1
            passes += 1
            distance = structure_distance(result.mfe, target_sub)
            best_distance = (
                distance if passes == 1 else min(best_distance, distance)
            )
            if distance == 0:
                break
            candidates = _flagged_candidates(result.mfe, target_sub)
            rng.shuffle(candidates)
            ties: list[tuple[float, str]] = []
            moved = False
            uphill = False
            for kind, where in candidates:
                if calls >= cap:
                    break
                candidate = _mutate_candidate(sub, kind, where, rng)
                refold = oracle.fold(candidate, 1)
                calls += 1
                candidate_distance = structure_distance(refold.mfe, target_sub)
                if candidate_distance < best_distance:
                    best_distance = candidate_distance
                    seq = seq[: lo - 1] + candidate + seq[hi:]
                    moved = True
                    break
                if (
                    best_distance
                    < candidate_distance
                    < best_distance + config.uphill_margin
                    and rng.random() < config.uphill_probability
                ):
                    seq = seq[: lo - 1] + candidate + seq[hi:]
                    moved = True
                    uphill = True
                    break
                if candidate_distance == best_distance:
                    ties.append((refold.mfe_energy, candidate))
            if not moved and ties:
                ties.sort()
                seq = seq[: lo - 1] + ties[0][1] + seq[hi:]
            trace.add(
                TraceRecord(
                    "local",
                    passes,
                    distance,
                    best_distance,
                    mutations=len(candidates),
                    accepted_uphill=uphill,
                    interval=(lo, hi),
                )
            )
    return seq


def inverse_fold(
    target: str | Structure,
    oracle=None,
    config: SearchConfig | None = None,
) -> InvResult:
    """Find a sequence whose mfe fold is exactly the target.

    Raises InvalidTarget when the target fails the oracle's validation
    policy and SearchFailed when the budgets run out.  When the oracle
    refuses a fold with SizeGuard (the length guard or the structure
    cap), the trial fails too: SearchFailed carries the refusal's text
    in its message and the SizeGuard as its __cause__.  A returned
    result always re-folds to the target arc for arc.  RuntimeError
    marks an internal fault: more oracle calls than the budgets allow.
    """
    oracle = oracle or ReferenceFoldOracle()
    config = config or SearchConfig()
    if isinstance(target, str):
        target = parse_structure(target)
    violations = validate_target(target, oracle.policy)
    if violations:
        raise InvalidTarget(violations)

    rng = Random(config.rng_seed)
    counting = _CountingOracle(oracle)
    trace = SearchTrace()
    start = random_compatible_sequence(target, rng)
    plan = build_intervals(target)
    try:
        middle = adjust_sequence(start, target, counting, config, rng, trace)
        final = local_search(middle, target, plan, counting, config, rng, trace)
        verdict = counting.fold(final, 1)
    except SizeGuard as exc:
        raise SearchFailed(target, trace, counting.calls,
                           f"the oracle refused a fold: {exc}") from exc
    if structure_distance(verdict.mfe, target) != 0:
        raise SearchFailed(target, trace, counting.calls)
    budget = (
        config.rounds_for(target.n) * (1 + config.mutation_retries)
        + len(plan.intervals) * config.phase_cap_factor * target.n
        + 2
    )
    if counting.calls > budget:
        raise RuntimeError(
            f"internal error: {counting.calls} oracle calls exceed the budget {budget}"
        )
    return InvResult(final, target, counting.calls, trace)
