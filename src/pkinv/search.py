"""Stochastic search for sequences whose mfe fold is a given target.

The pipeline: draw a random compatible start, adjust it globally against
a set of competing structures harvested from the suboptimal fold list,
then walk the target's interval ladder with a local search that mutates
only positions folding wrongly (and their neighbors), occasionally
accepting uphill moves.  A result is only ever reported after the final
sequence re-folds to the target arc for arc.
"""

from __future__ import annotations

import functools
import math
from random import Random
from typing import ClassVar, Iterable, NamedTuple

from .loops import IntervalPlan, build_intervals
from .oracle import FoldResult, ReferenceFoldOracle, SizeGuard
from .sequences import (BASES, PAIRS, _pair_masks, _partner_masks, _unpaired_first,
                        can_pair, random_compatible_sequence, redraw_site,
                        site_chars, sites)
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
        trace: list[TraceRecord],
        oracle_calls: int,
        reason: str | None = None,
    ):
        self.target = target
        self.trace = trace
        self.oracle_calls = oracle_calls
        message = (f"no sequence found for target of length {target.n} "
                   f"after {oracle_calls} oracle calls")
        super().__init__(f"{message}: {reason}" if reason else message)


class _ConfigFields(NamedTuple):
    n_best: int = 50
    rng_seed: int = 0


class SearchConfig(_ConfigFields):
    """The suboptimal list size and the seed of one search.

    The other parameters of the search are fixed.  The cap on oracle
    calls per local-search interval is phase_cap_factor * n.
    """

    __slots__ = ()

    distance_slack: ClassVar[int] = 5
    mutation_retries: ClassVar[int] = 5
    uphill_probability: ClassVar[float] = 0.1
    uphill_margin: ClassVar[int] = 5
    phase_cap_factor: ClassVar[int] = 10

    def __new__(cls, *args, **kwargs) -> "SearchConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.n_best, int):
            raise TypeError(
                f"n_best must be an integer, not {type(self.n_best).__name__}")
        if self.n_best < 1:
            raise ValueError("n_best must be positive")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "SearchConfig":
        return cls(*iterable)  # _replace builds through _make: validate

    def rounds_for(self, n: int) -> int:
        return max(1, math.ceil(math.sqrt(n) / 2))


class TraceRecord(NamedTuple):
    phase: str  # "adjust" or "local"
    round: int
    distance: int
    best_distance: int
    mutations: int = 0
    accepted_uphill: bool = False
    fallback_positions: tuple[int, ...] = ()
    interval: tuple[int, int] | None = None


class MutationOutcome(NamedTuple):
    sequence: str
    mutated_positions: tuple[int, ...]
    fallback_positions: tuple[int, ...]


class InvResult(NamedTuple):
    sequence: str
    target: Structure
    oracle_calls: int
    trace: list[TraceRecord]


class _CountingOracle:
    def __init__(self, oracle):
        self._oracle = oracle
        self.calls = 0

    def fold(self, seq: str, n_best: int = 1) -> FoldResult:
        self.calls += 1
        return self._oracle.fold(seq, n_best)


class ArcNotInStructure(ValueError):
    """The given arc is not part of the structure."""


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


def competitor_census(seq: str, fold_result: FoldResult) -> list[int] | None:
    """The partners build_competitors' survivors give each position 0..n,
    as bit masks, without building them; None when no fold structure
    holds an arc.

    Bit u of rivals[w] is set when some survivor pairs w with u, so only
    bits 1..n are ever set, and rivals[0] is 0.  A fold structure S's
    arcs all count, as S is its own unshifted perturbation.  A
    perturbation at arc (i0, j0) differs from S only at its touched
    ends: a shift to (i, j) pairs i with j when it stays in range with
    i < j, lands on ends free in S minus the arc, and can pair, so the
    ends j of one i are pairs[i] & free & window in one mask, the window
    being j0 - 1..j0 + 1.  No end needs a test for i < j: no base pairs
    itself, and an end below i only arises from a one-long arc
    (i0, i0 + 1), as its own partner i0 of i = i0 + 1.  The shifts
    depend only on the arc and on whether S pairs i0 +- 1 and j0 +- 1,
    so each such neighbourhood is examined once per call, and one where
    S pairs all four, as it does every inner arc of a stack of three or
    more, not at all: every shift lands on an end S pairs.  The target
    need not be dropped: its entries are the target partners, which
    mutation ignores.
    """
    structures = [s for s in fold_result.structures if s.arcs]
    if not structures:
        return None
    pairs = _pair_masks(seq)  # bit j of pairs[i]: i and j can pair
    rivals = [0] * len(pairs)
    examined = set()
    for s in structures:
        paired = 0
        for i0, j0 in s.arcs:
            paired |= 1 << i0 | 1 << j0
            rivals[i0] |= 1 << j0
            rivals[j0] |= 1 << i0
        for i0, j0 in s.arcs:
            left = paired >> (i0 - 1) & 5
            right = paired >> (j0 - 1) & 5
            if left == right == 5:
                continue
            key = (i0, j0, left, right)
            if key in examined:
                continue
            examined.add(key)
            free = ~paired | 1 << i0 | 1 << j0
            window = free & 7 << (j0 - 1)
            for i in (i0 - 1, i0, i0 + 1):
                if not free >> i & 1:
                    continue
                ends = pairs[i] & window
                if ends:
                    rivals[i] |= ends
                    for j in (j0 - 1, j0, j0 + 1):
                        if ends >> j & 1:
                            rivals[j] |= 1 << i
    return rivals


# a design mutates against one target, a campaign against a few dozen
@functools.lru_cache(maxsize=1024)
def _target_sites(target: Structure) -> tuple[tuple[int, int], ...]:
    """The sites of target in position order, as a tuple."""
    return tuple(sites(target))


def mutate_against_competitors(
    seq: str, target: Structure, rivals: list[int] | None, rng: Random
) -> MutationOutcome:
    """Redraw every arc site of the target and every unpaired site with a
    rival; rivals None (no competitors) redraws nothing.

    rivals is competitor_census' list of masks: bit u of rivals[w] says
    that some competitor pairs w with u.  The redrawn sites are those
    with an end that some competitor pairs differently from the target,
    since some competitor unpairs every position.  A site (w, v) gets a
    new value whose start-side base x bonds with no rival of w, an
    arc's own partner v excepted: x is kept when rivals[w] & ~(1 << v)
    & partners[x] is 0, where bit u of partners[x] says that x pairs
    with the base at u.  Constraints always compare against the
    pre-mutation sequence.  When no value satisfies them the site is
    redrawn unconstrained and is recorded as a fallback.  The target's
    sites come from a tuple kept per target (_target_sites, an LRU of
    1,024), since each round mutates the same target up to
    mutation_retries times.
    """
    if rivals is None:
        return MutationOutcome(seq, (), ())
    partners = _partner_masks(seq)
    new = site_chars(seq)
    mutated: list[int] = []
    fallbacks: list[int] = []
    for w, v in _target_sites(target):
        rival = rivals[w] & ~(1 << v)
        if v:
            old = seq[w - 1] + seq[v - 1]
            options = [x for x in PAIRS if x != old and not rival & partners[x[0]]]
            if not options:
                options = [x for x in PAIRS if x != old]
                fallbacks.append(w)
            new[w], new[v] = rng.choice(options)
        elif rival:
            old = seq[w - 1]
            options = [x for x in BASES if x != old and not rival & partners[x]]
            if not options:
                options = [x for x in BASES if x != old]
                fallbacks.append(w)
            new[w] = rng.choice(options)
        else:
            continue
        mutated.append(w)
    return MutationOutcome("".join(new), tuple(mutated), tuple(fallbacks))


def adjust_sequence(
    start: str,
    target: Structure,
    oracle,
    config: SearchConfig,
    rng: Random,
    trace: list[TraceRecord],
) -> str:
    """Globally adjust the start sequence against competing folds.

    Per round: fold with the suboptimal list, stop at distance zero,
    track the best sequence seen, take the competitor census, and mutate.  A
    mutation is accepted when its fold lands within the distance slack of
    the best distance; otherwise up to mutation_retries mutations are
    drawn and the closest one is kept.  An accepted mutation is closer
    than every attempt before it, which all missed the slack, so the round
    always keeps the closest attempt.  When the rounds run out the best
    sequence seen is returned, the last round's kept attempt included.
    """
    best_distance = math.inf
    best_seq = start
    current = start
    rounds = config.rounds_for(target.n)
    for round_index in range(1, rounds + 1):
        result = oracle.fold(current, config.n_best)
        distance = structure_distance(result.mfe, target)
        if distance == 0:
            trace.append(TraceRecord("adjust", round_index, 0, 0))
            return current
        if distance < best_distance:
            best_distance = distance
            best_seq = current
        rivals = competitor_census(current, result)
        attempts: list[tuple[int, int, MutationOutcome]] = []
        for attempt in range(config.mutation_retries):
            outcome = mutate_against_competitors(current, target, rivals, rng)
            refold = oracle.fold(outcome.sequence, 1)
            attempt_distance = structure_distance(refold.mfe, target)
            attempts.append((attempt_distance, attempt, outcome))
            if attempt_distance <= best_distance + config.distance_slack:
                break
        kept, _, outcome = min(attempts)  # the attempt index breaks distance ties
        current = outcome.sequence
        trace.append(
            TraceRecord(
                "adjust",
                round_index,
                distance,
                best_distance,
                mutations=len(outcome.mutated_positions),
                accepted_uphill=(
                    best_distance < kept <= best_distance + config.distance_slack),
                fallback_positions=outcome.fallback_positions,
            )
        )
    return current if kept < best_distance else best_seq


# a design walks a few sub-targets, a campaign a few hundred
@functools.lru_cache(maxsize=1024)
def _site_order(
    target_sub: Structure,
) -> tuple[tuple[tuple[int, int], int], ...]:
    """The sites of target_sub, unpaired first, each kind in position
    order, each with the bit mask of its ends."""
    return tuple(((w, v), 1 << w | (v and 1 << v))
                 for w, v in sorted(sites(target_sub), key=_unpaired_first))


def _candidate_sites(
    folded: Structure,
    target_sub: Structure,
    target_sites: tuple[tuple[tuple[int, int], int], ...],
) -> list[tuple[int, int]]:
    """The sites of target_sub with an end at or next to a position that
    folds wrongly, in the order of target_sites, _site_order's list."""
    # a position folds wrongly when it ends an arc of one structure only
    wrong = 0
    for i, j in set(folded.arcs).symmetric_difference(target_sub.arcs):
        wrong |= 1 << i | 1 << j
    near = wrong | wrong << 1 | wrong >> 1
    return [site for site, ends in target_sites if near & ends]


def local_search(
    seq: str,
    target: Structure,
    plan: IntervalPlan,
    oracle,
    config: SearchConfig,
    rng: Random,
    trace: list[TraceRecord],
) -> str:
    """Interval-wise local search for a sequence folding into the target.

    For each interval the subsequence is folded and only the sites with
    an end at or next to a wrongly folding position are redrawn, one
    candidate per site per pass, in random order.  Strict improvements are
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
        target_sites = _site_order(target_sub)
        calls = 0
        passes = 0
        best_distance = math.inf
        while calls < cap:
            sub = seq[lo - 1 : hi]
            result = oracle.fold(sub, 1)
            calls += 1
            passes += 1
            distance = structure_distance(result.mfe, target_sub)
            best_distance = min(best_distance, distance)
            if distance == 0:
                break
            candidates = _candidate_sites(result.mfe, target_sub, target_sites)
            rng.shuffle(candidates)
            ties: list[tuple[float, str]] = []
            chosen = None
            uphill = False
            for w, v in candidates:
                if calls >= cap:
                    break
                candidate = redraw_site(sub, w, v, rng)
                refold = oracle.fold(candidate, 1)
                calls += 1
                candidate_distance = structure_distance(refold.mfe, target_sub)
                if candidate_distance < best_distance:
                    best_distance = candidate_distance
                    chosen = candidate
                    break
                if (
                    best_distance
                    < candidate_distance
                    < best_distance + config.uphill_margin
                    and rng.random() < config.uphill_probability
                ):
                    chosen = candidate
                    uphill = True
                    break
                if candidate_distance == best_distance:
                    ties.append((refold.mfe_energy, candidate))
            if chosen is None:  # the lowest-energy tie, or no move
                chosen = min(ties, default=(0.0, sub))[1]
            seq = seq[: lo - 1] + chosen + seq[hi:]
            trace.append(
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
    refuses a fold with SizeGuard (the candidate-stack cap or the
    structure cap), the trial fails too: SearchFailed carries the
    refusal's text in its message and the SizeGuard as its __cause__.
    A returned result always re-folds to the target arc for arc.
    RuntimeError marks an internal fault: more oracle calls than the
    budgets allow.
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
    trace: list[TraceRecord] = []
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
