"""Perturbations, competitors, mutation rules, and the full search."""

import hashlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pkinv.search
from pkinv import (
    Arc,
    SearchConfig,
    Structure,
    ValidationPolicy,
    build_intervals,
    competitor_census,
    inverse_fold,
    mutate_against_competitors,
    oracle,
    parse_structure,
    restrict_structure,
    structure_distance,
)
from pkinv.oracle import FoldResult, ReferenceFoldOracle, SizeGuard
from pkinv.search import (
    ArcNotInStructure,
    InvalidTarget,
    MutationOutcome,
    SearchFailed,
    _candidate_sites,
    _CountingOracle,
    _site_order,
    _target_sites,
    adjust_sequence,
    build_competitors,
    local_search,
    perturb_arc,
)
from pkinv.sequences import (_unpaired_first, can_pair, is_compatible, other_values,
                             put, random_compatible_sequence, redraw_site,
                             site_chars, sites)

from .helpers import (
    ODD_CYCLE_FAMILY,
    PSEUDOKNOT_18,
    SEVEN_CYCLE_42,
    crossing_graph_is_bipartite,
    mask_of,
    positions_of,
    random_matching,
    random_sequence,
    random_valid_structure,
    reference_flagged_candidates,
    reference_mutate_against_competitors,
)

HAIRPIN_TEXT = "(((....)))"
HAIRPIN = parse_structure(HAIRPIN_TEXT)
# Short campaign targets, two of them pseudoknots.
SHARED_ORACLE_TARGETS = (
    "(((....)))",
    "::(((:::)))::::",
    "(((::[[[[)))]]]]",
    "::::::((((::::))))::",
    "(((::[[[::)))::]]]",
    "::(((::[[[::)))::]]]::",
)
# The 13 campaign targets of length 22 or less.
SHORT_CAMPAIGN_TARGETS = (
    "(((::::)))", ":(((:::::)))", "(((:::)))::::", "(((::::::::)))",
    "::(((:::)))::::", "(((::[[[[)))]]]]", ":::(((::::::)))::",
    "::(((::::::::::)))", "::::::((((::::))))::", "::::::::(((::::::))):",
    ":::::::::(((:::)))::::", "(((::[[[::)))::]]]", "::(((::[[[::)))::]]]::",
)


def oracle_perturbations(s: Structure, arc: Arc) -> set:
    """Enumerate-and-filter twin of perturb_arc."""
    rest = tuple(a for a in s.arcs if a != arc)
    seen = set()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            i, j = arc.i + di, arc.j + dj
            if 1 <= i < j <= s.n:
                seen.add(tuple(sorted(rest + (Arc(i, j),))))
    seen.add(rest)
    return seen


def census_of(competitors, target: Structure) -> list[int] | None:
    """The rivals of explicit competitor structures, position by position,
    gathered as sets and handed on as the census' masks; None without
    competitors."""
    if not competitors:
        return None
    rivals = [set() for _ in range(target.n + 1)]
    for comp in competitors:
        for w in range(1, target.n + 1):
            if comp.partner[w]:
                rivals[w].add(comp.partner[w])
    return [mask_of(r) for r in rivals]


def as_consumed(rivals: list[int] | None, target: Structure):
    """What mutation reads: the rival sets without the target partner."""
    if rivals is None:
        return None
    return [positions_of(r) - {target.partner[w]} for w, r in enumerate(rivals)]


def made_up_rivals(rng: random.Random, n: int) -> list[int] | None:
    """None now and then, else dense random rivals for positions 0..n,
    drawn as sets and handed on as masks, which often leave no option
    and often miss a site entirely."""
    if rng.random() < 0.1:
        return None
    return [mask_of(rng.sample(range(1, n + 1), rng.randint(0, 6)))
            for _ in range(n + 1)]


def site_cache_cases(seed: int) -> list[Structure]:
    """Random matchings and valid targets of up to 40 positions."""
    rng = random.Random(seed)
    cases = [random_matching(rng, rng.randint(0, 40)) for _ in range(150)]
    return cases + [random_valid_structure(rng, rng.randint(10, 40), max_stacks=6)
                    for _ in range(150)]


def assert_cache_is_bounded(cache, seed: int) -> None:
    """cache equals its __wrapped__ function over more distinct targets
    than it holds, and holds no more than its maxsize."""
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    rng = random.Random(seed)
    targets = set()
    while len(targets) < maxsize + 3:
        targets.add(random_matching(rng, rng.randint(0, 40)))
    targets = sorted(targets)
    expected = [cache.__wrapped__(t) for t in targets]
    cache.cache_clear()
    for _ in range(2):
        assert [cache(t) for t in targets] == expected
    assert cache.cache_info().currsize <= maxsize


class TestPerturb:
    def test_interior_arc_yields_ten(self):
        s = Structure.from_pairs(12, [(3, 9)])
        variants = perturb_arc(s, Arc(3, 9))
        assert len(variants) == 10
        assert s.arcs in variants  # keep
        assert () in variants  # deletion

    def test_left_boundary(self):
        s = Structure.from_pairs(6, [(1, 5)])
        variants = perturb_arc(s, Arc(1, 5))
        assert len(variants) == 7  # 2 * 3 placements + deletion
        assert set(variants) == oracle_perturbations(s, Arc(1, 5))

    def test_both_boundaries(self):
        s = Structure.from_pairs(5, [(1, 5)])
        variants = perturb_arc(s, Arc(1, 5))
        assert len(variants) == 5  # 2 * 2 placements + deletion
        assert set(variants) == oracle_perturbations(s, Arc(1, 5))

    def test_matches_oracle_on_random_cases(self):
        rng = random.Random(9)
        for _ in range(100):
            s = random_valid_structure(rng, rng.randint(10, 20))
            if not s.arcs:
                continue
            arc = rng.choice(s.arcs)
            assert set(perturb_arc(s, arc)) == oracle_perturbations(s, arc)

    def test_missing_arc(self):
        with pytest.raises(ArcNotInStructure):
            perturb_arc(HAIRPIN, Arc(4, 7))


class TestCompetitors:
    def test_empty_fold_list_gives_no_competitors(self):
        oracle = ReferenceFoldOracle()
        result = oracle.fold("AAAAAAAAAA", 1)  # only the open chain
        comps = build_competitors("AAAAAAAAAA", result, HAIRPIN)
        assert len(comps) == 0

    def test_shared_endpoint_variants_are_dropped(self):
        seq = "GGGAAAACCC"
        result = ReferenceFoldOracle().fold(seq, 2)
        comps = build_competitors(seq, result, HAIRPIN)
        for comp in comps:
            ends = [w for a in comp.arcs for w in a]
            assert len(set(ends)) == len(ends)

    def test_incompatible_variants_are_dropped(self):
        seq = "GGGAAAACCC"
        result = ReferenceFoldOracle().fold(seq, 2)
        comps = build_competitors(seq, result, HAIRPIN)
        for comp in comps:
            assert is_compatible(seq, comp)

    def test_target_never_a_competitor(self):
        seq = "GGGAAAACCC"
        result = ReferenceFoldOracle().fold(seq, 2)
        comps = build_competitors(seq, result, HAIRPIN)
        assert all(comp != HAIRPIN for comp in comps)

    def test_hygiene_on_randomized_rounds(self):
        rng = random.Random(41)
        oracle = ReferenceFoldOracle()
        rounds = 0
        while rounds < 60:
            target = random_valid_structure(rng, rng.randint(10, 16))
            if not target.arcs:
                continue
            rounds += 1
            seq = random_compatible_sequence(target, rng)
            result = oracle.fold(seq, 10)
            for comp in build_competitors(seq, result, target):
                ends = [w for a in comp.arcs for w in a]
                assert len(set(ends)) == len(ends)
                assert is_compatible(seq, comp)
                assert comp != target


class TestCensus:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(10, 22),
        st.sampled_from((1, 8, 50)),
        st.booleans(),
    )
    def test_equals_census_of_built_competitors(self, seed, n, n_best, compatible):
        rng = random.Random(seed)
        target = random_valid_structure(rng, n)
        if compatible:
            seq = random_compatible_sequence(target, rng)
        else:
            seq = random_sequence(rng, n)
        result = ReferenceFoldOracle().fold(seq, n_best)
        expected = census_of(build_competitors(seq, result, target), target)
        census = competitor_census(seq, result)
        # no competitors exactly when no fold structure has an arc
        assert (census is None) == (not any(s.arcs for s in result.structures))
        assert as_consumed(census, target) == as_consumed(expected, target)

    def test_equals_census_of_built_competitors_with_short_arcs(self):
        # arcs of length 1 and 2 shift onto or past their own other end,
        # which the census must drop as perturb_arc does
        rng = random.Random(67)
        oracle = ReferenceFoldOracle(ValidationPolicy(sigma=1, min_arc_length=1))
        short = 0
        for _ in range(150):
            n = rng.randint(6, 11)
            seq = random_sequence(rng, n)
            target = random_matching(rng, n)
            result = oracle.fold(seq, rng.choice((8, 50)))
            short += any(j - i <= 2 for s in result.structures for i, j in s.arcs)
            expected = census_of(build_competitors(seq, result, target), target)
            assert (as_consumed(competitor_census(seq, result), target)
                    == as_consumed(expected, target))
        assert short > 100

    def test_open_chain_gives_an_empty_census(self):
        result = ReferenceFoldOracle().fold("AAAAAAAAAA", 1)
        assert competitor_census("AAAAAAAAAA", result) is None

    def test_census_bits_lie_in_one_to_n(self):
        # shifts reach positions 0 and n + 1, which no arc may end at
        rng = random.Random(47)
        oracle = ReferenceFoldOracle()
        censuses = 0
        for case in range(300):
            n = rng.randint(10, 22)
            if case % 2:
                target = random_valid_structure(rng, n)
                seq = random_compatible_sequence(target, rng)
            else:
                seq = random_sequence(rng, n)
            census = competitor_census(seq, oracle.fold(seq, rng.choice((1, 50))))
            if census is None:
                continue
            censuses += 1
            assert len(census) == n + 1 and census[0] == 0
            for w, mask in enumerate(census):
                assert mask >> (n + 1) == 0 and not mask & 1
                assert not mask >> w & 1  # no position pairs itself
                for u in positions_of(mask):  # rivals pair both ways
                    assert census[u] >> w & 1
        assert censuses > 200


class TestMutation:
    def test_no_competitors_leaves_sequence_unchanged(self):
        rng = random.Random(0)
        before = rng.getstate()
        out = mutate_against_competitors(
            "GGGAAAACCC", HAIRPIN, census_of((), HAIRPIN), rng
        )
        assert out == MutationOutcome("GGGAAAACCC", (), ())
        assert rng.getstate() == before  # nothing drawn

    def test_result_stays_target_compatible(self):
        rng = random.Random(1)
        oracle = ReferenceFoldOracle()
        for _ in range(50):
            target = random_valid_structure(rng, rng.randint(10, 16))
            seq = random_compatible_sequence(target, rng)
            rivals = competitor_census(seq, oracle.fold(seq, 8))
            out = mutate_against_competitors(seq, target, rivals, rng)
            assert is_compatible(out.sequence, target)

    def test_pair_redraw_breaks_competitor_partner(self):
        # target pairs (5, 9); one competitor pairs (5, 10) instead
        target = Structure.from_pairs(10, [(5, 9)])
        competitor = Structure.from_pairs(10, [(5, 10)])
        seq = "AAAAUAAAAA"  # (5,10) = U-A holds in the competitor
        rng = random.Random(3)
        for _ in range(40):
            out = mutate_against_competitors(
                seq, target, census_of((competitor,), target), rng
            )
            new = out.sequence
            assert is_compatible(new, target)
            # the redraw must break the competitor pairing against old bases
            assert not can_pair(new[4], seq[9])
            # G-C is among the admissible redraws: G cannot bond old A at 10
            assert not can_pair("G", seq[9])

    def test_breakability_invariant(self):
        rng = random.Random(23)
        for _ in range(200):
            target = random_valid_structure(rng, rng.randint(10, 16))
            seq = random_compatible_sequence(target, rng)
            rivals = made_up_rivals(rng, target.n)
            out = mutate_against_competitors(seq, target, rivals, rng)
            if rivals is None:
                assert out == MutationOutcome(seq, (), ())
                continue
            # every arc site, and every unpaired site with a rival
            assert out.mutated_positions == tuple(
                w for w, v in sites(target) if v or rivals[w])
            for w in out.mutated_positions:
                if w in out.fallback_positions:
                    continue
                for u in positions_of(rivals[w]) - {target.partner[w]}:
                    assert not can_pair(out.sequence[w - 1], seq[u - 1])

    def test_subset_competitor_cannot_be_broken(self):
        # a competitor whose arcs all sit inside the target stays compatible
        competitor = Structure.from_pairs(10, [(1, 10), (2, 9)])
        seq = "GGGAAAACCC"
        rng = random.Random(7)
        out = mutate_against_competitors(
            seq, HAIRPIN, census_of((competitor,), HAIRPIN), rng
        )
        assert is_compatible(out.sequence, competitor)

    def test_equals_the_can_pair_reference(self):
        rng = random.Random(31)
        oracle = ReferenceFoldOracle()
        fallbacks = plain = 0
        for case in range(600):
            target = random_valid_structure(rng, rng.randint(10, 22))
            seq = random_compatible_sequence(target, rng)
            if case % 2:
                rivals = competitor_census(seq, oracle.fold(seq, 50))
            else:
                rivals = made_up_rivals(rng, target.n)
            seed = rng.getrandbits(32)
            ours, theirs = random.Random(seed), random.Random(seed)
            out = mutate_against_competitors(seq, target, rivals, ours)
            expected = reference_mutate_against_competitors(seq, target, rivals, theirs)
            assert out == expected
            assert ours.getstate() == theirs.getstate()
            fallbacks += len(out.fallback_positions)
            plain += len(out.mutated_positions) - len(out.fallback_positions)
        assert fallbacks > 100 and plain > 1000


class TestSearchConfig:
    def test_n_best_must_be_positive(self):
        with pytest.raises(ValueError, match="^n_best must be positive$"):
            SearchConfig(n_best=0)

    def test_replace_validates_the_config(self):
        with pytest.raises(ValueError, match="^n_best must be positive$"):
            SearchConfig()._replace(n_best=0)
        assert SearchConfig()._replace(rng_seed=4) == SearchConfig(rng_seed=4)

    def test_fixed_parameters_are_not_settable(self):
        with pytest.raises(TypeError):
            SearchConfig(mutation_retries=3)

    @pytest.mark.parametrize("n_best", [2.5, 2.0, "2", None])
    def test_non_integer_n_best_is_refused_up_front(self, n_best):
        # rather than mid-search, where the oracle slices by n_best
        with pytest.raises(TypeError, match="^n_best must be an integer, not "):
            SearchConfig(n_best=n_best)
        with pytest.raises(TypeError, match="^n_best must be an integer, not "):
            SearchConfig()._replace(n_best=n_best)


def scripted_adjust(monkeypatch, arcs_missing: dict[int, int]) -> tuple[int, list]:
    """The returned sequence's index and the trace of adjust_sequence on a
    16-nt hairpin with scripted folds, over its 2 rounds.

    Sequence 0 is the start, and the mutations draw sequences 1 to 5 in
    turn, round after round; sequence k comes with k mutated positions and
    fallback k - 1.  Sequence k folds to the hairpin without
    arcs_missing[k] of its 6 arcs, or without all of them; each missing
    arc counts 2 in the distance.
    """
    target = parse_structure("((((((....))))))")
    seqs = ["A" * t + "C" * (16 - t) for t in range(6)]
    folds = {seqs[k]: Structure(16, target.arcs[:6 - m])
             for k, m in arcs_missing.items()}

    class ScriptedOracle:
        def fold(self, seq, n_best):
            return FoldResult((folds.get(seq, Structure(16, ())),), (0.0,))

    scripted = itertools.cycle(
        MutationOutcome(seq, tuple(range(t + 1)), (t,))
        for t, seq in enumerate(seqs[1:])
    )
    monkeypatch.setattr(
        pkinv.search, "mutate_against_competitors", lambda *args: next(scripted)
    )
    trace = []
    out = adjust_sequence(seqs[0], target, ScriptedOracle(), SearchConfig(rng_seed=0),
                          random.Random(0), trace)
    return seqs.index(out), trace


class TestAdjust:
    def test_immediate_return_when_start_folds_to_target(self):
        oracle = _CountingOracle(ReferenceFoldOracle())
        config = SearchConfig(n_best=10, rng_seed=0)
        trace = []
        out = adjust_sequence(
            "GGGAAAACCC", HAIRPIN, oracle, config, random.Random(0), trace
        )
        assert out == "GGGAAAACCC"
        assert len(trace) == 1 and trace[0].distance == 0

    def test_round_count_is_bounded(self):
        oracle = _CountingOracle(ReferenceFoldOracle())
        config = SearchConfig(n_best=10, rng_seed=5)
        trace = []
        target = parse_structure(PSEUDOKNOT_18)
        rng = random.Random(5)
        start = random_compatible_sequence(target, rng)
        adjust_sequence(start, target, oracle, config, rng, trace)
        rounds = [r for r in trace if r.phase == "adjust"]
        assert 1 <= len(rounds) <= 3  # ceil(sqrt(18)/2) = 3
        assert oracle.calls <= 3 * (1 + config.mutation_retries)

    def test_round_without_acceptance_records_the_kept_attempt(self, monkeypatch):
        # the start folds 2 positions off the target; every attempt lands
        # beyond the slack (8 or 12 off), and the closest is the second
        out, (first, _) = scripted_adjust(monkeypatch, {0: 1, 2: 4})
        assert out == 0  # no attempt came closer than the start
        assert (first.distance, first.best_distance) == (2, 2)
        assert first.mutations == 2 and first.fallback_positions == (1,)
        assert not first.accepted_uphill

    def test_accepted_uphill_attempt_is_kept(self, monkeypatch):
        # the start folds 2 positions off the target; the first attempt
        # lands beyond the slack (12 off), the second within it (6 off),
        # so the round keeps the second and marks the move uphill
        out, (first, second) = scripted_adjust(monkeypatch, {0: 1, 2: 3})
        assert (first.distance, first.best_distance) == (2, 2)
        assert first.mutations == 2 and first.fallback_positions == (1,)
        assert first.accepted_uphill
        assert second.distance == 6  # the second round folds the kept attempt
        assert out == 0  # the start stays the closest sequence seen

    def test_last_kept_attempt_is_returned_when_closest(self, monkeypatch):
        # the start folds 6 off; round 1 keeps sequence 1 (4 off), and
        # round 2 folds it, then keeps sequence 2 (2 off), which no round
        # folds again but which is the closest sequence seen
        out, (first, second) = scripted_adjust(monkeypatch, {0: 3, 1: 2, 2: 1})
        assert (first.distance, first.best_distance) == (6, 6)
        assert (second.distance, second.best_distance) == (4, 4)
        assert out == 2


class TestLocalSearch:
    def test_pseudoknot_target_reached_for_most_seeds(self):
        oracle = ReferenceFoldOracle()
        target = parse_structure(PSEUDOKNOT_18)
        plan = build_intervals(target)
        wins = 0
        for seed in range(1, 21):
            rng = random.Random(seed)
            config = SearchConfig(rng_seed=seed)
            counting = _CountingOracle(oracle)
            trace = []
            start = random_compatible_sequence(target, rng)
            middle = adjust_sequence(start, target, counting, config, rng, trace)
            final = local_search(middle, target, plan, counting, config, rng, trace)
            if structure_distance(oracle.fold(final, 1).mfe, target) == 0:
                wins += 1
        assert wins >= 19

    def test_immediate_return_when_already_folding_to_target(self):
        oracle = ReferenceFoldOracle()
        plan = build_intervals(HAIRPIN)
        counting = _CountingOracle(oracle)
        out = local_search(
            "GGGAAAACCC", HAIRPIN, plan, counting,
            SearchConfig(rng_seed=0), random.Random(0), [],
        )
        assert out == "GGGAAAACCC"
        assert counting.calls == 1

    def test_intermediate_sequences_stay_compatible(self):
        oracle = ReferenceFoldOracle()
        target = parse_structure(PSEUDOKNOT_18)
        plan = build_intervals(target)
        rng = random.Random(2)
        config = SearchConfig(rng_seed=2)
        start = random_compatible_sequence(target, rng)
        final = local_search(
            start, target, plan, _CountingOracle(oracle), config, rng, []
        )
        assert is_compatible(final, target)

    def test_site_order_cache_equals_the_uncached_order(self):
        for target in site_cache_cases(43):
            expected = _site_order.__wrapped__(target)
            ordered = sorted(sites(target), key=_unpaired_first)
            assert expected == tuple((site, mask_of(u for u in site if u))
                                     for site in ordered)
            for _ in range(2):  # the second call hits
                assert _site_order(target) == expected

    def test_target_site_cache_equals_the_uncached_sites(self):
        for target in site_cache_cases(53):
            expected = _target_sites.__wrapped__(target)
            assert expected == tuple(sites(target))
            for _ in range(2):  # the second call hits
                assert _target_sites(target) == expected

    def test_target_site_cache_is_bounded(self):
        assert_cache_is_bounded(_target_sites, 59)

    def test_sliced_candidate_equals_the_site_chars_one(self):
        # local_search writes each candidate into its window by slicing;
        # the draw and the sequence must be those of put and join
        rng = random.Random(61)
        redrawn = 0
        for _ in range(200):
            target = random_valid_structure(rng, rng.randint(10, 26))
            seq = random_compatible_sequence(target, rng)
            lo = rng.randint(1, target.n)
            hi = rng.randint(lo, target.n)
            sub = seq[lo - 1:hi]
            for w, v in sites(restrict_structure(target, lo, hi)):
                seed = rng.getrandbits(32)
                ours, theirs = random.Random(seed), random.Random(seed)
                chars = site_chars(sub)
                put(chars, w, v, theirs.choice(other_values(chars, w, v)))
                assert redraw_site(sub, w, v, ours) == "".join(chars)
                assert ours.getstate() == theirs.getstate()
                redrawn += 1
        assert redrawn > 500

    def test_site_order_cache_is_bounded(self):
        assert_cache_is_bounded(_site_order, 31)

    def test_candidate_sites_equal_the_reference(self):
        rng = random.Random(37)
        for case in range(400):
            target = random_matching(rng, rng.randint(1, 26))
            if case % 2:  # a fold near the target: some arcs kept, some new
                kept = [a for a in target.arcs if rng.random() < 0.7]
                free = [w for w in range(1, target.n + 1)
                        if all(w not in a for a in kept)]
                rng.shuffle(free)
                extra = [sorted(free[2 * t:2 * t + 2]) for t in range(len(free) // 4)]
                folded = Structure.from_pairs(target.n, kept + extra)
            else:
                folded = random_matching(rng, target.n)
            expected = [(*where, 0) if kind == "u" else where
                        for kind, where in reference_flagged_candidates(folded, target)]
            assert _candidate_sites(folded, target, _site_order(target)) == expected


class TestInverseFold:
    def test_invalid_target_reports_violations(self):
        with pytest.raises(InvalidTarget) as err:
            inverse_fold("((..))")
        kinds = {v.kind for v in err.value.violations}
        assert kinds == {"arc-length", "stack-size"}

    def test_hairpin_seed_7(self):
        oracle = ReferenceFoldOracle()
        result = inverse_fold(HAIRPIN_TEXT, oracle, SearchConfig(rng_seed=7))
        assert structure_distance(oracle.fold(result.sequence, 1).mfe, HAIRPIN) == 0

    def test_success_postcondition_always_refolds(self):
        oracle = ReferenceFoldOracle()
        verifier = ReferenceFoldOracle()
        for seed in range(12):
            target = random_valid_structure(random.Random(seed + 100), 14)
            try:
                result = inverse_fold(target, oracle, SearchConfig(rng_seed=seed))
            except SearchFailed:
                continue
            refolded = verifier.fold(result.sequence, 1).mfe
            assert structure_distance(refolded, target) == 0

    def test_budget_is_enforced_and_reported(self):
        oracle = ReferenceFoldOracle()
        target = parse_structure(PSEUDOKNOT_18)
        config = SearchConfig(rng_seed=4)
        result = inverse_fold(target, oracle, config)
        plan = build_intervals(target)
        bound = 3 * 6 + len(plan.intervals) * 10 * target.n + 2
        assert 0 < result.oracle_calls <= bound

    def test_budget_overrun_raises(self, monkeypatch):
        real_local_search = local_search

        def wasteful(seq, target, plan, oracle, *args):
            seq = real_local_search(seq, target, plan, oracle, *args)
            for _ in range(len(plan.intervals) * 10 * target.n + 20):
                oracle.fold(seq, 1)
            return seq

        monkeypatch.setattr("pkinv.search.local_search", wasteful)
        with pytest.raises(RuntimeError, match="budget"):
            inverse_fold(HAIRPIN_TEXT, ReferenceFoldOracle(), SearchConfig(rng_seed=7))

    def test_refused_fold_fails_the_trial(self, monkeypatch):
        # a start sequence pairs the target and the empty structure at least
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 1)
        with pytest.raises(SearchFailed, match="more than 1 structures") as err:
            inverse_fold(HAIRPIN_TEXT, ReferenceFoldOracle(), SearchConfig(rng_seed=7))
        assert isinstance(err.value.__cause__, SizeGuard)

    def test_trials_of_one_target_derive_its_views_once(self):
        # every trial parses the target anew, and an equal Structure hits
        # the caches: the target is validated and laddered once, and each
        # distinct interval cut once
        text = "::(((::[[[::)))::]]]::"
        cached = (pkinv.search.validate_target, pkinv.search.build_intervals,
                  pkinv.search.restrict_structure)
        for function in cached:
            function.cache_clear()
        oracle = ReferenceFoldOracle()
        walked = 0
        for seed in range(5):
            result = inverse_fold(text, oracle, SearchConfig(rng_seed=seed))
            walked += any(record.phase == "local" for record in result.trace)
        validated, laddered, restricted = (f.cache_info() for f in cached)
        assert (validated.misses, validated.hits) == (1, 4)
        assert (laddered.misses, laddered.hits) == (1, 4)
        intervals = build_intervals(parse_structure(text)).intervals
        assert walked == 5 and len(intervals) == 7
        assert restricted.misses == len(set(intervals)) == 6
        assert restricted.hits + restricted.misses == walked * len(intervals)

    def test_reproducible_from_seed(self):
        first = inverse_fold(
            PSEUDOKNOT_18, ReferenceFoldOracle(), SearchConfig(rng_seed=12)
        )
        second = inverse_fold(
            PSEUDOKNOT_18, ReferenceFoldOracle(), SearchConfig(rng_seed=12)
        )
        assert first.sequence == second.sequence
        assert first.trace == second.trace
        assert first.oracle_calls == second.oracle_calls

    def test_designs_with_a_shared_oracle_are_pinned(self):
        # one oracle serves every trial, so later trials read memo entries
        # that earlier trials stored, at n_best 50 and 1
        oracle = ReferenceFoldOracle()
        lines = []
        for text in SHARED_ORACLE_TARGETS:
            for seed in range(8):
                try:
                    result = inverse_fold(text, oracle, SearchConfig(rng_seed=seed))
                    lines.append(repr((result.sequence, result.oracle_calls)))
                except SearchFailed as failure:
                    lines.append(repr((None, failure.oracle_calls)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "31199fc9df92e43e420ed35c53c0c5c7e6ae32095abe854281dad9463ed4509b"
        )

    def test_memo_budget_keeps_every_fold_of_a_shared_batch(self, monkeypatch):
        # the batch leaves 1,978 structures in a memo without a budget, so
        # the budget evicts, yet every repeat still finds its entry: the
        # fold count and the designs are those of an unbounded memo.  A
        # fold is a selection, and one from the kept rows of the fold
        # just before it enumerates nothing
        calls = []
        enumerations = []
        select, stack_sets = oracle._select, oracle._stack_sets
        monkeypatch.setattr(oracle, "_select",
                            lambda *args: calls.append(args[1]) or select(*args))
        monkeypatch.setattr(oracle, "_stack_sets",
                            lambda *args: enumerations.append(args[0]) or stack_sets(*args))
        memo = ReferenceFoldOracle()
        lines = []
        oracle_calls = 0
        for text in SHORT_CAMPAIGN_TARGETS:
            for seed in range(3):
                try:
                    result = inverse_fold(text, memo, SearchConfig(rng_seed=seed))
                    design = result.sequence, result.oracle_calls
                except SearchFailed as failure:
                    design = None, failure.oracle_calls
                lines.append(repr(design))
                oracle_calls += design[1]
                assert memo._held <= oracle.MAX_MEMO_STRUCTURES
        assert (len(calls), oracle_calls) == (735, 1086)
        assert len(enumerations) == 689
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "89f49b07a8755109dcaf4a265455e4090e7bbde4892412ebd74e94d0f1708edd"
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_designs_a_three_family_target(self, seed):
        # odd cycles of crossing stacks, which two bracket families cannot
        # write, unlike the H-type pseudoknot: the 30- and 39-nt 5-cycles
        # at every seed, the 42-nt 7-cycle at the first three
        assert crossing_graph_is_bipartite(parse_structure(PSEUDOKNOT_18))
        texts = ODD_CYCLE_FAMILY[:2] + ((SEVEN_CYCLE_42,) if seed < 3 else ())
        for text in texts:
            target = parse_structure(text)
            assert not crossing_graph_is_bipartite(target)
            result = inverse_fold(target, ReferenceFoldOracle(),
                                  SearchConfig(rng_seed=seed))
            refolded = ReferenceFoldOracle().fold(result.sequence, 1).mfe
            assert structure_distance(refolded, target) == 0, text


def test_bench_span_hooks_name_search_globals():
    # the traced benchmark patches these pkinv.search globals by name, so a
    # rename in the package must fail here too
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name in spans.SEARCH_HOOKS if not hasattr(pkinv.search, name)]
    assert missing == []
    # the traced mode reads the order of these spans inside each phase, so
    # the phases must call them through the module globals it patches
    called = {name for phase in (adjust_sequence, local_search)
              for name in phase.__code__.co_names}
    assert {"mutate_against_competitors", "structure_distance", "TraceRecord",
            "restrict_structure"} <= called & set(spans.SEARCH_HOOKS)


def test_bench_reads_distance_slack_from_a_config():
    # bench/run.py reads SearchConfig().distance_slack, so the fixed search
    # parameters must stay readable from an instance
    assert isinstance(SearchConfig().distance_slack, int)
