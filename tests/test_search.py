"""Perturbations, competitors, mutation rules, and the full search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkinv import (
    Arc,
    SearchConfig,
    Structure,
    build_competitors,
    build_intervals,
    competitor_census,
    inverse_fold,
    mutate_against_competitors,
    oracle,
    parse_structure,
    perturb_arc,
    structure_distance,
)
from pkinv.loops import ArcNotInStructure
from pkinv.oracle import ReferenceFoldOracle, SizeGuard
from pkinv.search import (
    CompetitorCensus,
    InvalidTarget,
    SearchFailed,
    SearchTrace,
    _CountingOracle,
    adjust_sequence,
    local_search,
)
from pkinv.sequences import can_pair, is_compatible, random_compatible_sequence

from .helpers import PSEUDOKNOT_18, random_sequence, random_valid_structure

HAIRPIN_TEXT = "(((....)))"
HAIRPIN = parse_structure(HAIRPIN_TEXT)


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


def census_of(competitors, target: Structure) -> CompetitorCensus:
    """The census of explicit competitor structures, position by position."""
    n = target.n
    flagged = [False] * (n + 1)
    rivals = [set() for _ in range(n + 1)]
    for comp in competitors:
        for w in range(1, n + 1):
            p = comp.partner[w]
            if p != target.partner[w]:
                flagged[w] = True
            if p:
                rivals[w].add(p)
    return CompetitorCensus(flagged, rivals)


def as_consumed(census: CompetitorCensus, target: Structure):
    """What mutation reads: flags, and rivals without the target partner."""
    rivals = [r - {target.partner[w]} for w, r in enumerate(census.rivals)]
    return census.flagged, rivals


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
        census = competitor_census(seq, result, target)
        assert as_consumed(census, target) == as_consumed(expected, target)

    def test_open_chain_gives_an_empty_census(self):
        result = ReferenceFoldOracle().fold("AAAAAAAAAA", 1)
        census = competitor_census("AAAAAAAAAA", result, HAIRPIN)
        assert census.flagged == [False] * 11
        assert census.rivals == [set()] * 11


class TestMutation:
    def test_no_competitors_leaves_sequence_unchanged(self):
        rng = random.Random(0)
        out = mutate_against_competitors(
            "GGGAAAACCC", HAIRPIN, census_of((), HAIRPIN), rng
        )
        assert out.sequence == "GGGAAAACCC"
        assert out.mutated_positions == ()

    def test_result_stays_target_compatible(self):
        rng = random.Random(1)
        oracle = ReferenceFoldOracle()
        for _ in range(50):
            target = random_valid_structure(rng, rng.randint(10, 16))
            seq = random_compatible_sequence(target, rng)
            census = competitor_census(seq, oracle.fold(seq, 8), target)
            out = mutate_against_competitors(seq, target, census, rng)
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
        oracle = ReferenceFoldOracle()
        checked = 0
        while checked < 40:
            target = random_valid_structure(rng, rng.randint(10, 16))
            if not target.arcs:
                continue
            seq = random_compatible_sequence(target, rng)
            census = competitor_census(seq, oracle.fold(seq, 10), target)
            if not any(census.flagged):
                continue
            checked += 1
            out = mutate_against_competitors(seq, target, census, rng)
            for w in out.mutated_positions:
                if w in out.fallback_positions:
                    continue
                for u in census.rivals[w] - {target.partner[w]}:
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


class TestAdjust:
    def test_immediate_return_when_start_folds_to_target(self):
        oracle = _CountingOracle(ReferenceFoldOracle())
        config = SearchConfig(n_best=10, rng_seed=0)
        trace = SearchTrace()
        out = adjust_sequence(
            "GGGAAAACCC", HAIRPIN, oracle, config, random.Random(0), trace
        )
        assert out == "GGGAAAACCC"
        assert len(trace.records) == 1 and trace.records[0].distance == 0

    def test_round_count_is_bounded(self):
        oracle = _CountingOracle(ReferenceFoldOracle())
        config = SearchConfig(n_best=10, rng_seed=5)
        trace = SearchTrace()
        target = parse_structure(PSEUDOKNOT_18)
        rng = random.Random(5)
        start = random_compatible_sequence(target, rng)
        adjust_sequence(start, target, oracle, config, rng, trace)
        rounds = [r for r in trace.records if r.phase == "adjust"]
        assert 1 <= len(rounds) <= 3  # ceil(sqrt(18)/2) = 3
        assert oracle.calls <= 3 * (1 + config.mutation_retries)


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
            trace = SearchTrace()
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
            SearchConfig(rng_seed=0), random.Random(0), SearchTrace(),
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
            start, target, plan, _CountingOracle(oracle), config, rng, SearchTrace()
        )
        assert is_compatible(final, target)


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

    def test_reproducible_from_seed(self):
        first = inverse_fold(
            PSEUDOKNOT_18, ReferenceFoldOracle(), SearchConfig(rng_seed=12)
        )
        second = inverse_fold(
            PSEUDOKNOT_18, ReferenceFoldOracle(), SearchConfig(rng_seed=12)
        )
        assert first.sequence == second.sequence
        assert first.trace.records == second.trace.records
        assert first.oracle_calls == second.oracle_calls

    def test_trace_serializes_as_json_lines(self):
        import json

        result = inverse_fold(
            HAIRPIN_TEXT, ReferenceFoldOracle(), SearchConfig(rng_seed=1)
        )
        lines = result.trace.to_jsonl().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["phase"] in ("adjust", "local")
