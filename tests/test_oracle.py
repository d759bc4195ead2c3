"""The reference folding oracle against its independent brute-force twin."""

import gc
import math
import random
import sys
import threading
from collections import OrderedDict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkinv import (
    Arc,
    Structure,
    ValidationPolicy,
    can_pair,
    energy_of,
    fold,
    inverse_fold,
    is_compatible,
    parse_structure,
    validate_target,
)
from pkinv import loops, oracle
from pkinv.loops import _members, loop_census
from pkinv.oracle import DEFAULT_MODEL, EnergyModel, ReferenceFoldOracle, SizeGuard
from pkinv.sequences import IncompatibleInput, _pair_masks
from pkinv.structure import _stack_arcs, _stack_masks, stacks

from .helpers import (
    PSEUDOKNOT_18,
    PSEUDOKNOT_18_SEQ,
    fold_digest,
    naive_min_energy,
    naive_valid_structures,
    random_sequence,
    random_valid_structure,
    run_python,
    zuker_mfe,
)

HAIRPIN = parse_structure("(((....)))")
# Penalties far enough apart that the loop energy spells out the census:
# stacked pairs, interior, hairpin, multi and pseudoknot loops are its
# base-64 digits, so no wrong count can tie with the right one.
CENSUS_MODEL = EnergyModel(stacked=1.0, interior=64.0, hairpin=64.0**2,
                           multi=64.0**3, pseudoknot=64.0**4)
# Fractional values that round, with multi the cheapest loop.
FRACTIONAL_MODEL = EnergyModel(
    pair_scores=(("AU", -2.1), ("CG", -3.3), ("GC", -3.3),
                 ("GU", -0.7), ("UA", -2.1), ("UG", -0.7)),
    hairpin=0.7, interior=0.3, multi=0.1, pseudoknot=0.2,
)


def unconstrained_candidates(n, policy):
    """The oracle's candidate stacks when every position pairs with every
    other, each pair scoring 0, and their score tuples."""
    return oracle._candidate_stacks(
        policy, [(1 << (n + 1)) - 2] * (n + 1), "N" * n, {"N": {"N": 0.0}})


def enumerate_structures(n, policy=None):
    """Yield every valid structure of length n exactly once, in sorted order,
    from the oracle's enumeration."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    policy = policy or ValidationPolicy()
    candidates, scores = unconstrained_candidates(n, policy)
    _, sets, _, _, _ = oracle._stack_sets(n, policy, candidates, scores)
    for arcs in sorted(
        tuple(a for c in _members(chosen) for a in _stack_arcs(*candidates[c]))
        for chosen in sets
    ):
        yield Structure(n, arcs)


@lru_cache(maxsize=None)
def all_structures(n):
    return tuple(enumerate_structures(n))


@lru_cache(maxsize=None)
def long_fold_sequences():
    """40 seeded sequences of n 26-40, random and GC-rich alternating."""
    rng = random.Random(2024)
    return tuple(
        "".join(rng.choice("ACGU" if k % 2 else "GGGCCCAU") for _ in range(26 + k % 15))
        for k in range(40)
    )


def seeded_sequences(seed, count, shortest, longest):
    """count seeded sequences of n shortest-longest, random and GC-rich
    alternating."""
    rng = random.Random(seed)
    return tuple(
        "".join(rng.choice("ACGU" if k % 2 else "GGGCCCAU")
                for _ in range(rng.randint(shortest, longest)))
        for k in range(count)
    )


@lru_cache(maxsize=None)
def floor_samples():
    """Distinct ((free, knotted), loop census) pairs, as oracle._loop_floor
    and EnergyModel.loop_energy take them, of every valid structure up to
    n = 16 and of 2,000 random valid ones up to n = 40."""
    rng = random.Random(5)
    samples = [s for n in range(17) for s in all_structures(n)]
    samples += [random_valid_structure(rng, rng.randint(10, 40), max_stacks=8)
                for _ in range(2000)]
    out = set()
    for s in samples:
        crossing, _, _, _ = _stack_masks(s.n, stacks(s))
        out.add(((sum(not mask for mask in crossing), any(crossing)), loop_census(s)))
    return sorted(out)


class TestEnumerate:
    def test_below_nine_only_empty(self):
        for n in range(0, 9):
            assert [s.arcs for s in enumerate_structures(n)] == [()]

    def test_negative_length_is_refused(self):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            next(enumerate_structures(-1))

    def test_counts_match_independent_enumerator(self):
        for n in (9, 10, 11, 12, 13, 14):
            mine = sorted(s.arcs for s in enumerate_structures(n))
            naive = sorted(s.arcs for s in naive_valid_structures(n))
            assert mine == naive, n

    def test_all_outputs_are_valid_and_unique(self):
        seen = set()
        for s in enumerate_structures(16):
            assert validate_target(s) == ()
            assert s.arcs not in seen
            seen.add(s.arcs)

    def test_size_guard(self, monkeypatch):
        # 13 candidate stacks at length 12 and 22 at 13; "GC" * 6 has 5
        # and "GC" * 7 has 14
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 13)
        with pytest.raises(SizeGuard, match="more than 13 candidate stacks at length 13"):
            list(enumerate_structures(13))
        with pytest.raises(SizeGuard, match="more than 13 candidate stacks at length 14"):
            fold("GC" * 7)
        with pytest.raises(SizeGuard):
            ReferenceFoldOracle().fold("GC" * 7)
        assert sum(1 for _ in enumerate_structures(12)) > 0
        assert fold("GC" * 6).mfe_energy < 0

    def test_candidate_cap_admits_the_full_enumeration_at_28(self):
        # MAX_STRUCTURES is sized for every structure of length 28, so the
        # candidate cap must not cut that enumeration short
        candidates, _ = unconstrained_candidates(28, ValidationPolicy())
        assert len(candidates) == 825 <= oracle.MAX_CANDIDATES

    def test_structure_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 100)
        with pytest.raises(SizeGuard, match="more than 100 structures"):
            list(enumerate_structures(16))  # 176 structures
        assert sum(1 for _ in enumerate_structures(14)) <= 100

    @pytest.mark.parametrize(
        "policy",
        [
            ValidationPolicy(k=2, sigma=3, min_arc_length=4),
            ValidationPolicy(k=3, sigma=2, min_arc_length=4),
            ValidationPolicy(k=3, sigma=3, min_arc_length=3),
            ValidationPolicy(k=2, sigma=2, min_arc_length=5),
        ],
    )
    def test_policy_variations_match_independent_enumerator(self, policy):
        for n in (8, 10, 12):
            mine = sorted(s.arcs for s in enumerate_structures(n, policy))
            naive = sorted(s.arcs for s in naive_valid_structures(n, policy))
            assert mine == naive, (policy, n)

    def test_noncrossing_policy_has_no_crossing_structures(self):
        from pkinv import crossing_number

        policy = ValidationPolicy(k=2, sigma=3, min_arc_length=4)
        for s in enumerate_structures(18, policy):
            assert crossing_number(s) <= 1


class TestCandidateStacks:
    @pytest.mark.parametrize("policy", [
        ValidationPolicy(),
        ValidationPolicy(sigma=1, min_arc_length=1),
        ValidationPolicy(sigma=2, min_arc_length=3),
    ], ids=["default", "sigma1-arc1", "sigma2-arc3"])
    def test_stacks_come_sorted_with_the_pair_tables_scores(self, policy):
        pair = oracle._pair_table(FRACTIONAL_MODEL)
        lmin = max(policy.min_arc_length, 2)
        total = 0
        for seq in seeded_sequences(41, 200, 4, 40):
            n = len(seq)
            candidates, scores = oracle._candidate_stacks(
                policy, _pair_masks(seq), seq, pair)
            # every stack whose arcs all pair, its inner arc long enough,
            # listed in (i, j, size) order
            expected = [
                (i, j, size)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                for size in range(policy.sigma, (j - i) // 2 + 2)
                if j - i - 2 * (size - 1) >= lmin
                and all(can_pair(seq[i + t - 1], seq[j - t - 1]) for t in range(size))
            ]
            assert candidates == expected == sorted(candidates)
            assert scores == [
                tuple(pair[seq[i + t - 1]][seq[j - t - 1]] for t in range(size))
                for i, j, size in candidates
            ]
            total += len(candidates)
        assert total >= 2500  # 2,989 under the default policy

    def test_refuses_past_the_candidate_cap(self, monkeypatch):
        seq = "GC" * 20  # 1,496 candidate stacks
        args = (ValidationPolicy(), _pair_masks(seq), seq, oracle._pair_table(DEFAULT_MODEL))
        with pytest.raises(SizeGuard, match="more than 1024 candidate stacks at length 40"):
            oracle._candidate_stacks(*args)
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 1496)
        assert len(oracle._candidate_stacks(*args)[0]) == 1496
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 1495)
        with pytest.raises(SizeGuard, match="more than 1495 candidate stacks"):
            oracle._candidate_stacks(*args)


class TestEnergy:
    def test_empty_structure_is_zero(self):
        assert energy_of("ACGUACGUAC", Structure(10, ())) == 0.0

    def test_hairpin_stack(self):
        # three GC pairs, one hairpin penalty, two stacked pairs at zero
        assert energy_of("GGGAAAACCC", HAIRPIN) == -6.0

    def test_pseudoknot_penalty(self):
        pk = parse_structure(PSEUDOKNOT_18)
        assert energy_of(PSEUDOKNOT_18_SEQ, pk) == -18.0 + 9.0

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleInput):
            energy_of("GGGAAAAGGG", HAIRPIN)

    def test_longer_stack_never_raises_energy(self):
        seq = "GGGGAAAACCCC"
        short = Structure.from_pairs(12, [(2, 11), (3, 10), (4, 9)])
        extended = Structure.from_pairs(12, [(1, 12), (2, 11), (3, 10), (4, 9)])
        assert energy_of(seq, extended) < energy_of(seq, short)

    def test_model_overrides(self):
        model = EnergyModel.from_mapping({"pair.GC": -5.0, "loop.hairpin": 1.0})
        assert energy_of("GGGAAAACCC", HAIRPIN, model) == -15.0 + 1.0

    def test_model_validation(self):
        with pytest.raises(ValueError,
                           match="^loop penalty hairpin must be finite and >= 0$"):
            EnergyModel(hairpin=-1.0)
        with pytest.raises(ValueError):
            EnergyModel.from_mapping({"pair.GC": 2.0})
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                EnergyModel(pseudoknot=bad)
            with pytest.raises(ValueError, match="finite"):
                EnergyModel.from_mapping({"pair.GC": bad})

    def test_replace_validates_the_model(self):
        # a negative penalty would void the loop floor fold cuts off by
        with pytest.raises(ValueError,
                           match="^loop penalty hairpin must be finite and >= 0$"):
            DEFAULT_MODEL._replace(hairpin=-50.0)
        with pytest.raises(ValueError, match="once"):
            DEFAULT_MODEL._replace(pair_scores=DEFAULT_MODEL.pair_scores[1:])
        swapped = DEFAULT_MODEL._replace(pair_scores=DEFAULT_MODEL.pair_scores[::-1])
        assert swapped == DEFAULT_MODEL

    def test_pair_scores_list_each_pair_once(self):
        # as a dict the scores would keep the last GC and cover PAIRS
        pairs = EnergyModel().pair_scores
        with pytest.raises(ValueError, match="once"):
            EnergyModel(pair_scores=pairs + (("GC", -9.0),))
        with pytest.raises(ValueError, match="once"):
            EnergyModel(pair_scores=pairs[1:])

    def test_model_from_file(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("# comment\npair.GU = -2.5\nloop.pseudoknot = 4\n")
        model = EnergyModel.from_file(path)
        assert dict(model.pair_scores)["GU"] == -2.5
        assert model.pseudoknot == 4.0
        # a key given twice is refused, not read as its last value
        path.write_text("pair.GC = -3\n# again\npair.GC=-9\n")
        with pytest.raises(ValueError, match="'pair.GC' given twice"):
            EnergyModel.from_file(path)

    def test_pair_scores_add_in_sorted_arc_order(self):
        # fold adds a structure's pair scores from 0.0, left to right in
        # sorted arc order; energy_of must add them alike, not by a
        # compensated sum such as the builtin sum's from Python 3.12 on
        seq = "UUAGUUGUGCCGCA"
        s = parse_structure(":::::(((:::)))")
        pair = dict(FRACTIONAL_MODEL.pair_scores)
        scores = [pair[seq[i - 1] + seq[j - 1]] for i, j in s.arcs]
        total = 0.0
        for score in scores:
            total += score
        assert total != math.fsum(scores)  # the two orders round apart here
        expected = total + FRACTIONAL_MODEL.loop_energy(loop_census(s))
        assert energy_of(seq, s, FRACTIONAL_MODEL) == expected
        result = fold(seq, 1, model=FRACTIONAL_MODEL)
        assert result.mfe == s and result.mfe_energy == expected
        # and for every structure of some longer suboptimal lists
        rng = random.Random(12)
        for _ in range(20):
            seq = random_sequence(rng, rng.randint(14, 28))
            result = fold(seq, 50, model=FRACTIONAL_MODEL)
            assert [energy_of(seq, s, FRACTIONAL_MODEL)
                    for s in result.structures] == list(result.energies)


class TestFold:
    def test_unpairable_sequence_folds_open(self):
        result = fold("AAAAAAAAAA")
        assert result.structures == (Structure(10, ()),)
        assert result.energies == (0.0,)

    def test_hairpin_is_mfe(self):
        result = fold("GGGAAAACCC")
        assert result.mfe == HAIRPIN
        assert result.mfe_energy == -6.0

    def test_suboptimal_list_is_sorted(self):
        result = fold("GGGAAAACCC", 2)
        assert [str(s) for s in result.structures] == [
            "(((::::)))",
            "::::::::::",
        ]
        assert result.energies == (-6.0, 0.0)

    def test_pseudoknot_sequence(self):
        result = fold(PSEUDOKNOT_18_SEQ, 4)
        assert result.mfe == parse_structure(PSEUDOKNOT_18)
        assert result.energies[0] == -9.0
        assert list(result.energies) == sorted(result.energies)

    def test_short_space_returns_fewer(self):
        result = fold("AAAA", 10)
        assert len(result.structures) == 1

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(20):
            seq = random_sequence(rng, 12)
            first = fold(seq, 5)
            second = fold(seq, 5)
            assert first == second

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(9, 13))
    def test_results_are_compatible_valid_and_sorted(self, seed, n):
        seq = random_sequence(random.Random(seed), n)
        result = fold(seq, 6)
        assert list(result.energies) == sorted(result.energies)
        for s, e in zip(result.structures, result.energies):
            assert is_compatible(seq, s)
            assert validate_target(s) == ()
            assert energy_of(seq, s) == e

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(9, 12))
    def test_mfe_matches_naive_minimum(self, seed, n):
        seq = random_sequence(random.Random(seed), n)
        assert fold(seq).mfe_energy == naive_min_energy(seq)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(9, 24),
        st.sampled_from(("ACGU", "GCU", "GC")),
        st.sampled_from((
            DEFAULT_MODEL,
            CENSUS_MODEL,
            EnergyModel(pseudoknot=0.5),  # a pseudoknot cheaper than a hairpin
            FRACTIONAL_MODEL,
            EnergyModel(hairpin=0.0, interior=0.0, multi=0.0, pseudoknot=0.0),
        )),
    )
    def test_equals_scored_enumeration(self, seed, n, alphabet, model):
        rng = random.Random(seed)
        seq = "".join(rng.choice(alphabet) for _ in range(n))
        expected = sorted(
            (energy_of(seq, s, model), s.arcs)
            for s in all_structures(n)
            if is_compatible(seq, s)
        )
        for n_best in (1, 50):
            result = fold(seq, n_best, model=model)
            got = [(e, s.arcs) for s, e in zip(result.structures, result.energies)]
            assert got == expected[:n_best]

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(9, 28),
        st.sampled_from(("ACGU", "GCU", "GC")),
        st.sampled_from((1, 50)),
    )
    def test_result_structures_equal_validated_ones(self, seed, n, alphabet, n_best):
        rng = random.Random(seed)
        seq = "".join(rng.choice(alphabet) for _ in range(n))
        for s in fold(seq, n_best).structures:
            validated = Structure(s.n, s.arcs)
            assert validated == s and hash(validated) == hash(s)
            assert s.partner == validated.partner
            assert type(s.arcs) is tuple and list(s.arcs) == sorted(s.arcs)
            assert all(type(arc) is Arc for arc in s.arcs)

    @pytest.mark.parametrize("seq", ["GGGTAAACCC", "gggaaaaccc", "GGG AAACCC"])
    def test_non_acgu_sequence_rejected(self, seq):
        with pytest.raises(IncompatibleInput, match="contains non-ACGU characters"):
            fold(seq)

    @pytest.mark.parametrize("n_best", [2.5, 2.0, "2", None])
    def test_non_integer_n_best_is_refused(self, n_best):
        with pytest.raises(TypeError, match="^n_best must be an integer, not "):
            fold("GGGAAAACCC", n_best)

    def test_empty_sequence_folds_empty(self):
        result = fold("")
        assert result.structures == (Structure(0, ()),)
        assert result.energies == (0.0,)

    def test_long_folds_are_pinned(self):
        # beyond test_equals_scored_enumeration's n <= 24: a cross-commit
        # contract on fold's output at n 26-40
        cases = [(seq, n_best) for seq in long_fold_sequences() for n_best in (1, 50)]
        assert fold_digest(cases) == (
            "c56238ea8fc14a1391873e36d7aab16254c15bf5de93c21588a5231e8c25d022"
        )

    @pytest.mark.parametrize("model, digest", [
        (CENSUS_MODEL,
         "3047cdba18132adc115e530761c9b6fc386e92601e4958599cb863f3e3dfc676"),
        (FRACTIONAL_MODEL,
         "479bd07898750698ef6a268b61eba586948703dd881e77391f5cb13aaae26942"),
        (EnergyModel(pseudoknot=0.5),  # a pseudoknot cheaper than a hairpin
         "5a81416b049f58626bf12536a11df2a086693f572f7f5d2ef7b07dc1a24b5c2a"),
    ], ids=["census", "fractional", "cheap-pseudoknot"])
    def test_folds_under_other_models_are_pinned(self, model, digest):
        # the long folds under models whose sums round and whose knotted
        # rows can win, at n_best on both sides of the row count
        cases = [(seq, n_best) for seq in long_fold_sequences()
                 for n_best in (1, 3, 50)]
        assert fold_digest(cases, model=model) == digest

    @pytest.mark.parametrize("policy, seqs, digest", [
        (ValidationPolicy(k=2), long_fold_sequences(),
         "14241871c4c953ecec89373203d3e8d1ca336da40447d51f76713b7acf93a370"),
        (ValidationPolicy(sigma=2, min_arc_length=3), seeded_sequences(31, 30, 16, 24),
         "f5e756eb2fa5a722b63df81891cf793ac6387f01397e073d00f0ce1356c24d95"),
        (ValidationPolicy(k=4, sigma=2), seeded_sequences(32, 30, 16, 24),
         "c50f818c7620f47f627e97141e61467db07f8e6571acae3809abc7e927b6318e"),
        # many more candidate stacks: n 10-16 took 2 s under this policy
        (ValidationPolicy(sigma=1, min_arc_length=1), seeded_sequences(33, 30, 10, 14),
         "e7254fadc6a5258ecb32aac3bab03285bf0b1d51522b0f598c6c39f580e98543"),
    ], ids=["noncrossing", "sigma2-arc3", "k4-sigma2", "sigma1-arc1"])
    def test_folds_under_other_policies_are_pinned(self, policy, seqs, digest):
        # a cross-commit contract past the independent enumerator's n 14,
        # with the short stacks and arms of sigma 1 and 2
        cases = [(seq, n_best) for seq in seqs for n_best in (1, 3, 50)]
        assert fold_digest(cases, policy) == digest

    @pytest.mark.parametrize("model", [DEFAULT_MODEL, CENSUS_MODEL, FRACTIONAL_MODEL])
    def test_loop_floor_bounds_loop_energy(self, model):
        attained = set()
        for shape, census in floor_samples():
            floor = oracle._loop_floor(model, *shape)
            assert floor <= model.loop_energy(census), (shape, census)
            # the floor leaves stacked pairs out; otherwise it is attained
            unstacked = model.loop_energy((*census[:2], 0, *census[3:]))
            if math.isclose(floor, unstacked, rel_tol=1e-12):
                attained.add(shape)
        assert len(attained) >= 4  # attained on several shapes, not merely low

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0, 1e300) | st.floats(0, 1e-300) | st.integers(0, 9),
                    min_size=5, max_size=5))
    def test_loop_floor_survives_rounding(self, penalties):
        model = EnergyModel(**dict(zip(oracle._LOOP_PENALTIES, map(float, penalties))))
        for shape, census in floor_samples():
            assert oracle._loop_floor(model, *shape) <= model.loop_energy(census)

    def test_loop_floor_margin_covers_summation_order(self):
        # 2 hairpins and 3 gapped interiors: loop_energy adds 2m + 3m,
        # which for this m rounds one ulp below the plain floor m + 4m
        m = float.fromhex("0x1.37eb8e400ae0fp+1")
        model = EnergyModel(hairpin=m, interior=m, multi=m)
        s = Structure.from_pairs(30, [(1, 20), (3, 18), (5, 16), (7, 12), (22, 30)])
        energy = model.loop_energy(loop_census(s))
        assert m + 4 * m > energy
        assert oracle._loop_floor(model, 5, False) <= energy

    @pytest.mark.parametrize("model, tolerance",
                             [(DEFAULT_MODEL, 0.0), (FRACTIONAL_MODEL, 1e-9)],
                             ids=["default", "fractional"])
    def test_nested_folds_equal_the_zuker_dp(self, model, tolerance):
        # past the brute force's reach: folds under k = 2 against an O(n^3)
        # recursion over segments.  The default model's values add exactly;
        # others may round apart in the two summation orders.
        rng = random.Random(21)
        # sigma 2 lists far more candidate stacks, and past about 45 nt
        # the candidate cap refuses most of its folds
        cases = ((ValidationPolicy(k=2), 60), (ValidationPolicy(2, 2, 3), 40),
                 (ValidationPolicy(2, 4, 4), 60), (ValidationPolicy(2, 3, 6), 60))
        compared = 0
        for trial in range(40):
            policy, longest = cases[trial // 2 % len(cases)]
            alphabet = "ACGU" if trial % 2 else "GGGCCCAU"  # random, GC-rich
            seq = "".join(rng.choice(alphabet) for _ in range(rng.randint(30, longest)))
            try:
                energy = fold(seq, 1, policy, model).mfe_energy
            except SizeGuard:
                continue
            expected = zuker_mfe(seq, policy, model)
            assert energy == pytest.approx(expected, rel=0, abs=tolerance), (seq, policy)
            compared += 1
        assert compared >= 32

    def test_scoring_stops_early(self, monkeypatch):
        # the loop floor cuts the scoring phase: without it, folds at
        # n 36-40 score about 96 structures to return one
        calls = 0
        census = oracle._census

        def counting(*args):
            nonlocal calls
            calls += 1
            return census(*args)

        monkeypatch.setattr(oracle, "_census", counting)
        rng = random.Random(2024)
        for k in range(20):
            alphabet = "ACGU" if k % 2 else "GGGCCCAU"  # random, GC-rich
            fold("".join(rng.choice(alphabet) for _ in range(36 + k % 5)))
        assert calls <= 10 * 20

    def test_folds_within_n_best_take_no_floor(self, monkeypatch):
        # every row is returned, so no bound is built and no floor taken;
        # no other test folds under this model, so no floor table is cached
        def refuse(*args):
            raise AssertionError("_loop_floor called")

        model = EnergyModel(hairpin=2.5)
        monkeypatch.setattr(oracle, "_loop_floor", refuse)
        rng = random.Random(8)
        for trial in range(20):
            seq = random_sequence(rng, 12 + trial % 5)
            expected = sorted(
                (energy_of(seq, s, model), s.arcs)
                for s in all_structures(len(seq))
                if is_compatible(seq, s)
            )
            assert len(expected) <= 50
            result = fold(seq, 50, model=model)
            got = [(e, s.arcs) for s, e in zip(result.structures, result.energies)]
            assert got == expected

    def test_nested_folds_group_no_pseudoknot(self, monkeypatch):
        # a row whose stacks cross nowhere forms no pseudoknot
        policy = ValidationPolicy(k=2)
        rng = random.Random(9)
        seqs = [random_sequence(rng, 24 + k) for k in range(8)]
        expected = [fold(seq, n_best, policy) for seq in seqs for n_best in (1, 50)]

        def refuse(*args):
            raise AssertionError("_pseudoknot_groups called")

        monkeypatch.setattr(loops, "_pseudoknot_groups", refuse)
        assert [fold(seq, n_best, policy)
                for seq in seqs for n_best in (1, 50)] == expected

    def test_floor_cache_is_bounded(self):
        # folds alternating among more models than the cache holds tables
        # equal a fold that built its floors afresh
        maxsize = oracle._floor_table.cache_info().maxsize
        assert maxsize is not None
        models = [EnergyModel(hairpin=1.0 + k, multi=0.5 * k)
                  for k in range(maxsize + 3)]
        seqs = long_fold_sequences()[:3]
        expected = []
        for model in models:
            for seq in seqs:
                oracle._floor_table.cache_clear()
                expected.append(fold(seq, 1, model=model))
        for _ in range(2):
            assert [fold(seq, 1, model=model)
                    for model in models for seq in seqs] == expected
        assert oracle._floor_table.cache_info().currsize <= maxsize

    def test_pair_table_cache_is_bounded(self):
        # folds and energies under more models than the cache holds tables
        # equal those that built their pair table afresh
        maxsize = oracle._pair_table.cache_info().maxsize
        assert maxsize is not None
        models = [EnergyModel.from_mapping({"pair.GC": -1.0 - k, "pair.UA": -0.5 * k})
                  for k in range(maxsize + 3)]
        seqs = long_fold_sequences()[:3]
        expected = []
        for model in models:
            for seq in seqs:
                oracle._pair_table.cache_clear()
                result = fold(seq, 3, model=model)
                expected.append(result)
                assert [energy_of(seq, s, model) for s in result.structures] == list(
                    result.energies)
        for _ in range(2):
            assert [fold(seq, 3, model=model)
                    for model in models for seq in seqs] == expected
        assert oracle._pair_table.cache_info().currsize <= maxsize

    def test_structure_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 1000)
        with pytest.raises(SizeGuard, match="more than 1000 structures"):
            fold("GC" * 12)  # 2815 compatible structures
        assert fold("GC" * 10, 50).mfe_energy < 0

    def test_candidate_cap_refuses_wide_folds(self):
        # 1,496 and 6,833 candidate stacks: refused before any row
        # is built, and the refusal stores nothing in the memo
        rng = random.Random(400)
        for seq in ("GC" * 20, random_sequence(rng, 400)):
            with pytest.raises(SizeGuard, match=(
                    f"more than {oracle.MAX_CANDIDATES} candidate stacks "
                    f"at length {len(seq)}")):
                fold(seq)
            folder = ReferenceFoldOracle()
            with pytest.raises(SizeGuard):
                folder.fold(seq)
            assert not folder._cache

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()  # an automatic collection would hide a cycle
        try:
            fold("GGGAAAACCCAGGGAAACCCAAGGGCCCAAAGGGCC", 50)
            assert gc.collect() == 0
            list(enumerate_structures(12))
            assert gc.collect() == 0
            validate_target(parse_structure("(((.{{{.[[[.))).(((.]]].[[[.))).}}}.]]]"))
            assert gc.collect() == 0
            inverse_fold(PSEUDOKNOT_18)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_package_import_leaves_numpy_out(self):
        code = "import sys, pkinv.cli; from pkinv import *; print('numpy' in sys.modules)"
        assert run_python(code).strip() == "False"


def count_fold_steps(monkeypatch) -> list[tuple[str, object]]:
    """Log each call of the oracle module's two fold steps, as ("rows",
    seq) for an enumeration and ("select", n_best) for a selection."""
    steps = []
    rows, select = oracle._rows, oracle._select

    def counted_rows(seq, *rest):
        steps.append(("rows", seq))
        return rows(seq, *rest)

    def counted_select(kept, n_best, model):
        steps.append(("select", n_best))
        return select(kept, n_best, model)

    monkeypatch.setattr(oracle, "_rows", counted_rows)
    monkeypatch.setattr(oracle, "_select", counted_select)
    return steps


def count_enumerations(monkeypatch) -> list[int]:
    """Log the length each _stack_sets call enumerates at."""
    lengths = []
    stack_sets = oracle._stack_sets

    def counted(n, *rest):
        lengths.append(n)
        return stack_sets(n, *rest)

    monkeypatch.setattr(oracle, "_stack_sets", counted)
    return lengths


def memo_structures(memo: ReferenceFoldOracle) -> int:
    """The structures a ReferenceFoldOracle's memo entries hold."""
    return sum(len(result.structures) for _, result in memo._cache.values())


class TestOracleObject:
    def test_cache_and_policy(self):
        oracle = ReferenceFoldOracle()
        assert oracle.policy == ValidationPolicy()
        a = oracle.fold("GGGAAAACCC", 2)
        b = oracle.fold("GGGAAAACCC", 2)
        assert a is b

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_MEMO_STRUCTURES", 12)
        memo = ReferenceFoldOracle()
        rng = random.Random(8)
        seqs = []  # sequences with three structures at n_best 3: four fit
        while len(seqs) < 10:
            seq = random_sequence(rng, 16)
            if len(fold(seq, 3).structures) == 3:
                seqs.append(seq)
        kept = memo.fold(seqs[0], 3)
        for seq in seqs[1:]:
            assert memo.fold(seqs[0], 3) is kept  # a hit keeps its entry fresh
            memo.fold(seq, 3)
            assert memo_structures(memo) == memo._held <= 12
        assert seqs[1] not in memo._cache
        assert list(memo._cache) == [seqs[7], seqs[8], seqs[0], seqs[9]]
        for seq in seqs:
            assert memo.fold(seq, 3) == fold(seq, 3)
        assert list(memo._cache) == seqs[6:]
        assert memo_structures(memo) == memo._held == 12

    @pytest.mark.parametrize("budget", [40, 120])
    def test_memo_of_mixed_n_best_keeps_to_its_budget(self, monkeypatch, budget):
        monkeypatch.setattr(oracle, "MAX_MEMO_STRUCTURES", budget)
        memo = ReferenceFoldOracle()
        rng = random.Random(21)
        pool = [random_sequence(rng, n) for n in (14, 20, 26) for _ in range(10)]
        expected = OrderedDict()  # seq -> (n_best, structures), by the rule
        over = 0
        for _ in range(150):
            seq, n_best = rng.choice(pool), rng.choice((1, 1, 50))
            assert memo.fold(seq, n_best) == fold(seq, n_best)
            stored, size = expected.pop(seq, (0, 0))
            if n_best > stored:
                stored, size = n_best, len(fold(seq, n_best).structures)
            expected[seq] = stored, size
            held = sum(size for _, size in expected.values())
            while held > budget and len(expected) > 1:
                held -= expected.popitem(last=False)[1][1]
            assert list(memo._cache) == list(expected)
            assert memo_structures(memo) == memo._held == held
            if held > budget:  # only the entry just stored, alone
                over += 1
                assert list(memo._cache) == [seq]
        assert (over > 0) == (budget < 50)

    def test_n_best_above_the_budget_stays_until_the_next_store(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_MEMO_STRUCTURES", 10)
        memo = ReferenceFoldOracle()
        seq = "GGGCCCAAAGGGCCCAAAGGGCCC"  # 38 structures
        memo.fold("GGGAAAACCC", 1)
        result = memo.fold(seq, 50)
        assert len(result.structures) == 38
        assert list(memo._cache) == [seq] and memo._held == 38
        expected = fold(seq, 3)
        steps = count_fold_steps(monkeypatch)
        assert memo.fold(seq, 50) is result
        assert memo.fold(seq, 3) == expected
        assert steps == []
        memo.fold("GGGAAAACCC", 1)
        assert steps == [("rows", "GGGAAAACCC"), ("select", 1)]
        assert list(memo._cache) == ["GGGAAAACCC"] and memo._held == 1

    def test_memo_answers_smaller_n_best_without_folding(self, monkeypatch):
        rng = random.Random(12)
        # short sequences pair fewer than 50 structures, long ones more
        seqs = [random_sequence(rng, n) for n in (12, 18, 26, 30) for _ in range(3)]
        expected = {(seq, k): fold(seq, k) for seq in seqs for k in range(1, 51)}
        assert any(len(expected[seq, 50].structures) < 50 for seq in seqs)
        assert any(len(expected[seq, 50].structures) == 50 for seq in seqs)
        memo = ReferenceFoldOracle()
        for seq in seqs:
            memo.fold(seq, 50)
        steps = count_fold_steps(monkeypatch)
        for seq in seqs:
            for k in range(50, 0, -1):
                assert memo.fold(seq, k) == expected[seq, k]
        assert steps == []
        assert {stored for stored, _ in memo._cache.values()} == {50}
        with pytest.raises(ValueError, match="n_best"):  # a stored entry is no answer
            memo.fold(seqs[0], 0)
        assert memo._cache[seqs[0]][0] == 50

    def test_memo_refolds_a_larger_n_best(self, monkeypatch):
        seq = "GGGCCCAAAGGGCCCAAAGGGCCC"  # 38 structures
        memo = ReferenceFoldOracle()
        memo.fold(seq, 2)
        expected = {k: fold(seq, k) for k in (2, 7)}
        steps = count_fold_steps(monkeypatch)
        result = memo.fold(seq, 7)
        assert steps == [("select", 7)]  # from the rows kept at n_best 2
        assert result == expected[7]
        assert len(result.structures) == 7
        assert memo._cache[seq] == (7, result)
        assert memo.fold(seq, 2) == expected[2]
        assert steps == [("select", 7)]

    def test_memo_is_safe_under_concurrent_callers(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_MEMO_STRUCTURES", 8)
        memo = ReferenceFoldOracle()
        rng = random.Random(3)
        seqs = [random_sequence(rng, 12) for _ in range(24)]
        expected = {seq: fold(seq, 2) for seq in seqs}
        errors = []

        def worker(offset):
            try:
                for step in range(300):
                    seq = seqs[(offset + 7 * step) % len(seqs)]
                    if memo.fold(seq, 2) != expected[seq]:
                        errors.append(seq)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # every store ends within the budget, and no race made the count drift
        assert memo_structures(memo) == memo._held <= 8

    def test_refold_at_a_larger_n_best_enumerates_once(self, monkeypatch):
        seq = "GGGCCCAAAGGGCCCAAAGGGCCC"
        expected = fold(seq, 50)
        enumerations = count_enumerations(monkeypatch)
        memo = ReferenceFoldOracle()
        memo.fold(seq, 1)
        assert memo.fold(seq, 50) == expected
        assert enumerations == [24]

    def test_another_sequence_between_folds_empties_the_slot(self, monkeypatch):
        seq, other = "GGGCCCAAAGGGCCCAAAGGGCCC", "GGGAAAACCC"
        enumerations = count_enumerations(monkeypatch)
        memo = ReferenceFoldOracle()
        memo.fold(seq, 1)
        memo.fold(other, 1)
        assert memo._kept[0] == other  # the slot holds one enumeration
        memo.fold(seq, 50)
        assert enumerations == [24, 10, 24]

    def test_a_fresh_oracle_reuses_no_other_oracles_rows(self, monkeypatch):
        seq = "GGGCCCAAAGGGCCCAAAGGGCCC"
        enumerations = count_enumerations(monkeypatch)
        ReferenceFoldOracle().fold(seq, 1)
        ReferenceFoldOracle().fold(seq, 50)
        assert enumerations == [24, 24]

    def test_a_refused_fold_leaves_no_rows_behind(self, monkeypatch):
        # the candidate cap refuses "GC" * 20 before any row is built, the
        # structure cap "GC" * 12 once its rows pass 1,000
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 1000)
        seq = "GC" * 10
        enumerations = count_enumerations(monkeypatch)
        for refused in ("GC" * 20, "GC" * 12):
            memo = ReferenceFoldOracle()
            memo.fold(seq, 1)
            with pytest.raises(SizeGuard):
                memo.fold(refused, 1)
            assert memo._kept is None and list(memo._cache) == [seq]
            memo.fold(seq, 50)
        assert enumerations == [20, 20, 20, 24, 20]

    @pytest.mark.parametrize("model", [DEFAULT_MODEL, FRACTIONAL_MODEL],
                             ids=["default", "fractional"])
    def test_reused_rows_select_as_a_fresh_fold(self, monkeypatch, model):
        seqs = seeded_sequences(19, 16, 12, 30)
        ladder = (1, 2, 3, 5, 8, 13, 21, 34, 49, 50)
        expected = {(seq, k): fold(seq, k, model=model) for seq in seqs for k in ladder}
        assert any(len(expected[seq, 50].structures) < 50 for seq in seqs)
        assert any(len(expected[seq, 50].structures) == 50 for seq in seqs)
        enumerations = count_enumerations(monkeypatch)
        memo = ReferenceFoldOracle(model=model)
        for seq in seqs:
            for k in ladder:  # each a miss: the memo holds a smaller n_best
                assert memo.fold(seq, k) == expected[seq, k]
        assert enumerations == [len(seq) for seq in seqs]

    @pytest.mark.parametrize("n_best", [2.5, 2.0, "2", None])
    def test_non_integer_n_best_is_refused(self, n_best):
        memo = ReferenceFoldOracle()
        memo.fold("GGGAAAACCC", 50)
        with pytest.raises(TypeError, match="^n_best must be an integer, not "):
            memo.fold("GGGAAAACCC", n_best)

    def test_kept_rows_are_safe_under_concurrent_callers(self, monkeypatch):
        # each worker folds a sequence at n_best 1 and then at 50, the
        # refold the kept rows serve, while the others replace the slot
        monkeypatch.setattr(oracle, "MAX_MEMO_STRUCTURES", 60)
        memo = ReferenceFoldOracle()
        seqs = seeded_sequences(29, 12, 14, 22)
        expected = {(seq, k): fold(seq, k) for seq in seqs for k in (1, 50)}
        errors = []

        def worker(offset):
            try:
                for step in range(200):
                    seq = seqs[(offset + 5 * step) % len(seqs)]
                    for k in (1, 50):
                        if memo.fold(seq, k) != expected[seq, k]:
                            errors.append((seq, k))
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # the slot pairs a sequence with that sequence's own rows
        seq, rows = memo._kept
        assert oracle._select(rows, 50, memo.model) == expected[seq, 50]

    def test_custom_policy_changes_space(self):
        lenient = ReferenceFoldOracle(ValidationPolicy(k=3, sigma=2, min_arc_length=4))
        strict = ReferenceFoldOracle()
        seq = "GGUAAAAACC"
        assert lenient.fold(seq).mfe_energy <= strict.fold(seq).mfe_energy
