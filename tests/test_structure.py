"""Diagram parsing, serialization, crossing analysis, and distances."""

import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkinv import (
    Arc,
    Structure,
    ValidationPolicy,
    crossing_number,
    parse_structure,
    serialize_structure,
    stacks,
    structure_distance,
    validate_target,
)
from pkinv import oracle
from pkinv.sequences import _pair_masks
from pkinv.structure import (
    IllegalCharacter,
    LengthMismatch,
    OutOfRange,
    TooManyFamilies,
    UnbalancedBracket,
    _stack_arcs,
    _stack_masks,
    restrict_structure,
)

from .helpers import (
    ODD_CYCLE_FAMILY,
    PSEUDOKNOT_18,
    arcs_cross,
    crossing_graph_is_bipartite,
    nests_inside,
    random_matching,
    random_valid_structure,
)

HAIRPIN = "(((....)))"


def structures(max_n=26):
    return st.builds(
        lambda seed, n: random_valid_structure(random.Random(seed), n),
        st.integers(0, 2**32 - 1),
        st.integers(10, max_n),
    )


class TestParse:
    def test_unpaired_only(self):
        s = parse_structure(":::")
        assert s.n == 3 and s.arcs == ()

    def test_hairpin(self):
        assert parse_structure(HAIRPIN).arcs == (Arc(1, 10), Arc(2, 9), Arc(3, 8))

    def test_pseudoknot_families_match_independently(self):
        s = parse_structure(PSEUDOKNOT_18)
        assert s.arcs == (
            Arc(1, 13), Arc(2, 12), Arc(3, 11),
            Arc(6, 18), Arc(7, 17), Arc(8, 16),
        )

    def test_dot_and_colon_both_mean_unpaired(self):
        assert parse_structure("(((....)))") == parse_structure("(((::::)))")

    def test_unbalanced_opener(self):
        with pytest.raises(UnbalancedBracket) as err:
            parse_structure("(((...))")
        assert err.value.position == 1

    def test_unbalanced_closer(self):
        with pytest.raises(UnbalancedBracket) as err:
            parse_structure("...)")
        assert err.value.position == 4

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter) as err:
            parse_structure("((x))")
        assert err.value.position == 3

    def test_doubly_paired_position_rejected(self):
        with pytest.raises(ValueError):
            Structure.from_pairs(10, [(1, 5), (5, 9)])

    def test_arc_outside_range_rejected(self):
        with pytest.raises(ValueError):
            Structure.from_pairs(4, [(1, 5)])

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            Structure(-1, ())


class TestSerialize:
    def test_empty(self):
        assert serialize_structure(Structure(3, ())) == ":::"

    def test_single_family(self):
        assert serialize_structure(parse_structure(HAIRPIN)) == "(((::::)))"

    def test_crossing_needs_second_family(self):
        s = parse_structure(PSEUDOKNOT_18)
        assert serialize_structure(s) == "(((::[[[::)))::]]]"

    @settings(max_examples=200, deadline=None)
    @given(structures())
    def test_round_trip(self, s):
        assert parse_structure(serialize_structure(s)) == s

    @pytest.mark.parametrize("text", [
        "([[)({)(){](}}])",
        # a target the default policy accepts
        ":::".join(c * 3 for c in "([[)({)(){](}}])"),
    ])
    def test_round_trip_where_greedy_colouring_fails(self, text):
        # colouring arcs greedily in sorted order leaves the last arc no
        # family, though three families write the structure
        s = parse_structure(text)
        assert crossing_number(s) == 2
        assert parse_structure(serialize_structure(s)) == s
        assert str(s) == serialize_structure(s)

    def test_equals_the_first_colouring_of_the_stacks(self):
        # the first assignment of families to stacks, in stack order, that
        # keeps crossing stacks apart, or TooManyFamilies when there is none
        rng = random.Random(3)
        checked = 0
        while checked < 1500:
            s = random_matching(rng, rng.randint(0, 30))
            triples = stacks(s)
            if len(triples) > 9:
                continue
            checked += 1
            crossing, _, _, _ = _stack_masks(s.n, triples)
            edges = [(a, b) for a in range(len(triples)) for b in range(a)
                     if crossing[a] >> b & 1]
            assignments = itertools.product(range(3), repeat=len(triples))
            first = next((families for families in assignments
                          if all(families[a] != families[b] for a, b in edges)), None)
            if first is None:
                with pytest.raises(TooManyFamilies):
                    serialize_structure(s)
                continue
            chars = [":"] * s.n
            for triple, family in zip(triples, first):
                for i, j in _stack_arcs(*triple):
                    chars[i - 1], chars[j - 1] = ("()", "[]", "{}")[family]
            assert serialize_structure(s) == "".join(chars)

    def test_dead_end_after_independent_pseudoknots_fails_fast(self):
        # four mutually crossing stacks after eight H-type pseudoknots:
        # plain backtracking would try all 6 ** 8 colourings of the
        # pseudoknots before giving up
        head = parse_structure("(((::[[[::)))::]]]::" * 8)
        k4 = [(head.n + 1 + 3 * c + t, head.n + 15 + 3 * c - t)
              for c in range(4) for t in range(3)]
        s = Structure(head.n + 24, head.arcs + tuple(Arc(*a) for a in k4))
        assert crossing_number(s) == 4
        started = time.perf_counter()
        with pytest.raises(TooManyFamilies, match="bracket families"):
            serialize_structure(s)
        assert time.perf_counter() - started < 1.0
        assert str(s) == f"<Structure n={s.n} arcs=60>"


class TestOddCycles:
    @pytest.mark.parametrize("text", ODD_CYCLE_FAMILY, ids=len)
    def test_members_are_valid_three_family_targets(self, text):
        # the paper's headline class: valid 3-noncrossing targets that two
        # bracket families cannot write
        s = parse_structure(text)
        assert s.n == len(text) and 2 * len(s.arcs) == len(text) - text.count(".")
        assert validate_target(s) == ()
        assert not crossing_graph_is_bipartite(s)
        assert parse_structure(serialize_structure(s)) == s


class TestCrossingNumber:
    def test_empty(self):
        assert crossing_number(Structure(5, ())) == 0

    def test_noncrossing_nonempty(self):
        assert crossing_number(parse_structure(HAIRPIN)) == 1

    def test_three_mutually_crossing(self):
        s = Structure.from_pairs(16, [(1, 7), (4, 9), (5, 11), (13, 16)])
        assert crossing_number(s) == 3

    def test_pseudoknot_is_two(self):
        assert crossing_number(parse_structure(PSEUDOKNOT_18)) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(1, 15)), st.integers(0, 7), st.booleans())
    def test_equals_arc_level_brute_force(self, order, m, doubled):
        pairs = [(min(a, b), max(a, b)) for a, b in zip(order[:m], order[m:2 * m])]
        if doubled:  # every arc becomes a stack of two, so runs are common
            pairs = [(2 * a - t, 2 * b - 1 + t) for a, b in pairs for t in (1, 0)]
        s = Structure.from_pairs(28, pairs)
        mutual = [
            r
            for r in range(len(s.arcs) + 1)
            for group in itertools.combinations(s.arcs, r)
            if all(arcs_cross(a, b) for a, b in itertools.combinations(group, 2))
        ]
        assert crossing_number(s) == max(mutual)


class TestStacks:
    def test_single_stack(self):
        assert stacks(parse_structure(HAIRPIN)) == ((1, 10, 3),)

    def test_two_stacks(self):
        got = stacks(parse_structure(PSEUDOKNOT_18))
        assert [size for _, _, size in got] == [3, 3]

    def test_broken_run_splits(self):
        got = stacks(Structure.from_pairs(10, [(1, 10), (3, 8)]))
        assert got == ((1, 10, 1), (3, 8, 1))

    @settings(max_examples=100, deadline=None)
    @given(structures())
    def test_partition(self, s):
        arcs = [a for st in stacks(s) for a in _stack_arcs(*st)]
        assert sorted(arcs) == list(s.arcs)

    @pytest.mark.parametrize("policy", [
        ValidationPolicy(),
        ValidationPolicy(sigma=1, min_arc_length=1),
        ValidationPolicy(sigma=2, min_arc_length=3),
    ], ids=["default", "sigma1-arc1", "sigma2-arc3"])
    def test_masks_of_candidate_stacks_equal_brute_force(self, policy):
        # the oracle's candidate stacks share positions; the prefix masks
        # must still give the stacks sharing a position with each, itself
        # included, the runs just inside each, and the crossing and
        # nesting of their outer arcs
        rng = random.Random(17)
        checked = 0
        for trial in range(150):
            alphabet = "ACGU" if trial % 2 else "GGGCCCAU"  # random, GC-rich
            seq = "".join(rng.choice(alphabet) for _ in range(rng.randint(4, 30)))
            triples, _ = oracle._candidate_stacks(
                policy, _pair_masks(seq), seq, oracle._pair_table(oracle.DEFAULT_MODEL))
            crossing, inside, overlap, inner = _stack_masks(len(seq), triples)
            positions = [{p for arc in _stack_arcs(*t) for p in arc} for t in triples]
            outer = [Arc(i, j) for i, j, _ in triples]
            for a in range(len(triples)):
                assert overlap[a] == sum(1 << b for b in range(len(triples))
                                         if positions[a] & positions[b])
                assert crossing[a] == sum(1 << b for b in range(len(triples))
                                          if arcs_cross(outer[a], outer[b]))
                assert inside[a] == sum(1 << b for b in range(len(triples))
                                        if nests_inside(outer[b], outer[a]))
                i, j, size = triples[a]
                assert inner[a] == sum(1 << b for b in range(len(triples))
                                       if outer[b] == (i + size, j - size))
            checked += len(triples)
        assert checked >= 700  # 745 stacks under the default policy


class TestValidate:
    def test_hairpin_ok(self):
        assert validate_target(parse_structure(HAIRPIN)) == ()

    def test_short_arcs_and_thin_stack(self):
        kinds = {v.kind for v in validate_target(parse_structure("((..))"))}
        assert kinds == {"arc-length", "stack-size"}

    def test_pseudoknot_ok(self):
        assert validate_target(parse_structure(PSEUDOKNOT_18)) == ()

    def test_crossing_bound(self):
        s = Structure.from_pairs(16, [(1, 7), (4, 9), (5, 11)])
        assert any(v.kind == "crossing" for v in validate_target(s))

    def test_policy_invariants(self):
        with pytest.raises(ValueError, match="^k must be at least 2$"):
            ValidationPolicy(k=1)
        with pytest.raises(ValueError, match="^sigma must be at least 1$"):
            ValidationPolicy(sigma=0)
        with pytest.raises(ValueError, match="^min_arc_length must be at least 1$"):
            ValidationPolicy(min_arc_length=0)

    def test_replace_validates_the_policy(self):
        with pytest.raises(ValueError, match="^k must be at least 2$"):
            ValidationPolicy()._replace(k=1)
        with pytest.raises(ValueError, match="^sigma must be at least 1$"):
            ValidationPolicy._make((3, 0, 4))
        assert ValidationPolicy()._replace(sigma=2) == ValidationPolicy(sigma=2)

    @settings(max_examples=100, deadline=None)
    @given(structures())
    def test_crossing_check_matches_crossing_number(self, s):
        has_violation = any(
            v.kind == "crossing" for v in validate_target(s, ValidationPolicy())
        )
        assert has_violation == (crossing_number(s) > 2)


class TestDistance:
    def test_identity(self):
        s = parse_structure(HAIRPIN)
        assert structure_distance(s, s) == 0

    def test_missing_arc_counts_both_ends(self):
        s1 = Structure.from_pairs(10, [(1, 10), (2, 9), (3, 8)])
        s2 = Structure.from_pairs(10, [(1, 10), (2, 9)])
        assert structure_distance(s1, s2) == 2

    def test_repaired_position_counts_once_per_endpoint(self):
        s1 = Structure.from_pairs(20, [(4, 20)])
        s2 = Structure.from_pairs(20, [(4, 17)])
        # position 4 contributes 1; endpoints 17 and 20 contribute one each
        assert s1.partner[4] != s2.partner[4]
        assert structure_distance(s1, s2) == 3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            structure_distance(Structure(3, ()), Structure(4, ()))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(10, 22))
    def test_metric_axioms(self, seed, n):
        rng = random.Random(seed)
        a, b, c = (random_valid_structure(rng, n) for _ in range(3))
        assert structure_distance(a, a) == 0
        assert structure_distance(a, b) == structure_distance(b, a)
        assert structure_distance(a, c) <= (
            structure_distance(a, b) + structure_distance(b, c)
        )
        if structure_distance(a, b) == 0:
            assert a == b


class TestRestrict:
    def test_window_is_shifted_and_drops_leaving_arcs(self):
        s = parse_structure(PSEUDOKNOT_18)
        assert restrict_structure(s, 1, 13) == parse_structure("(((:::::::)))")

    @pytest.mark.parametrize("lo,hi", [(0, 5), (3, 19), (6, 5)])
    def test_window_outside_the_positions(self, lo, hi):
        # the cache keeps no exception, so every call raises again
        for _ in range(2):
            with pytest.raises(OutOfRange, match=f"window \\[{lo}, {hi}\\]"):
                restrict_structure(parse_structure(PSEUDOKNOT_18), lo, hi)


POLICIES = (ValidationPolicy(), ValidationPolicy(k=2, sigma=2, min_arc_length=3))


class TestCaches:
    def test_cached_calls_equal_the_wrapped_functions(self):
        # hits, misses and repeats alike equal the uncached function, on
        # valid targets under two policies and on random matchings
        rng = random.Random(30)
        cases = []
        for _ in range(150):
            n = rng.randint(1, 30)
            cases += [random_valid_structure(rng, max(n, 10), policy)
                      for policy in POLICIES]
            cases.append(random_matching(rng, n))
        assert sum(crossing_number(s) >= 2 for s in cases) >= 50
        for s in cases:
            lo = rng.randint(1, s.n)
            hi = rng.randint(lo, s.n)
            for _ in range(2):  # the second call hits
                for policy in POLICIES + (None,):
                    assert validate_target(s, policy) == validate_target.__wrapped__(
                        s, policy)
                assert restrict_structure(s, lo, hi) == restrict_structure.__wrapped__(
                    s, lo, hi)

    @pytest.mark.parametrize("cached", [validate_target, restrict_structure],
                             ids=lambda f: f.__name__)
    def test_cache_is_bounded(self, cached):
        # calls cycling over more arguments than the cache holds equal the
        # results computed afresh
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        rng = random.Random(31)
        calls = set()
        while len(calls) < maxsize + 3:
            s = random_matching(rng, rng.randint(1, 40))
            if cached is validate_target:
                calls.add((s, POLICIES[rng.randrange(2)]))
            else:
                lo = rng.randint(1, s.n)
                calls.add((s, lo, rng.randint(lo, s.n)))
        calls = sorted(calls)
        expected = [cached.__wrapped__(*args) for args in calls]
        cached.cache_clear()
        for _ in range(2):
            assert [cached(*args) for args in calls] == expected
        assert cached.cache_info().currsize <= maxsize


class TestRecord:
    @pytest.mark.parametrize("name", ["n", "arcs", "partner", "extra"])
    def test_attributes_cannot_be_assigned(self, name):
        s = parse_structure(HAIRPIN)
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
        assert s == parse_structure(HAIRPIN)

    def test_repr_shows_n_and_arcs_only(self):
        s = Structure.from_pairs(6, [(1, 6)])
        assert repr(s) == "Structure(n=6, arcs=(Arc(i=1, j=6),))"

    def test_replace_validates_and_derives_partner(self):
        s = parse_structure("((....))")
        assert s._replace(arcs=()) == Structure(8, ())
        assert s._replace(arcs=((2, 7),)) == Structure(8, [(2, 7)])
        with pytest.raises(ValueError, match="outside positions"):
            s._replace(n=6)
        with pytest.raises(ValueError, match="paired more than once"):
            s._replace(arcs=((1, 8), (2, 8)))

    @pytest.mark.parametrize("make", [
        lambda s: Structure._trusted(s.n, s.arcs),
        copy.copy,
        lambda s: pickle.loads(pickle.dumps(s)),
    ], ids=["trusted", "copy", "pickle"])
    def test_rebuilt_structure_equals_the_validated_one(self, make):
        s = parse_structure(PSEUDOKNOT_18)
        rebuilt = make(s)
        assert type(rebuilt) is Structure
        assert rebuilt == s and hash(rebuilt) == hash(s)
        assert rebuilt.partner == s.partner
