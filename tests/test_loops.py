"""The loop census and the interval ladder, against the arc-level
reference decomposition in tests/helpers.py, and the reference itself."""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pkinv import (
    Arc,
    Structure,
    ValidationPolicy,
    build_intervals,
    parse_structure,
    stacks,
)
from pkinv.loops import loop_census

from .helpers import (
    ORDERED_COMPONENTS_65,
    PSEUDOKNOT_18,
    TWO_LOOP_10,
    arcs_cross,
    decompose_loops,
    nests_inside,
    random_matching,
    random_valid_structure,
)
from .test_oracle import enumerate_structures

HAIRPIN = parse_structure("(((....)))")
PK18 = parse_structure(PSEUDOKNOT_18)
# Stacks A=(1,20).., G=(5,15).., B=(10,30)..: A and G both cross B, and G
# nests strictly inside A, so every stack crossed by A has a nested
# witness; A therefore closes standard loops while G and B form the
# pseudoknot.
ENCLOSED_PK_30 = Structure.from_pairs(
    30,
    [
        (1, 20), (2, 19), (3, 18),
        (5, 15), (6, 14), (7, 13),
        (10, 30), (11, 29), (12, 28),
    ],
)


def seeds():
    return st.integers(0, 2**32 - 1)


class TestCrossingSets:
    """Relations between the arcs of one structure."""

    @settings(max_examples=100, deadline=None)
    @given(seeds(), st.integers(10, 24))
    def test_nesting_is_a_strict_partial_order(self, seed, n):
        s = random_valid_structure(random.Random(seed), n)
        arcs = s.arcs
        for a in arcs:
            assert not nests_inside(a, a)
            for b in arcs:
                if nests_inside(a, b):
                    assert not nests_inside(b, a)
                for c in arcs:
                    if nests_inside(a, b) and nests_inside(b, c):
                        assert nests_inside(a, c)


def pinned_structures() -> list[Structure]:
    """Every valid structure up to n = 16, then 2,000 unvalidated matchings."""
    rng = random.Random(2010)
    structures = [s for n in range(17) for s in enumerate_structures(n)]
    structures += [random_matching(rng, rng.randint(0, 60)) for _ in range(2000)]
    return structures


def partition_signature(s: Structure):
    return sorted(
        (loop.kind, loop.owned_arcs, loop.intervals) for loop in decompose_loops(s)
    )


class TestDecompose:
    def test_hairpin_stack(self):
        loops = decompose_loops(HAIRPIN)
        assert [lp.kind for lp in loops] == ["interior", "interior", "hairpin"]
        assert loops[0].arcs == (Arc(1, 10), Arc(2, 9))
        assert loops[1].arcs == (Arc(2, 9), Arc(3, 8))
        assert loops[2].arcs == (Arc(3, 8),)
        assert loops[2].intervals == ((4, 7),)
        assert loops[0].is_stacked_pair and loops[1].is_stacked_pair

    def test_pseudoknot_absorbs_both_stacks(self):
        loops = decompose_loops(PK18)
        assert len(loops) == 1
        (pk,) = loops
        assert pk.kind == "pseudoknot"
        assert pk.arcs == PK18.arcs
        assert pk.intervals == ((4, 5), (9, 10), (14, 15))

    def test_two_loop_structure(self):
        kinds = sorted(lp.kind for lp in decompose_loops(TWO_LOOP_10))
        assert kinds == ["hairpin", "pseudoknot"]

    def test_all_four_kinds_appear(self):
        kinds = {lp.kind for lp in decompose_loops(ORDERED_COMPONENTS_65)}
        assert kinds == {"hairpin", "interior", "multi", "pseudoknot"}

    def test_multiloop_children(self):
        (multi,) = [
            lp for lp in decompose_loops(ORDERED_COMPONENTS_65) if lp.kind == "multi"
        ]
        assert multi.closing_arc == Arc(4, 60)
        assert multi.arcs == (
            Arc(4, 60), Arc(7, 37), Arc(21, 42), Arc(25, 47), Arc(49, 57),
        )
        assert multi.intervals == ((5, 6), (48, 48), (58, 59))

    def test_empty_structure(self):
        assert decompose_loops(Structure(6, ())) == ()

    def test_enclosing_stack_is_excluded_from_the_pseudoknot(self):
        loops = decompose_loops(ENCLOSED_PK_30)
        kinds = [lp.kind for lp in loops]
        assert kinds == ["interior", "interior", "interior", "pseudoknot"]
        deepest = loops[2]
        assert deepest.arcs == (Arc(3, 18), Arc(5, 15))
        assert deepest.intervals == ((4, 4), (16, 17))
        pk = loops[3]
        assert pk.arcs == (
            Arc(5, 15), Arc(6, 14), Arc(7, 13),
            Arc(10, 30), Arc(11, 29), Arc(12, 28),
        )
        assert pk.intervals == ((8, 9), (21, 27))

    def test_decompositions_are_pinned(self):
        structures = pinned_structures()
        digest = hashlib.sha256()
        for s in structures:
            digest.update(json.dumps([
                [lp.kind, lp.arcs, lp.intervals, lp.closing_arc]
                for lp in decompose_loops(s)
            ]).encode() + b"\n")
        assert len(structures) == 2390
        assert digest.hexdigest() == (
            "44b65c74c08457d5b2a962f6e08fe2417d4d4202b400fe9e2b110f6b50f06418"
        )

    @settings(max_examples=150, deadline=None)
    @given(seeds(), st.integers(10, 28))
    def test_partition_covers_arcs_and_unpaired(self, seed, n):
        s = random_valid_structure(random.Random(seed), n)
        loops = decompose_loops(s)
        owned = [a for lp in loops for a in lp.owned_arcs]
        assert sorted(owned) == list(s.arcs)
        assert len(set(owned)) == len(owned)
        claimed = [
            w for lp in loops for lo, hi in lp.intervals for w in range(lo, hi + 1)
        ]
        interior_unpaired = {
            w
            for w in range(1, s.n + 1)
            if s.partner[w] == 0 and any(a.i < w < a.j for a in s.arcs)
        }
        assert sorted(claimed) == sorted(interior_unpaired)

    @settings(max_examples=60, deadline=None)
    @given(seeds(), st.integers(10, 26))
    def test_partition_invariant_under_input_order(self, seed, n):
        rng = random.Random(seed)
        s = random_valid_structure(rng, n)
        reference = partition_signature(s)
        arcs = list(s.arcs)
        for _ in range(5):
            rng.shuffle(arcs)
            assert partition_signature(Structure(s.n, tuple(arcs))) == reference

    @settings(max_examples=80, deadline=None)
    @given(seeds(), st.integers(12, 28))
    def test_pseudoknot_loops_satisfy_connectivity_and_minimality(self, seed, n):
        s = random_valid_structure(random.Random(seed), n)
        all_stacks = stacks(s)
        for loop in decompose_loops(s):
            if loop.kind != "pseudoknot":
                continue
            members = sorted({a for a in loop.arcs})
            # dependency graph of the arc set is connected
            adjacency = {
                a: {b for b in members if arcs_cross(a, b)} for a in members
            }
            seen = {members[0]}
            todo = [members[0]]
            while todo:
                for nxt in adjacency[todo.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            assert seen == set(members)
            # each member stack is a minimal crossing element for some stack
            outer = [Arc(i, j) for i, j, _ in all_stacks]
            for stack in (a for a in outer if a in members):
                witnesses = [
                    other
                    for other in outer
                    if arcs_cross(stack, other)
                    and not any(
                        nests_inside(third, stack) and arcs_cross(third, other)
                        for third in outer
                        if third != stack
                    )
                ]
                assert witnesses, (s.arcs, stack)


def decomposition_counts(s: Structure):
    """Loop-kind counts in census order, read off the arc-level decomposition."""
    loops = decompose_loops(s)
    return (
        sum(lp.kind == "hairpin" for lp in loops),
        sum(lp.kind == "interior" and not lp.is_stacked_pair for lp in loops),
        sum(lp.is_stacked_pair for lp in loops),
        sum(lp.kind == "multi" for lp in loops),
        sum(lp.kind == "pseudoknot" for lp in loops),
    )


class TestLoopCensus:
    def test_known_structures(self):
        assert loop_census(Structure(6, ())) == (0, 0, 0, 0, 0)
        assert loop_census(HAIRPIN) == (1, 0, 2, 0, 0)
        assert loop_census(PK18) == (0, 0, 0, 0, 1)
        assert loop_census(ORDERED_COMPONENTS_65) == (2, 0, 7, 1, 1)
        assert loop_census(ENCLOSED_PK_30) == (0, 1, 2, 0, 1)

    def test_matches_decomposition_on_every_small_structure(self):
        for n in range(17):
            for s in enumerate_structures(n):
                assert loop_census(s) == decomposition_counts(s), s.arcs

    @settings(max_examples=300, deadline=None)
    @given(seeds(), st.integers(10, 40))
    def test_matches_decomposition_on_random_structures(self, seed, n):
        s = random_valid_structure(random.Random(seed), n, max_stacks=6)
        assert loop_census(s) == decomposition_counts(s)


class TestOrderAndIntervals:
    def test_single_hairpin_plan(self):
        plan = build_intervals(HAIRPIN)
        assert plan.intervals == ((1, 10),)
        assert [c.kind for c in plan.components] == ["hairpin"]

    def test_two_disjoint_hairpins_ordered_left_first(self):
        s = Structure.from_pairs(
            21, [(1, 10), (2, 9), (3, 8), (12, 21), (13, 20), (14, 19)]
        )
        comps = build_intervals(s).components
        assert [c.span for c in comps] == [(1, 10), (12, 21)]

    def test_two_loop_ladder(self):
        plan = build_intervals(TWO_LOOP_10)
        assert plan.intervals == ((3, 5), (3, 6), (2, 9), (1, 10))
        assert [c.kind for c in plan.components] == ["hairpin", "pseudoknot"]
        assert [c.span for c in plan.components] == [(3, 5), (2, 9)]
        assert [c.padded_span for c in plan.components] == [(3, 6), (1, 10)]

    def test_seven_component_figure(self):
        plan = build_intervals(ORDERED_COMPONENTS_65)
        assert [c.span for c in plan.components] == [
            (11, 19), (7, 37), (21, 42), (25, 47), (7, 47), (49, 57), (1, 63),
        ]
        assert [c.padded_span for c in plan.components] == [
            (10, 20), (5, 39), (20, 44), (24, 48), (5, 48), (48, 59), (1, 65),
        ]
        assert [c.kind for c in plan.components] == [
            "hairpin", "helix", "helix", "helix", "pseudoknot", "hairpin", "multi",
        ]
        assert plan.intervals[-1] == (1, 65)

    def test_empty_structure_plan(self):
        assert build_intervals(Structure(7, ())).intervals == ((1, 7),)
        assert build_intervals(Structure(0, ())).intervals == ()

    def test_pseudoknot_18_plan(self):
        plan = build_intervals(PK18)
        assert plan.intervals[-1] == (1, 18)
        assert (1, 13) in plan.intervals and (6, 18) in plan.intervals

    @settings(max_examples=100, deadline=None)
    @given(seeds(), st.integers(10, 28))
    def test_plan_ends_with_whole_range_and_stays_inside(self, seed, n):
        s = random_valid_structure(random.Random(seed), n)
        plan = build_intervals(s)
        last = plan.intervals[-1]
        assert last == (1, s.n)
        for lo, hi in plan.intervals:
            assert 1 <= lo <= hi <= s.n

    @settings(max_examples=100, deadline=None)
    @given(seeds(), st.integers(0, 60), st.booleans())
    def test_components_match_the_decomposition(self, seed, n, valid):
        # every standard loop but a stacked pair sits at the outer arc of
        # its closing arc's stack; a pseudoknot at its arc hull, with a
        # helix for each member stack of two or more arcs
        rng = random.Random(seed)
        s = random_valid_structure(rng, max(n, 10)) if valid else random_matching(rng, n)
        stack_of = {
            Arc(i + t, j - t): (i, j, size)
            for i, j, size in stacks(s)
            for t in range(size)
        }
        expected = []
        for loop in decompose_loops(s):
            if loop.kind == "pseudoknot":
                hull = (min(a.i for a in loop.arcs), max(a.j for a in loop.arcs))
                expected.append(("pseudoknot", hull))
                members = {stack_of[a] for a in loop.arcs}
                expected += [("helix", (i, j)) for i, j, size in members if size >= 2]
            elif not loop.is_stacked_pair:
                expected.append((loop.kind, stack_of[loop.closing_arc][:2]))
        components = build_intervals(s).components
        assert sorted((c.kind, c.span) for c in components) == sorted(expected)

    def test_ladders_are_pinned(self):
        structures = pinned_structures()
        digest = hashlib.sha256()
        for s in structures:
            plan = build_intervals(s)
            digest.update(json.dumps(
                [[c.kind, c.span, c.padded_span] for c in plan.components]
                + [plan.intervals]
            ).encode() + b"\n")
        assert len(structures) == 2390
        assert digest.hexdigest() == (
            "e2da24ddb4f47ed77d15d2c142b4692b9d95f60db756371986791743f8879b4b"
        )

    def test_cached_plans_equal_the_wrapped_function(self):
        # hits and misses alike equal the uncached ladder, on valid targets
        # under two policies and on random matchings
        rng = random.Random(30)
        cases = []
        for _ in range(150):
            n = rng.randint(0, 30)
            cases += [random_valid_structure(rng, max(n, 10), policy)
                      for policy in (ValidationPolicy(), ValidationPolicy(k=2, sigma=2))]
            cases.append(random_matching(rng, n))
        assert sum(any(c.kind == "pseudoknot"
                       for c in build_intervals.__wrapped__(s).components)
                   for s in cases) >= 50
        for s in cases:
            for _ in range(2):  # the second call hits
                assert build_intervals(s) == build_intervals.__wrapped__(s)

    def test_plan_cache_is_bounded(self):
        # plans cycling over more targets than the cache holds equal the
        # plans built afresh
        maxsize = build_intervals.cache_info().maxsize
        assert maxsize is not None
        rng = random.Random(31)
        targets = set()
        while len(targets) < maxsize + 3:
            targets.add(random_matching(rng, rng.randint(0, 40)))
        targets = sorted(targets)
        expected = [build_intervals.__wrapped__(s) for s in targets]
        build_intervals.cache_clear()
        for _ in range(2):
            assert [build_intervals(s) for s in targets] == expected
        assert build_intervals.cache_info().currsize <= maxsize
