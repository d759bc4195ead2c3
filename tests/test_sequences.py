"""Compatibility rules, neighborhoods, and the compatible distance."""

import hashlib
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkinv import (
    Structure,
    can_pair,
    compatible_distance,
    compatible_neighbors,
    energy_of,
    is_compatible,
    parse_structure,
    random_compatible_sequence,
)
from pkinv.sequences import (
    BASES,
    PAIRS,
    IncompatibleInput,
    other_values,
    site_values,
    sites,
)
from pkinv.structure import LengthMismatch

from .helpers import random_matching, random_valid_structure

HAIRPIN = parse_structure("(((....)))")


class TestPairing:
    def test_allowed_pairs(self):
        assert can_pair("G", "C")
        assert can_pair("U", "G")
        assert can_pair("A", "U")
        assert not can_pair("A", "G")
        assert not can_pair("C", "U")

    def test_pair_table_is_symmetric(self):
        for x, y in itertools.product("ACGU", repeat=2):
            assert can_pair(x, y) == can_pair(y, x)

    def test_exactly_six(self):
        count = sum(
            can_pair(x, y) for x, y in itertools.product("ACGU", repeat=2)
        )
        assert count == 6


class TestCompatibility:
    def test_no_arcs_always_compatible(self):
        assert is_compatible("AAAA", Structure(4, ()))

    def test_hairpin(self):
        assert is_compatible("GGGAAAACCC", HAIRPIN)
        assert not is_compatible("GGGAAAAGGG", HAIRPIN)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_compatible("AA", HAIRPIN)

    def test_only_acgu_is_compatible(self):
        s = parse_structure("((((....))))")
        assert is_compatible("GGGGAAAACCCC", s)
        for seq in ("GGGGNNNNCCCC", "GGGGxxxxCCCC", "GGGGaaaaCCCC", "GGGGTAAACCCC"):
            assert not is_compatible(seq, s)
            with pytest.raises(IncompatibleInput):
                compatible_neighbors(seq, s)
            with pytest.raises(IncompatibleInput):
                energy_of(seq, s)


class TestSites:
    def test_sites_cover_every_position_once_in_order(self):
        rng = random.Random(29)
        for _ in range(300):
            s = random_matching(rng, rng.randint(1, 30))
            found = sites(s)
            ends = sorted(u for w, v in found for u in (w, v) if u)
            assert ends == list(range(1, s.n + 1))
            assert [(w, v) for w, v in found if v] == list(s.arcs)
            assert all(v == s.partner[w] for w, v in found)
            assert [w for w, _ in found] == sorted(w for w, _ in found)

    def test_other_values_equal_the_values_listed_without_the_old_one(self):
        # every base at an unpaired site and every two bases at an arc,
        # non-pairs included, against the values filtered per call
        for x in BASES:
            for old, v in ((x, 0), *((x + y, 3) for y in BASES)):
                seq = old[0] + "A" + old[1:]
                expected = [value for value in site_values(v) if value != old]
                values = other_values(seq, 1, v)
                assert type(values) is tuple and list(values) == expected


class TestMakeStart:
    def test_always_compatible(self):
        rng = random.Random(11)
        for _ in range(50):
            s = random_valid_structure(rng)
            assert is_compatible(random_compatible_sequence(s, rng), s)

    def test_unpaired_positions_are_uniform(self):
        rng = random.Random(5)
        s = Structure(5, ())
        counts = {b: 0 for b in "ACGU"}
        draws = 8000
        for _ in range(draws):
            counts[random_compatible_sequence(s, rng)[2]] += 1
        expected = draws / 4
        for base, seen in counts.items():
            assert abs(seen - expected) < 5 * (draws * 0.25 * 0.75) ** 0.5, base

    def test_pairs_are_uniform_over_six(self):
        rng = random.Random(7)
        counts = {p: 0 for p in PAIRS}
        draws = 6000
        for _ in range(draws):
            seq = random_compatible_sequence(HAIRPIN, rng)
            counts[seq[0] + seq[9]] += 1
        expected = draws / 6
        tolerance = 5 * (draws * (1 / 6) * (5 / 6)) ** 0.5
        for pair, seen in counts.items():
            assert abs(seen - expected) < tolerance, (pair, seen)


class TestNeighbors:
    def test_single_unpaired_position(self):
        assert sorted(compatible_neighbors("A", Structure(1, ()))) == ["C", "G", "U"]

    def test_single_pair_has_five(self):
        s = Structure.from_pairs(2, [(1, 2)])
        got = sorted(compatible_neighbors("GC", s))
        assert got == ["AU", "CG", "GU", "UA", "UG"]

    def test_incompatible_input_rejected(self):
        with pytest.raises(IncompatibleInput):
            compatible_neighbors("GG", Structure.from_pairs(2, [(1, 2)]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(10, 24))
    def test_count_formula(self, seed, n):
        rng = random.Random(seed)
        s = random_valid_structure(rng, n)
        seq = random_compatible_sequence(s, rng)
        neighbors = compatible_neighbors(seq, s)
        n_p = len(s.arcs)
        n_u = s.n - 2 * n_p
        assert len(neighbors) == 3 * n_u + 5 * n_p
        assert len(set(neighbors)) == len(neighbors)
        assert all(is_compatible(x, s) for x in neighbors)

    def test_order_is_pinned(self):
        # unpaired sites first, then arcs, each in position order; the
        # sampled sequences pin the sampler's draws as well
        rng = random.Random(47)
        lines = []
        for _ in range(60):
            s = random_matching(rng, rng.randint(1, 24))
            lines += compatible_neighbors(random_compatible_sequence(s, rng), s)
        assert len(lines) == 2114
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "049d00753b7138988eca44a30a30cf3d4941ee7be084a567c2609d4716df28b4")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        rng = random.Random(seed)
        s = random_valid_structure(rng, rng.randint(10, 18))
        seq = random_compatible_sequence(s, rng)
        for other in compatible_neighbors(seq, s):
            assert seq in compatible_neighbors(other, s)


def bfs_distances(start: str, s: Structure) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in compatible_neighbors(cur, s):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


class TestCompatibleDistance:
    def test_zero(self):
        assert compatible_distance("ACGU", "ACGU", Structure(4, ())) == 0

    def test_single_unpaired_change(self):
        assert compatible_distance("ACGU", "AGGU", Structure(4, ())) == 1

    def test_pair_exchange_is_one_step(self):
        s = Structure.from_pairs(6, [(1, 6)])
        assert compatible_distance("GAAAAC", "CAAAAG", s) == 1

    def test_requires_compatibility(self):
        s = Structure.from_pairs(2, [(1, 2)])
        with pytest.raises(IncompatibleInput):
            compatible_distance("GG", "GC", s)

    def test_requires_equal_lengths(self):
        with pytest.raises(LengthMismatch, match="different lengths"):
            compatible_distance("ACGU", "ACG", Structure(4, ()))

    @pytest.mark.parametrize(
        "n,pairs",
        [(4, []), (6, [(1, 6)]), (8, [(1, 5)]), (8, [(1, 5), (2, 8)])],
    )
    def test_equals_bfs_distance_exhaustively(self, n, pairs):
        s = Structure.from_pairs(n, pairs)
        rng = random.Random(n)
        source = random_compatible_sequence(s, rng)
        dist = bfs_distances(source, s)
        for other, expected in dist.items():
            assert compatible_distance(source, other, s) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bounded_by_hamming(self, seed):
        rng = random.Random(seed)
        s = random_valid_structure(rng, rng.randint(10, 20))
        a = random_compatible_sequence(s, rng)
        b = random_compatible_sequence(s, rng)
        hamming = sum(x != y for x, y in zip(a, b))
        d = compatible_distance(a, b, s)
        assert d <= hamming <= 2 * d or hamming == d == 0
