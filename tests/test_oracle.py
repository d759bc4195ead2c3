"""The reference folding oracle against its independent brute-force twin."""

import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pkinv
from pkinv import (
    Arc,
    Structure,
    ValidationPolicy,
    energy_of,
    enumerate_structures,
    fold,
    is_compatible,
    parse_structure,
    validate_target,
)
from pkinv import oracle
from pkinv.oracle import DEFAULT_MODEL, EnergyModel, ReferenceFoldOracle, SizeGuard
from pkinv.sequences import IncompatibleInput

from .helpers import (
    PSEUDOKNOT_18,
    PSEUDOKNOT_18_SEQ,
    naive_min_energy,
    naive_valid_structures,
    random_sequence,
)

HAIRPIN = parse_structure("(((....)))")
# Penalties far enough apart that the loop energy spells out the census:
# stacked pairs, interior, hairpin, multi and pseudoknot loops are its
# base-64 digits, so no wrong count can tie with the right one.
CENSUS_MODEL = EnergyModel(stacked=1.0, interior=64.0, hairpin=64.0**2,
                           multi=64.0**3, pseudoknot=64.0**4)


@lru_cache(maxsize=None)
def all_structures(n):
    return tuple(enumerate_structures(n))


class TestEnumerate:
    def test_below_nine_only_empty(self):
        for n in range(0, 9):
            assert [s.arcs for s in enumerate_structures(n)] == [()]

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

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            list(enumerate_structures(13, size_guard=12))
        assert sum(1 for _ in enumerate_structures(13, size_guard=12, force=True)) > 0

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
        with pytest.raises(ValueError):
            EnergyModel(hairpin=-1.0)
        with pytest.raises(ValueError):
            EnergyModel.from_mapping({"pair.GC": 2.0})
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                EnergyModel(pseudoknot=bad)
            with pytest.raises(ValueError, match="finite"):
                EnergyModel.from_mapping({"pair.GC": bad})

    def test_model_from_file(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("# comment\npair.GU = -2.5\nloop.pseudoknot = 4\n")
        model = EnergyModel.from_file(path)
        assert model.pair_score("G", "U") == -2.5
        assert model.pseudoknot == 4.0


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
        st.sampled_from((DEFAULT_MODEL, CENSUS_MODEL)),
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

    def test_empty_sequence_folds_empty(self):
        result = fold("")
        assert result.structures == (Structure(0, ()),)
        assert result.energies == (0.0,)

    def test_long_folds_are_pinned(self):
        # beyond test_equals_scored_enumeration's n <= 24: a cross-commit
        # contract on fold's output at n 26-40
        rng = random.Random(2024)
        lines = []
        for k in range(40):
            alphabet = "ACGU" if k % 2 else "GGGCCCAU"  # random, GC-rich
            seq = "".join(rng.choice(alphabet) for _ in range(26 + k % 15))
            for n_best in (1, 50):
                result = fold(seq, n_best)
                arcs = [[tuple(arc) for arc in s.arcs] for s in result.structures]
                lines.append(repr((seq, n_best, arcs, result.energies)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "c56238ea8fc14a1391873e36d7aab16254c15bf5de93c21588a5231e8c25d022"
        )

    def test_structure_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 1000)
        with pytest.raises(SizeGuard, match="more than 1000 structures"):
            fold("GC" * 12)  # 2815 compatible structures
        assert fold("GC" * 10, 50).mfe_energy < 0

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()  # an automatic collection would hide a cycle
        try:
            fold("GGGAAAACCCAGGGAAACCCAAGGGCCCAAAGGGCC", 50)
            assert gc.collect() == 0
            list(enumerate_structures(12))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_package_import_leaves_numpy_out(self):
        code = "import sys, pkinv.cli; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(pkinv.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestOracleObject:
    def test_cache_and_policy(self):
        oracle = ReferenceFoldOracle()
        assert oracle.policy == ValidationPolicy()
        a = oracle.fold("GGGAAAACCC", 2)
        b = oracle.fold("GGGAAAACCC", 2)
        assert a is b

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_MEMO_ENTRIES", 4)
        memo = ReferenceFoldOracle()
        rng = random.Random(8)
        seqs = [random_sequence(rng, 16) for _ in range(10)]
        kept = memo.fold(seqs[0], 3)
        for seq in seqs[1:]:
            assert memo.fold(seqs[0], 3) is kept  # a hit keeps its entry fresh
            memo.fold(seq, 3)
            assert len(memo._cache) <= 4
        assert (seqs[1], 3) not in memo._cache
        for seq in seqs:
            assert memo.fold(seq, 3) == fold(seq, 3)
        assert len(memo._cache) == 4

    def test_memo_is_safe_under_concurrent_callers(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_MEMO_ENTRIES", 8)
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
        assert len(memo._cache) <= 8 + len(threads)

    def test_custom_policy_changes_space(self):
        lenient = ReferenceFoldOracle(ValidationPolicy(k=3, sigma=2, min_arc_length=4))
        strict = ReferenceFoldOracle()
        seq = "GGUAAAAACC"
        assert lenient.fold(seq).mfe_energy <= strict.fold(seq).mfe_energy
