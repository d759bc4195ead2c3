"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from collections import deque

from pkinv import (
    Arc,
    SearchConfig,
    Structure,
    build_intervals,
    compatible_distance,
    compatible_neighbors,
    crossing_number,
    fold,
    inverse_fold,
    parse_structure,
    random_compatible_sequence,
    serialize_structure,
    structure_distance,
)
from pkinv.oracle import ReferenceFoldOracle
from pkinv.search import SearchFailed, build_competitors, perturb_arc
from pkinv.sequences import is_compatible

from .helpers import (
    ORDERED_COMPONENTS_65,
    PSEUDOKNOT_18,
    TWO_LOOP_10,
    decompose_loops,
    invoke,
    naive_min_energy,
    random_sequence,
    random_valid_structure,
)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def test_criterion_1_reference_interval_ladders():
    started = time.perf_counter()
    plan = build_intervals(TWO_LOOP_10)
    assert plan.intervals == ((3, 5), (3, 6), (2, 9), (1, 10))
    plan65 = build_intervals(ORDERED_COMPONENTS_65)
    assert [c.span for c in plan65.components] == [
        (11, 19), (7, 37), (21, 42), (25, 47), (7, 47), (49, 57), (1, 63),
    ]
    assert [c.padded_span for c in plan65.components] == [
        (10, 20), (5, 39), (20, 44), (24, 48), (5, 48), (48, 59), (1, 65),
    ]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"both reference interval ladders reproduced in {elapsed:.3f}s")


def test_criterion_2_decomposition_uniqueness():
    started = time.perf_counter()
    rng = random.Random(812)

    def signature(s: Structure):
        return sorted(
            (lp.kind, lp.owned_arcs, lp.intervals) for lp in decompose_loops(s)
        )

    for index in range(1000):
        s = random_valid_structure(rng, rng.randint(10, 30))
        reference = signature(s)
        owned = [a for kind, arcs, _ in reference for a in arcs]
        assert sorted(owned) == list(s.arcs), "arc not covered exactly once"
        arcs = list(s.arcs)
        for _ in range(10):
            rng.shuffle(arcs)
            assert signature(Structure(s.n, tuple(arcs))) == reference
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(2, f"1000 structures x 10 shuffles, identical partitions ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(33)
    mismatches = 0
    for index in range(500):
        n = rng.randint(4, 12)
        seq = random_sequence(rng, n)
        if fold(seq, 1).mfe_energy != naive_min_energy(seq):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(3, f"500 sequences, fold mfe == brute-force minimum ({elapsed:.1f}s)")


def _campaign_targets() -> list[str]:
    """20 targets with lengths in [10, 30]; at least three pseudoknots."""
    oracle = ReferenceFoldOracle()
    rng = random.Random(2024)
    targets: list[str] = []
    for n in (10, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28):
        while True:
            seq = random_sequence(rng, n)
            mfe = oracle.fold(seq, 1).mfe
            if mfe.arcs and serialize_structure(mfe) not in targets:
                targets.append(serialize_structure(mfe))
                break
    # crossing targets, realized as the mfe of designed sequences
    for seq in (
        "GGGAACCCAACCCAAGGG",
        "AAGGGAACCCAACCCAAGGGAA",
        "GGGAACCCAACCCAAGGGAAAAAA",
    ):
        mfe = oracle.fold(seq, 1).mfe
        text = serialize_structure(mfe)
        assert crossing_number(mfe) == 2, "designed target must be a pseudoknot"
        assert text not in targets
        targets.append(text)
    assert len(targets) == 20
    return targets


def test_criterion_5_end_to_end_campaign():
    started = time.perf_counter()
    targets = _campaign_targets()
    oracle = ReferenceFoldOracle()
    verifier = ReferenceFoldOracle()
    trials_per_target = 20
    total = successes = 0
    per_target = []
    for text in targets:
        target = parse_structure(text)
        wins = 0
        for seed in range(trials_per_target):
            total += 1
            try:
                result = inverse_fold(target, oracle, SearchConfig(rng_seed=seed))
            except SearchFailed:
                continue
            refolded = verifier.fold(result.sequence, 1).mfe
            assert structure_distance(refolded, target) == 0
            wins += 1
            successes += 1
        per_target.append((text, wins))
    rate = successes / total
    elapsed = time.perf_counter() - started
    for text, wins in per_target:
        print(f"    {text}  {wins}/{trials_per_target}")
    assert rate >= 0.95, f"success rate {rate:.3f} below 0.95"
    assert elapsed < 1800.0
    report(
        5,
        f"{successes}/{total} trials succeeded ({100 * rate:.1f}%) "
        f"over 20 targets in {elapsed:.1f}s",
    )


def test_criterion_4_soundness_of_reported_successes():
    # every success in a dedicated batch re-folds to its target exactly
    started = time.perf_counter()
    oracle = ReferenceFoldOracle()
    verifier = ReferenceFoldOracle()
    rng = random.Random(404)
    runs = successes = 0
    while runs < 40:
        target = random_valid_structure(rng, rng.randint(10, 20))
        if not target.arcs:
            continue
        runs += 1
        try:
            result = inverse_fold(target, oracle, SearchConfig(rng_seed=runs))
        except SearchFailed:
            continue
        successes += 1
        assert structure_distance(
            verifier.fold(result.sequence, 1).mfe, target
        ) == 0, "reported success does not re-fold to the target"
    elapsed = time.perf_counter() - started
    report(
        4,
        f"{successes} successes out of {runs} runs, all re-verified "
        f"arc for arc ({elapsed:.1f}s)",
    )


def test_criterion_6_round_trip():
    started = time.perf_counter()
    rng = random.Random(66)
    for _ in range(1000):
        s = random_valid_structure(rng, rng.randint(10, 30))
        assert parse_structure(serialize_structure(s)) == s
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(6, f"1000 parse/serialize round trips ({elapsed:.1f}s)")


def test_criterion_7_distance_and_neighbor_properties():
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(10, 24)
        a, b, c = (random_valid_structure(rng, n) for _ in range(3))
        assert structure_distance(a, a) == 0
        assert structure_distance(a, b) == structure_distance(b, a)
        assert structure_distance(a, c) <= (
            structure_distance(a, b) + structure_distance(b, c)
        )
    for _ in range(200):
        s = random_valid_structure(rng, rng.randint(10, 24))
        seq = random_compatible_sequence(s, rng)
        n_p = len(s.arcs)
        n_u = s.n - 2 * n_p
        assert len(compatible_neighbors(seq, s)) == 3 * n_u + 5 * n_p
    # exhaustive shortest-path check on small spaces
    for n, pairs in ((4, []), (6, [(1, 6)]), (8, [(1, 5)]), (8, [(1, 5), (2, 8)])):
        s = Structure.from_pairs(n, pairs)
        source = random_compatible_sequence(s, rng)
        dist = {source: 0}
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in compatible_neighbors(cur, s):
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        for other, expected in dist.items():
            assert compatible_distance(source, other, s) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(7, f"metric, neighbor-count, and BFS-distance checks ({elapsed:.1f}s)")


def test_criterion_8_perturbation_census_and_competitor_hygiene():
    started = time.perf_counter()
    s = Structure.from_pairs(12, [(3, 9)])
    assert len(perturb_arc(s, Arc(3, 9))) == 10
    rng = random.Random(88)
    # enumerate-and-filter twin for boundary cases
    for _ in range(200):
        t = random_valid_structure(rng, rng.randint(10, 18))
        if not t.arcs:
            continue
        arc = rng.choice(t.arcs)
        rest = tuple(a for a in t.arcs if a != arc)
        expected = {rest}
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                i, j = arc.i + di, arc.j + dj
                if 1 <= i < j <= t.n:
                    expected.add(tuple(sorted(rest + (Arc(i, j),))))
        assert set(perturb_arc(t, arc)) == expected
    oracle = ReferenceFoldOracle()
    rounds = 0
    while rounds < 200:
        target = random_valid_structure(rng, rng.randint(10, 16))
        if not target.arcs:
            continue
        rounds += 1
        seq = random_compatible_sequence(target, rng)
        result = oracle.fold(seq, 10)
        for comp in build_competitors(seq, result, target):
            ends = [w for a in comp.arcs for w in a]
            assert len(set(ends)) == len(ends), "inconsistent competitor"
            assert is_compatible(seq, comp), "incompatible competitor"
            assert comp != target, "target leaked into competitors"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(8, f"perturbation census and 200 hygiene rounds ({elapsed:.1f}s)")


def test_criterion_9_campaign_reproducibility_across_jobs():
    started = time.perf_counter()
    args = [
        "inverse", "--target", PSEUDOKNOT_18,
        "--trials", "8", "--seed", "5", "--format", "jsonl",
    ]
    serial = invoke(*args, "--jobs", "1")
    parallel = invoke(*args, "--jobs", "8")
    assert serial.output == parallel.output
    assert serial.output.strip(), "campaign produced no output"
    elapsed = time.perf_counter() - started
    report(9, f"jsonl byte-identical for --jobs 1 and --jobs 8 ({elapsed:.1f}s)")
