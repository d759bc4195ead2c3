"""Shared fixtures-in-spirit: reference structures, samplers, naive oracles.

The naive fold path here enumerates all partial matchings directly and
filters with validate_target, sharing nothing with the package's
stack-placement enumerator, so the two can check each other.  In the
same way the loop decomposition here finds stacks and groups
pseudoknots from the arcs alone, importing nothing from pkinv.loops and
no private name of pkinv, so it checks the loop census and the interval
ladder that pkinv.loops reads off stack masks.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import Iterable, NamedTuple

import pkinv
from pkinv import (
    Arc,
    Structure,
    ValidationPolicy,
    crossing_number,
    energy_of,
    fold,
    is_compatible,
    validate_target,
)
from pkinv.oracle import DEFAULT_MODEL, EnergyModel
from pkinv.search import MutationOutcome
from pkinv.sequences import BASES, PAIRS, can_pair

# A crossing two-stack structure used all over the suite.
PSEUDOKNOT_18 = "(((..[[[..)))..]]]"
# A sequence whose unique mfe under the default model is PSEUDOKNOT_18.
PSEUDOKNOT_18_SEQ = "GGGAACCCAACCCAAGGG"

# Structure behind the seven-component ordering figure: a crossing triple
# of stacks flanked by two hairpins, all inside a multiloop stack.
ORDERED_COMPONENTS_65 = Structure.from_pairs(
    65,
    [
        (1, 63), (2, 62), (3, 61), (4, 60),
        (7, 37), (8, 36), (9, 35),
        (11, 19), (12, 18), (13, 17),
        (21, 42), (22, 41), (23, 40),
        (25, 47), (26, 46), (27, 45),
        (49, 57), (50, 56), (51, 55),
    ],
)

# Hairpin nested in a two-arc pseudoknot; drives the interval ladder.
TWO_LOOP_10 = Structure.from_pairs(10, [(2, 8), (3, 5), (7, 9)])

# Seven stacks whose crossings form an odd cycle, so no two bracket
# families can write it: a 3-noncrossing target that needs a third.
SEVEN_CYCLE_42 = "(((((([[[[[[)))(((]]][[[))){{{]]])))}}}]]]"
# Five stacks whose crossings form a 5-cycle, written the same way.
FIVE_CYCLE_30 = "((({{{[[[)))(((]]][[[)))}}}]]]"


def spaced_runs(runs: str, spacer: int) -> str:
    """A dot-bracket string of runs of three characters with spacer
    unpaired bases put between consecutive runs."""
    return ("." * spacer).join(runs[t:t + 3] for t in range(0, len(runs), 3))


# The paper's headline class: 3-noncrossing targets whose crossing graph
# is an odd cycle.  The 5-cycle with 0-3-base spacers (30-57 nt), then the
# 7-cycle with 0-2-base spacers (42-68 nt).
ODD_CYCLE_FAMILY = (
    tuple(spaced_runs(FIVE_CYCLE_30, spacer) for spacer in range(4))
    + tuple(spaced_runs(SEVEN_CYCLE_42, spacer) for spacer in range(3))
)


def _env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this pkinv."""
    return {**os.environ, "PYTHONPATH": str(Path(pkinv.__file__).parents[1])}


def python_process(code: str, *flags: str) -> subprocess.CompletedProcess:
    """A fresh interpreter, started with flags, that ran code importing
    this pkinv and exited 0."""
    done = subprocess.run([sys.executable, *flags, "-c", code], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done


def cli_process(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m pkinv.cli`` with args, run to its exit by a fresh
    interpreter that imports this pkinv; stdout and stderr are bytes."""
    return subprocess.run([sys.executable, "-m", "pkinv.cli", *args], env=_env(),
                          stdout=stdout, stderr=subprocess.PIPE)


def run_python(code: str) -> str:
    """Stdout of code run by a fresh interpreter that imports this pkinv."""
    return python_process(code).stdout


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr in the order written
    stderr: str


class _Tee(io.BytesIO):
    """One stream's bytes, each write also appended to a shared buffer."""

    def __init__(self, shared: io.BytesIO):
        super().__init__()
        self.shared = shared

    def write(self, data) -> int:
        self.shared.write(data)
        return super().write(data)


def invoke(*args: str) -> CliResult:
    """Run ``pkinv args`` in this process through ``pkinv.cli.main``.

    stdout and stderr are captured while it runs; an exception other than
    SystemExit propagates to the caller.
    """
    from pkinv.cli import main

    both = io.BytesIO()
    tees = _Tee(both), _Tee(both)
    captured = [io.TextIOWrapper(tee, encoding="utf-8", write_through=True)
                for tee in tees]
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = captured
    code = 0
    try:
        main(list(args))
    except SystemExit as exit:
        code = 0 if exit.code is None else exit.code
    finally:
        sys.stdout, sys.stderr = streams
    return CliResult(code, both.getvalue().decode(), tees[1].getvalue().decode())


def random_sequence(rng: Random, n: int) -> str:
    return "".join(rng.choice("ACGU") for _ in range(n))


def random_valid_structure(
    rng: Random,
    n: int | None = None,
    policy: ValidationPolicy | None = None,
    max_stacks: int = 4,
) -> Structure:
    """Random structure passing validate_target, by rejection stack placement."""
    policy = policy or ValidationPolicy()
    if n is None:
        n = rng.randint(10, 30)
    taken: set[int] = set()
    arcs: list[tuple[int, int]] = []
    goal = rng.randint(0, max_stacks)
    for _ in range(40):
        if len(arcs) >= goal * policy.sigma:
            break
        size = rng.choice((policy.sigma, policy.sigma, policy.sigma + 1))
        span = policy.min_arc_length + 2 * (size - 1)
        if n - 1 < span:
            break
        i = rng.randint(1, n - span)
        j = rng.randint(i + span, n)
        new = [(i + t, j - t) for t in range(size)]
        if any(p in taken or q in taken for p, q in new):
            continue
        candidate = Structure.from_pairs(n, arcs + new)
        if crossing_number(candidate) > policy.k - 1:
            continue
        if validate_target(candidate, policy):
            continue
        arcs += new
        taken.update(p for pair in new for p in pair)
    return Structure.from_pairs(n, arcs)


def random_matching(rng: Random, n: int) -> Structure:
    """Random unvalidated structure on n positions, arcs of any length.

    Half the draws pair random positions, crossing freely; the other half
    place up to 12 stacks of 1-5 arcs on free positions.
    """
    if rng.random() < 0.5:
        free = list(range(1, n + 1))
        rng.shuffle(free)
        count = rng.randint(0, n // 2)
        return Structure.from_pairs(n, [free[2 * t:2 * t + 2] for t in range(count)])
    pairs: list[tuple[int, int]] = []
    taken: set[int] = set()
    for _ in range(rng.randint(0, 12)):
        size = rng.randint(1, 5)
        if n < 2 * size:
            continue
        i = rng.randint(1, n - 2 * size + 1)
        j = rng.randint(i + 2 * size - 1, n)
        new = [(i + t, j - t) for t in range(size)]
        if any(p in taken or q in taken for p, q in new):
            continue
        pairs += new
        taken.update(p for pair in new for p in pair)
    return Structure.from_pairs(n, pairs)


@lru_cache(maxsize=None)
def naive_valid_structures(
    n: int, policy: ValidationPolicy = ValidationPolicy()
) -> tuple[Structure, ...]:
    """Every valid structure of length n via matching enumeration + filter."""
    results: list[Structure] = []
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()

    def extend(pos: int):
        if pos > n:
            s = Structure.from_pairs(n, tuple(pairs))
            if not validate_target(s, policy):
                results.append(s)
            return
        if pos in used:
            extend(pos + 1)
            return
        extend(pos + 1)  # leave pos unpaired
        for q in range(pos + policy.min_arc_length, n + 1):
            if q not in used:
                pairs.append((pos, q))
                used.update((pos, q))
                extend(pos + 1)
                pairs.pop()
                used.difference_update((pos, q))

    extend(1)
    return tuple(results)


def arcs_cross(a: Arc, b: Arc) -> bool:
    """The arcs cross: i1 < i2 < j1 < j2 or vice versa."""
    return a.i < b.i < a.j < b.j or b.i < a.i < b.j < a.j


def nests_inside(a: Arc, b: Arc) -> bool:
    """Arc a nests strictly inside arc b: b.i < a.i < a.j < b.j."""
    return b.i < a.i and a.j < b.j


def arc_stacks(arcs: Iterable[Arc]) -> dict[Arc, tuple[Arc, ...]]:
    """The maximal stacks of an arc set, found from the arcs alone.

    A stack's outermost arc has no arc right around it; each one maps to
    its stack's arcs, outermost first, and the stacks come in order of
    their outer arcs.  All arcs of one stack cross, nest in, or enclose
    any other arc alike, so outer arcs decide stack-level relations.
    """
    present = set(arcs)
    runs = {}
    for outer in sorted(present):
        if (outer.i - 1, outer.j + 1) in present:
            continue
        run = [outer]
        while (run[-1].i + 1, run[-1].j - 1) in present:
            run.append(Arc(run[-1].i + 1, run[-1].j - 1))
        runs[outer] = tuple(run)
    return runs


def pseudoknot_groups(arcs: Iterable[Arc]) -> list[tuple[Arc, ...]]:
    """The pseudoknot loops of an arc set, as sorted arc tuples, grouped
    at arc level over the stacks of arc_stacks.

    A stack joins a pseudoknot when it is a nesting-minimal element of
    the crossing set of some stack: it crosses that stack, and no other
    stack crossing that stack nests inside it.  A stack whose crossing
    partners all have such a nested witness closes standard loops
    instead.  The kept stacks split into connected components of the
    crossing graph, one pseudoknot loop each, listed by leftmost arc.
    """
    runs = arc_stacks(arcs)
    kept: set[Arc] = set()
    for stack in runs:
        crossed = [other for other in runs if arcs_cross(stack, other)]
        kept.update(x for x in crossed
                    if not any(nests_inside(y, x) for y in crossed))
    groups = []
    while kept:
        first = min(kept)
        group, todo = {first}, [first]
        while todo:
            stack = todo.pop()
            new = {x for x in kept if arcs_cross(stack, x)} - group
            group |= new
            todo += new
        kept -= group
        groups.append(tuple(sorted(a for stack in group for a in runs[stack])))
    return groups


def crossing_graph_is_bipartite(s: Structure) -> bool:
    """Whether two colours can tell crossing stacks of s apart, that is,
    whether two bracket families can write s.  Stacks come from the
    arcs alone (arc_stacks)."""
    outer = list(arc_stacks(s.arcs))
    colour: dict[Arc, int] = {}
    for first in outer:
        if first in colour:
            continue
        colour[first] = 0
        todo = [first]
        while todo:
            a = todo.pop()
            for b in outer:
                if not arcs_cross(a, b):
                    continue
                if b not in colour:
                    colour[b] = 1 - colour[a]
                    todo.append(b)
                elif colour[b] == colour[a]:
                    return False
    return True


class InvalidStructure(ValueError):
    """The decomposition did not partition the structure (internal check)."""


class Loop(NamedTuple):
    """One loop of the decomposition.

    arcs lists the constituent arcs: the closing arc plus the boundary
    arcs of directly nested blocks for standard loops, or the full
    crossing arc set for pseudoknots.  intervals are the maximal runs of
    unpaired positions the loop claims.  Ownership for the arc partition
    is the closing arc alone for standard loops and all arcs for
    pseudoknot loops.
    """

    kind: str
    arcs: tuple[Arc, ...]
    intervals: tuple[tuple[int, int], ...]
    closing_arc: Arc | None

    @property
    def owned_arcs(self) -> tuple[Arc, ...]:
        if self.kind == "pseudoknot":
            return self.arcs
        return (self.closing_arc,)

    @property
    def is_stacked_pair(self) -> bool:
        """Interior loop with both gaps empty (two consecutive stack arcs)."""
        if self.kind != "interior":
            return False
        outer, inner = self.arcs
        return inner.i == outer.i + 1 and inner.j == outer.j - 1

    @property
    def span(self) -> tuple[int, int]:
        # arcs are sorted, and the claimed positions lie inside them
        return self.arcs[0].i, max(a.j for a in self.arcs)


def _unpaired_runs(positions: list[int]) -> tuple[tuple[int, int], ...]:
    runs: list[tuple[int, int]] = []
    for pos in positions:
        if runs and pos == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], pos)
        else:
            runs.append((pos, pos))
    return tuple(runs)


def decompose_loops(s: Structure) -> tuple[Loop, ...]:
    """Split a structure into its hairpin, interior, multi, and pseudoknot loops.

    The reference that loop_census and build_intervals are tested
    against: pseudoknots come from pseudoknot_groups, and every other arc
    closes the standard loop read in one scan of the partner vector
    beneath it.  Every arc belongs to exactly one loop and every unpaired
    position inside an arc is claimed by exactly one loop.  The result is
    sorted by leftmost position and is independent of the arc input order.
    """
    group_arcs = pseudoknot_groups(s.arcs)
    pk_arcs = {a for p_arcs in group_arcs for a in p_arcs}

    partner = s.partner
    arcs = s.arcs
    loops: list[Loop] = []
    claimed: set[int] = set()

    for arc in arcs:
        if arc in pk_arcs:
            continue
        # reach is the furthest end of the nested arcs scanned so far: a nested
        # arc ending beyond it is a child, an unpaired position beyond it a gap
        children: list[Arc] = []
        gaps: list[int] = []
        reach = arc.i
        for w in range(arc.i + 1, arc.j):
            p = partner[w]
            if p == 0 and w > reach:
                gaps.append(w)
            elif w < p < arc.j and p > reach:
                children.append(Arc(w, p))
                reach = p
        claimed.update(gaps)
        kind = "multi" if len(children) > 1 else "interior" if children else "hairpin"
        loops.append(Loop(kind, (arc, *children), _unpaired_runs(gaps), arc))

    # Pseudoknot loops claim the leftover unpaired positions inside their
    # span; with nested pseudoknots the innermost span wins.
    for p_arcs in sorted(
        group_arcs, key=lambda g: (max(a.j for a in g) - g[0].i, g[0].i)
    ):
        lo, hi = p_arcs[0].i, max(a.j for a in p_arcs)
        mine = [w for w in range(lo + 1, hi) if partner[w] == 0 and w not in claimed]
        claimed.update(mine)
        loops.append(Loop("pseudoknot", p_arcs, _unpaired_runs(mine), None))

    owned = sorted(a for lp in loops for a in lp.owned_arcs)
    if owned != list(arcs):
        raise InvalidStructure(
            f"loop decomposition does not partition the {len(arcs)} arcs"
        )
    loops.sort(key=lambda lp: lp.span)
    return tuple(loops)


def naive_min_energy(
    seq: str,
    policy: ValidationPolicy = ValidationPolicy(),
    model: EnergyModel | None = None,
) -> float:
    """Brute-force mfe over the naive structure list; 0 is the empty floor."""
    model = model or EnergyModel()
    best = 0.0
    for s in naive_valid_structures(len(seq), policy):
        if s.arcs and is_compatible(seq, s):
            best = min(best, energy_of(seq, s, model))
    return best


def zuker_mfe(
    seq: str,
    policy: ValidationPolicy = ValidationPolicy(k=2),
    model: EnergyModel | None = None,
) -> float:
    """The mfe of seq over nested structures by an O(n^3) Zuker-style DP.

    It scores the loops of a noncrossing structure as the package does,
    but by recursion over segments instead of enumeration: every maximal
    stack pays its pair scores, size - 1 stacked pairs, and one loop
    closed by its innermost arc (hairpin, gapped interior or multi by its
    number of child stacks); the exterior loop is free.  Segments are
    1-based and inclusive, and infinity marks an impossible one:
    - v[i][j]: [i, j] closed by a maximal stack of size >= sigma whose
      outer arc is (i, j);
    - gap[a][b]: exactly one child stack inside [a, b], the rest
      unpaired; a gapped interior loop closed by (p, q) reads
      gap[p + 2][q - 1] or gap[p + 1][q - 2], as the child must leave
      a gap or it would extend the stack;
    - wm1[a][b] and wm2[a][b]: at least one, or two, child stacks side by
      side in [a, b], the rest unpaired: the multiloop's content;
    - the exterior W is min(0, wm1[1][n]), the open chain scoring 0.
    """
    if policy.k != 2:
        raise ValueError("the DP folds nested structures only: policy.k must be 2")
    model = model or EnergyModel()
    pair = dict(model.pair_scores)
    n = len(seq)
    lmin = max(policy.min_arc_length, 2)
    inf = math.inf
    v = [[inf] * (n + 2) for _ in range(n + 2)]
    gap = [[inf] * (n + 2) for _ in range(n + 2)]
    wm1 = [[inf] * (n + 2) for _ in range(n + 2)]
    wm2 = [[inf] * (n + 2) for _ in range(n + 2)]

    def closed_loop(p: int, q: int) -> float:
        """The loop closed by the innermost arc (p, q) of a stack."""
        interior = min(gap[p + 2][q - 1], gap[p + 1][q - 2])
        return min(model.hairpin, model.interior + interior,
                   model.multi + wm2[p + 1][q - 1])

    for d in range(1, n):
        for i in range(1, n - d + 1):
            j = i + d
            # the stack (i, j), ..., (i + size - 1, j - size + 1)
            scores = 0.0
            for size in range(1, (d - lmin) // 2 + 2):
                p, q = i + size - 1, j - size + 1
                if seq[p - 1] + seq[q - 1] not in pair:
                    break
                scores += pair[seq[p - 1] + seq[q - 1]]
                if size >= policy.sigma:
                    v[i][j] = min(v[i][j], scores + (size - 1) * model.stacked
                                  + closed_loop(p, q))
            gap[i][j] = min(v[i][j], gap[i + 1][j], gap[i][j - 1])
            one, two = wm1[i + 1][j], wm2[i + 1][j]  # i unpaired
            for u in range(i + 1, j + 1):  # the first child is (i, u)
                if v[i][u] < inf:
                    rest = wm1[u + 1][j]  # infinite when u = j
                    one = min(one, v[i][u] + min(0.0, rest))
                    two = min(two, v[i][u] + rest)
            wm1[i][j], wm2[i][j] = one, two
    return min(0.0, wm1[1][n])


def fold_digest(
    cases: list[tuple[str, int]],
    policy: ValidationPolicy | None = None,
    model: EnergyModel = DEFAULT_MODEL,
) -> str:
    """sha256 over repr((seq, n_best, arcs, energies)) of fold(seq, n_best)
    for each case, one line each: a cross-commit pin of fold's output."""
    lines = []
    for seq, n_best in cases:
        result = fold(seq, n_best, policy, model)
        arcs = [[tuple(arc) for arc in s.arcs] for s in result.structures]
        lines.append(repr((seq, n_best, arcs, result.energies)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_mutate_against_competitors(
    seq: str, target: Structure, rivals: list[set[int]] | None, rng: Random
) -> MutationOutcome:
    """mutate_against_competitors as a can_pair test per rival position.

    The package filters by the set of rival bases instead; both must draw
    the same options in the same order, and so the same rng values.
    Without rivals nothing is redrawn; otherwise every target arc is, and
    every unpaired position with a rival.
    """
    if rivals is None:
        return MutationOutcome(seq, (), ())
    new = list(seq)
    mutated: list[int] = []
    fallbacks: list[int] = []
    for w in range(1, target.n + 1):
        v = target.partner[w]
        if v == 0:
            if not rivals[w]:
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
    return MutationOutcome("".join(new), tuple(mutated), tuple(fallbacks))


def reference_flagged_candidates(
    folded: Structure, target_sub: Structure
) -> list[tuple[str, tuple[int, ...]]]:
    """The local search's candidates as ("u", (w,)) per unpaired position
    and ("p", (i, j)) per arc, unpaired first, each sorted.

    The search walks sites (w, 0) and (i, j) instead; both must list the
    same places in the same order, which rng.shuffle then permutes.
    """
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
