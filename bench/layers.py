"""Per-layer metrics computed from the spans of a traced pass.

A span's self time is its duration minus the part of it its child spans
cover.  Layers are the package modules: a span named ``search.adjust``
belongs to ``search``.  Per-trial figures divide by the operations of the
traced pass: trials, or folds on ``fold-scan``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("search", "oracle", "structure", "loops", "sequences")
FOLD_LENGTHS = (24, 26, 28)
FOLD_N_BEST = (1, 50)


class TraceMismatch(RuntimeError):
    """The span stream does not line up with the public search trace."""


def candidate_count(record) -> int:
    """Candidates one local-search pass drew, read from its public trace record.

    The only reader of that field: local-phase records keep the count in
    ``mutations`` today.
    """
    return record.mutations


def _covered(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans, children) -> list[float]:
    return [
        (s.end - s.start) - _covered((spans[c].start, spans[c].end) for c in kids)
        for s, kids in zip(spans, children)
    ]


def _adjust_acceptance(spans, children, phase_indices, slack):
    """(mutations drawn, mutations kept within slack) over adjust phases.

    Per round the adjust phase folds, measures the distance, builds
    competitors, then draws mutations; the distance measured right after a
    mutation is that attempt's distance.  The round's trace record carries
    the best distance the slack is measured from.
    """
    drawn = kept = 0
    for index in phase_indices:
        attempts, after_mutation = [], False
        for c in children[index]:
            span = spans[c]
            if span.name == "search.mutate":
                after_mutation = True
            elif span.name == "structure.distance" and after_mutation:
                attempts.append(span.info)
                after_mutation = False
            elif span.name == "search.record":
                drawn += len(attempts)
                kept += any(d <= span.info.best_distance + slack for d in attempts)
                attempts = []
    return drawn, kept


def _local_moves(spans, children, phase_indices):
    """(passes, candidates drawn, candidates folded, moves) over local phases.

    Within an interval (opened by ``structure.restrict``) a pass measures
    the interval's distance, then one distance per candidate folded, then
    appends its record.  A pass moved if it improved the best distance,
    took an uphill step, or kept a candidate tying the best distance.
    """
    passes = drawn = folded = moves = 0
    for index in phase_indices:
        distances, best = [], None
        for c in children[index]:
            span = spans[c]
            if span.name == "structure.restrict":
                distances, best = [], None
            elif span.name == "structure.distance":
                distances.append(span.info)
            elif span.name == "search.record":
                record = span.info
                if not distances or distances[0] != record.distance:
                    raise TraceMismatch(
                        f"local pass distances {distances} vs record {record}"
                    )
                distance, *candidates = distances
                start_best = distance if best is None else min(best, distance)
                moves += (
                    record.best_distance < start_best
                    or record.accepted_uphill
                    or start_best in candidates
                )
                passes += 1
                drawn += candidate_count(record)
                folded += len(candidates)
                best, distances = record.best_distance, []
    return passes, drawn, folded, moves


def summarize(spans, trials: int, distance_slack: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit); ``trials`` is the per-trial base."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    own = self_times(spans, children)
    roots = [s for s in spans if s.parent is None]
    trials = max(trials, 1)
    wall = sum(s.end - s.start for s in roots) or 1.0

    count = defaultdict(int)
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    by_name = defaultdict(list)
    for index, (span, self_s) in enumerate(zip(spans, own)):
        count[span.name] += 1
        total[span.name] += span.end - span.start
        self_by_name[span.name] += self_s
        self_by_layer[span.name.split(".", 1)[0]] += self_s
        by_name[span.name].append(index)

    fold_calls = {"search.adjust": 0, "search.local": 0}
    repeated = 0
    fold_ms = defaultdict(list)
    for index in by_name["oracle.fold"]:
        span = spans[index]
        length, n_best, seen = span.info
        repeated += seen
        if not seen:
            fold_ms[(length, n_best)].append(1e3 * (span.end - span.start))
        parent = spans[span.parent].name if span.parent is not None else None
        if parent in fold_calls:
            fold_calls[parent] += 1

    drawn, kept = _adjust_acceptance(
        spans, children, by_name["search.adjust"], distance_slack
    )
    passes, candidates, folded, moves = _local_moves(
        spans, children, by_name["search.local"]
    )
    competitor_counts = [spans[i].info for i in by_name["search.build_competitors"]]
    interval_counts = [spans[i].info for i in by_name["loops.build_intervals"]]
    folds = count["oracle.fold"]

    def per_trial(value, unit):
        return (value / trials, unit)

    def ratio(part, base):
        return (part / base if base else 0.0, "ratio")

    m: dict[str, tuple[float, str]] = {
        "trace.trials": (float(trials), "count"),
        "trace.spans": (float(len(spans)), "count"),
        "oracle.fold_calls": (float(folds), "count"),
        "oracle.fold_calls_per_trial": per_trial(folds, "count"),
        "oracle.memo_hit_ratio": ratio(repeated, folds),
        "oracle.fold_share": ratio(self_by_name["oracle.fold"], wall),
    }
    for n in FOLD_LENGTHS:
        for nb in FOLD_N_BEST:
            samples = fold_ms.get((n, nb))
            m[f"oracle.fold_ms.n{n}.nbest{nb}.p50"] = (
                statistics.median(samples) if samples else 0.0, "ms")
    search_spans = sum(len(v) for k, v in by_name.items() if k.startswith("search."))
    m.update({
        "search.spans": (float(search_spans), "count"),
        "search.adjust_self_s_per_trial": per_trial(self_by_name["search.adjust"], "s"),
        "search.local_self_s_per_trial": per_trial(self_by_name["search.local"], "s"),
        "search.build_competitors_s_per_trial":
            per_trial(total["search.build_competitors"], "s"),
        "search.mutate_s_per_trial": per_trial(total["search.mutate"], "s"),
        "search.perturb_arc_calls_per_trial":
            per_trial(count["search.perturb_arc"], "count"),
        "search.competitors_per_round": (
            statistics.fmean(competitor_counts) if competitor_counts else 0.0, "count"),
        "search.adjust_calls_per_trial": per_trial(fold_calls["search.adjust"], "count"),
        "search.local_calls_per_trial": per_trial(fold_calls["search.local"], "count"),
        "search.adjust_mutations_drawn": (float(drawn), "count"),
        "search.adjust_accept_ratio": ratio(kept, drawn),
        "search.local_candidates_folded": (float(folded), "count"),
        "search.local_move_ratio": ratio(moves, folded),
        "search.local_candidates_per_pass": (
            candidates / passes if passes else 0.0, "count"),
        "structure.distance_calls_per_trial":
            per_trial(count["structure.distance"], "count"),
        "structure.distance_s_per_trial": per_trial(total["structure.distance"], "s"),
        "structure.restrict_s_per_trial": per_trial(total["structure.restrict"], "s"),
        "loops.intervals_per_trial": (
            statistics.fmean(interval_counts) if interval_counts else 0.0, "count"),
        "loops.build_intervals_s_per_trial":
            per_trial(total["loops.build_intervals"], "s"),
        "sequences.sample_s_per_trial": per_trial(total["sequences.sample"], "s"),
    })
    for layer in LAYERS:
        m[f"layer_share.{layer}"] = ratio(self_by_layer[layer], wall)
    return m


def largest_layer(metrics) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"layer_share.{layer}"][0])
