"""Correctness gates, run after the timed region.

Energies are compared exactly: the default model's scores are small
integers, which float64 sums hold without rounding in any order.
"""

from __future__ import annotations

import json

from pkinv import energy_of, is_compatible, parse_structure


def check_designs(records, verifier) -> list[str]:
    """Every reported design must re-fold to its target on ``verifier``.

    ``records`` are (target, seed, success, sequence, oracle_calls); the
    target's ``energy_of`` must equal the verifier's mfe energy, which
    cross-checks the loop-decomposition scoring against the oracle's own
    stack census.
    """
    errors = []
    for target_text, seed, success, sequence, _ in records:
        if not success:
            continue
        target = parse_structure(target_text)
        label = f"design {sequence} (target {target_text}, seed {seed})"
        try:
            folded = verifier.fold(sequence, 1)
            energy = energy_of(sequence, target, verifier.model)
        except ValueError as exc:  # incompatible or malformed sequence
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if folded.mfe.arcs != target.arcs:
            errors.append(f"{label} folds to {folded.mfe}, not the target")
        elif energy != folded.mfe_energy:
            errors.append(
                f"{label}: energy_of {energy} != oracle mfe energy {folded.mfe_energy}"
            )
    return errors


def check_folds(results) -> list[str]:
    """Each (seq, n_best, FoldResult) is sorted, short enough and self-consistent."""
    errors = []
    for seq, n_best, result in results:
        label = f"fold {seq} n_best={n_best}"
        if not 1 <= len(result.structures) <= n_best:
            errors.append(f"{label}: {len(result.structures)} structures")
        if len(result.energies) != len(result.structures):
            errors.append(f"{label}: energies and structures differ in length")
        if list(result.energies) != sorted(result.energies):
            errors.append(f"{label}: energies not sorted ascending")
        for s, e in zip(result.structures, result.energies):
            if s.n != len(seq) or not is_compatible(seq, s):
                errors.append(f"{label}: {s} is not compatible with the sequence")
            elif energy_of(seq, s) != e:
                errors.append(f"{label}: {s} reported {e}, energy_of {energy_of(seq, s)}")
    return errors


def parse_cli_jsonl(stdout: str):
    """Trial records and the report line of `pkinv inverse --format jsonl`."""
    records, report = [], None
    for line in stdout.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("report"):
            report = row
        else:
            records.append((row["target"], row["seed"], row["success"],
                            row["sequence"], row["oracle_calls"]))
    return records, report
