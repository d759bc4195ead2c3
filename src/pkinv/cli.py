"""Command-line front end: design runs, batch campaigns, and utilities.

Exit codes: 0 success, 1 search failure, 2 invalid input, 70 internal
error (a reported success failed re-verification).  Every option can also
be set through environment variables with the PKINV_ prefix, for example
PKINV_INVERSE_SEED.
"""

from __future__ import annotations

import functools
import json
import os
import time

import click

from .loops import build_intervals
from .oracle import DEFAULT_MODEL, MAX_LENGTH, EnergyModel, ReferenceFoldOracle
from .search import SearchConfig, SearchFailed, inverse_fold
from .structure import (
    ValidationPolicy,
    parse_structure,
    serialize_structure,
    structure_distance,
    validate_target,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 70

_STRUCTURE_CHARS = set(":.()[]{}")


def _read_structure_argument(value: str) -> str:
    """Accept a literal bracket string or a path to a file holding one.

    An empty value, or a file that cannot be read as text or holds no
    line, raises ValueError.
    """
    if not value:
        raise ValueError("empty target: give a bracket string or a file holding one")
    if set(value) <= _STRUCTURE_CHARS:
        return value
    if os.path.exists(value):
        try:
            with open(value) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        return line
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read target file {value}: {exc}") from None
        raise ValueError(f"no structure found in {value}")
    return value  # let the parser report the offending character


def _load_model(ctx, param, path: str | None) -> EnergyModel:
    if path is None:
        return DEFAULT_MODEL
    try:
        return EnergyModel.from_file(path)
    except (OSError, ValueError) as exc:
        raise click.BadParameter(f"cannot load energy model: {exc}")


def _run_trial(
    target_text: str,
    seed: int,
    n_best: int,
    policy: ValidationPolicy,
    model: EnergyModel,
    want_trace: bool,
    trial: int,
) -> dict:
    """Design trial number trial of a campaign, on seed + trial."""
    trial_seed = seed + trial
    oracle = ReferenceFoldOracle(policy, model)
    config = SearchConfig(n_best=n_best, rng_seed=trial_seed)
    started = time.perf_counter()
    try:
        result = inverse_fold(target_text, oracle, config)
        record = {
            "trial": trial,
            "seed": trial_seed,
            "target": target_text,
            "success": True,
            "sequence": result.sequence,
            "oracle_calls": result.oracle_calls,
        }
        trace = result.trace
    except SearchFailed as failure:
        record = {
            "trial": trial,
            "seed": trial_seed,
            "target": target_text,
            "success": False,
            "sequence": None,
            "oracle_calls": failure.oracle_calls,
            "reason": str(failure),
        }
        trace = failure.trace
    record["_elapsed"] = time.perf_counter() - started
    if want_trace:
        record["_trace"] = trace.to_jsonl()
    return record


@click.group(context_settings={"auto_envvar_prefix": "PKINV"})
@click.version_option(package_name="pkinv")
def main():
    """Inverse folding of crossing RNA structures, with utilities."""


@main.command()
@click.option("--target", required=True, help="Bracket string or file with one.")
@click.option("--trials", default=1, show_default=True,
              type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--n-best", "-N", "n_best", default=50, show_default=True,
              type=click.IntRange(min=1),
              help="Suboptimal list size used while adjusting.")
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--sigma", default=3, show_default=True, type=int)
@click.option("--min-arc-length", default=4, show_default=True, type=int)
@click.option("--model", default=None, type=click.Path(), callback=_load_model,
              help="Energy model config file (key=value lines).")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "jsonl", "tsv"]))
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
              help="Parallel trials; output is identical for any value.")
@click.option("--trace", "trace_file", default=None,
              type=click.File("w", lazy=False),
              help="Write the search trace of each trial as JSON lines.")
@click.pass_context
def inverse(ctx, target, trials, seed, n_best, k, sigma, min_arc_length,
            model, fmt, jobs, trace_file):
    """Find sequences folding into the target; batch mode prints a report."""
    try:
        target_text = _read_structure_argument(target)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(EXIT_INVALID)
    try:
        policy = ValidationPolicy(k, sigma, min_arc_length)
    except ValueError as exc:
        raise click.UsageError(str(exc))  # an option error, not the target's
    try:
        parsed = parse_structure(target_text)
    except ValueError as exc:
        click.echo("incorrect structure")
        click.echo(str(exc))
        ctx.exit(EXIT_INVALID)
    violations = validate_target(parsed, policy)
    if violations:
        click.echo("incorrect structure")
        for violation in violations:
            click.echo(f"  {violation}")
        ctx.exit(EXIT_INVALID)

    verifier = ReferenceFoldOracle(policy, model)
    if parsed.n > MAX_LENGTH:
        click.echo(f"target length {parsed.n} exceeds the oracle's length guard "
                   f"{MAX_LENGTH}", err=True)
        ctx.exit(EXIT_INVALID)

    run_trial = functools.partial(_run_trial, target_text, seed, n_best, policy,
                                  model, trace_file is not None)
    started = time.perf_counter()
    if jobs > 1 and trials > 1:
        # imported here: the pool's modules are a fifth of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, trials)) as pool:
            records = list(pool.map(run_trial, range(trials)))
    else:
        records = [run_trial(trial) for trial in range(trials)]
    total_time = time.perf_counter() - started
    records.sort(key=lambda r: r["trial"])

    for record in records:
        if record["success"]:
            refolded = verifier.fold(record["sequence"], 1).mfe
            if structure_distance(refolded, parsed) != 0:
                click.echo("internal error: reported success failed re-verification",
                           err=True)
                ctx.exit(EXIT_INTERNAL)

    if trace_file is not None:
        for record in records:
            for line in record.pop("_trace").splitlines():
                event = json.loads(line)
                event["trial"] = record["trial"]
                trace_file.write(json.dumps(event, sort_keys=True) + "\n")

    successes = sum(record["success"] for record in records)
    times = [record.pop("_elapsed") for record in records]
    if fmt == "jsonl":
        for record in records:
            click.echo(json.dumps(record, sort_keys=True))
        click.echo(json.dumps(
            {"report": True, "trials": trials, "successes": successes},
            sort_keys=True))
    elif fmt == "tsv":
        click.echo("trial\tseed\tsuccess\tsequence\toracle_calls")
        for record in records:
            click.echo("\t".join(str(record[key]) for key in
                                 ("trial", "seed", "success", "sequence",
                                  "oracle_calls")))
    else:
        click.echo(f"target  {target_text}")
        for record in records:
            if record["success"]:
                click.echo(record["sequence"])
            else:
                click.echo(f"Failed! {record['reason']}")
        mean_time = sum(times) / len(times) if times else 0.0
        # nearest rank: the ceil(0.9 * n)-th smallest time
        p90 = sorted(times)[(9 * len(times) + 9) // 10 - 1] if times else 0.0
        click.echo(
            f"report  length={parsed.n} trials={trials} successes={successes} "
            f"rate={100.0 * successes / max(trials, 1):.1f}% "
            f"total_time={total_time:.2f}s mean_time={mean_time:.3f}s "
            f"p90_time={p90:.3f}s seeds={seed}..{seed + trials - 1}"
        )
    ctx.exit(EXIT_OK if successes == trials else EXIT_FAILED)


@main.command("fold")
@click.argument("sequence")
@click.option("--n-best", "-N", "n_best", default=1, show_default=True, type=int)
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--sigma", default=3, show_default=True, type=int)
@click.option("--min-arc-length", default=4, show_default=True, type=int)
@click.option("--model", default=None, type=click.Path(), callback=_load_model)
@click.pass_context
def fold_cmd(ctx, sequence, n_best, k, sigma, min_arc_length, model):
    """Print the n best structures for a sequence as TSV."""
    try:
        oracle = ReferenceFoldOracle(ValidationPolicy(k, sigma, min_arc_length),
                                     model)
        result = oracle.fold(sequence, n_best)
        lines = [f"{serialize_structure(struct)}\t{energy:g}"
                 for struct, energy in zip(result.structures, result.energies)]
    except ValueError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(EXIT_INVALID)
    for line in lines:
        click.echo(line)


@main.command("distance")
@click.argument("first")
@click.argument("second")
@click.pass_context
def distance_cmd(ctx, first, second):
    """Print the structure distance between two bracket strings."""
    try:
        d = structure_distance(
            parse_structure(_read_structure_argument(first)),
            parse_structure(_read_structure_argument(second)),
        )
    except ValueError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(EXIT_INVALID)
    click.echo(str(d))


@main.command("decompose")
@click.argument("target")
@click.pass_context
def decompose_cmd(ctx, target):
    """Print the loop components and the interval ladder of a structure."""
    try:
        struct = parse_structure(_read_structure_argument(target))
        plan = build_intervals(struct)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(EXIT_INVALID)
    for comp in plan.components:
        click.echo(
            f"{comp.kind}\ta=[{comp.span[0]},{comp.span[1]}]"
            f"\tb=[{comp.padded_span[0]},{comp.padded_span[1]}]"
        )
    click.echo(
        "intervals\t" + " ".join(f"[{lo},{hi}]" for lo, hi in plan.intervals)
    )


if __name__ == "__main__":
    main()
