"""Command-line front end: design runs, batch campaigns, and utilities.

Exit codes: 0 success, 1 search failure (the oracle refusing a fold for
its cost included), 2 invalid input or an output that cannot be written
(a closed pipe on stdout still exits 1, silently), 70 internal error (a
trial raised an unexpected exception, a trial worker ended without its
records, or a reported success failed re-verification).
Every option can also be set through environment variables with the
PKINV_ prefix, for example PKINV_INVERSE_SEED.
"""

from __future__ import annotations

import atexit
import functools
import gc
import json
import os
import sys
import time
from typing import TYPE_CHECKING

import click

from . import __version__

# the engine modules load inside the commands that call them, so that
# --help, distance and decompose start without the oracle and the search
if TYPE_CHECKING:
    from .oracle import EnergyModel
    from .structure import ValidationPolicy

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 70

# Whatever is alive at exit dies with the process, and the interpreter's
# last full collection would only walk it; freezing it skips that walk.
# The standard streams are still flushed at exit, and click has closed a
# --trace file by then.
atexit.register(gc.freeze)

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
    from .oracle import DEFAULT_MODEL, EnergyModel

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
    from .oracle import ReferenceFoldOracle
    from .search import SearchConfig, SearchFailed, inverse_fold

    trial_seed = seed + trial
    oracle = ReferenceFoldOracle(policy, model)
    config = SearchConfig(n_best=n_best, rng_seed=trial_seed)
    started = time.perf_counter()
    try:
        outcome = inverse_fold(target_text, oracle, config)
        sequence = outcome.sequence
    except SearchFailed as failure:  # it carries oracle_calls and trace too
        outcome, sequence = failure, None
    record = {
        "trial": trial,
        "seed": trial_seed,
        "target": target_text,
        "success": sequence is not None,
        "sequence": sequence,
        "oracle_calls": outcome.oracle_calls,
    }
    if sequence is None:
        record["reason"] = str(outcome)
    record["_elapsed"] = time.perf_counter() - started
    if want_trace:
        record["_trace"] = [r._asdict() for r in outcome.trace]
    return record


class CampaignError(RuntimeError):
    """A campaign ended without its records; the message says why."""


def _run_stripe(run_trial, trials: int, first: int, step: int) -> dict:
    """Records of trials first, first + step, ... below trials, or, at the
    first trial that raises, the records so far and what it raised."""
    records = []
    for trial in range(first, trials, step):
        try:
            records.append(run_trial(trial))
        except Exception as exc:  # reported by the CLI as an internal error
            return {"records": records,
                    "failed": [trial, f"{type(exc).__name__}: {exc}"]}
    return {"records": records, "failed": None}


def _send_stripe(write_fd: int, run_trial, trials: int, worker: int,
                 workers: int) -> None:
    """Body of a forked worker: write its stripe as one JSON payload at the
    end, then leave through os._exit, so it never returns to the caller and
    never flushes the stdout buffer it inherited."""
    status = 1
    try:
        with os.fdopen(write_fd, "w") as pipe:
            json.dump(_run_stripe(run_trial, trials, worker, workers), pipe)
        status = 0
    finally:
        os._exit(status)


def _campaign_records(run_trial, trials: int, workers: int) -> list[dict]:
    """Records of trials 0 .. trials - 1 in trial order, from workers processes.

    This process is worker 0 and runs trials 0, W, 2W, ...; each other
    stripe runs in a child made by os.fork (workers must be 1 where that
    does not exist), which sends its records through a pipe only once its
    stripe is done, so a full pipe cannot stall its trials.  Records are
    plain JSON types, and a float survives the round trip exactly.  Every
    pipe is closed and every child reaped before this returns or raises.
    CampaignError names the lowest trial that raised, or a worker that
    ended without sending its records.
    """
    pipes, pids, stripes = [], [], []  # pids: children not yet reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_stripe(write_fd, run_trial, trials, worker, workers)
            finally:
                os.close(write_fd)  # only the parent gets here
            pids.append(pid)
        stripes.append(_run_stripe(run_trial, trials, 0, workers))
        for worker, pipe in enumerate(pipes, 1):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code != 0:
                raise CampaignError(f"trial worker {worker} exited with status "
                                    f"{code} without its records")
            stripes.append(json.loads(payload))
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:  # only when this raises; signal costs 1 ms of start-up
            from signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    failures = [stripe["failed"] for stripe in stripes if stripe["failed"]]
    if failures:
        trial, why = min(failures)
        raise CampaignError(f"trial {trial}: {why}")
    return sorted((record for stripe in stripes for record in stripe["records"]),
                  key=lambda record: record["trial"])


class _Commands(click.Group):
    """The command group; its main turns an output that cannot be written
    into one stderr line and exit code 2, for every command.  Without
    standalone_mode the error goes to the caller, as click's own do."""

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        try:
            return super().main(*args, standalone_mode=standalone_mode, **kwargs)
        except OSError as exc:  # click exits 1 without a word on EPIPE
            if not standalone_mode:
                raise
            # the interpreter flushes stdout again at exit: the rest of its
            # buffer goes to devnull, so that flush cannot fail as well
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            click.echo(f"cannot write output: {exc.strerror or exc}", err=True)
            sys.exit(EXIT_INVALID)


@click.group(cls=_Commands, context_settings={"auto_envvar_prefix": "PKINV"})
@click.version_option(version=__version__)
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
              help="Worker processes for the trials, at most one per trial and "
                   "per CPU (forked; 1 where os.fork is missing). Output is "
                   "identical for any value.")
@click.option("--trace", "trace_file", default=None,
              type=click.File("w", lazy=False),
              help="Write the search trace of each trial as JSON lines.")
@click.pass_context
def inverse(ctx, target, trials, seed, n_best, k, sigma, min_arc_length,
            model, fmt, jobs, trace_file):
    """Find sequences folding into the target; batch mode prints a report."""
    from . import search  # noqa: F401  loaded before the fork, never by a worker
    from .oracle import fold
    from .structure import (ValidationPolicy, parse_structure, structure_distance,
                            validate_target)

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

    run_trial = functools.partial(_run_trial, target_text, seed, n_best, policy,
                                  model, trace_file is not None)
    # at most one worker per trial and per CPU; without os.fork, this one
    workers = 1
    if hasattr(os, "fork"):
        workers = max(1, min(jobs, trials, os.cpu_count() or 1))
    started = time.perf_counter()
    try:
        records = _campaign_records(run_trial, trials, workers)
    except (CampaignError, OSError) as exc:  # OSError: no pipe or fork
        click.echo(f"internal error: {exc}", err=True)
        ctx.exit(EXIT_INTERNAL)
    total_time = time.perf_counter() - started

    for record in records:
        if record["success"]:
            refolded = fold(record["sequence"], 1, policy, model).mfe
            if structure_distance(refolded, parsed) != 0:
                click.echo("internal error: reported success failed re-verification",
                           err=True)
                ctx.exit(EXIT_INTERNAL)

    if trace_file is not None:
        try:
            for record in records:
                for event in record.pop("_trace"):
                    event["trial"] = record["trial"]
                    trace_file.write(json.dumps(event, sort_keys=True) + "\n")
            trace_file.flush()
        except OSError as exc:
            click.echo(f"cannot write --trace file {trace_file.name}: {exc.strerror}",
                       err=True)
            ctx.exit(EXIT_INVALID)

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
        seeds = f"{seed}..{seed + trials - 1}" if trials else "none"
        click.echo(
            f"report  length={parsed.n} trials={trials} successes={successes} "
            f"rate={100.0 * successes / max(trials, 1):.1f}% "
            f"total_time={total_time:.2f}s mean_time={mean_time:.3f}s "
            f"p90_time={p90:.3f}s seeds={seeds}"
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
    from .oracle import fold
    from .structure import ValidationPolicy, serialize_structure

    if not sequence:
        click.echo("empty sequence", err=True)
        ctx.exit(EXIT_INVALID)
    try:
        result = fold(sequence, n_best, ValidationPolicy(k, sigma, min_arc_length),
                      model)
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
    from .structure import parse_structure, structure_distance

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
    from .loops import build_intervals
    from .structure import parse_structure

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
