"""Command-line front end: design runs, batch campaigns, and utilities.

Exit codes: 0 success, 1 search failure (the oracle refusing one of
inverse's folds for its cost included), 2 invalid input, a fold command
whose fold the oracle refuses for its cost (its reason on stderr,
nothing on stdout), or an output that cannot be written (a closed pipe
on stdout still exits 1, silently), 70 internal error (a trial raised
an unexpected exception, a trial worker ended without its records, or a
reported success failed re-verification).
Every option can also be set through an environment variable named
PKINV_<COMMAND>_<LONG OPTION>, upper-cased with dashes as underscores,
for example PKINV_INVERSE_SEED or PKINV_FOLD_N_BEST.  The command line
wins over the variable, and a bad value in either is the same usage error.
The parser is the standard library's argparse.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import os
import sys
import time
from typing import TYPE_CHECKING, NoReturn

from . import __version__

# the engine modules, and json, load inside the functions that call them,
# so that --help, distance and decompose start without the oracle, the
# search and json
if TYPE_CHECKING:
    from .oracle import EnergyModel
    from .structure import ValidationPolicy

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 70

# Whatever is alive at exit dies with the process, and the interpreter's
# last full collection would only walk it; freezing it skips that walk.
# The standard streams are still flushed at exit, and inverse has closed
# its --trace file by then.
atexit.register(gc.freeze)

_STRUCTURE_CHARS = set(":.()[]{}")
_FORMATS = ("text", "jsonl", "tsv")


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


def _at_least(minimum: int):
    """An option type: an integer no smaller than minimum."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a valid integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{value} is not in the range x>={minimum}")
        return value

    return convert


def _output_format(text: str) -> str:
    """An option type: one of _FORMATS (argparse checks no choices of a
    default, and a PKINV_ variable arrives as one)."""
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not one of {', '.join(_FORMATS)}")
    return text


def _load_model(path: str) -> EnergyModel:
    """An option type: the energy model in the config file at path."""
    from .oracle import EnergyModel

    try:
        return EnergyModel.from_file(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load energy model: {exc}") from None


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
    import json

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
    import json  # before the fork, so that no worker imports it

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


def inverse(args: argparse.Namespace) -> int:
    """Find sequences folding into the target; batch mode prints a report."""
    import json

    from . import search  # noqa: F401  loaded before the fork, never by a worker
    from .oracle import DEFAULT_MODEL, fold
    from .structure import (ValidationPolicy, parse_structure, structure_distance,
                            validate_target)

    if args.trace is not None:
        try:  # an unwritable path is a usage error, found before any trial
            open(args.trace, "w").close()
        except OSError as exc:
            args.usage_error(f"argument --trace: cannot open '{args.trace}': "
                             f"{exc.strerror}")
    try:
        target_text = _read_structure_argument(args.target)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    try:
        policy = ValidationPolicy(args.k, args.sigma, args.min_arc_length)
    except ValueError as exc:
        args.usage_error(str(exc))  # an option error, not the target's
    try:
        parsed = parse_structure(target_text)
    except ValueError as exc:
        print("incorrect structure", exc, sep="\n")
        return EXIT_INVALID
    violations = validate_target(parsed, policy)
    if violations:
        print("incorrect structure", *(f"  {v}" for v in violations), sep="\n")
        return EXIT_INVALID

    model = DEFAULT_MODEL if args.model is None else args.model
    trials, seed = args.trials, args.seed
    run_trial = functools.partial(_run_trial, target_text, seed, args.n_best,
                                  policy, model, args.trace is not None)
    # at most one worker per trial and per CPU; without os.fork, this one
    workers = 1
    if hasattr(os, "fork"):
        workers = max(1, min(args.jobs, trials, os.cpu_count() or 1))
    started = time.perf_counter()
    try:
        records = _campaign_records(run_trial, trials, workers)
    except (CampaignError, OSError) as exc:  # OSError: no pipe or fork
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    total_time = time.perf_counter() - started

    for record in records:
        if record["success"]:
            refolded = fold(record["sequence"], 1, policy, model).mfe
            if structure_distance(refolded, parsed) != 0:
                print("internal error: reported success failed re-verification",
                      file=sys.stderr)
                return EXIT_INTERNAL

    if args.trace is not None:
        try:
            with open(args.trace, "w") as trace_file:
                for record in records:
                    for event in record.pop("_trace"):
                        event["trial"] = record["trial"]
                        trace_file.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"cannot write --trace file {args.trace}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_INVALID

    successes = sum(record["success"] for record in records)
    times = [record.pop("_elapsed") for record in records]
    if args.format == "jsonl":
        for record in records:
            print(json.dumps(record, sort_keys=True))
        print(json.dumps({"report": True, "trials": trials, "successes": successes},
                         sort_keys=True))
    elif args.format == "tsv":
        print("trial\tseed\tsuccess\tsequence\toracle_calls")
        for record in records:
            print("\t".join(str(record[key]) for key in
                            ("trial", "seed", "success", "sequence", "oracle_calls")))
    else:
        print(f"target  {target_text}")
        for record in records:
            if record["success"]:
                print(record["sequence"])
            else:
                print(f"Failed! {record['reason']}")
        mean_time = sum(times) / len(times) if times else 0.0
        # nearest rank: the ceil(0.9 * n)-th smallest time
        p90 = sorted(times)[(9 * len(times) + 9) // 10 - 1] if times else 0.0
        seeds = f"{seed}..{seed + trials - 1}" if trials else "none"
        print(
            f"report  length={parsed.n} trials={trials} successes={successes} "
            f"rate={100.0 * successes / max(trials, 1):.1f}% "
            f"total_time={total_time:.2f}s mean_time={mean_time:.3f}s "
            f"p90_time={p90:.3f}s seeds={seeds}"
        )
    return EXIT_OK if successes == trials else EXIT_FAILED


def fold_cmd(args: argparse.Namespace) -> int:
    """Print the n best structures for a sequence as TSV."""
    from .oracle import DEFAULT_MODEL, fold
    from .structure import ValidationPolicy, serialize_structure

    try:
        policy = ValidationPolicy(args.k, args.sigma, args.min_arc_length)
    except ValueError as exc:
        args.usage_error(str(exc))
    if not args.sequence:
        print("empty sequence", file=sys.stderr)
        return EXIT_INVALID
    model = DEFAULT_MODEL if args.model is None else args.model
    try:
        result = fold(args.sequence, args.n_best, policy, model)
        lines = [f"{serialize_structure(struct)}\t{energy:g}"
                 for struct, energy in zip(result.structures, result.energies)]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    for line in lines:
        print(line)
    return EXIT_OK


def distance_cmd(args: argparse.Namespace) -> int:
    """Print the structure distance between two bracket strings."""
    from .structure import parse_structure, structure_distance

    try:
        d = structure_distance(
            parse_structure(_read_structure_argument(args.first)),
            parse_structure(_read_structure_argument(args.second)),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    print(d)
    return EXIT_OK


def decompose_cmd(args: argparse.Namespace) -> int:
    """Print the loop components and the interval ladder of a structure."""
    from .loops import build_intervals
    from .structure import parse_structure

    try:
        struct = parse_structure(_read_structure_argument(args.target))
        plan = build_intervals(struct)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    for comp in plan.components:
        print(
            f"{comp.kind}\ta=[{comp.span[0]},{comp.span[1]}]"
            f"\tb=[{comp.padded_span[0]},{comp.padded_span[1]}]"
        )
    print("intervals\t" + " ".join(f"[{lo},{hi}]" for lo, hi in plan.intervals))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, version and usage text, if it cannot
    be written, raises OSError, which argparse itself would swallow."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _option(parser: argparse.ArgumentParser, command: str, *flags: str,
            **settings) -> None:
    """Add an option whose default PKINV_<COMMAND>_<LONG OPTION> sets; a
    string default goes through the option's type, so argparse checks a
    variable's value as it does the command line's."""
    variable = f"PKINV_{command}_{flags[0][2:]}".upper().replace("-", "_")
    if variable in os.environ:
        settings.update(default=os.environ[variable], required=False)
    parser.add_argument(*flags, **settings)


def _parser() -> argparse.ArgumentParser:
    """The command tree, with the defaults of the PKINV_ variables set now."""
    parser = _Parser(
        prog="pkinv", allow_abbrev=False, add_help=False,
        description="Inverse folding of crossing RNA structures, with utilities.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    def command(name: str, handler, *positionals: str) -> argparse.ArgumentParser:
        summary = handler.__doc__
        sub = commands.add_parser(name, help=summary, description=summary,
                                  allow_abbrev=False, add_help=False)
        sub.set_defaults(handler=handler, usage_error=sub.error)
        for positional in positionals:
            sub.add_argument(positional, metavar=positional.upper())
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        return sub

    def policy_options(sub: argparse.ArgumentParser, name: str) -> None:
        for flag, default in (("--k", 3), ("--sigma", 3), ("--min-arc-length", 4)):
            _option(sub, name, flag, type=int, default=default,
                    help="(default: %(default)s)")
        _option(sub, name, "--model", type=_load_model, metavar="PATH",
                help="Energy model config file (key=value lines).")

    sub = command("inverse", inverse)
    _option(sub, "inverse", "--target", required=True,
            help="Bracket string or file with one.")
    _option(sub, "inverse", "--trials", type=_at_least(0), default=1,
            help="(default: %(default)s)")
    _option(sub, "inverse", "--seed", type=int, default=0,
            help="(default: %(default)s)")
    _option(sub, "inverse", "--n-best", "-N", type=_at_least(1), default=50,
            help="Suboptimal list size used while adjusting. (default: %(default)s)")
    policy_options(sub, "inverse")
    _option(sub, "inverse", "--format", type=_output_format, default="text",
            metavar="{" + ",".join(_FORMATS) + "}", help="(default: %(default)s)")
    _option(sub, "inverse", "--jobs", type=_at_least(1), default=1,
            help="Worker processes for the trials, at most one per trial and "
                 "per CPU (forked; 1 where os.fork is missing). Output is "
                 "identical for any value. (default: %(default)s)")
    _option(sub, "inverse", "--trace", metavar="PATH",
            help="Write the search trace of each trial as JSON lines.")

    sub = command("fold", fold_cmd, "sequence")
    _option(sub, "fold", "--n-best", "-N", type=_at_least(1), default=1,
            help="(default: %(default)s)")
    policy_options(sub, "fold")

    command("distance", distance_cmd, "first", "second")
    command("decompose", decompose_cmd, "target")
    return parser


def run(argv: list[str] | None = None) -> int:
    """The exit code of the command argv names (by default sys.argv[1:]).

    --help, --version and a usage error exit through SystemExit, and an
    output that cannot be written raises OSError, with stdout untouched.
    """
    args = _parser().parse_args(argv)
    return args.handler(args)


def main(argv: list[str] | None = None) -> NoReturn:
    """Run the command argv names and exit with its code.

    An output that cannot be written prints one stderr line and exits 2;
    a closed pipe on stdout exits 1 without a word.
    """
    try:
        try:
            code = run(argv)
        except SystemExit as exit:  # --help, --version or a usage error
            code = exit.code
        sys.stdout.flush()  # so that a buffered write fails here, not at exit
    except OSError as exc:
        # the interpreter flushes stdout again at exit: the rest of its
        # buffer goes to devnull, so that flush cannot fail as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = EXIT_FAILED
        else:
            print(f"cannot write output: {exc.strerror or exc}", file=sys.stderr)
            code = EXIT_INVALID
    sys.exit(code)


if __name__ == "__main__":
    main()
