"""The benchmark workloads, each a closed loop with one client.

A workload runs in whole rounds, so every time-boxed pass covers its
inputs evenly: one design per target on ``design-short``, one fold per
(length, n_best) slot on ``fold-scan``, one CLI campaign on
``cli-jobs2``.  Inputs derive from the workload seed only.

The operation of the design workloads is a design: search trials run
with fresh seeds until one returns a sequence, as a user reruns a
stochastic search, up to MAX_ATTEMPTS trials.  A trial that ends in
``SearchFailed`` is counted in ``failed_share`` and its time stays in the
design's; a design fails only when every attempt fails or a trial raises.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import pkinv.search as search
from pkinv import (
    ReferenceFoldOracle,
    SearchConfig,
    SearchFailed,
    build_intervals,
    parse_structure,
)

import checks

ROOT = Path(__file__).resolve().parent.parent

# The campaign targets with n <= 22, frozen from
# tests/test_acceptance.py::_campaign_targets (recipe seed 2024).
SHORT_TARGETS = (
    "(((::::)))",
    ":(((:::::)))",
    "(((:::)))::::",
    "(((::::::::)))",
    "::(((:::)))::::",
    "(((::[[[[)))]]]]",
    ":::(((::::::)))::",
    "::(((::::::::::)))",
    "::::::((((::::))))::",
    "::::::::(((::::::))):",
    ":::::::::(((:::)))::::",
    "(((::[[[::)))::]]]",
    "::(((::[[[::)))::]]]::",
)
CLI_TARGET = "(((::[[[::)))::]]]::::::"
# Trials per design, or campaigns per CLI round.  The worst target fails
# about one trial in nine, so every attempt failing has odds below 1e-15.
MAX_ATTEMPTS = 16
# One trial per pool worker: campaign time is then mostly start-up and the
# per-process table builds, which keeps it steady from run to run.
CLI_TRIALS = 2
CLI_JOBS = 2
# n=26 appears twice so the fold-latency median sits inside one length's
# cluster instead of on the gap between two of them.
SCAN_SLOTS = tuple((n, nb) for n in (24, 26, 26, 28) for nb in (1, 50))
CHILD_TIMEOUT_S = 150
# Scaled figures read as on a machine where one speed probe takes
# REF_PROBE_S; each workload says how strongly its code follows the probe.
REF_PROBE_S = 0.0005
# Peak RSS is read once this many operations are done, so that it does
# not grow with how many operations a fast or slow run fits in.
RSS_MARK_OPS = 200


@dataclass
class Outcome:
    """What one pass produced; ``records`` feed the digest and the gates."""

    records: list = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)  # one per operation
    latency_round: list[int] = field(default_factory=list)
    trial_latencies_s: list[float] = field(default_factory=list)
    trial_round: list[int] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    oracle_calls: list[int] = field(default_factory=list)  # one per trial
    attempted: int = 0
    failed: int = 0
    trials: int = 0  # search trials run, failed ones included
    failed_trials: int = 0
    errors: list[str] = field(default_factory=list)  # operations that crashed
    mismatches: list[str] = field(default_factory=list)  # wrong outputs
    rounds: int = 0
    first_round_records: int = 0
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0
    scan_results: list = field(default_factory=list)
    seen: set = field(default_factory=set)


def max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_child(cmd: list[str], env=None) -> tuple[int, str, str]:
    """Run a child to completion; kill it if it outlives CHILD_TIMEOUT_S.

    Children stay in this process group, so a signal to the group that
    stops the benchmark reaches them (and the CLI's pool workers) too.
    """
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return -1, out, f"timed out after {CHILD_TIMEOUT_S}s\n{err}"
    return proc.returncode, out, err


def _warm_oracle(lengths, probes=None) -> ReferenceFoldOracle:
    oracle = ReferenceFoldOracle()
    for n in sorted(lengths):
        if probes is not None:
            probes.take()
        oracle.fold("A" * n, 1)
    return oracle


class DesignWorkload:
    """inverse_fold over the short campaign targets with one shared oracle.

    Latency is timed per round, one design per target: single designs mix
    13 targets whose costs differ a hundredfold, which makes their
    quantiles jump between targets from run to run.
    """

    name = "design-short"
    op, latency = "design", "round"
    speed_exponent = 1.0  # Python-bound: slows as much as the probe
    rss_of = resource.RUSAGE_SELF
    setup_samples = 5
    round_size = len(SHORT_TARGETS)

    def __init__(self):
        self.targets = tuple(parse_structure(t) for t in SHORT_TARGETS)

    def setup(self, probes=None) -> ReferenceFoldOracle:
        """A shared oracle with every fold length the search will use built."""
        lengths = set()
        for target in self.targets:
            lengths.add(target.n)
            lengths.update(hi - lo + 1 for lo, hi in build_intervals(target).intervals)
        return _warm_oracle(lengths, probes)

    def run_round(self, oracle, seed: int, index: int, out: Outcome, tracer=None):
        for k, target in enumerate(self.targets):
            design = index * self.round_size + k
            out.attempted += 1
            started = time.perf_counter()
            for attempt in range(MAX_ATTEMPTS):
                trial_seed = (seed * 100_000 + design) * MAX_ATTEMPTS + attempt
                record, crashed = self._trial(k, target, oracle, trial_seed, out,
                                              index, tracer)
                if record[2] or crashed:
                    break
            out.latencies_s.append(time.perf_counter() - started)
            out.failed += not record[2]

    def _trial(self, k, target, oracle, trial_seed, out, index, tracer):
        """One inverse_fold trial; returns its record and whether it raised."""
        config = SearchConfig(rng_seed=trial_seed)
        crashed = False
        started = time.perf_counter()
        try:
            if tracer is None:
                result = search.inverse_fold(target, oracle, config)
            else:
                tracer.trial = out.trials
                result = tracer.call(
                    "search.inverse_fold", search.inverse_fold,
                    (target, oracle, config),
                )
            record = (SHORT_TARGETS[k], trial_seed, True, result.sequence,
                      result.oracle_calls)
        except SearchFailed as failure:
            record = (SHORT_TARGETS[k], trial_seed, False, None,
                      failure.oracle_calls)
        except Exception as exc:  # a crashed trial fails its design
            record = (SHORT_TARGETS[k], trial_seed, False, None, 0)
            out.errors.append(f"trial {trial_seed}: {type(exc).__name__}: {exc}")
            crashed = True
        out.trial_latencies_s.append(time.perf_counter() - started)
        out.trial_round.append(index)
        out.trials += 1
        out.failed_trials += not record[2]
        out.oracle_calls.append(record[4])
        out.records.append(record)
        return record, crashed

    def verify(self, out: Outcome) -> list[str]:
        return checks.check_designs(out.records, ReferenceFoldOracle())


class FoldScanWorkload:
    """Direct oracle folds of distinct random sequences, n_best 1 and 50."""

    name = "fold-scan"
    op = latency = "fold"
    speed_exponent = 0.5  # numpy-bound folds slow less than Python code
    rss_of = resource.RUSAGE_SELF
    setup_samples = 3  # each builds the n=24/26/28 tables, ~7 s
    round_size = len(SCAN_SLOTS)

    def setup(self, probes=None) -> ReferenceFoldOracle:
        return _warm_oracle({n for n, _ in SCAN_SLOTS}, probes)

    def run_round(self, oracle, seed: int, index: int, out: Outcome, tracer=None):
        rng = Random(seed * 1_000_003 + index)
        for k, (n, n_best) in enumerate(SCAN_SLOTS):
            seq = "".join(rng.choice("ACGU") for _ in range(n))
            while seq in out.seen:  # the memo must never answer
                seq = "".join(rng.choice("ACGU") for _ in range(n))
            out.seen.add(seq)
            out.attempted += 1
            started = time.perf_counter()
            try:
                if tracer is None:
                    result = oracle.fold(seq, n_best)
                else:
                    tracer.trial = index * self.round_size + k
                    result = tracer.call("harness.op", oracle.fold, (seq, n_best))
            except Exception as exc:  # a crashed fold counts as failed
                out.latencies_s.append(time.perf_counter() - started)
                out.failed += 1
                out.errors.append(f"fold {seq}: {type(exc).__name__}: {exc}")
                out.records.append((seq, n_best, None))
                continue
            out.latencies_s.append(time.perf_counter() - started)
            out.oracle_calls.append(1)
            out.scan_results.append((seq, n_best, result))
            out.records.append((
                seq, n_best,
                [([tuple(a) for a in s.arcs], e)
                 for s, e in zip(result.structures, result.energies)],
            ))

    def verify(self, out: Outcome) -> list[str]:
        return checks.check_folds(out.scan_results)


class CliWorkload:
    """`pkinv inverse --format jsonl` campaigns run as subprocesses.

    A round is one campaign of CLI_TRIALS designs.  The designs a trial
    did not find are asked for again by a campaign of just that many
    trials on the next block of seeds; a one-trial campaign runs in the
    CLI's own process, and costs about half a two-worker one.
    """

    name = "cli-jobs2"
    op, latency = "design", "campaign"
    speed_exponent = 0.5  # start-up, table builds and folds on two cores
    rss_of = resource.RUSAGE_CHILDREN  # the largest CLI process, workers included
    setup_samples = 11  # start-ups of ~0.3 s; more of them steady the median
    round_size = CLI_TRIALS

    def setup(self, probes=None) -> dict:
        """The CLI's environment: this checkout's sources, no PKINV_ options."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("PKINV_")}
        src = str(ROOT / "src")
        paths = [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    @staticmethod
    def command(*args: str) -> list[str]:
        return [sys.executable, "-m", "pkinv.cli", *args]

    def startup_seconds(self, env, probes=None) -> float:
        """Wall time of one CLI start-up (`pkinv --help`), with a speed
        probe just before and just after it."""
        if probes is not None:
            probes.take()
        started = time.perf_counter()
        code, _, err = run_child(self.command("--help"), env)
        elapsed = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"pkinv --help exited {code}: {err.strip()}")
        if probes is not None:
            probes.take()
        return elapsed

    def run_round(self, env, seed: int, index: int, out: Outcome, tracer=None,
                  jobs: int = CLI_JOBS):
        out.attempted += CLI_TRIALS
        missing = CLI_TRIALS
        started = time.perf_counter()
        for attempt in range(MAX_ATTEMPTS):
            first_seed = ((seed * 10_000 + index) * MAX_ATTEMPTS + attempt) * CLI_TRIALS
            found = self._campaign(env, first_seed, missing, jobs, out, tracer)
            if found is None:
                break
            missing -= found
            if not missing:
                break
        out.latencies_s.append(time.perf_counter() - started)
        out.failed += missing

    def _campaign(self, env, first_seed: int, trials: int, jobs: int, out: Outcome,
                  tracer):
        """One CLI campaign; the designs it found, or None if the CLI failed
        otherwise than by finding too few."""
        cmd = self.command(
            "inverse", "--target", CLI_TARGET, "--trials", str(trials),
            "--seed", str(first_seed), "--format", "jsonl", "--jobs", str(jobs),
        )
        if tracer is None:
            code, stdout, stderr = run_child(cmd, env)
        else:
            tracer.trial = out.trials
            code, stdout, stderr = tracer.call("cli.inverse", run_child, (cmd, env))
        out.trials += trials
        if code not in (0, 1):
            # 70: a reported success failed the CLI's own re-verification
            problems = out.mismatches if code == 70 else out.errors
            problems.append(f"pkinv inverse exited {code}: {stderr.strip()[-500:]}")
            out.failed_trials += trials
            return None
        records, report = checks.parse_cli_jsonl(stdout)
        successes = sum(r[2] for r in records)
        if report != {"report": True, "trials": trials, "successes": successes}:
            out.mismatches.append(f"campaign at seed {first_seed}: report {report}")
        seeds = [r[1] for r in records]
        if seeds != [first_seed + t for t in range(trials)]:
            out.mismatches.append(f"campaign at seed {first_seed}: trial seeds {seeds}")
        for record in records:
            out.failed_trials += not record[2]
            out.oracle_calls.append(record[4])
            out.records.append(record)
        return successes

    def verify(self, out: Outcome) -> list[str]:
        return checks.check_designs(out.records, ReferenceFoldOracle())


WORKLOADS = {w.name: w for w in (DesignWorkload, FoldScanWorkload, CliWorkload)}


def speed_probe() -> float:
    """Best of three timings of a fixed pure-Python kernel; runs no pkinv code."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(6_000):
            acc ^= i * i
        words = {str(i): i for i in range(600)}
        best = min(best, time.perf_counter() - started)
    if not (acc and words):
        raise AssertionError("speed probe computed nothing")
    return best


class SetupProbes:
    """Speed probes taken during one set-up, and the seconds they took.

    A set-up sample is scaled by the probes taken within it, not by the
    run's: the host's speed phases last seconds, and the run's median probe
    missed phases that slowed a sub-second set-up by 1.4x.
    """

    def __init__(self):
        self.values: list[float] = []
        self.spent_s = 0.0

    def take(self) -> None:
        started = time.perf_counter()
        self.values.append(speed_probe())
        self.spent_s += time.perf_counter() - started

    def scaled(self, seconds: float) -> float:
        """``seconds`` of set-up at the reference speed."""
        return seconds * REF_PROBE_S / statistics.median(self.values)


def run_pass(workload, ctx, seed: int, *, seconds: float | None = None,
             rounds: int | None = None, tracer=None, **kwargs) -> Outcome:
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    A speed probe runs before the first round and after every round,
    outside the round's own timing.
    """
    out = Outcome()
    out.probes_s.append(speed_probe())
    started = time.perf_counter()
    while True:
        first_op = len(out.latencies_s)
        round_started = time.perf_counter()
        workload.run_round(ctx, seed, out.rounds, out, tracer, **kwargs)
        out.round_s.append(time.perf_counter() - round_started)
        out.probes_s.append(speed_probe())
        out.latency_round += [out.rounds] * (len(out.latencies_s) - first_op)
        out.rounds += 1
        if out.rounds == 1:
            out.first_round_records = len(out.records)
        if not out.peak_rss_mb and out.attempted >= RSS_MARK_OPS:
            out.peak_rss_mb = max_rss_mb(workload.rss_of)
        if rounds is not None:
            if out.rounds >= rounds:
                break
        elif time.perf_counter() - started >= seconds:
            break
    out.elapsed_s = sum(out.round_s)
    out.peak_rss_mb = out.peak_rss_mb or max_rss_mb(workload.rss_of)
    return out


def scaled(out: Outcome, exponent: float):
    """Elapsed time, op latencies, round times and trial latencies at the
    reference speed.

    Each round is scaled by (REF_PROBE_S / p) ** exponent, where p is the
    median of the speed probes taken within two rounds of it.  The host's
    contention swings pure-Python speed by up to 1.7x over 5-30 s; the
    exponents were chosen from ten-seed runs of each workload as the ones
    leaving the smallest run-to-run spread.
    """
    factors = [
        (REF_PROBE_S / statistics.median(out.probes_s[max(0, r - 2): r + 4])) ** exponent
        for r in range(len(out.round_s))
    ]
    rounds = [t * f for t, f in zip(out.round_s, factors)]
    ops = [x * factors[r] for x, r in zip(out.latencies_s, out.latency_round)]
    trials = [x * factors[r] for x, r in zip(out.trial_latencies_s, out.trial_round)]
    return sum(rounds), ops, rounds, trials


def digest_records(out: Outcome) -> str:
    """sha256 over the sorted records of the first round."""
    first = out.records[: out.first_round_records]
    blob = json.dumps(sorted(first, key=repr), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
