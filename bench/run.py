"""pkinv benchmark: design trials, direct folds and CLI campaigns, end to end.

    python3 bench/run.py --workload design-short --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``), each a closed loop with one client:
``design-short`` runs ``inverse_fold`` over 13 frozen campaign targets
with one shared oracle, ``fold-scan`` calls ``ReferenceFoldOracle.fold``
on distinct random sequences, and ``cli-jobs2`` runs
``pkinv inverse --jobs 2`` campaigns as subprocesses.  An operation of
the design workloads is a design, rerun on a fresh seed after a trial
that found none; ``failed_share`` reports the share of such trials.

``--trace 0`` measures untraced and prints the ``end_to_end`` metrics of
BENCHMARK.json.  Throughput and latency are scaled to a reference
machine speed measured by a probe between rounds (``workloads.scaled``);
the raw wall-clock readings are printed beside them.  ``setup_s`` is the
median of several set-ups, each from a fresh process until the first
timed operation could start, scaled by speed probes taken during it
(``workloads.SetupProbes``).

``--trace 1`` runs a traced pass (spans at the public boundaries of
``pkinv.search`` and at the oracle), replays the same operations
untraced to price the tracing and prove it changed nothing, times a
first fold per length in fresh processes, and prints the ``per_layer``
metrics.  Per-layer metrics of a layer the workload does not reach read 0.

Outputs are checked after the timed region; a wrong output ends the run
with exit code 1.  The last stdout line is one JSON object; a copy with
run metadata goes to ``.bench_out/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

WARM_LENGTHS = (18, 22, 24, 26, 28)
# First-fold seconds of the ROADMAP baseline at n = 18 / 22 / 24 / 26 / 28;
# the warm pass reports its own timings as ratios to these.
ROADMAP_WARM_S = {18: 0.011, 22: 0.115, 24: 0.42, 26: 1.6, 28: 5.5}


def _rss_now_mb() -> float:
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_peak_mb() -> float:
    """This process's own peak RSS.  Not ru_maxrss: across fork and exec
    that keeps the parent's peak, so a probe would report the benchmark's."""
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024


def _child_json(args: list[str]) -> dict:
    import workloads

    code, out, err = workloads.run_child([sys.executable, str(HERE / "run.py"), *args])
    if code != 0:
        raise RuntimeError(f"probe {args} exited {code}: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def probe_setup(name: str) -> None:
    import workloads

    probes = workloads.SetupProbes()
    workloads.WORKLOADS[name]().setup(probes)
    setup_s = time.perf_counter() - STARTED - probes.spent_s
    probes.take()
    print(json.dumps({"setup_s": setup_s, "scaled_s": probes.scaled(setup_s)}))


def probe_warm(length: int) -> None:
    from pkinv import ReferenceFoldOracle

    oracle = ReferenceFoldOracle()
    before = _rss_now_mb()
    started = time.perf_counter()
    oracle.fold("A" * length, 1)
    warm = time.perf_counter() - started
    print(json.dumps({"warm_s": warm, "rss_before_mb": before,
                      "rss_after_mb": _rss_peak_mb()}))


def run_metadata(args) -> dict:
    from importlib.metadata import version

    import numpy

    def git(*cmd):
        try:
            done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
    }


def _p50_p90(values_s: list[float]) -> tuple[float, float]:
    ms = [1e3 * x for x in values_s]
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def end_to_end(workload, out, setup: list[tuple[float, float]]) -> dict:
    """BENCHMARK.json's end-to-end metrics, then the same under per-workload
    names, then figures printed but not bounded.

    Latency is timed per operation when the workload's latency unit is its
    operation (a fold), else per round (a design round, a CLI campaign).
    ``setup`` holds (raw, scaled) seconds per set-up sample.
    """
    import workloads

    setup_s = statistics.median(scaled for _, scaled in setup)
    scaled_s, scaled_ops, scaled_rounds, scaled_trials = workloads.scaled(
        out, workload.speed_exponent)
    per_op = workload.latency == workload.op
    p50, p90 = _p50_p90(scaled_ops if per_op else scaled_rounds)
    raw_p50, raw_p90 = _p50_p90(out.latencies_s if per_op else out.round_s)
    generic = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (out.attempted / scaled_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }
    op, unit = workload.op, workload.latency
    named = {
        f"{op}s_per_s": generic["ops_per_s"],
        f"{unit}_p50_ms": generic["latency_p50_ms"],
        f"{unit}_p90_ms": generic["latency_p90_ms"],
        f"{unit}_samples": (float(len(scaled_ops if per_op else scaled_rounds)), "count"),
    }
    if len(scaled_ops) > len(scaled_rounds):  # more than one timed op per round
        op_p50, op_p90 = _p50_p90(scaled_ops)
        named.update({f"{op}_p50_ms": (op_p50, "ms"), f"{op}_p90_ms": (op_p90, "ms")})
    if out.trials:
        named["trials_per_s"] = (out.trials / scaled_s, "1/s")
    if scaled_trials:
        trial_p50, trial_p90 = _p50_p90(scaled_trials)
        named.update({"trial_p50_ms": (trial_p50, "ms"), "trial_p90_ms": (trial_p90, "ms")})
    per = "trial" if out.trials else op
    return {
        **generic,
        **named,
        f"oracle_calls_per_{per}": (statistics.fmean(out.oracle_calls or [0]), "count"),
        "failed_share": ((out.failed_trials if out.trials else out.failed)
                         / (out.trials or out.attempted), "ratio"),
        f"raw_{op}s_per_s": (out.attempted / out.elapsed_s, "1/s"),
        f"raw_{unit}_p50_ms": (raw_p50, "ms"),
        f"raw_{unit}_p90_ms": (raw_p90, "ms"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setup), "s"),
        "speed_probe_ms": (1e3 * statistics.median(out.probes_s), "ms"),
    }


def measure_setup(workload, ctx, main_sample) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds: this process plus fresh ones, or CLI
    start-ups."""
    import workloads

    if workload.name == "cli-jobs2":
        samples = []
        for _ in range(workload.setup_samples):
            probes = workloads.SetupProbes()
            raw = workload.startup_seconds(ctx, probes)
            samples.append((raw, probes.scaled(raw)))
        return samples
    children = [_child_json(["--probe", "setup", "--workload", workload.name])
                for _ in range(workload.setup_samples - 1)]
    return [main_sample, *((c["setup_s"], c["scaled_s"]) for c in children)]


def warm_pass() -> dict:
    """First-fold seconds and RSS growth per length, each in a fresh process."""
    metrics = {}
    for n in WARM_LENGTHS:
        probe = _child_json(["--probe", "warm", "--length", str(n)])
        metrics[f"oracle.warm_s.n{n}"] = (probe["warm_s"], "s")
        metrics[f"oracle.warm_vs_roadmap.n{n}"] = (
            probe["warm_s"] / ROADMAP_WARM_S[n], "ratio")
        metrics[f"oracle.rss_growth_mb.n{n}"] = (
            probe["rss_after_mb"] - probe["rss_before_mb"], "MB")
    metrics["oracle.rss_after_warm_mb"] = (probe["rss_after_mb"], "MB")
    return metrics


def _rate(workload, out) -> float:
    import workloads

    return out.attempted / workloads.scaled(out, workload.speed_exponent)[0]


def traced_run(workload, ctx, args, main_setup_s: float, import_s: float):
    """Traced pass, untraced replay of the same operations, warm pass."""
    import layers
    import spans
    import workloads
    from pkinv import SearchConfig

    tracer = spans.Tracer()
    problems: list[str] = []
    cli = {"cli.startup_s": (0.0, "s"), "cli.wall_s.jobs1": (0.0, "s"),
           "cli.wall_s.jobs2": (0.0, "s"), "cli.jobs2_speedup": (0.0, "ratio")}
    same_output = False
    if workload.name == "cli-jobs2":
        startup = measure_setup(workload, ctx, None)
        traced = workloads.run_pass(workload, ctx, args.seed, seconds=args.seconds,
                                    tracer=tracer)
        replay = workloads.run_pass(workload, ctx, args.seed, rounds=traced.rounds)
        jobs1 = workloads.run_pass(workload, ctx, args.seed, rounds=traced.rounds,
                                   jobs=1)
        same_output = jobs1.records == replay.records
        if not same_output:
            problems.append("--jobs 1 and --jobs 2 campaigns printed different designs")
        cli = {
            "cli.startup_s": (statistics.median(raw for raw, _ in startup), "s"),
            "cli.wall_s.jobs1": (jobs1.elapsed_s, "s"),
            "cli.wall_s.jobs2": (replay.elapsed_s, "s"),
            "cli.jobs2_speedup": (_rate(workload, replay) / _rate(workload, jobs1),
                                  "ratio"),
        }
        warm_share = 0.0
    else:
        oracle = spans.TracedOracle(ctx, tracer)
        with tracer.installed():
            traced = workloads.run_pass(workload, oracle, args.seed,
                                        seconds=args.seconds, tracer=tracer)
        replay = workloads.run_pass(workload, workload.setup(), args.seed,
                                    rounds=traced.rounds)
        warm_share = (main_setup_s - import_s) / main_setup_s
    if traced.records != replay.records:
        problems.append("traced and untraced passes produced different records")

    metrics = layers.summarize(tracer.spans, traced.trials or traced.attempted,
                               SearchConfig().distance_slack)
    if workload.name == "cli-jobs2":  # counted by the CLI, read from its jsonl
        metrics["oracle.fold_calls_per_trial"] = (
            statistics.fmean(replay.oracle_calls or [0]), "count")
    metrics.update(cli)
    metrics.update(warm_pass())
    metrics.update({
        "setup.warm_share": (warm_share, "ratio"),
        "trace.traced_ops_per_s": (_rate(workload, traced), "1/s"),
        "trace.untraced_ops_per_s": (_rate(workload, replay), "1/s"),
        "trace.overhead_ratio": (
            _rate(workload, replay) / _rate(workload, traced) - 1.0, "ratio"),
        "trace.digest_match": (
            float(workloads.digest_records(traced) == workloads.digest_records(replay)),
            "count"),
    })
    purpose = {
        "design-short": ("search self time is the largest layer share",
                         layers.largest_layer(metrics) == "search"),
        "fold-scan": ("no search spans, and oracle warm-up is most of set-up",
                      metrics["search.spans"][0] == 0 and warm_share > 0.5),
        "cli-jobs2": ("--jobs 1 and --jobs 2 print the same designs", same_output),
    }[workload.name]
    metrics["purpose.confirmed"] = (float(purpose[1]), "count")
    print(f"purpose {workload.name}: {purpose[0]}: {'yes' if purpose[1] else 'NO'}")
    return traced, replay, metrics, problems, tracer.spans


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "warm"), help=argparse.SUPPRESS)
    parser.add_argument("--length", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pkinv" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"pkinv sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe == "warm":
        probe_warm(args.length)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.probe == "setup":
        probe_setup(args.workload)
        return 0

    workload = workloads.WORKLOADS[args.workload]()
    import_s = time.perf_counter() - STARTED
    probes = workloads.SetupProbes()
    ctx = workload.setup(probes)
    main_setup_s = time.perf_counter() - STARTED - probes.spent_s
    probes.take()
    print(f"pkinv-bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    meta = run_metadata(args)
    print(f"meta {json.dumps(meta, sort_keys=True)}")

    setup_samples, span_list = [], []
    if args.trace:
        out, replay, metrics, problems, span_list = traced_run(
            workload, ctx, args, main_setup_s, import_s)
        problems += workload.verify(replay)
    else:
        out = workloads.run_pass(workload, ctx, args.seed, seconds=args.seconds)
        setup_samples = measure_setup(
            workload, ctx, (main_setup_s, probes.scaled(main_setup_s)))
        metrics = end_to_end(workload, out, setup_samples)
        problems = []
    problems += out.mismatches + workload.verify(out)
    digest = workloads.digest_records(out)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"designs_sha256 {digest}")
    for error in out.errors:
        print(f"failed-op {error}")
    for problem in problems:
        print(f"MISMATCH {problem}")

    declared = declared_metrics(args.trace)
    wrong = [n for n, u in declared.items() if n not in metrics or metrics[n][1] != u]
    if wrong:
        print(f"harness error: metrics missing or in another unit: {wrong}",
              file=sys.stderr)
        return 3
    result = {
        "correct": not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in declared.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = str(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    Path(stem + ".json").write_text(json.dumps({
        "meta": meta, "designs_sha256": digest, "setup_samples_s": setup_samples,
        "rounds": out.rounds, "trials": out.trials, "failed_trials": out.failed_trials,
        "errors": out.errors, "mismatches": problems,
        "round_s": out.round_s, "probes_s": out.probes_s,
        "latencies_s": out.latencies_s, "latency_round": out.latency_round,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "result": result,
    }, indent=1))
    if span_list:
        with open(stem + ".spans.jsonl", "w") as handle:
            for span in span_list:
                handle.write(json.dumps(span.to_json()) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
