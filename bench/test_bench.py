"""Self-test of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Runs every workload for one round, untraced and traced, and checks that
each metric BENCHMARK.json declares is printed with its unit; checks that
the gates reject wrong designs and wrong fold lists.  Table builds up to
n=28 make the full file take a couple of minutes.
"""

import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pkinv import (  # noqa: E402
    FoldResult,
    ReferenceFoldOracle,
    SearchFailed,
    parse_structure,
    random_compatible_sequence,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    return done, json.loads(last)


def _printed_metrics(stdout: str) -> dict[str, str]:
    return {
        line.split()[1]: line.split()[3]
        for line in stdout.splitlines() if line.startswith("metric ")
    }


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_with_its_unit(name):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done, result = _bench("--workload", name, "--seed", "3",
                              "--seconds", "0.05", "--trace", str(trace))
        assert done.returncode == 0, done.stderr[-2000:]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = _printed_metrics(done.stdout)
        assert all(printed.get(n) == u for n, u in declared.items())
        digests += [l.split()[1] for l in done.stdout.splitlines()
                    if l.startswith("designs_sha256 ")]
        if trace:
            assert result["metrics"]["trace.digest_match"]["value"] == 1.0
    assert len(digests) == 2 and digests[0] == digests[1]


def _misfolding_design(target_text: str) -> str:
    target = parse_structure(target_text)
    oracle, rng = ReferenceFoldOracle(), Random(0)
    while True:
        seq = random_compatible_sequence(target, rng)
        if oracle.fold(seq, 1).mfe.arcs != target.arcs:
            return seq


def test_gate_rejects_a_design_that_folds_elsewhere():
    target = "(((::[[[::)))::]]]"
    wrong = _misfolding_design(target)
    records = [(target, 0, True, wrong, 10)]
    assert checks.check_designs(records, ReferenceFoldOracle())
    line = json.dumps({"target": target, "seed": 0, "success": True,
                       "sequence": wrong, "oracle_calls": 10, "trial": 0})
    parsed, _ = checks.parse_cli_jsonl(line + "\n")
    assert checks.check_designs(parsed, ReferenceFoldOracle())
    assert not checks.check_designs([(target, 0, False, None, 10)],
                                    ReferenceFoldOracle())


def test_gate_rejects_a_wrong_fold_list():
    seq = "GGGAACCCAACCCAAGGG"
    good = ReferenceFoldOracle().fold(seq, 5)
    assert not checks.check_folds([(seq, 5, good)])
    unsorted = FoldResult(good.structures[::-1], good.energies[::-1])
    shifted = FoldResult(good.structures, tuple(e - 1 for e in good.energies))
    assert checks.check_folds([(seq, 5, unsorted)])
    assert checks.check_folds([(seq, 5, shifted)])
    assert checks.check_folds([(seq, 2, good)])


def test_run_exits_nonzero_when_a_reported_design_is_wrong(monkeypatch, capsys):
    real = workloads.search.inverse_fold

    def misreporting(target, oracle, config):
        result = real(target, oracle, config)
        return type(result)(_misfolding_design(str(target)), result.target,
                            result.oracle_calls, result.trace)

    monkeypatch.setattr(workloads.search, "inverse_fold", misreporting)
    code = run.main(["--workload", "design-short", "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["correct"] is False


def test_a_design_reruns_failed_trials_and_fails_only_when_all_do(monkeypatch):
    real = workloads.search.inverse_fold
    seeds = []

    def every_other(target, oracle, config):
        seeds.append(config.rng_seed)
        if len(seeds) % 2:
            raise SearchFailed(target, None, 7)
        return real(target, oracle, config)

    workload = workloads.DesignWorkload()
    monkeypatch.setattr(workloads.search, "inverse_fold", every_other)
    out = workloads.run_pass(workload, workload.setup(), 4, rounds=1)
    assert (out.attempted, out.failed) == (13, 0)
    # one success per design; the real search may fail a second attempt too
    assert out.trials == 13 + out.failed_trials and out.failed_trials >= 13
    assert len(set(seeds)) == out.trials and not checks.check_designs(
        out.records, ReferenceFoldOracle())

    def never(target, oracle, config):
        raise SearchFailed(target, None, 7)

    monkeypatch.setattr(workloads.search, "inverse_fold", never)
    out = workloads.run_pass(workload, None, 4, rounds=1)
    assert (out.attempted, out.failed) == (13, 13)
    assert out.trials == out.failed_trials == 13 * workloads.MAX_ATTEMPTS
