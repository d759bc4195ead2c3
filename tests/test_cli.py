"""Command-line behavior: exit codes, formats, determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from pkinv import cli, oracle
from pkinv.cli import main

from .helpers import PSEUDOKNOT_18


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestInverse:
    def test_invalid_target_exits_2(self):
        result = run("inverse", "--target", "((..))")
        assert result.exit_code == 2
        assert "incorrect structure" in result.output

    def test_single_trial_success(self):
        result = run("inverse", "--target", "(((....)))", "--seed", "1")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("target")
        assert set(lines[1]) <= set("ACGU")

    def test_batch_report(self):
        result = run(
            "inverse", "--target", "(((....)))", "--trials", "5", "--seed", "3"
        )
        assert result.exit_code == 0
        report = result.output.strip().splitlines()[-1]
        assert "trials=5" in report and "successes=5" in report

    def test_jsonl_round_trips(self):
        result = run(
            "inverse", "--target", PSEUDOKNOT_18,
            "--trials", "3", "--seed", "1", "--format", "jsonl",
        )
        lines = result.output.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["report"] is True
        for record in records[:-1]:
            assert record["target"] == PSEUDOKNOT_18
            assert isinstance(record["seed"], int)

    def test_jobs_do_not_change_output(self, tmp_path, monkeypatch):
        # 5 trials over 2 or 3 workers: stripes of unequal length, and
        # trial 1, run by worker 1, fails with a reason
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        args = ["inverse", "--target", "(((..[[[..)))..]]]", "--trials", "5",
                "--seed", "2", "--format", "jsonl"]
        serial_trace = tmp_path / "trace1.jsonl"
        serial = run(*args, "--jobs", "1", "--trace", str(serial_trace))
        assert serial.exit_code == 1
        assert '"reason"' in serial.output.splitlines()[1]
        for jobs in ("2", "3"):
            trace = tmp_path / f"trace{jobs}.jsonl"
            result = run(*args, "--jobs", jobs, "--trace", str(trace))
            assert (result.exit_code, result.output) == (1, serial.output)
            assert trace.read_bytes() == serial_trace.read_bytes()

    def test_import_leaves_the_process_pool_out(self):
        # the forked workers need no pool, neither to import nor to run
        code = ("import sys\n"
                "from click.testing import CliRunner\n"
                "import pkinv.cli\n"
                "loaded = sys.modules.keys()"
                " & {'concurrent.futures.process', 'multiprocessing'}\n"
                "result = CliRunner().invoke(pkinv.cli.main, ['inverse',"
                " '--target', '(((....)))', '--jobs', '2', '--trials', '3'])\n"
                "assert result.exit_code == 0, result.output\n"
                "print(sorted(loaded), sorted(sys.modules.keys()"
                " & {'concurrent.futures.process', 'multiprocessing'}))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[] []"

    @pytest.mark.parametrize("failing", [0, 1])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trial_exception_exits_70_and_reaps_workers(
        self, monkeypatch, failing, jobs
    ):
        # trial 0 runs in this process, trial 1 in a forked worker at --jobs 2
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_trial = cli._run_trial

        def faulty(*args):
            if args[-1] == failing:
                raise KeyError("no such loop")
            return run_trial(*args)

        monkeypatch.setattr(cli, "_run_trial", faulty)
        result = CliRunner().invoke(main, ["inverse", "--target", "(((....)))",
                                           "--jobs", jobs, "--trials", "2"])
        assert result.exit_code == 70
        assert result.stdout == ""
        assert result.stderr == (
            f"internal error: trial {failing}: KeyError: 'no such loop'\n"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_lowest_failing_trial_is_reported(self, monkeypatch):
        # this process fails at trial 2, the forked worker at trial 1
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_trial = cli._run_trial

        def faulty(*args):
            if args[-1] >= 1:
                raise ValueError(f"bad {args[-1]}")
            return run_trial(*args)

        monkeypatch.setattr(cli, "_run_trial", faulty)
        result = CliRunner().invoke(main, ["inverse", "--target", "(((....)))",
                                           "--jobs", "2", "--trials", "4"])
        assert result.exit_code == 70
        assert result.stderr == "internal error: trial 1: ValueError: bad 1\n"

    def test_worker_that_dies_exits_70(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_trial = cli._run_trial

        def dying(*args):
            if args[-1] == 1:
                os._exit(3)
            return run_trial(*args)

        monkeypatch.setattr(cli, "_run_trial", dying)
        result = CliRunner().invoke(main, ["inverse", "--target", "(((....)))",
                                           "--jobs", "2", "--trials", "2"])
        assert result.exit_code == 70
        assert result.stderr == (
            "internal error: trial worker 1 exited with status 3 without its "
            "records\n"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_exits_70_and_reaps_workers(self, monkeypatch):
        real_fork, calls = os.fork, []

        def second_fork_fails():
            calls.append(1)
            if len(calls) > 1:
                raise OSError("no process left")
            return real_fork()

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        result = CliRunner().invoke(main, ["inverse", "--target", "(((....)))",
                                           "--jobs", "3", "--trials", "3"])
        assert result.exit_code == 70
        assert result.stderr == "internal error: no process left\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "jobs, trials, cpus, forks",
        [("1000", "5", 2, 1), ("3", "2", 8, 1), ("4", "9", 8, 3),
         ("8", "3", None, 0), ("2", "1", 8, 0), ("2", "0", 8, 0)],
    )
    def test_worker_count_is_bounded(self, monkeypatch, jobs, trials, cpus, forks):
        # a fork past the expected count raises instead of forking
        real_fork, calls = os.fork, []

        def counting_fork():
            calls.append(1)
            if len(calls) > forks:
                raise OSError("one fork too many")
            return real_fork()

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "fork", counting_fork)
        result = run("inverse", "--target", "(((....)))", "--jobs", jobs,
                     "--trials", trials, "--format", "jsonl")
        assert result.exit_code == 0, result.output
        assert len(calls) == forks
        assert len(result.output.splitlines()) == int(trials) + 1

    def test_without_fork_the_campaign_runs_in_this_process(self, monkeypatch):
        serial = run("inverse", "--target", "(((....)))", "--trials", "3",
                     "--format", "jsonl")
        monkeypatch.delattr(os, "fork")
        result = run("inverse", "--target", "(((....)))", "--trials", "3",
                     "--jobs", "3", "--format", "jsonl")
        assert result.exit_code == 0
        assert result.output == serial.output

    def test_target_from_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("(((....)))\n")
        result = run("inverse", "--target", str(path), "--seed", "1")
        assert result.exit_code == 0

    def test_tsv_format(self):
        result = run(
            "inverse", "--target", "(((....)))", "--trials", "2",
            "--seed", "0", "--format", "tsv",
        )
        header, *rows = result.output.strip().splitlines()
        assert header.split("\t") == [
            "trial", "seed", "success", "sequence", "oracle_calls",
        ]
        assert len(rows) == 2

    def test_hundred_trial_campaign_all_succeed(self):
        result = run(
            "inverse", "--target", "(((....)))", "--trials", "100", "--seed", "1"
        )
        assert result.exit_code == 0
        assert "successes=100" in result.output
        assert "rate=100.0%" in result.output

    def test_trace_file_holds_search_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = run(
            "inverse", "--target", "(((....)))", "--trials", "2",
            "--seed", "0", "--trace", str(path),
        )
        assert result.exit_code == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert {event["trial"] for event in events} == {0, 1}
        assert all(event["phase"] in ("adjust", "local") for event in events)

    def test_env_var_overrides_seed(self, monkeypatch):
        monkeypatch.setenv("PKINV_INVERSE_SEED", "9")
        with_env = run("inverse", "--target", "(((....)))", "--format", "jsonl")
        explicit = run("inverse", "--target", "(((....)))", "--seed", "9",
                       "--format", "jsonl")
        assert with_env.output == explicit.output


    def test_campaign_output_is_pinned(self):
        # the jsonl campaign output is a cross-commit determinism contract
        result = run(
            "inverse", "--target", PSEUDOKNOT_18,
            "--trials", "4", "--seed", "5", "--format", "jsonl",
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "6c089675df5810029224cbb5226f58253351849d9a1f3dda48cea3166f40ce7d"
        )

    def test_trace_output_is_pinned(self, tmp_path):
        # each adjust record holds the round's mutation count and fallbacks
        path = tmp_path / "trace.jsonl"
        result = run(
            "inverse", "--target", "(((::[[[::)))::]]]::::::",
            "--trials", "6", "--seed", "3", "--format", "jsonl",
            "--trace", str(path),
        )
        assert result.exit_code == 0
        data = path.read_bytes()
        assert data.count(b"\n") == 63
        assert hashlib.sha256(data).hexdigest() == (
            "de72efb370933ab0a58d629b211c4cae2e973ca37ef57714275fc033b4e03a7a"
        )

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_trace_path_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, where
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_run_trial", no_trial)
        path = tmp_path / "missing" / "t.jsonl" if where == "missing-dir" else tmp_path
        result = CliRunner().invoke(
            main, ["inverse", "--target", "(((....)))", "--trace", str(path)]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for '--trace'" in result.stderr
        assert "Traceback" not in result.output

    def test_text_report_p90_is_nearest_rank(self, monkeypatch):
        def failed_trial(target_text, seed, n_best, policy, model, want_trace,
                         trial):
            return {
                "trial": trial, "seed": seed + trial,
                "target": target_text, "success": False,
                "sequence": None, "oracle_calls": 0, "reason": "budget spent",
                "_elapsed": float(trial + 1),
            }

        monkeypatch.setattr(cli, "_run_trial", failed_trial)
        result = run("inverse", "--target", "(((....)))", "--trials", "5")
        assert result.exit_code == 1
        assert result.output.splitlines()[1] == "Failed! budget spent"
        assert "p90_time=5.000s" in result.output.splitlines()[-1]

    @pytest.mark.parametrize(
        "extra",
        [["-N", "0"], ["--trials", "-1"], ["--jobs", "0"]],
    )
    def test_out_of_range_option_exits_2(self, extra):
        result = run("inverse", "--target", "(((....)))", *extra)
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_policy_option_error_is_not_a_target_error(self):
        result = run("inverse", "--target", "(((....)))", "--k", "1")
        assert result.exit_code == 2
        assert "k must be at least 2" in result.output
        assert "incorrect structure" not in result.output

    def test_target_file_is_closed(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("\n(((....)))\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli._read_structure_argument(str(path)) == "(((....)))"
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_structure_cap_fails_the_trial(self):
        # a fold of the adjust phase would visit more than MAX_STRUCTURES
        # structures; the trial fails instead of raising SizeGuard
        target = ":(((([[[))))((({{{{{::)))]]]::}}}}}:::::"
        result = run("inverse", "--target", target, "--seed", "1",
                     "--format", "jsonl")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # nothing escaped
        assert "Traceback" not in result.output
        record = json.loads(result.output.splitlines()[0])
        assert record["success"] is False and record["target"] == target
        assert "refused" in record["reason"]

    def test_target_past_length_guard_exits_2(self):
        result = run("inverse", "--target", "(((" + ":" * 35 + ")))")
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "length 41 exceeds" in result.output


@pytest.mark.parametrize("command", [
    ["inverse", "--target", "(((....)))"],
    ["fold", "GGGAAAACCC"],
], ids=["inverse", "fold"])
@pytest.mark.parametrize("content", [
    None, "loop.bogus = 1\n", "pair.GC\n",
    "loop.pseudoknot = inf\n", "pair.GC = nan\n",
], ids=["missing", "unknown-key", "no-value", "inf-penalty", "nan-pair"])
def test_model_load_error_exits_2(tmp_path, command, content):
    path = tmp_path / "model.cfg"
    if content is not None:
        path.write_text(content)
    result = run(*command, "--model", str(path))
    assert result.exit_code == 2
    assert "cannot load energy model" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", [
    lambda path: ["inverse", "--target", path],
    lambda path: ["distance", path, "(((....)))"],
    lambda path: ["decompose", path],
], ids=["inverse", "distance", "decompose"])
@pytest.mark.parametrize("make", [
    lambda path: path.write_text(""),
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe(((....)))"),
    None,  # an empty literal in place of a file
], ids=["empty", "directory", "undecodable", "empty-literal"])
def test_unreadable_target_file_exits_2(tmp_path, command, make):
    argument = ""
    if make is not None:
        path = tmp_path / "target"
        make(path)
        argument = str(path)
    result = run(*command(argument))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1
    assert argument in result.output


class TestFoldCommand:
    def test_open_chain(self):
        result = run("fold", "AAAAAAAAAA")
        assert result.exit_code == 0
        assert result.output.strip() == "::::::::::\t0"

    def test_n_best(self):
        result = run("fold", "GGGAAAACCC", "-N", "2")
        lines = result.output.strip().splitlines()
        assert lines[0] == "(((::::)))\t-6"
        assert lines[1] == "::::::::::\t0"

    def test_bad_sequence_exits_2(self):
        result = run("fold", "GGXC")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # nothing escaped
        assert "Traceback" not in result.output
        assert "'X' at position 3" in result.output

    def test_structure_past_three_families_exits_2(self):
        # the second of three co-optimal structures is four mutually
        # crossing stacks, which three bracket families cannot write
        result = run("fold", "GGGCCCGGGCCCCCCGGGCCCGGG", "--k", "5", "-N", "3")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "bracket families" in result.stderr

    def test_output_is_pinned(self):
        # fold -N 50 output is a cross-commit contract, like the campaign's
        sequences = (
            "AGACUUUCAAAGAUAUGCUGGGUA",
            "GGGAACCCAACCCAAGGGAAGGCCUUC",
            "GCGCGCAUAUGCGCGCAUAUGCGCG",
            "GAGGUCGAGGUUAUUAUUUGUUACCA",
            "AUUCUCAUUGUGUUUCGGAACUUGCGUU",
        )
        output = ""
        for seq in sequences:
            result = run("fold", seq, "-N", "50")
            assert result.exit_code == 0
            output += result.output
        assert hashlib.sha256(output.encode()).hexdigest() == (
            "93976f91cd0949ed5eace014d79cb657b35cd310fc2c4a7f5616a55e215d08ca"
        )

    def test_past_structure_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 1000)
        result = run("fold", "GC" * 14)
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert "more than 1000 structures" in result.output

    def test_model_file(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("loop.hairpin=0\n")
        result = run("fold", "GGGAAAACCC", "--model", str(path))
        assert result.output.strip() == "(((::::)))\t-9"


class TestDistanceCommand:
    def test_distance(self):
        result = run("distance", "(((....)))", "(((....)))")
        assert result.output.strip() == "0"

    def test_two_positions(self):
        a = "(((....)))"
        b = "((::....))"  # inner arc removed
        result = run("distance", a, b)
        assert result.output.strip() == "2"

    def test_parse_error_exits_2(self):
        result = run("distance", "(((", ":::")
        assert result.exit_code == 2


class TestDecomposeCommand:
    def test_two_loop_ladder_printed(self):
        # hairpin nested inside a two-arc crossing: (2,8), (3,5), (7,9)
        result = run("decompose", ":((:):[)]:")
        assert result.exit_code == 0
        assert "intervals\t[3,5] [3,6] [2,9] [1,10]" in result.output

    def test_interval_line(self):
        result = run("decompose", "(((....)))")
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("hairpin\ta=[1,10]\tb=[1,10]")
        assert lines[-1] == "intervals\t[1,10]"

    def test_invalid_exits_2(self):
        result = run("decompose", "(((")
        assert result.exit_code == 2
