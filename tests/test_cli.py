"""Command-line behavior: exit codes, formats, determinism."""

import errno
import gc
import hashlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

import pytest

import pkinv
from pkinv import cli, oracle

from .helpers import (PSEUDOKNOT_18, cli_process, invoke, python_process,
                      run_python)


class TestInverse:
    def test_invalid_target_exits_2(self):
        result = invoke("inverse", "--target", "((..))")
        assert result.exit_code == 2
        assert "incorrect structure" in result.output

    def test_single_trial_success(self):
        result = invoke("inverse", "--target", "(((....)))", "--seed", "1")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("target")
        assert set(lines[1]) <= set("ACGU")

    def test_batch_report(self):
        result = invoke(
            "inverse", "--target", "(((....)))", "--trials", "5", "--seed", "3"
        )
        assert result.exit_code == 0
        report = result.output.strip().splitlines()[-1]
        assert "trials=5" in report and "successes=5" in report

    def test_jsonl_round_trips(self):
        result = invoke(
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
        args = ["inverse", "--target", ":::::::::(((:::)))::::", "--trials", "5",
                "--seed", "14", "--format", "jsonl"]
        serial_trace = tmp_path / "trace1.jsonl"
        serial = invoke(*args, "--jobs", "1", "--trace", str(serial_trace))
        assert serial.exit_code == 1
        assert '"reason"' in serial.output.splitlines()[1]
        for jobs in ("2", "3"):
            trace = tmp_path / f"trace{jobs}.jsonl"
            result = invoke(*args, "--jobs", jobs, "--trace", str(trace))
            assert (result.exit_code, result.output) == (1, serial.output)
            assert trace.read_bytes() == serial_trace.read_bytes()

    def test_whole_process_campaign_equals_the_in_process_run(self, tmp_path):
        # invoke returns before the interpreter's exit, which flushes the
        # streams and skips the collection of what it froze
        args = ["inverse", "--target", ":::::::::(((:::)))::::", "--trials", "5",
                "--seed", "14", "--format", "jsonl", "--jobs", "2"]
        process_trace = tmp_path / "process.jsonl"
        done = cli_process(*args, "--trace", str(process_trace))
        runner_trace = tmp_path / "runner.jsonl"
        result = invoke(*args, "--trace", str(runner_trace))
        assert result.exit_code == 1  # trial 1 fails, as at --jobs 1
        assert (done.returncode, done.stderr) == (1, b"")
        assert result.stderr == ""
        assert done.stdout == result.output.encode()
        assert process_trace.read_bytes() == runner_trace.read_bytes()

    def test_import_leaves_the_process_pool_out(self):
        # the forked workers need no pool, neither to import nor to run, and
        # the engine is loaded before the fork, so no worker imports it;
        # main runs directly, as tests.helpers would load the engine first
        code = ("import os, sys\n"
                "import pkinv.cli\n"
                "loaded = sys.modules.keys()"
                " & {'concurrent.futures.process', 'multiprocessing'}\n"
                "forks, fork = [], os.fork\n"
                "def recording_fork():\n"
                "    forks.append('pkinv.search' in sys.modules)\n"
                "    return fork()\n"
                "os.fork, os.cpu_count = recording_fork, lambda: 2\n"
                "try:\n"
                "    pkinv.cli.main(['inverse', '--target', '(((....)))',"
                " '--jobs', '2', '--trials', '3'])\n"
                "except SystemExit as exit:\n"
                "    assert exit.code == 0, exit.code\n"
                "print(sorted(loaded), sorted(sys.modules.keys()"
                " & {'concurrent.futures.process', 'multiprocessing'}), forks)")
        assert run_python(code).splitlines()[-1] == "[] [] [True]"

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
        result = invoke("inverse", "--target", "(((....)))", "--jobs", jobs,
                        "--trials", "2")
        assert result.exit_code == 70
        assert result.output == result.stderr  # nothing on stdout
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
        result = invoke("inverse", "--target", "(((....)))", "--jobs", "2",
                        "--trials", "4")
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
        result = invoke("inverse", "--target", "(((....)))", "--jobs", "2",
                        "--trials", "2")
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
        result = invoke("inverse", "--target", "(((....)))", "--jobs", "3",
                        "--trials", "3")
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
        result = invoke("inverse", "--target", "(((....)))", "--jobs", jobs,
                        "--trials", trials, "--format", "jsonl")
        assert result.exit_code == 0, result.output
        assert len(calls) == forks
        assert len(result.output.splitlines()) == int(trials) + 1

    def test_without_fork_the_campaign_runs_in_this_process(self, monkeypatch):
        serial = invoke("inverse", "--target", "(((....)))", "--trials", "3",
                        "--format", "jsonl")
        monkeypatch.delattr(os, "fork")
        result = invoke("inverse", "--target", "(((....)))", "--trials", "3",
                        "--jobs", "3", "--format", "jsonl")
        assert result.exit_code == 0
        assert result.output == serial.output

    def test_target_from_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("(((....)))\n")
        result = invoke("inverse", "--target", str(path), "--seed", "1")
        assert result.exit_code == 0

    def test_tsv_format(self):
        result = invoke(
            "inverse", "--target", "(((....)))", "--trials", "2",
            "--seed", "0", "--format", "tsv",
        )
        header, *rows = result.output.strip().splitlines()
        assert header.split("\t") == [
            "trial", "seed", "success", "sequence", "oracle_calls",
        ]
        assert len(rows) == 2

    def test_hundred_trial_campaign_all_succeed(self):
        result = invoke(
            "inverse", "--target", "(((....)))", "--trials", "100", "--seed", "1"
        )
        assert result.exit_code == 0
        assert "successes=100" in result.output
        assert "rate=100.0%" in result.output

    def test_trace_file_holds_search_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = invoke(
            "inverse", "--target", "(((....)))", "--trials", "2",
            "--seed", "0", "--trace", str(path),
        )
        assert result.exit_code == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert {event["trial"] for event in events} == {0, 1}
        assert all(event["phase"] in ("adjust", "local") for event in events)

    def test_env_var_overrides_seed(self, monkeypatch):
        monkeypatch.setenv("PKINV_INVERSE_SEED", "9")
        with_env = invoke("inverse", "--target", "(((....)))", "--format", "jsonl")
        explicit = invoke("inverse", "--target", "(((....)))", "--seed", "9",
                          "--format", "jsonl")
        assert with_env.output == explicit.output


    def test_format_variable_sets_the_format(self, monkeypatch):
        args = ["inverse", "--target", "(((....)))", "--trials", "2"]
        jsonl = invoke(*args, "--format", "jsonl")
        tsv = invoke(*args, "--format", "tsv")
        monkeypatch.setenv("PKINV_INVERSE_FORMAT", "jsonl")
        assert invoke(*args) == jsonl
        assert invoke(*args, "--format", "tsv") == tsv  # the command line wins
        monkeypatch.setenv("PKINV_INVERSE_FORMAT", "xml")
        result = invoke(*args)
        assert result.exit_code == 2
        assert "--format" in result.stderr and "xml" in result.stderr

    def test_trace_variable_names_the_trace_file(self, tmp_path, monkeypatch):
        args = ["inverse", "--target", "(((....)))", "--trials", "2"]
        explicit = tmp_path / "explicit.jsonl"
        assert invoke(*args, "--trace", str(explicit)).exit_code == 0
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("PKINV_INVERSE_TRACE", str(path))
        assert invoke(*args).exit_code == 0
        assert path.read_bytes() == explicit.read_bytes() != b""


    def test_campaign_output_is_pinned(self):
        # the jsonl campaign output is a cross-commit determinism contract
        result = invoke(
            "inverse", "--target", PSEUDOKNOT_18,
            "--trials", "4", "--seed", "5", "--format", "jsonl",
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "505bec98f3a5d1653d0a92f5e69c388d39ab7c5cee5d5bba5ea514c7b4042cae"
        )

    def test_trace_output_is_pinned(self, tmp_path):
        # each adjust record holds the round's mutation count and fallbacks
        path = tmp_path / "trace.jsonl"
        result = invoke(
            "inverse", "--target", "(((::[[[::)))::]]]::::::",
            "--trials", "6", "--seed", "3", "--format", "jsonl",
            "--trace", str(path),
        )
        assert result.exit_code == 0
        data = path.read_bytes()
        assert data.count(b"\n") == 43
        assert hashlib.sha256(data).hexdigest() == (
            "ae24ce400cd08b3b03fd9df6e749a350579d18bb88f39339040f0f870488455a"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("trials", [3, 60])
    def test_trace_that_cannot_be_written_exits_2(self, trials):
        # 3 trials' trace fits the write buffer and fails only when flushed;
        # 60 trials' trace fails at a write
        result = invoke("inverse", "--target", "(((....)))", "--trials",
                        str(trials), "--format", "jsonl", "--trace", "/dev/full")
        assert result.exit_code == 2
        assert result.output == result.stderr  # nothing on stdout
        assert result.stderr.startswith("cannot write --trace file /dev/full: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_trace_path_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, where
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_run_trial", no_trial)
        path = tmp_path / "missing" / "t.jsonl" if where == "missing-dir" else tmp_path
        result = invoke("inverse", "--target", "(((....)))", "--trace", str(path))
        assert result.exit_code == 2
        assert result.output == result.stderr  # nothing on stdout
        assert "argument --trace: cannot open" in result.stderr
        assert "Traceback" not in result.output

    def test_zero_trials_report_no_seed_range(self):
        result = invoke("inverse", "--target", "(((....)))", "--trials", "0")
        assert result.exit_code == 0
        assert result.output.splitlines()[-1].endswith(" seeds=none")
        result = invoke("inverse", "--target", "(((....)))", "--trials", "1",
                        "--seed", "4")
        assert result.output.splitlines()[-1].endswith(" seeds=4..4")

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
        result = invoke("inverse", "--target", "(((....)))", "--trials", "5")
        assert result.exit_code == 1
        assert result.output.splitlines()[1] == "Failed! budget spent"
        assert "p90_time=5.000s" in result.output.splitlines()[-1]

    @pytest.mark.parametrize(
        "extra",
        [["-N", "0"], ["--trials", "-1"], ["--jobs", "0"]],
    )
    def test_out_of_range_option_exits_2(self, extra):
        result = invoke("inverse", "--target", "(((....)))", *extra)
        assert result.exit_code == 2
        assert result.output == result.stderr  # nothing on stdout
        assert result.stderr.startswith("usage: pkinv inverse")

    def test_target_with_illegal_character_exits_2(self):
        result = invoke("inverse", "--target", "(((..x.)))")
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "incorrect structure", "illegal character 'x' at position 6"]

    def test_success_that_fails_re_verification_exits_70(self, monkeypatch):
        def misfolding_trial(target_text, seed, n_best, policy, model,
                             want_trace, trial):
            return {
                "trial": trial, "seed": seed + trial, "target": target_text,
                "success": True, "sequence": "AAAAAAAAAA", "oracle_calls": 1,
                "_elapsed": 0.0,
            }

        monkeypatch.setattr(cli, "_run_trial", misfolding_trial)
        result = invoke("inverse", "--target", "(((....)))")
        assert result.exit_code == 70
        assert result.output == result.stderr  # nothing on stdout
        assert "reported success failed re-verification" in result.stderr

    def test_policy_option_error_is_not_a_target_error(self):
        result = invoke("inverse", "--target", "(((....)))", "--k", "1")
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

    def test_structure_cap_fails_the_trial(self, monkeypatch):
        # under a lowered cap, the adjust phase's first fold would visit
        # more than MAX_STRUCTURES structures; the trial fails instead of
        # raising SizeGuard.  The default cap refuses no fold of this design
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 20_000)
        target = ":(((([[[))))((({{{{{::)))]]]::}}}}}:::::"
        result = invoke("inverse", "--target", target, "--seed", "1",
                        "--format", "jsonl")
        assert result.exit_code == 1  # and nothing escaped: invoke raises it
        assert "Traceback" not in result.output
        record = json.loads(result.output.splitlines()[0])
        assert record["success"] is False and record["target"] == target
        assert "refused" in record["reason"]

    def test_target_past_40_designs(self):
        target = "(((" + ":" * 35 + ")))"
        result = invoke("inverse", "--target", target, "--seed", "9",
                        "--format", "jsonl")
        assert result.exit_code == 0
        record = json.loads(result.output.splitlines()[0])
        assert record["success"] is True and len(record["sequence"]) == 41

    def test_candidate_cap_fails_the_trial(self, monkeypatch):
        # a cost refusal is a failed trial, not an invalid input
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 0)
        result = invoke("inverse", "--target", "(((....)))", "--format", "jsonl")
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        record = json.loads(result.output.splitlines()[0])
        assert record["success"] is False
        assert "more than 0 candidate stacks" in record["reason"]


@pytest.mark.parametrize("command", [
    ["inverse", "--target", "(((....)))"],
    ["fold", "GGGAAAACCC"],
], ids=["inverse", "fold"])
@pytest.mark.parametrize("content", [
    None, "loop.bogus = 1\n", "pair.GC\n",
    "loop.pseudoknot = inf\n", "pair.GC = nan\n", "pair.GC = -3\npair.GC = -9\n",
], ids=["missing", "unknown-key", "no-value", "inf-penalty", "nan-pair",
        "repeated-key"])
def test_model_load_error_exits_2(tmp_path, command, content):
    path = tmp_path / "model.cfg"
    if content is not None:
        path.write_text(content)
    result = invoke(*command, "--model", str(path))
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
    result = invoke(*command(argument))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1
    assert argument in result.output


INVERSE = ["inverse", "--target", "(((....)))", "--format", "jsonl"]
FOLD = ["fold", "GGGAAAACCC"]


@pytest.mark.parametrize("variable, value, command, named", [
    ("PKINV_INVERSE_TARGET", "(((....)))", ["inverse", "--format", "jsonl"], False),
    ("PKINV_INVERSE_TRIALS", "2", INVERSE, False),
    ("PKINV_INVERSE_SEED", "9", INVERSE, False),
    ("PKINV_INVERSE_N_BEST", "0", INVERSE, True),
    ("PKINV_INVERSE_K", "1", INVERSE, False),
    ("PKINV_INVERSE_SIGMA", "4", INVERSE, False),
    ("PKINV_INVERSE_MIN_ARC_LENGTH", "6", INVERSE, False),
    ("PKINV_INVERSE_MODEL", "missing.cfg", INVERSE, True),
    ("PKINV_INVERSE_JOBS", "0", INVERSE, True),
    ("PKINV_FOLD_N_BEST", "2", FOLD, False),
    ("PKINV_FOLD_K", "1", FOLD, False),
    ("PKINV_FOLD_SIGMA", "4", FOLD, False),
    ("PKINV_FOLD_MIN_ARC_LENGTH", "6", FOLD, False),
    ("PKINV_FOLD_MODEL", "missing.cfg", FOLD, True),
])
def test_environment_variable_acts_as_its_option(
    tmp_path, monkeypatch, variable, value, command, named
):
    # PKINV_<COMMAND>_<LONG OPTION> gives the option's value; a bad one is
    # an error that names the option, as on the command line
    monkeypatch.chdir(tmp_path)
    option = "--" + variable.split("_", 2)[2].lower().replace("_", "-")
    explicit = invoke(*command, option, value)
    assert explicit != invoke(*command)
    monkeypatch.setenv(variable, value)
    assert invoke(*command) == explicit
    if named:
        assert explicit.exit_code == 2
        assert option in explicit.stderr


@pytest.mark.parametrize("args, reason", [
    ([], ""),
    (["bogus"], "bogus"),
    (["inverse", "--target", "(((....)))", "--tri", "2"], "--tri"),
], ids=["no-command", "unknown-command", "abbreviated-option"])
def test_usage_error_exits_2(args, reason):
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.output == result.stderr != ""  # nothing on stdout
    assert reason in result.stderr


@pytest.mark.parametrize("args", [
    ["--help"],
    ["--version"],
    ["fold", "GGGAAAACCC"],
    ["distance", "(((....)))", "((......))"],
    ["decompose", PSEUDOKNOT_18],
    ["inverse", "--target", "(((::[[[::)))::]]]::::::", "--trials", "2",
     "--jobs", "2", "--format", "jsonl"],
], ids=["help", "version", "fold", "distance", "decompose", "inverse"])
def test_commands_run_without_click(args):
    code = ("import sys\n"
            "sys.modules['click'] = None\n"  # import click raises ImportError
            "from pkinv.cli import main\n"
            "try:\n"
            f"    main({args!r})\n"
            "except SystemExit as exit:\n"
            "    assert exit.code in (None, 0), exit.code\n")
    done = cli_process(*args)
    assert done.returncode == 0
    assert python_process(code).stdout == done.stdout.decode()


class TestStartup:
    def test_version_is_the_project_version(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
        assert version == pkinv.__version__ == "0.1.0"
        result = invoke("--version")
        assert result.exit_code == 0
        assert result.output.split()[-1] == pkinv.__version__

    @pytest.mark.parametrize("args, engine", [
        (["--help"], set()),
        (["--version"], set()),
        (["distance", "(((....)))", "((......))"], {"structure"}),
        (["decompose", PSEUDOKNOT_18], {"loops", "structure"}),
        (["fold", "GGGAAAACCC"], {"loops", "oracle", "sequences", "structure"}),
        (["inverse", "--target", "(((....)))"],
         {"loops", "oracle", "search", "sequences", "structure"}),
    ], ids=["help", "version", "distance", "decompose", "fold", "inverse"])
    def test_commands_load_only_the_engine_they_call(self, args, engine):
        # nor the argument parser's former and heavier dependencies
        code = ("import sys\n"
                "from pkinv.cli import main\n"
                "try:\n"
                f"    main({args!r})\n"
                "except SystemExit as exit:\n"
                "    assert exit.code in (None, 0), exit.code\n"
                "print(*sorted(m for m in sys.modules if m.startswith('pkinv')"
                " or m in {'click', 'dataclasses', 'inspect', 'uuid'}))")
        loaded = set(run_python(code).splitlines()[-1].split())
        assert loaded == {"pkinv", "pkinv.cli"} | {f"pkinv.{m}" for m in engine}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["inverse", "--target", "(((....)))", "--trials", "3", "--format", "jsonl"],
    ["fold", "GGGAAAACCC"],
    ["--help"],
], ids=["inverse", "fold", "help"])
def test_output_that_cannot_be_written_exits_2(args):
    # one line, and no second report from the flush at exit
    with open("/dev/full", "wb") as full:
        done = cli_process(*args, stdout=full)
    assert done.returncode == 2
    assert done.stderr.decode() == (
        f"cannot write output: {os.strerror(errno.ENOSPC)}\n")


def test_output_error_goes_to_the_caller_of_the_inner_entry_point(monkeypatch):
    # main turns the error into exit code 2; run leaves fd 1 as it was
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fd1 = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Full())
    with pytest.raises(OSError) as caught:
        cli.run(["fold", "GGGAAAACCC"])
    assert caught.value.errno == errno.ENOSPC
    assert os.path.samestat(os.fstat(1), fd1)


def test_closed_pipe_exits_1_without_a_word():
    # as for `pkinv fold ... | head -0`
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        done = cli_process("fold", "GGGAAAACCC", stdout=write_fd)
    finally:
        os.close(write_fd)
    assert (done.returncode, done.stderr) == (1, b"")


class TestFoldCommand:
    def test_open_chain(self):
        result = invoke("fold", "AAAAAAAAAA")
        assert result.exit_code == 0
        assert result.output.strip() == "::::::::::\t0"

    def test_n_best(self):
        result = invoke("fold", "GGGAAAACCC", "-N", "2")
        lines = result.output.strip().splitlines()
        assert lines[0] == "(((::::)))\t-6"
        assert lines[1] == "::::::::::\t0"

    def test_empty_sequence_exits_2(self):
        result = invoke("fold", "")
        assert result.exit_code == 2
        assert result.output == result.stderr  # nothing on stdout
        assert result.stderr.strip() == "empty sequence"

    @pytest.mark.parametrize(
        "extra,variables",
        [(["-N", "0"], {}), (["--k", "1"], {}), ([], {"PKINV_FOLD_N_BEST": "0"})],
        ids=["n-best", "k", "n-best-variable"],
    )
    def test_out_of_range_option_exits_2(self, monkeypatch, extra, variables):
        for name, value in variables.items():
            monkeypatch.setenv(name, value)
        result = invoke("fold", "GGGGAAAACCCC", *extra)
        assert result.exit_code == 2
        assert result.output == result.stderr  # nothing on stdout
        assert result.stderr.startswith("usage: pkinv fold")

    def test_bad_sequence_exits_2(self):
        result = invoke("fold", "GGXC")
        assert result.exit_code == 2  # and nothing escaped: invoke raises it
        assert "Traceback" not in result.output
        assert "'X' at position 3" in result.output

    def test_structure_past_three_families_exits_2(self):
        # the second of three co-optimal structures is four mutually
        # crossing stacks, which three bracket families cannot write
        result = invoke("fold", "GGGCCCGGGCCCCCCGGGCCCGGG", "--k", "5", "-N", "3")
        assert result.exit_code == 2  # and nothing escaped: invoke raises it
        assert result.output == result.stderr  # nothing on stdout
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
            result = invoke("fold", seq, "-N", "50")
            assert result.exit_code == 0
            output += result.output
        assert hashlib.sha256(output.encode()).hexdigest() == (
            "93976f91cd0949ed5eace014d79cb657b35cd310fc2c4a7f5616a55e215d08ca"
        )

    def test_past_candidate_stack_cap_exits_2(self):
        result = invoke("fold", "GC" * 20)
        assert result.exit_code == 2
        assert result.output == result.stderr  # nothing on stdout
        assert result.stderr.startswith(
            "more than 1024 candidate stacks at length 40; ")
        assert result.stderr.count("\n") == 1

    def test_past_structure_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STRUCTURES", 1000)
        result = invoke("fold", "GC" * 14)
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert "more than 1000 structures" in result.output

    def test_model_file(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("loop.hairpin=0\n")
        result = invoke("fold", "GGGAAAACCC", "--model", str(path))
        assert result.output.strip() == "(((::::)))\t-9"


class TestDistanceCommand:
    def test_distance(self):
        result = invoke("distance", "(((....)))", "(((....)))")
        assert result.output.strip() == "0"

    def test_two_positions(self):
        a = "(((....)))"
        b = "((::....))"  # inner arc removed
        result = invoke("distance", a, b)
        assert result.output.strip() == "2"

    def test_parse_error_exits_2(self):
        result = invoke("distance", "(((", ":::")
        assert result.exit_code == 2


class TestDecomposeCommand:
    def test_two_loop_ladder_printed(self):
        # hairpin nested inside a two-arc crossing: (2,8), (3,5), (7,9)
        result = invoke("decompose", ":((:):[)]:")
        assert result.exit_code == 0
        assert "intervals\t[3,5] [3,6] [2,9] [1,10]" in result.output

    def test_interval_line(self):
        result = invoke("decompose", "(((....)))")
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("hairpin\ta=[1,10]\tb=[1,10]")
        assert lines[-1] == "intervals\t[1,10]"

    def test_invalid_exits_2(self):
        result = invoke("decompose", "(((")
        assert result.exit_code == 2
