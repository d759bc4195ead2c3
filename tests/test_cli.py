"""Command-line behavior: exit codes, formats, determinism."""

import gc
import hashlib
import json
import warnings

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

    def test_jobs_do_not_change_output(self):
        args = ["inverse", "--target", "(((....)))", "--trials", "4",
                "--seed", "2", "--format", "jsonl"]
        serial = run(*args, "--jobs", "1")
        parallel = run(*args, "--jobs", "2")
        assert serial.output == parallel.output

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

    def test_text_report_p90_is_nearest_rank(self, monkeypatch):
        def failed_trial(spec):
            return {
                "trial": spec.trial, "seed": spec.seed,
                "target": spec.target_text, "success": False,
                "sequence": None, "oracle_calls": 0,
                "_elapsed": float(spec.trial + 1),
            }

        monkeypatch.setattr(cli, "_run_trial", failed_trial)
        result = run("inverse", "--target", "(((....)))", "--trials", "5")
        assert result.exit_code == 1
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
], ids=["empty", "directory", "undecodable"])
def test_unreadable_target_file_exits_2(tmp_path, command, make):
    path = tmp_path / "target"
    make(path)
    result = run(*command(str(path)))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1
    assert str(path) in result.output


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
