"""scripts/bench_record.py on canned perfbench/run.py output: no benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = load_script()

PROVENANCE = {"cpu_model": "test cpu", "numpy": "2.0", "python": "3.11"}


def run_stdout(correct=True, last=None):
    """run.py's stdout: human lines, the provenance line, then the result (or `last`)."""
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": {"headline.ops_per_s": {"value": 1.5, "unit": "1/s"}}}
    return "\n".join([
        "headline: 3 builds",
        "provenance " + json.dumps(PROVENANCE, sort_keys=True),
        last if last is not None else json.dumps(result),
    ]) + "\n"


def runs(*stdouts, returncodes=(0, 0)):
    return [(trace, ["python3", "perfbench/run.py", "--trace", str(trace)], code, out)
            for trace, (code, out) in enumerate(zip(returncodes, stdouts))]


class TestBuildRecord:
    def test_two_correct_runs(self):
        record, problems = bench_record.build_record(
            runs(run_stdout(), run_stdout()), seed=0, seconds=35, head="abc"
        )
        assert problems == []
        assert (record["head"], record["seed"], record["seconds"]) == ("abc", 0, 35)
        assert [run["trace"] for run in record["runs"]] == [0, 1]
        for run in record["runs"]:
            assert run["provenance"] == PROVENANCE
            assert run["result"]["correct"] is True
            assert run["command"][:2] == ["python3", "perfbench/run.py"]
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize("last", [
        "error: signal run exited 1",
        '{"correct": true, "attempted"',  # cut short
        "[1, 2]",  # JSON, but not an object
        "",
    ])
    def test_last_line_not_a_json_object(self, last):
        record, problems = bench_record.build_record(
            runs(run_stdout(), run_stdout(last=last)), seed=0, seconds=1, head=None
        )
        assert problems == ["--trace 1 run printed no final JSON object"]
        assert record["runs"][1]["result"] is None
        assert record["runs"][0]["result"]["correct"] is True

    def test_incorrect_run(self):
        _, problems = bench_record.build_record(
            runs(run_stdout(correct=False), run_stdout()), seed=0, seconds=1, head=None
        )
        assert problems == ["--trace 0 run reports correct = False"]

    def test_failed_run(self):
        _, problems = bench_record.build_record(
            runs("", run_stdout(), returncodes=(1, 0)), seed=0, seconds=1, head=None
        )
        assert problems == ["--trace 0 run exited 1"]

    def test_no_provenance_line(self):
        stdout = "only a line\n" + json.dumps({"correct": True})
        result, provenance = bench_record.parse_run(stdout)
        assert result == {"correct": True} and provenance is None


class TestMain:
    @pytest.mark.parametrize("correct, status", [(True, 0), (False, 1)])
    def test_writes_the_record_and_exits_on_correct(self, tmp_path, monkeypatch, capsys,
                                                    correct, status):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            if cmd[0] == "git":
                return subprocess.CompletedProcess(cmd, 0, "abc123\n", "")
            return subprocess.CompletedProcess(cmd, 0, run_stdout(correct=correct), None)

        monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
        out = tmp_path / "BENCH_ci.json"
        monkeypatch.setattr(sys, "argv", ["bench_record.py", "--seconds", "1", "--out", str(out)])
        assert bench_record.main() == status
        record = json.loads(out.read_text())
        assert record["head"] == "abc123" and record["seconds"] == 1
        assert [run["result"]["correct"] for run in record["runs"]] == [correct, correct]
        traced = [cmd[cmd.index("--trace") + 1] for cmd in calls if cmd[0] != "git"]
        assert traced == ["0", "1"]
        assert ("error:" in capsys.readouterr().err) == (not correct)
