"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_agent_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "jess", "--agent", "bogus"])

    @pytest.mark.parametrize("agent", ["none", "spa", "ipa",
                                       "ipa-dynamic", "ipa-nocomp"])
    def test_agent_names_accepted(self, agent):
        args = build_parser().parse_args(
            ["profile", "jess", "--agent", agent])
        assert args.agent.label in ("original", "spa", "ipa")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("compress", "jess", "db", "javac", "mpegaudio",
                     "mtrt", "jack", "jbb2005"):
            assert name in out

    def test_profile_ipa(self, capsys):
        assert main(["profile", "jess", "--agent", "ipa"]) == 0
        out = capsys.readouterr().out
        assert "percent_native" in out
        assert "gt native %" in out

    def test_profile_baseline(self, capsys):
        assert main(["profile", "mtrt", "--agent", "none"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "agent report" not in out

    def test_profile_throughput_workload(self, capsys):
        assert main(["profile", "jbb2005", "--agent", "none"]) == 0
        out = capsys.readouterr().out
        assert "ops/second" in out


class TestArgumentValidation:
    """--scale/--runs/--jobs must be rejected at parse time — not crash
    deep inside workload construction or the harness."""

    @pytest.mark.parametrize("argv", [
        ["table1", "--scale", "0"],
        ["table1", "--scale", "-3"],
        ["table1", "--runs", "0"],
        ["table1", "--jobs", "0"],
        ["table2", "--scale", "-1"],
        ["table2", "--runs", "-2"],
        ["table2", "--jobs", "-4"],
        ["profile", "jess", "--scale", "0"],
        ["profile", "jess", "--runs", "0"],
        ["bench", "--scale", "0"],
    ])
    def test_nonpositive_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2  # argparse usage error
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "big"])
        assert "not an integer" in capsys.readouterr().err

    def test_positive_values_accepted(self):
        args = build_parser().parse_args(
            ["table1", "--scale", "2", "--runs", "3", "--jobs", "4"])
        assert (args.scale, args.runs, args.jobs) == (2, 3, 4)


class TestBenchCommand:
    def test_bench_parses_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.scale == 1
        assert args.output == "BENCH_interpreter.json"

    def test_bench_runs_and_writes(self, tmp_path, capsys, monkeypatch):
        from repro.workloads import jvm98_suite  # noqa: F401 - sanity
        out = tmp_path / "bench.json"
        assert main(["bench", "--scale", "1",
                     "--output", str(out)]) == 0
        console = capsys.readouterr().out
        assert "instr/s" in console
        assert out.exists()
        import json
        doc = json.loads(out.read_text())
        assert doc["instructions"] > 0
        assert doc["instructions_per_second"] > 0
        assert set(doc["per_workload"]) == {
            "compress", "jess", "db", "javac", "mpegaudio", "mtrt",
            "jack"}


class TestUsageErrors:
    """Bad names and unreadable inputs end in one logged error line
    and exit 2, never an escaped Python exception."""

    @pytest.mark.parametrize("argv", [
        ["profile", "nosuch"],
        ["trace", "nosuch"],
        ["causal", "nosuch", "--speedup", "p.Main.run()V=2.0"],
        ["analyze", "--workload", "nosuch"],
    ])
    def test_unknown_workload(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown workload(s) nosuch" in err
        assert "Traceback" not in err

    def _assert_unreadable(self, blob, tmp_path, capsys):
        path = tmp_path / "bad.rja"
        path.write_bytes(blob)
        assert main(["analyze", "--no-runtime",
                     "--archive", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read archive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("blob", [
        b"RJAR\x00",                          # header cut short
        b"NOPE\x00\x01\x00\x00\x00\x00",      # bad magic
    ])
    def test_corrupt_archive(self, blob, tmp_path, capsys):
        self._assert_unreadable(blob, tmp_path, capsys)

    def test_corrupt_class_in_archive(self, tmp_path, capsys):
        from repro.classfile.archive import ClassArchive
        from repro.workloads import get_workload

        db = get_workload("db").archive
        name = db.names()[0]
        archive = ClassArchive()
        archive.put_bytes(name, db.get_bytes(name)[:40])
        self._assert_unreadable(archive.to_bytes(), tmp_path, capsys)

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_metrics_file(self, content, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        if content is not None:
            path.write_bytes(content)
        assert main(["metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read metrics file" in err
        assert "Traceback" not in err
