"""CLI surface tests: run, audit, dump commands, exit codes, README commands."""

import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from histchain.cli import _build_parser, main
from histchain.config import ConfigError, SimConfig, parse_config_file
from .helpers import flip_hex_char

ROOT = Path(__file__).resolve().parent.parent


class TestRun:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--minutes", "2", "--seed", "42",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "events.log").exists()
        assert (tmp_path / "chain.txt").exists()
        assert (tmp_path / "historian6.txt").exists()
        assert "chain length 3" in capsys.readouterr().out

    def test_invalid_replication_factor_usage_error(self, tmp_path, capsys):
        code = main(["run", "--replication-factor", "7", "--nodes", "6",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, scenario_id", [
        ("A", "A_historian_tamper"),
        ("B", "B_mitm_plc_storage"),
        ("C", "C_mitm_storage_chain"),
    ], ids=["A", "B", "C"])
    def test_scenario_run_exit_zero(self, tmp_path, capsys, scenario, scenario_id):
        code = main(["run", "--scenario", scenario, "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "scenario_report.txt").exists()
        out = capsys.readouterr().out
        assert f"scenario {scenario_id}: PASS" in out
        assert "FAIL" not in out

    def test_scenario_a_with_another_seed(self, tmp_path, capsys):
        code = main(["run", "--scenario", "A", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        assert "scenario A_historian_tamper: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario, flags, seed", [
        ("A", ["--trace-wire"], 17),
        ("B", ["--nodes", "6"], 3),
        ("A", ["--seed", "5"], 5),
        ("A", ["--config", "run.conf"], 42),
        ("C", ["--config", "run.conf"], 42),
    ], ids=["A-trace-wire", "B-nodes", "A-seed", "A-config", "C-config"])
    def test_scenario_seed_unless_seed_or_config_given(self, tmp_path, scenario, flags,
                                                        seed):
        """A scenario runs its own seed unless --seed or --config is given;
        other flags apply on top of it, and a config file without a seed key
        gives the default seed."""
        (tmp_path / "run.conf").write_text("capacity=10\n")
        flags = [str(tmp_path / f) if f == "run.conf" else f for f in flags]
        code = main(["run", "--scenario", scenario, *flags, "--out", str(tmp_path / "arts")])
        assert code == 0
        report = (tmp_path / "arts" / "scenario_report.txt").read_text().splitlines()
        assert report[1] == f"seed|{seed}"

    def test_trace_wire_leaves_scenario_artifacts_unchanged(self, tmp_path):
        assert main(["run", "--scenario", "A", "--out", str(tmp_path / "plain")]) == 0
        assert main(["run", "--scenario", "A", "--trace-wire",
                     "--out", str(tmp_path / "traced")]) == 0
        assert (tmp_path / "traced" / "wire_trace.txt").stat().st_size > 0
        names = sorted(p.name for p in (tmp_path / "plain").glob("*.txt")
                       if p.name == "chain.txt" or p.name.startswith("historian"))
        assert "chain.txt" in names and "historian1.tampered.txt" in names
        for name in names:
            assert ((tmp_path / "traced" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name

    def test_scenario_a_with_another_start_time(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("start_time=2021-01-01T00:00\n")
        code = main(["run", "--scenario", "A", "--config", str(config),
                     "--out", str(tmp_path / "arts")])
        assert code == 0
        assert "scenario A_historian_tamper: PASS" in capsys.readouterr().out
        assert "2021-01-01T00:01" in (tmp_path / "arts" / "historian1.txt").read_text()

    def test_scenario_with_minutes_usage_error(self, tmp_path, capsys):
        """A scenario runs its own fixed length, so --minutes cannot apply."""
        code = main(["run", "--scenario", "B", "--minutes", "7", "--out", str(tmp_path)])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "scenario_report.txt").exists()

    @pytest.mark.parametrize("minutes", ["0", "-3"])
    def test_minutes_below_one_usage_error(self, tmp_path, capsys, minutes):
        code = main(["run", "--minutes", minutes, "--out", str(tmp_path)])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "chain.txt").exists()

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("seed=5\ncapacity=12\n")
        code = main(["run", "--minutes", "1", "--config", str(config),
                     "--out", str(tmp_path / "arts")])
        assert code == 0

    def test_bad_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("who=knows\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("text, first, second", [
        ("seed=1\nseed=2\n", 1, 2),
        ("flow_rate.A1=2\n# comment\n\ncapacity=12\n flow_rate.A1 = 2\n", 1, 5),
    ], ids=["seed", "flow_rate"])
    def test_repeated_config_key_usage_error(self, tmp_path, capsys, text, first, second):
        with pytest.raises(ConfigError, match=f"line {second}: .* already set on line {first}"):
            parse_config_file(text)
        config = tmp_path / "run.conf"
        config.write_text(text)
        code = main(["run", "--minutes", "1", "--config", str(config),
                     "--out", str(tmp_path / "arts")])
        assert code == 2
        assert f"already set on line {first}" in capsys.readouterr().err
        assert not (tmp_path / "arts").exists()

    @pytest.mark.parametrize("text", ["flow_rate.A1=nan\n",
                                      "capacity=inf\nsensor_noise=true\n"])
    def test_non_finite_config_usage_error(self, tmp_path, capsys, text):
        config = tmp_path / "run.conf"
        config.write_text(text)
        code = main(["run", "--minutes", "1", "--config", str(config),
                     "--out", str(tmp_path / "arts")])
        assert code == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "arts").exists()

    @pytest.mark.parametrize("run_args, minutes", [
        (["--minutes", "2"], 2),
        (["--scenario", "A"], 3),
        (["--scenario", "B"], 3),
        (["--scenario", "C"], 3),
    ], ids=["minutes", "A", "B", "C"])
    def test_start_time_too_late_usage_error(self, tmp_path, capsys, run_args, minutes):
        config = tmp_path / "run.conf"
        config.write_text("start_time=9999-12-31T23:59\n")
        code = main(["run", *run_args, "--config", str(config),
                     "--out", str(tmp_path / "arts")])
        assert code == 2
        err = capsys.readouterr().err
        assert "start_time 9999-12-31T23:59" in err
        assert f"{minutes} intervals" in err
        assert not (tmp_path / "arts").exists()

    def test_start_time_with_room_for_the_run(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("start_time=9999-12-31T23:58\n")
        code = main(["run", "--minutes", "2", "--config", str(config),
                     "--out", str(tmp_path / "arts")])
        assert code == 0
        assert "9999-12-31T23:59" in (tmp_path / "arts" / "chain.txt").read_text()

    def test_trace_wire_writes_transcript(self, tmp_path):
        code = main(["run", "--minutes", "1", "--trace-wire",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "wire_trace.txt").read_text().strip()


class TestAudit:
    def test_clean_artifacts_exit_zero(self, tmp_path, capsys):
        main(["run", "--minutes", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["audit", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("chain|valid")
        assert "0 flagged" in out

    def test_tampered_artifact_exit_one(self, tmp_path, capsys):
        main(["run", "--minutes", "2", "--out", str(tmp_path)])
        hist = tmp_path / "historian1.txt"
        lines = hist.read_text().splitlines()
        name, minute, values = lines[0].split("|")
        lines[0] = f"{name}|{minute}|1{values}"
        hist.write_text("\n".join(lines) + "\n")
        code = main(["audit", str(tmp_path)])
        assert code == 1

    def test_edited_chain_block_fails_verification(self, tmp_path, capsys):
        main(["run", "--minutes", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        chain = tmp_path / "chain.txt"
        lines = chain.read_text().splitlines()
        target = next(i for i, line in enumerate(lines) if line.startswith("block|2|"))
        parts = lines[target].split("|")
        parts[3] = flip_hex_char(parts[3])
        lines[target] = "|".join(parts)
        chain.write_text("\n".join(lines) + "\n")
        code = main(["audit", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out == (
            "chain|bad|2|hash_mismatch\naudit: chain verification FAILED\n")

    def test_missing_artifacts_usage_error(self, tmp_path, capsys):
        code = main(["audit", str(tmp_path / "nowhere")])
        assert code == 2

    def test_deleted_historian_dump_exit_one(self, tmp_path, capsys):
        main(["run", "--minutes", "10", "--out", str(tmp_path)])
        (tmp_path / "historian3.txt").unlink()
        capsys.readouterr()
        code = main(["audit", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.endswith(
            "audit: 60 checks, 6 flagged, 0 uncovered records\n")


class TestDumps:
    def test_dump_chain_prints_dump(self, tmp_path, capsys):
        main(["run", "--minutes", "1", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["dump-chain", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("block|0|")

    def test_dump_historian_prints_records(self, tmp_path, capsys):
        main(["run", "--minutes", "1", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["dump-historian", "1", str(tmp_path)])
        assert code == 0
        assert "Sensor 1|" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, name", [
        (["dump-chain"], "chain.txt"),
        (["dump-historian", "1"], "historian1.txt"),
    ], ids=["chain", "historian"])
    def test_dump_prints_file_bytes_unchanged(self, tmp_path, capsysbinary, argv, name):
        """A byte that is not UTF-8 and a `\r\n` line end come back as stored."""
        data = b"block|0|\xff\r\nSensor 1|2020-12-23T17:26|1\r\n"
        (tmp_path / name).write_bytes(data)
        code = main([*argv, str(tmp_path)])
        assert code == 0
        assert capsysbinary.readouterr().out == data

    def test_dump_missing_node_usage_error(self, tmp_path, capsys):
        main(["run", "--minutes", "1", "--out", str(tmp_path)])
        code = main(["dump-historian", "9", str(tmp_path)])
        assert code == 2


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    assert main(["run", "--minutes", "1", "--out", str(out)]) == 0
    return out


class TestClosedOutput:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["run", "--minutes", "1", "--out"],
        ["audit"],
        ["dump-chain"],
        ["dump-historian", "1"],
    ], ids=["run", "audit", "dump-chain", "dump-historian"])
    def test_reader_gone_exits_one_quietly(self, artifacts, tmp_path, argv, unbuffered):
        """A reader that closes the pipe before the command writes is not an
        artifact error: exit 1, nothing on stderr, not even from the flush at
        exit, whether stdout is buffered or not."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        target = tmp_path if argv[0] == "run" else artifacts
        proc = subprocess.Popen([sys.executable, "-m", "histchain.cli", *argv, str(target)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, b"")
        if argv[0] == "run":
            assert (tmp_path / "chain.txt").read_bytes() == (artifacts / "chain.txt").read_bytes()


def readme_lines():
    return (ROOT / "README.md").read_text(encoding="utf-8").splitlines()


class TestReadme:
    """The commands README.md shows are ones that exist."""

    def test_histchain_lines_parse(self):
        commands = [shlex.split(line, comments=True) for line in readme_lines()
                    if line.startswith("histchain ")]
        assert commands
        parser = _build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_sample_config_is_the_defaults(self):
        """The sample config file names every SimConfig field once, each at
        its default value."""
        lines = readme_lines()
        start = lines.index("```", next(i for i, line in enumerate(lines)
                                        if line.startswith("Config files are flat")))
        sample = "\n".join(lines[start + 1:lines.index("```", start + 1)])
        parsed = parse_config_file(sample)
        assert list(parsed) == [f.name for f in dataclasses.fields(SimConfig)]
        assert SimConfig(**parsed) == SimConfig()

    def test_named_scripts_exist(self):
        for line in readme_lines():
            for script in re.findall(r"python3 (scripts/\S+\.py)", line):
                assert (ROOT / script).is_file(), line
