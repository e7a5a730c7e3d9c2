"""Tests for the command-line interface."""

import pytest

from repro.apps.count_samps import build_distributed_config
from repro.cli import main


@pytest.fixture
def config_file(tmp_path):
    cfg = build_distributed_config(2, ["source-0", "source-1"])
    path = tmp_path / "app.xml"
    path.write_text(cfg.to_xml(), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_config(self, config_file, capsys):
        assert main(["check", config_file]) == 0
        out = capsys.readouterr().out
        assert "OK: application 'count-samps-distributed'" in out

    def test_valid_config_prints_the_dag(self, config_file, capsys):
        assert main(["check", config_file]) == 0
        out = capsys.readouterr().out
        assert "filter-0" in out and "(sink)" in out
        assert "[1 adjustable]" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "ghost.xml")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<application name='x'><stage name='a'/></application>")
        assert main(["check", str(path)]) == 1
        assert "error[GA100]" in capsys.readouterr().err

    def test_json_report(self, config_file, capsys):
        import json

        assert main(["check", config_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0

    def test_semantic_error_rejected(self, tmp_path, capsys):
        path = tmp_path / "cyclic.xml"
        path.write_text(
            "<application name='loop'>"
            "<stage name='a' code='repo://count-samps/relay'/>"
            "<stage name='b' code='repo://count-samps/relay'/>"
            "<stream name='s1' from='a' to='b'/>"
            "<stream name='s2' from='b' to='a'/>"
            "</application>"
        )
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error[GA101]" in err and "cycle" in err


class TestLint:
    def test_clean_file_passes(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def fine() -> int:\n    return 1\n")
        assert main(["lint", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_broken_file_fails(self, tmp_path, capsys):
        path = tmp_path / "repro" / "simnet"
        path.mkdir(parents=True)
        bad = path / "clock.py"
        bad.write_text("import time\n\ndef now():\n    return time.time()\n")
        assert main(["lint", str(bad)]) == 1
        assert "GA502" in capsys.readouterr().err


class TestTopology:
    def test_placement_printed(self, config_file, capsys):
        assert main(["topology", config_file, "--sources", "2"]) == 0
        out = capsys.readouterr().out
        assert "filter-0" in out and "source-0" in out
        assert "join" in out and "central" in out

    def test_unplaceable(self, tmp_path, capsys):
        from repro.grid.config import AppConfig, StageConfig
        from repro.grid.resources import ResourceRequirement

        cfg = AppConfig(
            name="greedy",
            stages=[
                StageConfig(
                    "huge",
                    "repo://count-samps/join",
                    requirement=ResourceRequirement(min_cores=4096),
                )
            ],
        )
        path = tmp_path / "greedy.xml"
        path.write_text(cfg.to_xml(), encoding="utf-8")
        assert main(["topology", str(path)]) == 1
        assert "UNPLACEABLE" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["topology", str(tmp_path / "nope.xml")]) == 1

    def test_sharded_stage_placed_as_deployed(self, tmp_path, capsys):
        """``topology`` matched the declared stages, so a sharded join
        printed as one stage on ``central`` while the Deployer spreads
        its replicas over the star."""
        from repro.core.options import stamp
        from repro.experiments.common import build_star_fabric

        cfg = build_distributed_config(4, [f"source-{i}" for i in range(4)])
        stamp(cfg.stage("join").properties, replicas=3)
        path = tmp_path / "sharded.xml"
        path.write_text(cfg.to_xml(), encoding="utf-8")
        deployment = build_star_fabric(4, bandwidth=100_000.0).launcher.launch(str(path))
        assert main(["topology", str(path)]) == 0
        printed = dict(
            line.split(" -> ") for line in
            (row.strip() for row in capsys.readouterr().out.splitlines()[1:])
        )
        placed = {name: p.host_name for name, p in deployment.placements.items()}
        assert {name.strip(): host for name, host in printed.items()} == placed
        assert {"join#0", "join#1", "join#2"} <= set(placed)


class TestExperimentCommands:
    def test_fig5_reduced(self, capsys):
        assert main(["fig5", "--items", "2000", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "Centralized" in out and "Distributed" in out

    def test_fig8_reduced(self, capsys):
        assert main(["fig8", "--duration", "40"]) == 0
        out = capsys.readouterr().out
        assert "cost=" in out and "feasible=" in out

    def test_fig9_reduced(self, capsys):
        assert main(["fig9", "--duration", "40"]) == 0
        assert "gen=" in capsys.readouterr().out

    def test_fig67_reduced(self, capsys):
        assert main(["fig6-7", "--items", "2000", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out

    def test_bad_seed_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--seeds", "a,b"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestChaos:
    def test_failover_report_printed(self, capsys):
        assert main(["chaos", "--items", "150"]) == 0
        out = capsys.readouterr().out
        assert "recovery summary" in out
        assert "failovers        : 1" in out
        assert "work stage host  : spare" in out
        assert "resilience (checkpoints, failover/replay, quarantine)" in out
        assert "host 'edge' failed; moved stages: work" in out

    def test_fault_free_run(self, capsys):
        assert main(["chaos", "--items", "100", "--fail-at", "-1"]) == 0
        out = capsys.readouterr().out
        assert "failovers        : 0" in out
        assert "sink received    : 100 (100 unique, 0 replay duplicates)" in out

    def test_poison_items_quarantined(self, capsys):
        assert main(["chaos", "--items", "100", "--fail-at", "-1",
                     "--poison-every", "30"]) == 0
        out = capsys.readouterr().out
        assert "quarantined      : 3 (dead letters retained: 3)" in out

    def test_bad_flags_rejected(self, capsys):
        assert main(["chaos", "--items", "0"]) == 1
        assert "--items" in capsys.readouterr().err
        assert main(["chaos", "--loss", "1.5"]) == 1
        assert "--loss" in capsys.readouterr().err


class TestNetdemo:
    def test_three_process_run_reports_wire_channels(self, capsys):
        assert main(["netdemo", "--items", "1500"]) == 0
        out = capsys.readouterr().out
        assert "across 3 worker processes" in out
        assert "join         -> worker-" in out
        assert "wire channels (sender-side accounting)" in out
        assert "summary-0" in out and "src-0" in out
        assert "adaptation exceptions delivered over the wire:" in out

    def test_bad_flags_rejected(self, capsys):
        assert main(["netdemo", "--workers", "1"]) == 1
        assert "--workers" in capsys.readouterr().err
        assert main(["netdemo", "--items", "0"]) == 1
        assert "--items" in capsys.readouterr().err


class TestJsonOutput:
    def test_fig5_json_written(self, tmp_path, capsys):
        out = tmp_path / "fig5.json"
        assert main(["fig5", "--items", "2000", "--seeds", "0",
                     "--json", str(out)]) == 0
        import json

        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert {r["processing_style"] for r in rows} == {"Centralized", "Distributed"}
        assert all("execution_time" in r and "accuracy" in r for r in rows)

    def test_fig8_json_contains_series(self, tmp_path):
        out = tmp_path / "fig8.json"
        assert main(["fig8", "--duration", "30", "--json", str(out)]) == 0
        import json

        rows = json.loads(out.read_text())
        assert len(rows) == 5
        assert all(isinstance(r["series"], list) for r in rows)
