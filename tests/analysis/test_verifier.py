"""Fixture-driven tests for the pipeline verifier.

Every diagnostic code has a broken config that triggers it and a fixed
variant that does not; the fixed variants must verify *completely*
clean, so a fixture can't accidentally trade one defect for another.
"""

import os

import pytest

from repro.analysis import Severity, verify_path
from repro.experiments.common import build_star_fabric

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "configs")

#: (fixture stem, code it must raise) — the fixed twin must not raise it.
CASES = [
    ("ga100_malformed", "GA100"),
    ("ga101_cycle", "GA101"),
    ("ga102_dangling", "GA102"),
    ("ga103_duplicate_stream", "GA103"),
    ("ga104_disconnected", "GA104"),
    ("ga105_duplicate_name", "GA105"),
    ("ga106_fan_in", "GA106"),
    ("ga201_init_range", "GA201"),
    ("ga202_min_max", "GA202"),
    ("ga203_increment", "GA203"),
    ("ga204_unreachable_max", "GA204"),
    ("ga205_off_grid_init", "GA205"),
    ("ga206_increment_span", "GA206"),
    ("ga207_duplicate_param", "GA207"),
    ("ga208_property_mirror", "GA208"),
    ("ga209_undeclared_option", "GA209"),
    ("ga209_removed_scale_knob", "GA209"),
    ("ga210_batch_delay", "GA210"),
    ("ga220_shard_invalid", "GA220"),
    ("ga221_inert_shard_knob", "GA221"),
    ("ga230_migration", "GA230"),
    ("ga231_migration_gate", "GA231"),
    ("ga240_ledger_sink", "GA240"),
    ("ga301_code_url", "GA301"),
    ("ga302_checkpoint", "GA302"),
    ("ga303_placement", "GA303"),
    ("ga304_wire_size", "GA304"),
]


@pytest.fixture(scope="module")
def fabric():
    return build_star_fabric(4, bandwidth=100_000.0)


def run(stem, fabric):
    return verify_path(
        os.path.join(FIXTURES, stem + ".xml"),
        repository=fabric.repository,
        registry=fabric.registry,
    )


@pytest.mark.parametrize("stem,code", CASES)
def test_broken_fixture_raises_its_code(stem, code, fabric):
    report = run(stem, fabric)
    assert code in report.codes(), report.render_text()


@pytest.mark.parametrize("stem,code", CASES)
def test_fixed_fixture_is_clean(stem, code, fabric):
    report = run(stem + "_fixed", fabric)
    assert code not in report.codes(), report.render_text()
    assert report.clean, report.render_text()


def test_every_config_code_is_exercised():
    """The corpus covers the whole config-side catalog."""
    from repro.analysis import config_codes

    assert {code for _, code in CASES} == {
        info.code for info in config_codes()
    }


def test_diagnostics_carry_spans_and_hints(fabric):
    report = run("ga201_init_range", fabric)
    (diag,) = [d for d in report.errors if d.code == "GA201"]
    assert diag.span is not None and diag.span.line is not None
    assert diag.span.file.endswith("ga201_init_range.xml")
    assert diag.hint
    assert diag.severity is Severity.ERROR


def test_undeclared_option_names_the_declared_key(fabric):
    report = run("ga209_undeclared_option", fabric)
    messages = [d.message for d in report.errors if d.code == "GA209"]
    assert any("'batch-max-itemz'" in m and "did you mean 'batch-max-items'?" in m
               for m in messages), messages
    assert any("queue-capacity='forty'" in m for m in messages), messages


@pytest.mark.parametrize("delay", ["nan", "inf", "x"])
def test_a_batch_delay_every_runtime_rejects_is_an_error(delay):
    """``repro check`` used to only warn (GA210) about values the
    runtimes accepted (nan, inf) or rejected (x) at setup."""
    from repro.analysis import verify_config
    from repro.grid.config import AppConfig, StageConfig

    config = AppConfig(name="batch", stages=[
        StageConfig("a", "repo://count-samps/relay", properties={"batch-max-delay": delay}),
    ])
    report = verify_config(config)
    assert [(d.code, d.severity) for d in report.diagnostics] == [("GA210", Severity.ERROR)]


@pytest.mark.parametrize("mode", ["record", "Record", " record"])
def test_ga240_reads_ledger_mode_the_way_the_runtime_does(mode, fabric, tmp_path):
    """The runtime normalises ``ledger-mode``; GA240 used to compare the
    raw text, so "Record" recorded without the idempotent-sink check."""
    from repro.analysis import verify_config
    from repro.grid.config import AppConfig, StageConfig, StreamConfig

    config = AppConfig(
        name="ledger",
        stages=[
            StageConfig("src", "py://tests.analysis.stages:StatelessStage",
                        properties={"ledger-mode": mode, "ledger-dir": str(tmp_path)}),
            StageConfig("sink", "py://tests.analysis.stages:StatelessStage"),
        ],
        streams=[StreamConfig("s1", "src", "sink")],
    )
    assert verify_config(config, repository=fabric.repository).codes() == ["GA240"]


def test_warnings_do_not_fail_the_report(fabric):
    report = run("ga204_unreachable_max", fabric)
    assert report.ok and not report.clean
    assert [d.code for d in report.warnings] == ["GA204"]


def test_placement_and_code_passes_skipped_without_fabric():
    """No repository/registry -> GA301/GA302/GA303 passes don't run."""
    for stem in ("ga301_code_url", "ga303_placement"):
        report = verify_path(os.path.join(FIXTURES, stem + ".xml"))
        assert report.clean, report.render_text()


def _migration_config(properties=None):
    from repro.grid.config import AppConfig, StageConfig, StreamConfig

    return AppConfig(
        name="mig",
        stages=[
            StageConfig("a", "py://tests.analysis.stages:FullCheckpointStage",
                        properties=dict(properties or {})),
            StageConfig("b", "py://tests.analysis.stages:FullCheckpointStage"),
        ],
        streams=[StreamConfig("s", "a", "b")],
    )


def test_migrating_param_enables_the_ga230_gate(fabric):
    """A plan-targeted stage needs no migratable property to be checked."""
    from repro.analysis import verify_config
    from repro.grid.config import AppConfig, StageConfig

    config = AppConfig(name="mig", stages=[
        StageConfig("a", "py://tests.analysis.stages:StatelessStage"),
    ])
    clean = verify_config(config, repository=fabric.repository)
    assert "GA230" not in clean.codes()
    gated = verify_config(
        config, repository=fabric.repository, migrating=["a"]
    )
    assert "GA230" in gated.codes()


def test_migration_plan_for_unknown_stage_is_ga231():
    from repro.analysis import verify_config

    report = verify_config(_migration_config(), migrating=["nope"])
    assert report.codes() == ["GA231"]


def test_sharded_migratable_stage_is_ga231():
    from repro.analysis import verify_config

    report = verify_config(
        _migration_config({"migratable": "true", "replicas": "2"})
    )
    assert "GA231" in report.codes()


def test_migration_without_checkpoint_store_is_ga231():
    from repro.analysis import verify_config
    from repro.resilience.policy import ResilienceConfig

    config = _migration_config({"migratable": "true"})
    disarmed = verify_config(
        config, resilience=ResilienceConfig(checkpoint_interval=None)
    )
    assert "GA231" in disarmed.codes()
    armed = verify_config(
        config, resilience=ResilienceConfig(checkpoint_interval=0.5)
    )
    assert armed.clean, armed.render_text()
