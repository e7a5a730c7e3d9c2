"""Unit tests for the XML application configuration model."""

import glob
import math
import os

import pytest

from repro.grid.config import (
    AppConfig,
    ConfigError,
    ParameterConfig,
    StageConfig,
    StreamConfig,
)
from repro.grid.resources import ResourceRequirement


def sample_config():
    return AppConfig(
        name="count-samps",
        stages=[
            StageConfig(
                name="filter-0",
                code_url="repo://count-samps/filter",
                requirement=ResourceRequirement(
                    placement_hint="near:src-0",
                    min_memory_mb=256.0,
                    min_bandwidth_to={"join": 1000.0},
                ),
                parameters=[
                    ParameterConfig(
                        name="sample-size",
                        init=100.0,
                        minimum=10.0,
                        maximum=240.0,
                        increment=10.0,
                        direction=-1,
                    )
                ],
                properties={"top-k": "10"},
            ),
            StageConfig(name="join", code_url="repo://count-samps/join"),
        ],
        streams=[
            StreamConfig(name="s0", src="filter-0", dst="join", item_size=8.0),
        ],
    )


def with_parameter(param):
    return AppConfig("x", [StageConfig("a", "repo://a", parameters=[param])])


def with_stream(stream):
    stages = [StageConfig("a", "repo://a"), StageConfig("b", "repo://b")]
    return AppConfig("x", stages, [stream])


class TestParameterConfig:
    def test_valid(self):
        p = ParameterConfig("x", 0.5, 0.0, 1.0, 0.01, 1)
        assert p.init == 0.5

    def test_init_out_of_range(self):
        with pytest.raises(ConfigError):
            with_parameter(ParameterConfig("x", 2.0, 0.0, 1.0, 0.01, 1)).validate()

    def test_min_above_max(self):
        with pytest.raises(ConfigError):
            with_parameter(ParameterConfig("x", 0.5, 1.0, 0.0, 0.01, 1)).validate()

    def test_bad_increment(self):
        with pytest.raises(ConfigError):
            with_parameter(ParameterConfig("x", 0.5, 0.0, 1.0, 0.0, 1)).validate()

    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            with_parameter(ParameterConfig("x", 0.5, 0.0, 1.0, 0.1, 0)).validate()


class TestStreamConfig:
    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            with_stream(StreamConfig("s", "a", "a")).validate()

    def test_bad_item_size(self):
        with pytest.raises(ConfigError):
            with_stream(StreamConfig("s", "a", "b", item_size=0)).validate()


class TestValidation:
    def test_sample_is_valid(self):
        sample_config().validate()

    def test_empty_name(self):
        cfg = sample_config()
        cfg.name = ""
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_no_stages(self):
        with pytest.raises(ConfigError):
            AppConfig(name="x").validate()

    def test_duplicate_stage_names(self):
        cfg = sample_config()
        cfg.stages.append(StageConfig(name="join", code_url="repo://dup"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_duplicate_stream_names(self):
        cfg = sample_config()
        cfg.streams.append(StreamConfig(name="s0", src="join", dst="filter-0"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_stream_unknown_stage(self):
        cfg = sample_config()
        cfg.streams.append(StreamConfig(name="s1", src="ghost", dst="join"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_cycle_detected(self):
        cfg = sample_config()
        cfg.streams.append(StreamConfig(name="back", src="join", dst="filter-0"))
        with pytest.raises(ConfigError, match="cycle"):
            cfg.validate()


class TestGraphQueries:
    def test_topological_order(self):
        cfg = sample_config()
        names = [s.name for s in cfg.topological_stages()]
        assert names.index("filter-0") < names.index("join")

    def test_upstream_downstream(self):
        cfg = sample_config()
        assert cfg.upstream_of("join") == ["filter-0"]
        assert cfg.downstream_of("filter-0") == ["join"]
        assert cfg.upstream_of("filter-0") == []

    def test_stage_lookup(self):
        cfg = sample_config()
        assert cfg.stage("join").code_url == "repo://count-samps/join"
        with pytest.raises(ConfigError):
            cfg.stage("nope")


class TestXmlRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = sample_config()
        restored = AppConfig.from_xml(original.to_xml())
        assert restored.name == original.name
        assert [s.name for s in restored.stages] == ["filter-0", "join"]
        f0 = restored.stage("filter-0")
        assert f0.requirement.placement_hint == "near:src-0"
        assert f0.requirement.min_memory_mb == 256.0
        assert f0.requirement.min_bandwidth_to == {"join": 1000.0}
        assert f0.parameters[0] == ParameterConfig(
            "sample-size", 100.0, 10.0, 240.0, 10.0, -1
        )
        assert f0.properties == {"top-k": "10"}
        assert restored.streams[0] == StreamConfig("s0", "filter-0", "join", 8.0)

    def test_from_xml_validates(self):
        bad = "<application name='x'><stage name='a' code='repo://a'/>" \
              "<stream name='s' from='a' to='ghost'/></application>"
        with pytest.raises(ConfigError):
            AppConfig.from_xml(bad)

    def test_malformed_xml(self):
        with pytest.raises(ConfigError):
            AppConfig.from_xml("<application")

    def test_wrong_root(self):
        with pytest.raises(ConfigError):
            AppConfig.from_xml("<app name='x'/>")

    def test_missing_app_name(self):
        with pytest.raises(ConfigError):
            AppConfig.from_xml("<application/>")

    def test_stage_missing_attrs(self):
        with pytest.raises(ConfigError):
            AppConfig.from_xml("<application name='x'><stage name='a'/></application>")

    def test_unexpected_element(self):
        with pytest.raises(ConfigError):
            AppConfig.from_xml("<application name='x'><widget/></application>")

    def test_unexpected_stage_child(self):
        doc = (
            "<application name='x'>"
            "<stage name='a' code='repo://a'><widget/></stage>"
            "</application>"
        )
        with pytest.raises(ConfigError):
            AppConfig.from_xml(doc)

    def test_bad_parameter_numbers(self):
        doc = (
            "<application name='x'>"
            "<stage name='a' code='repo://a'>"
            "<parameter name='p' init='abc' min='0' max='1' increment='1' direction='1'/>"
            "</stage></application>"
        )
        with pytest.raises(ConfigError):
            AppConfig.from_xml(doc)

    def test_property_missing_key(self):
        doc = (
            "<application name='x'>"
            "<stage name='a' code='repo://a'><property value='v'/></stage>"
            "</application>"
        )
        with pytest.raises(ConfigError):
            AppConfig.from_xml(doc)

    def test_default_item_size(self):
        doc = (
            "<application name='x'>"
            "<stage name='a' code='repo://a'/><stage name='b' code='repo://b'/>"
            "<stream name='s' from='a' to='b'/>"
            "</application>"
        )
        cfg = AppConfig.from_xml(doc)
        assert cfg.streams[0].item_size == 8.0


# -- the loader and ``repro check`` read a document the same way -------------

#: The codes ``from_xml`` / ``validate()`` reject; every other code is
#: reported by ``repro check`` only.
STRUCTURAL = {"GA100", "GA101", "GA102", "GA105", "GA201", "GA202", "GA203"}

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "analysis", "fixtures", "configs"
)


def document(stage_body="", stream_attrs=""):
    """Two stages joined by one stream, with ``stage_body`` inside stage a."""
    return (
        "<application name='edge'>"
        f"<stage name='a' code='repo://count-samps/relay'>{stage_body}</stage>"
        "<stage name='b' code='repo://count-samps/relay'/>"
        f"<stream name='s' from='a' to='b'{stream_attrs}/>"
        "</application>"
    )


def parameter(**attrs):
    values = {"init": "50", "min": "10", "max": "100", "increment": "10",
              "direction": "-1", **attrs}
    return "<parameter name='p' " + " ".join(
        f"{key}='{value}'" for key, value in values.items()) + "/>"


#: Documents either side used to get wrong: a bare ValueError from the
#: loader, a verifier crash, or one side accepting what the other rejects.
UNREADABLE_NUMBERS = {
    "item-size": document(stream_attrs=" item-size='big'"),
    "min-cores": document("<requirement min-cores='two'/>"),
    "min-memory-mb": document("<requirement min-memory-mb='lots'/>"),
    "min-speed-factor": document("<requirement min-speed-factor='fast'/>"),
    "bandwidth-min": document("<requirement><bandwidth to='b' min='wide'/></requirement>"),
}

EDGE_DOCUMENTS = {
    **{f"non-numeric {name}": doc for name, doc in UNREADABLE_NUMBERS.items()},
    "non-numeric init": document(parameter(init="half")),
    "max inf": document(parameter(max="inf")),
    "increment nan": document(parameter(increment="nan")),
    "item-size nan": document(stream_attrs=" item-size='nan'"),
    "item-size inf": document(stream_attrs=" item-size='inf'"),
    "min-speed-factor nan": document("<requirement min-speed-factor='nan'/>"),
    "min-cores zero": document("<requirement min-cores='0'/>"),
    "requirement widget": document("<requirement><widget/></requirement>"),
    "bandwidth without to": document("<requirement><bandwidth min='1000'/></requirement>"),
    "direction 1.0": document(parameter(direction="1.0")),
}


def loads(text):
    try:
        AppConfig.from_xml(text)
    except ConfigError:
        return False
    return True


def structural_errors(text):
    from repro.analysis import verify_document

    return {d.code for d in verify_document(text).errors} & STRUCTURAL


def read_fixtures():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.xml"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), handle.read()


CORPUS = [*read_fixtures(), *EDGE_DOCUMENTS.items()]


@pytest.mark.parametrize("name,text", CORPUS, ids=[name for name, _ in CORPUS])
def test_loader_rejects_exactly_what_check_reports_as_structural(name, text):
    assert loads(text) == (not structural_errors(text)), name


def test_the_loader_rejects_the_structural_codes_and_no_other():
    from tests.analysis.test_verifier import CASES

    rejected = set()
    for stem, code in CASES:
        with open(os.path.join(FIXTURES, stem + ".xml"), encoding="utf-8") as handle:
            if not loads(handle.read()):
                rejected.add(code)
    assert rejected == STRUCTURAL


@pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
def test_edge_documents_are_rejected_but_an_integral_float_direction(name):
    assert loads(EDGE_DOCUMENTS[name]) == (name == "direction 1.0")


def test_a_float_direction_is_stored_as_an_integer():
    config = AppConfig.from_xml(EDGE_DOCUMENTS["direction 1.0"])
    (param,) = config.stage("a").parameters
    assert param.direction == 1 and isinstance(param.direction, int)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_numbers_are_ga100(value):
    from repro.analysis import verify_document

    for text in (document(parameter(max=value)), document(stream_attrs=f" item-size='{value}'"),
                 document(f"<requirement min-speed-factor='{value}'/>")):
        assert verify_document(text).codes() == ["GA100"], text


@pytest.mark.parametrize("field", ["init", "minimum", "maximum", "increment"])
def test_the_parameter_rule_rejects_non_finite_values(field):
    values = dict(name="p", init=50.0, minimum=10.0, maximum=100.0,
                  increment=10.0, direction=-1)
    values[field] = math.inf
    config = with_parameter(ParameterConfig(**values))
    assert [f.code for f in config.findings()] == ["GA100"]
    with pytest.raises(ConfigError, match="finite"):
        config.validate()


def test_verify_config_reports_an_empty_application_name():
    from repro.analysis import verify_config

    config = sample_config()
    config.name = ""
    assert verify_config(config).codes() == ["GA100"]


@pytest.mark.parametrize("attribute", sorted(UNREADABLE_NUMBERS))
def test_an_unreadable_number_is_a_config_error(attribute, tmp_path, capsys):
    from repro.cli import main
    from repro.grid.launcher import Launcher

    text = UNREADABLE_NUMBERS[attribute]
    with pytest.raises(ConfigError, match="line 1: <"):
        AppConfig.from_xml(text)
    with pytest.raises(ConfigError):
        Launcher(deployer=None).resolve(text)
    path = tmp_path / "app.xml"
    path.write_text(text, encoding="utf-8")
    assert main(["topology", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("INVALID: line 1: <") and "Traceback" not in err
