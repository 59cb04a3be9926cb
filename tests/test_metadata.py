"""A config's `metadata`: any JSON object whose numbers are all finite,
nested at most `METADATA_DEPTH` deep, carried as given into the expanded
config and report.json."""

import json

import pytest

from lockstepsim.config import METADATA_DEPTH, config_from_dict, load_config
from lockstepsim.errors import ConfigError
from helpers import zero_jitter_duplex

METADATA = {"gain": "NAN", "deep": [1, "INF", {"low": "-INF"}], "fine": {"x": [0.5, -1e308, 2**70]}}
ERRORS = [
    "config.workload.frame_count: must be >= 1, got 0",
    "config.metadata.gain: must be finite, got nan",
    "config.metadata.deep[1]: must be finite, got inf",
    "config.metadata.deep[2].low: must be finite, got -inf",
]


def _config_text():
    """A config with the non-finite literals under metadata and one more bad field."""
    raw = zero_jitter_duplex()
    raw["workload"]["frame_count"] = 0
    raw["metadata"] = METADATA
    text = json.dumps(raw)
    for token, literal in (('"NAN"', "NaN"), ('"-INF"', "-Infinity"), ('"INF"', "Infinity")):
        text = text.replace(token, literal)
    return text


def test_non_finite_numbers_rejected_with_their_paths():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(json.loads(_config_text()), env={})
    assert exc.value.errors == ERRORS


def test_non_finite_numbers_in_a_file_rejected_with_their_paths(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_config_text())
    with pytest.raises(ConfigError) as exc:
        load_config(path, env={})
    assert exc.value.errors == ERRORS


def test_finite_metadata_is_kept_as_given():
    raw = zero_jitter_duplex()
    raw["metadata"] = {"fine": {"x": [0.5, -1e308, 2**70]}, "note": "run 1", "flag": None}
    assert config_from_dict(raw, env={}).to_json_dict()["metadata"] == raw["metadata"]


def _nested(depth):
    """Metadata of `depth` nested objects and lists, itself included."""
    metadata = inner = {}
    for _ in range(depth - 2):
        inner["a"] = inner = {}
    inner["a"] = [1.5]
    return metadata


def test_metadata_at_the_depth_bound_is_kept():
    raw = zero_jitter_duplex()
    raw["metadata"] = _nested(METADATA_DEPTH)
    assert config_from_dict(raw, env={}).to_json_dict()["metadata"] == raw["metadata"]


@pytest.mark.parametrize("depth", [METADATA_DEPTH + 1, 500])
def test_nesting_past_the_depth_bound_rejected_at_its_path(depth):
    raw = zero_jitter_duplex()
    raw["workload"]["frame_count"] = 0
    raw["metadata"] = _nested(depth)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw, env={})
    assert exc.value.errors == [
        "config.workload.frame_count: must be >= 1, got 0",
        "config.metadata" + ".a" * METADATA_DEPTH + f": nested deeper than {METADATA_DEPTH} objects and lists",
    ]
