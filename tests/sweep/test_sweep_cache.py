"""Tests for the content-addressed result cache."""

import json
from hashlib import sha256

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sweep.cache import (
    _RECORD,
    SOLVER_VERSION,
    ResultCache,
    _loads,
    canonical_json,
    point_key,
)

_PARAM_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
)


class TestPointKey:
    def test_stable_across_param_order(self):
        a = point_key("ev", {"W": 1, "P": 32})
        b = point_key("ev", {"P": 32, "W": 1})
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_sensitive_to_evaluator_params_and_version(self):
        base = point_key("ev", {"W": 1})
        assert point_key("other", {"W": 1}) != base
        assert point_key("ev", {"W": 2}) != base
        assert point_key("ev", {"W": 1}, solver_version="999") != base

    def test_int_and_float_params_key_differently(self):
        # 1 and 1.0 solve identically but canonical JSON distinguishes
        # them; keys must too, or a later lookup could round-trip types.
        assert point_key("ev", {"W": 1}) != point_key("ev", {"W": 1.0})

    @given(
        evaluator=st.text(),
        params=st.dictionaries(st.text(), _PARAM_VALUES, max_size=8),
        solver_version=st.text(),
    )
    def test_matches_hash_of_canonical_wrapper(
        self, evaluator, params, solver_version
    ):
        # The key is defined as the hash of this wrapper's canonical
        # JSON; point_key only builds the same bytes more cheaply.
        payload = json.dumps(
            {
                "evaluator": evaluator,
                "params": params,
                "solver_version": solver_version,
            },
            sort_keys=True, separators=(",", ":"), allow_nan=False,
        )
        expected = sha256(payload.encode("utf-8")).hexdigest()
        assert point_key(evaluator, params, solver_version) == expected

    def test_pinned_key_bytes(self):
        # Changing these bytes orphans every record already stored.
        assert point_key("ev", {"W": 1, "P": 32}, "2") == sha256(
            b'{"evaluator":"ev","params":{"P":32,"W":1},'
            b'"solver_version":"2"}'
        ).hexdigest()

    def test_rejects_nan_params(self):
        with pytest.raises(ValueError):
            point_key("ev", {"W": float("nan")})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


_JSON_TREES = st.recursive(
    _PARAM_VALUES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=12,
)


class TestRecordCodec:
    """The prebuilt encoders and the scanner fast path change no bytes."""

    @given(tree=_JSON_TREES)
    def test_encoders_match_json_dumps(self, tree):
        assert _RECORD(tree) == json.dumps(
            tree, sort_keys=True, allow_nan=False
        )
        assert canonical_json(tree) == json.dumps(
            tree, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @given(tree=_JSON_TREES)
    def test_loads_matches_json_loads(self, tree):
        text = _RECORD(tree)
        assert _loads(text) == json.loads(text)
        assert _loads(f" {text}\n") == tree

    @pytest.mark.parametrize(
        "text", ["", "{truncated", '{"a": 1} x', '{"a": 1}{}', "[1,]"]
    )
    def test_loads_rejects_what_json_loads_rejects(self, text):
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(json.JSONDecodeError):
            _loads(text)

    def test_encoder_reusable_after_an_error(self):
        # No circular-reference markers are kept between calls, so a
        # failed encode leaves nothing behind for the next one.
        record = {"values": {"R": float("nan")}}
        with pytest.raises(ValueError):
            _RECORD(record)
        with pytest.raises(TypeError):
            _RECORD({"values": {"R": object()}})
        record["values"]["R"] = 1.5
        assert _RECORD(record) == '{"values": {"R": 1.5}}'


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = point_key("ev", {"W": 1})
        record = {"values": {"R": 1.5}, "meta": {"wall_time": 0.1}}
        cache.put(key, record)
        assert cache.get(key) == record
        assert key in cache
        assert len(cache) == 1

    def test_miss_and_hit_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("ev", {"W": 1})
        assert cache.get(key) is None
        cache.put(key, {"values": {}})
        cache.get(key)
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "writes": 1}

    def test_float_values_round_trip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = 0.1 + 0.2  # not representable prettily; repr round-trips
        cache.put(point_key("ev", {}), {"values": {"x": value}})
        assert cache.get(point_key("ev", {}))["values"]["x"] == value

    def test_corrupt_record_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("ev", {"W": 1})
        cache.put(key, {"values": {}})
        path = cache._path(key)
        path.write_text("{truncated")
        assert cache.get(key) is None
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for w in range(3):
            cache.put(point_key("ev", {"W": w}), {"values": {}})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_coerce(self, tmp_path):
        assert ResultCache.coerce(None) is None
        cache = ResultCache(tmp_path)
        assert ResultCache.coerce(cache) is cache
        coerced = ResultCache.coerce(str(tmp_path))
        assert isinstance(coerced, ResultCache)
        assert coerced.root == tmp_path

    def test_records_are_valid_json_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("ev", {"W": 1})
        cache.put(key, {"values": {"R": 2.0}, "solver_version": SOLVER_VERSION})
        (path,) = tmp_path.glob("*/*.json")
        assert json.loads(path.read_text())["solver_version"] == SOLVER_VERSION
