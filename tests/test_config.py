import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsim.config import (
    CAP_MODES,
    DECODE_MODES,
    ConfigError,
    SessionConfig,
    derive_seed,
    validate_config,
)


def test_defaults_are_valid():
    cfg = SessionConfig(L=32, V=64)
    assert validate_config(cfg) is cfg
    assert cfg.d_max == 18
    assert cfg.omega == 0.95
    assert cfg.prefill_window == 32


def test_degenerate_but_legal_d_max_zero():
    validate_config(SessionConfig(L=8, V=16, d_max=0))


@pytest.mark.parametrize(
    "field,value",
    [
        ("omega", 1.2),
        ("omega", -0.1),
        ("d_max", -1),
        ("prefill_window", 0),
        ("decode_mode", "beam"),
        ("draft_cap_mode", "nope"),
        ("L", 1),
        ("V", 1),
        ("V", 4097),
        ("max_new_tokens", 0),
    ],
)
def test_validation_reports_field_name(field, value):
    cfg = SessionConfig(**{**dict(L=8, V=16), field: value})
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert field in str(exc.value)


session_configs = st.builds(
    SessionConfig,
    L=st.integers(2, 64),
    V=st.integers(2, 4096),
    d_max=st.integers(0, 50),
    omega=st.floats(0.0, 1.0, allow_nan=False),
    prefill_window=st.integers(1, 128),
    max_new_tokens=st.integers(1, 10_000),
    decode_mode=st.sampled_from(DECODE_MODES),
    seed=st.integers(0, 2**63 - 1),
    draft_cap_mode=st.sampled_from(CAP_MODES),
)


@given(session_configs)
@settings(max_examples=200, deadline=None)
def test_round_trip_through_json(cfg):
    parsed = SessionConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert parsed == cfg


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        SessionConfig.from_dict({"L": 8, "V": 16, "bogus": 1})


def test_removed_default_threshold_is_rejected_by_name():
    # an old config.json's session section still carries the removed field
    old = {**SessionConfig(L=8, V=16).to_dict(), "default_threshold": 0.5}
    with pytest.raises(ConfigError, match="default_threshold"):
        SessionConfig.from_dict(old)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, "engine", "del", 0) == derive_seed(7, "engine", "del", 0)
    assert derive_seed(7, "engine", "del", 0) != derive_seed(7, "engine", "del", 1)
    assert derive_seed(7, "a") != derive_seed(8, "a")
