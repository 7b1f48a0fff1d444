import contextlib
import io
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcdenoise.cli import _resolve_config, build_parser, cli_main
from dpcdenoise.config import DenoiseConfig, parse_value
from dpcdenoise.io import ParseError, load_config, save_config

TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(DenoiseConfig)}


class TestDefaults:
    def test_parameter_defaults(self):
        cfg = DenoiseConfig()
        assert cfg.k == 30
        assert cfg.patch_fraction == 0.5
        assert cfg.k_s == 10
        assert cfg.xi == 10
        assert cfg.c == 5.0
        assert cfg.mprime_fraction == 0.9
        assert cfg.trace_bound == 5.0

    def test_patch_count_rule(self):
        cfg = DenoiseConfig()
        assert cfg.patch_count(100) == 50
        assert cfg.patch_count(101) == 50  # round(50.5) banker's-rounds to 50
        assert cfg.patch_count(1) == 1
        assert DenoiseConfig(patch_fraction=1.0).patch_count(64) == 64

    def test_weight_floor_rule(self):
        cfg = DenoiseConfig()
        assert cfg.weight_floor(100) == pytest.approx(90.0)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("patch_fraction", 0.0),
            ("patch_fraction", 1.5),
            ("k_s", 0),
            ("xi", 0),
            ("c", 0.0),
            ("alpha", -0.1),
            ("alpha", 1.1),
            ("lambda1", -1.0),
            ("lambda2", -0.5),
            ("mprime_fraction", 0.0),
            ("trace_bound", 0.0),
            ("k_plane", 2),
            ("cg_tol", 0.0),
            ("pg_step", -1.0),
            ("outer_max_iters", 0),
            ("seed", -1),
            ("k", "10"),
            ("c", "5"),
            ("outer_max_iters", np.float64(3.0)),
            ("c", 10**400),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            DenoiseConfig(**{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            DenoiseConfig.from_dict({"k": 5, "bogus": 1})

    def test_round_trip_dict(self):
        cfg = DenoiseConfig(k=9, lambda1=0.3)
        assert DenoiseConfig.from_dict(cfg.to_dict()) == cfg

    def test_numbers_are_stored_as_the_field_type(self):
        cfg = DenoiseConfig(k=np.int32(12), seed=np.uint64(7), lambda1=1, c=np.float32(0.5))
        assert all(type(getattr(cfg, name)) is kind for name, kind in TYPES.items())
        assert cfg == DenoiseConfig(k=12, seed=7, lambda1=1.0, c=0.5)


class TestParseValue:
    @pytest.mark.parametrize(
        "field,text,value", [("k", " +1_2 ", 12), ("lambda1", "2", 2.0), ("cg_tol", "1e-9", 1e-9)]
    )
    def test_decodes_literals(self, field, text, value):
        parsed = parse_value(field, text)
        assert parsed == value and type(parsed) is TYPES[field]

    @pytest.mark.parametrize(
        "field,text,message",
        [
            ("lambda2", "1e999", r"lambda2 must be in \[0, inf\), got inf"),
            ("alpha", "half", "alpha must be a number, got 'half'"),
            ("alpha", "2", r"alpha must be in \[0, 1\], got 2.0"),
            ("kappa", "3", "unknown config key 'kappa'"),
        ],
    )
    def test_names_the_field(self, field, text, message):
        with pytest.raises(ValueError, match=message):
            parse_value(field, text)


def _count(low=1):
    return st.integers(min_value=low, max_value=2**62)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
# Every valid value of every field, by the ranges README states.
VALID = {
    "k": _count(), "patch_fraction": _FRACTION, "k_s": _count(), "xi": _count(),
    "c": _POSITIVE, "alpha": st.floats(min_value=0.0, max_value=1.0),
    "lambda1": _NON_NEGATIVE, "lambda2": _NON_NEGATIVE, "mprime_fraction": _FRACTION,
    "trace_bound": _POSITIVE, "k_plane": _count(3), "cg_tol": _POSITIVE,
    "cg_max_iters": _count(), "pg_step": _POSITIVE, "pg_max_iters": _count(),
    "pg_tol": _POSITIVE, "outer_max_iters": _count(), "outer_tol": _POSITIVE, "seed": _count(0),
}
_NON_FINITE_OR_BOOL = st.sampled_from([math.nan, math.inf, -math.inf, True, False])


def _flag(name: str, value) -> str:
    # The ``=`` form keeps argparse from reading "-1.5" or "-inf" as an option.
    return f"--{name.replace('_', '-')}={value}"


def _match_args(*flags) -> list:
    return ["match", "--prev", "prev.ply", "--curr", "curr.ply", *flags]


class TestEveryPath:
    """A value means the same through the constructor, a config file and a CLI flag."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({}, optional=VALID))
    def test_valid_values_agree(self, values, tmp_path_factory):
        assert set(VALID) == set(TYPES)
        cfg = DenoiseConfig(**values)
        for name, value in values.items():
            assert type(getattr(cfg, name)) is TYPES[name]
            assert getattr(cfg, name) == value
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg
        args = build_parser().parse_args(_match_args(*(_flag(n, v) for n, v in values.items())))
        assert _resolve_config(args) == cfg

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invalid_values_fail_on_every_path(self, data, tmp_path_factory):
        name = data.draw(st.sampled_from(sorted(TYPES)))
        if TYPES[name] is int:
            bad = data.draw(st.one_of(_NON_FINITE_OR_BOOL, st.floats()))
        else:
            bad = data.draw(_NON_FINITE_OR_BOOL)
        with pytest.raises(ValueError, match=name):
            DenoiseConfig(**{name: bad})
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(f"# header\n{name} = {bad}\n")
        with pytest.raises(ParseError, match=f"run.cfg:2: {name} must be"):
            load_config(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main(_match_args(_flag(name, bad))) == 1
        flag = name.replace("_", "-")
        assert f"usage error: argument --{flag}: {name} must be" in err.getvalue()
