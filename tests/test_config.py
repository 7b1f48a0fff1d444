import ast
import contextlib
import inspect
import io
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpcdenoise
import dpcdenoise.optimize as opt
from dpcdenoise.cli import _resolve_config, build_parser, cli_main
from dpcdenoise.config import RETIRED, DenoiseConfig, parse_value
from dpcdenoise.geometry import Frame, estimate_normals
from dpcdenoise.io import ParseError, load_config, save_config
from dpcdenoise.matching import match_patches, member_variations, prepare_reference
from dpcdenoise.metrics import gpsnr
from dpcdenoise.synthetic import SyntheticSpec, generate_sequence
from test_acceptance import E2E_CONFIG

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402  (its config files name retired keys)

TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(DenoiseConfig)}


class TestDefaults:
    def test_parameter_defaults(self):
        cfg = DenoiseConfig()
        assert cfg.k == 30
        assert cfg.k_s == 10
        assert cfg.xi == 10
        assert cfg.c == 5.0
        assert cfg.lambda1 == 0.5
        assert cfg.lambda2 == 0.1
        assert cfg.mprime_fraction == 0.6
        assert cfg.trace_bound == 5.0

    def test_weight_floor_rule(self, monkeypatch):
        # The temporal weight sum of a frame of m patches is held to at least
        # mprime_fraction * m; the default floor of 100 patches is 60.
        floors = []

        def solve(costs, floor):
            floors.append(floor)
            return real_solve(costs, floor)

        real_solve = opt.solve_temporal_weights
        monkeypatch.setattr(opt, "solve_temporal_weights", solve)
        seq = generate_sequence(SyntheticSpec("sinusoid-sheet", 100, 2, amplitude=0.1,
                                              phase_step=0.03, seed=5))
        cfg = DenoiseConfig(k=10, k_s=4, xi=4, outer_max_iters=3, outer_tol=1e-12)
        reference, _ = estimate_normals(seq.frames[0], cfg.k_plane)
        opt.denoise_frame(Frame(seq.frames[1].positions, frame_index=1), reference, cfg)
        assert floors == [pytest.approx(60.0)] * 2

    def test_every_field_is_read_by_a_stage(self):
        # A field that no stage reads changes no output and should not exist.
        # Stages read their settings as config.<field>; the modules that only
        # decode, write or pass the config on are not searched.
        read = set()
        for path in sorted(Path(dpcdenoise.__file__).parent.glob("*.py")):
            if path.name in ("config.py", "cli.py", "io.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "config"):
                    read.add(node.attr)
        assert sorted(set(TYPES) - read) == []


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
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
            ("outer_max_iters", 0),
            ("k", "10"),
            ("c", "5"),
            ("outer_max_iters", np.float64(3.0)),
            ("c", 10**400),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            DenoiseConfig(**{field: value})

    def test_round_trip_dict(self):
        cfg = DenoiseConfig(k=9, lambda1=0.3)
        assert DenoiseConfig(**cfg.to_dict()) == cfg

    def test_numbers_are_stored_as_the_field_type(self):
        cfg = DenoiseConfig(k=np.int32(12), cg_max_iters=np.uint64(7), lambda1=1,
                            c=np.float32(0.5))
        assert all(type(getattr(cfg, name)) is kind for name, kind in TYPES.items())
        assert cfg == DenoiseConfig(k=12, cg_max_iters=7, lambda1=1.0, c=0.5)


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
# Every valid value of every field: the intervals the fields declare, written out again.
VALID = {
    "k": _count(), "k_s": _count(), "xi": _count(), "c": _POSITIVE,
    "alpha": st.floats(min_value=0.0, max_value=1.0), "lambda1": _NON_NEGATIVE,
    "lambda2": _NON_NEGATIVE, "mprime_fraction": _FRACTION, "trace_bound": _POSITIVE,
    "k_plane": _count(3), "cg_tol": _POSITIVE, "cg_max_iters": _count(),
    "outer_max_iters": _count(), "outer_tol": _POSITIVE,
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


class TestOneDeclaration:
    """Each setting's default and interval are declared on its field alone; the rest read them.

    Defaults are compared by identity: a float or large int literal written
    again in another module is a distinct object, so a second declaration
    cannot come back unnoticed.
    """

    @pytest.mark.parametrize("command", ["denoise", "match"])
    def test_help_lists_each_key_with_its_interval_and_default(self, command, capsys,
                                                              monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as stop:
            cli_main([command, "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--k CFG_K neighbors per patch (patch size is k+1); in [1, inf), default 30" in text
        for f in fields(DenoiseConfig):
            flag = f.name.replace("_", "-")
            entry = (re.escape(f"--{flag} CFG_{f.name.upper()} ") + "[^;]+; "
                     + re.escape(f"in {f.metadata['interval']}, default {f.default!r}"))
            assert re.search(entry, text), f.name

    @pytest.mark.parametrize("function, name", [
        (member_variations, "c"), (prepare_reference, "c"),
        (match_patches, "alpha"), (opt.solve_point_cloud, "cg_tol"),
        (opt.solve_point_cloud, "cg_max_iters"),
    ])
    def test_library_defaults_are_the_fields(self, function, name):
        assert inspect.signature(function).parameters[name].default is getattr(DenoiseConfig, name)

    def test_cli_defaults_are_the_declarations(self):
        parser = build_parser()
        synth = parser.parse_args(["synth", "--points", "1", "--frames", "1", "--out-dir", "o"])
        for name in ("amplitude", "phase_step", "seed"):
            assert getattr(synth, name) is getattr(SyntheticSpec, name)
        evaluate = parser.parse_args(["eval", "--clean", "a.ply", "--test", "b.ply"])
        assert evaluate.k_plane is DenoiseConfig.k_plane
        assert evaluate.peak is inspect.signature(gpsnr).parameters["peak"].default


# What save_config wrote while DenoiseConfig had 19 fields.
NINETEEN_KEY_FILE = """\
k = 8
patch_fraction = 1.0
k_s = 4
xi = 3
c = 4.0
alpha = 0.25
lambda1 = 0.75
lambda2 = 0.2
mprime_fraction = 0.5
trace_bound = 4.0
k_plane = 9
cg_tol = 1e-09
cg_max_iters = 300
pg_step = 1e-05
pg_max_iters = 20
pg_tol = 1e-07
outer_max_iters = 4
outer_tol = 1e-05
seed = 3
"""


class TestRetiredKeys:
    """Config files may still set deleted fields; nothing else may."""

    @pytest.mark.parametrize("source", ["sheet-temporal", "cap-single", "sheet-long",
                                        "E2E_CONFIG", "save_config"])
    def test_old_config_files_load(self, source, tmp_path):
        path = tmp_path / "old.cfg"
        if source == "E2E_CONFIG":
            path.write_text("".join(f"{key} = {value}\n" for key, value in E2E_CONFIG.items()))
        elif source == "save_config":
            path.write_text(NINETEEN_KEY_FILE)
        else:
            WORKLOADS[source].write_config(path)
        text = path.read_text()
        assert any(line.split(" = ")[0] in RETIRED for line in text.splitlines())
        live = tmp_path / "live.cfg"
        live.write_text("".join(line + "\n" for line in text.splitlines()
                                if line.split(" = ")[0] not in RETIRED))
        assert load_config(path) == load_config(live)
        if source == "save_config":
            assert load_config(path) == DenoiseConfig(
                k=8, k_s=4, xi=3, c=4.0, alpha=0.25, lambda1=0.75, lambda2=0.2,
                mprime_fraction=0.5, trace_bound=4.0, k_plane=9, cg_tol=1e-9,
                cg_max_iters=300, outer_max_iters=4, outer_tol=1e-5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("patch_fraction", 0.0),
            ("patch_fraction", 0.5),
            ("patch_fraction", 1.5),
            ("pg_step", -1.0),
            ("seed", -1),
            ("pg_max_iters", "nan"),
            ("pg_tol", "small"),
        ],
    )
    def test_bad_value_is_a_parse_error_at_its_line(self, field, value, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"k = 8\n{field} = {value}\n")
        with pytest.raises(ParseError, match=f"run.cfg:2: {field} must be"):
            load_config(path)

    def test_retired_key_given_twice_is_an_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nk = 8\nseed = 3\n")
        with pytest.raises(ParseError, match="run.cfg:3: config key 'seed' given twice"):
            load_config(path)

    def test_patch_fraction_below_one_is_a_data_error(self, tmp_path):
        # One patch per point is the only design; a config file asking for
        # fewer patches fails before any input is read, naming key and line.
        path = tmp_path / "run.cfg"
        path.write_text("# header\npatch_fraction = 0.5\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["denoise", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                             "in.ply"])
        assert code == 2
        assert (f"data error: {path}:2: patch_fraction must be in [1, 1], got 0.5"
                in err.getvalue())

    @pytest.mark.parametrize("name", sorted(RETIRED))
    def test_not_a_field_nor_a_flag(self, name):
        with pytest.raises(TypeError, match=name):
            DenoiseConfig(**{name: 1})
        flag = "--" + name.replace("_", "-")
        for command in ("denoise", "match"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                cli_main([command, "--help"])
            assert flag not in out.getvalue()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main(["denoise", "--out-dir", "out", "in.ply", f"{flag}=1"]) == 1
            assert cli_main(_match_args(f"{flag}=1")) == 1
        assert err.getvalue().count(f"unrecognized arguments: {flag}=1") == 2
