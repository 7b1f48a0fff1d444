import json
import re
import tempfile
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame
from dpcdenoise.io import (
    ParseError,
    RunManifest,
    load_config,
    read_point_cloud,
    save_config,
    write_point_cloud,
)


def random_frame(n, seed, with_normals=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-10, 10, (n, 3))
    normals = None
    if with_normals:
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return Frame(pts, normals)


class TestPly:
    def test_single_vertex(self, tmp_path):
        path = tmp_path / "one.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        frame = read_point_cloud(path)
        assert len(frame) == 1
        assert np.array_equal(frame.positions, [[0.0, 0.0, 0.0]])
        assert frame.normals is None

    def test_round_trip_positions(self, tmp_path):
        frame = random_frame(40, 1)
        path = tmp_path / "cloud.ply"
        write_point_cloud(frame, path)
        back = read_point_cloud(path)
        assert np.max(np.abs(back.positions - frame.positions)) < 1e-6

    def test_round_trip_with_normals(self, tmp_path):
        frame = random_frame(25, 2, with_normals=True)
        path = tmp_path / "cloud.ply"
        write_point_cloud(frame, path)
        back = read_point_cloud(path)
        assert back.normals is not None
        assert np.max(np.abs(back.normals - frame.normals)) < 1e-6

    def test_header_vertex_count(self, tmp_path):
        frame = random_frame(7, 3)
        path = tmp_path / "cloud.ply"
        write_point_cloud(frame, path)
        assert "element vertex 7" in path.read_text()

    def test_empty_frame_unwritable(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            Frame(np.empty((0, 3)))

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("plyx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(ParseError, match="magic"):
            read_point_cloud(path)

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n"
        )
        with pytest.raises(ParseError, match="format"):
            read_point_cloud(path)

    def test_non_numeric_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 zero 0\n"
        )
        with pytest.raises(ParseError, match="bad.ply:8"):
            read_point_cloud(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(ParseError, match="expected 3 values"):
            read_point_cloud(path)

    def test_short_body(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="expected 2 vertices"):
            read_point_cloud(path)

    @pytest.mark.parametrize("count, message", [
        # More vertices than memory holds: no rows are allocated beyond the
        # body's lines, and the count check names the last line.
        ("100000000000", r":8: expected 100000000000 vertices, found 1"),
        ("-3", r":3: negative vertex count -3"),
    ])
    def test_untrusted_vertex_count_is_a_data_error(self, tmp_path, capsys, count, message):
        from dpcdenoise.cli import cli_main

        path = tmp_path / "bad.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {count}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        code = cli_main(["denoise", "--out-dir", str(tmp_path / "out"), str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert re.search(re.escape(str(path)) + message, err)

    @pytest.mark.parametrize("elements, message", [
        # A face element before the vertex element: its lines would be read
        # as vertices, or fail on their token count.
        pytest.param(["element face 1\nproperty list uchar int vertex_indices\n",
                      "element vertex 2\n"],
                     r":5: 'element vertex' must be the first element, and once",
                     id="face-first"),
        pytest.param(["element vertex 2\n", "element vertex 2\n"],
                     r":7: 'element vertex' must be the first element, and once",
                     id="vertex-twice"),
    ])
    @pytest.mark.parametrize("face_line", ["3 0 1", "4 0 1 0"])
    def test_vertex_element_must_come_first_and_once(self, tmp_path, capsys, elements, message,
                                                     face_line):
        from dpcdenoise.cli import cli_main

        xyz = "property float x\nproperty float y\nproperty float z\n"
        header = "".join(e + xyz if e.startswith("element vertex") else e for e in elements)
        path = tmp_path / "bad.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n"
                        f"{face_line}\n0 0 0\n1 0 0\n")
        with pytest.raises(ParseError, match=message):
            read_point_cloud(path)
        code = cli_main(["denoise", "--out-dir", str(tmp_path / "out"), str(path)])
        assert code == 2
        assert re.search(re.escape(str(path)) + message, capsys.readouterr().err)


    def test_property_before_any_element_is_a_data_error(self, tmp_path, capsys):
        # With no element to belong to, ``w`` would be dropped and the body
        # line read as the vertex (1, 2, 3).
        from dpcdenoise.cli import cli_main

        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nproperty float w\nelement vertex 1\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "end_header\n1 2 3\n")
        message = r":3: property line before any element line"
        with pytest.raises(ParseError, match=message):
            read_point_cloud(path)
        code = cli_main(["denoise", "--out-dir", str(tmp_path / "out"), str(path)])
        assert code == 2
        assert re.search(re.escape(str(path)) + message, capsys.readouterr().err)


class TestXyz:
    def test_three_columns(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0\n1 2 3\n")
        frame = read_point_cloud(path)
        assert np.array_equal(frame.positions, [[0, 0, 0], [1, 2, 3]])

    def test_six_columns_with_normal(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0 0 0 1\n")
        frame = read_point_cloud(path)
        assert np.array_equal(frame.normals, [[0.0, 0.0, 1.0]])

    def test_mixed_column_count_rejected(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0\n1 2 3 4 5 6\n")
        with pytest.raises(ParseError, match="pts.xyz:2"):
            read_point_cloud(path)

    def test_zero_length_normal_rejected(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="zero-length normal"):
            read_point_cloud(path)


# A PLY header declaring ``count`` vertices of x, y, z and, with ``normals``,
# nx, ny, nz: its end_header is line 7, or 10 with normals.
def ply(body, count=2, normals=False):
    names = ["x", "y", "z"] + (["nx", "ny", "nz"] if normals else [])
    return (f"ply\nformat ascii 1.0\nelement vertex {count}\n"
            + "".join(f"property float {name}\n" for name in names) + "end_header\n" + body)


# Files for the readers, each as (name, text, change). A ``change`` of None
# means the reader gives what the per-row oracle gives: the same frame, or a
# ParseError of the same line and message. Otherwise it is the (line,
# message) the reader gives where the oracle differs: an error about one
# vertex names that vertex's line, and an XYZ row of the wrong width says
# "values", as a PLY row does.
MALFORMED = [
    ("blank-lines.ply", ply("\n0 0 0\n\n\n1 2 3\n\n"), None),
    ("short-row.ply", ply("0 0 0\n\n1 2\n"), None),
    ("long-row.ply", ply("0 0 0 0\n1 1 1\n"), None),
    ("non-numeric.ply", ply("0 0 0\n1 x 1\n"), None),
    ("underscore.ply", ply("1_000 0 0\n1 2 3\n"), None),
    ("after-count.ply", ply("0 0 0\n1 1 1\nfoo bar\n3 0 1 2\n"), None),
    ("too-few-rows.ply", ply("0 0 0\n\n"), None),
    ("far-count.ply", ply("0 0 0\n1 1 1\n", count=10**11), None),
    ("no-vertex.ply", ply("", count=0), None),
    ("crlf.ply", ply("0 0 0\n1 1 1\n").replace("\n", "\r\n"), None),
    ("crlf-short-row.ply", ply("0 0 0\n\n1 1\n").replace("\n", "\r\n"), None),
    ("normals.ply", ply("0 0 0 0 0 2\n1 1 1 1e-300 -0.0 3e-7\n", normals=True), None),
    ("nan-position.ply", ply("0 0 0\n\n1 0 0\nnan 0 0\n", count=3),
     (11, "positions must be finite")),
    ("zero-normal.ply", ply("0 0 0 0 0 1\n1 0 0 0 0 0\n", normals=True),
     (12, "zero-length normal for vertex 1")),
    ("nan-normal.ply", ply("0 0 0 0 0 1\n1 0 0 nan 0 1\n", normals=True),
     (12, "normals must have unit length")),
    ("overflowing-normal.ply", ply("0 0 0 0 0 1\n\n1 0 0 1e200 0 1\n", normals=True),
     (13, "normals must have unit length")),
    ("positions-before-normals.ply", ply("0 0 0 nan 0 1\n-inf 0 0 0 0 1\n", normals=True),
     (12, "positions must be finite")),
    ("blank-lines.xyz", "\n\n0 0 0\n\n1 2 3\n", None),
    ("first-width.xyz", "\n\n1 2\n0 0 0\n", None),
    ("non-numeric.xyz", "0 0 0\n1 a 2\n", None),
    ("underscore.xyz", "1_000 2 3\n", None),
    ("empty.xyz", "", None),
    ("blank-only.xyz", "\n \n\t\n", None),
    ("crlf.xyz", "0 0 0 0 0 1\r\n1 1 1 0 1 0\r\n", None),
    ("short-row.xyz", "0 0 0\n1 2\n", (2, "expected 3 values, got 2")),
    ("long-row.xyz", "0 0 0 0 0 1\n\n1 2 3 4 5 6 7\n", (3, "expected 6 values, got 7")),
    ("crlf-short-row.xyz", "0 0 0\r\n\r\n1 1\r\n", (3, "expected 3 values, got 2")),
    ("inf-position.xyz", "0 0 0\n\ninf 0 0\n", (3, "positions must be finite")),
    ("zero-normal.xyz", "0 0 0 0 0 1\n1 1 1 0 0 0\n", (2, "zero-length normal for vertex 1")),
]


def outcome(reader, path):
    """The frame's bytes that ``reader`` reads from ``path``, or its ParseError's line and message."""
    try:
        frame = reader(path)
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:{exc.line}: ")
        return exc.line, str(exc)[len(f"{path}:{exc.line}: "):]
    normals = None if frame.normals is None else frame.normals.tobytes()
    return frame.positions.tobytes(), normals


class TestPerRowOracles:
    @pytest.mark.parametrize("name, text, change", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_readers_match_the_oracle(self, tmp_path, name, text, change):
        path = tmp_path / name
        path.write_bytes(text.encode())
        want = outcome(oracles.read_point_cloud, path)
        got = outcome(read_point_cloud, path)
        if change is None:
            assert got == want
        else:
            assert want != change and got == change

    @pytest.mark.parametrize("name, text, change", [
        ("nan.ply", ply("0 0 0\n\n1 0 0\nnan 0 0\n", count=3), ":11: positions must be finite"),
        ("inf.xyz", "0 0 0\n\ninf 0 0\n", ":3: positions must be finite"),
        ("zn.ply", ply("0 0 0 0 0 1\n\n1 0 0 0 0 0\n", normals=True),
         ":13: zero-length normal for vertex 1"),
    ], ids=["nan.ply", "inf.xyz", "zn.ply"])
    def test_vertex_error_names_its_line_and_exits_2(self, tmp_path, capsys, name, text, change):
        from dpcdenoise.cli import cli_main

        path = tmp_path / name
        path.write_text(text)
        code = cli_main(["denoise", "--out-dir", str(tmp_path / "out"), str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {path}{change}\n"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_files_and_reads_equal_the_oracle(self, data):
        # Files written from a random frame are byte-equal, and the PLY and
        # its body as an XYZ file read back bit-equal.
        n = data.draw(st.integers(1, 60))
        coordinate = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-300, 1e153),
                               st.floats(-1e153, -1e-300))
        positions = np.array(data.draw(st.lists(coordinate, min_size=3 * n, max_size=3 * n)))
        normals = None
        if data.draw(st.booleans()):
            normals = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=3 * n,
                                                  max_size=3 * n))).reshape(n, 3)
            normals[np.linalg.norm(normals, axis=1) < 0.1] = [0.0, -0.0, 1.0]
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        frame = Frame(positions.reshape(n, 3), normals)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.ply"), Path(tmp, "want.ply")
            write_point_cloud(frame, got)
            oracles.write_point_cloud(frame, want)
            assert got.read_bytes() == want.read_bytes()
            xyz = Path(tmp, "body.xyz")
            xyz.write_text(got.read_text().split("end_header\n", 1)[1])
            for path in (got, xyz):
                assert outcome(read_point_cloud, path) == outcome(oracles.read_point_cloud, path)


# The line rule of PLY, XYZ and config files: ``\r\n`` and ``\r`` end a line,
# as ``\n`` does. The other characters ``str.splitlines`` would end a line at
# separate values within a line, as ``str.split`` takes them.
LINE_ENDS = ["\r\n", "\r"]
IN_LINE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE_RULE = pytest.mark.parametrize("char", LINE_ENDS + IN_LINE,
                                    ids=[repr(c)[1:-1] for c in LINE_ENDS + IN_LINE])


def line_rule_body(char):
    """Rows (0, 0, 0) and (1, 1, 1) on lines 1 and 3, ``char`` within them and on line 2."""
    if char in LINE_ENDS:
        return f"0 0 0{char}{char}1 1 1{char}"
    return f"0{char}0 0{char}\n{char}\n1 1{char}1\n"


class TestLineRule:
    @LINE_RULE
    def test_ply_and_xyz_read_alike(self, tmp_path, char):
        plain = tmp_path / "plain.xyz"
        plain.write_text("0 0 0\n\n1 1 1\n")
        want = outcome(read_point_cloud, plain)
        body = line_rule_body(char)
        # A malformed row after the two is line 4 of the body: line 11 of a PLY.
        for name, text, read in [("a.ply", ply(body), want), ("a.xyz", body, want),
                                 ("b.ply", ply(body + "2 2\n", count=3),
                                  (11, "expected 3 values, got 2")),
                                 ("b.xyz", body + "2 2\n", (4, "expected 3 values, got 2"))]:
            path = tmp_path / name
            path.write_bytes(text.encode())
            assert outcome(read_point_cloud, path) == read

    @LINE_RULE
    def test_config_files_follow_it(self, tmp_path, char):
        if char in LINE_ENDS:
            text = f"k = 8{char}{char}lambda2 = 0.5{char}"
        else:
            text = f"k{char}={char}8{char}\n{char}\nlambda2 = 0.5{char}\n"
        path = tmp_path / "run.cfg"
        path.write_bytes(text.encode())
        assert load_config(path) == DenoiseConfig(k=8, lambda2=0.5)
        path.write_bytes((text + "k_s = x\n").encode())
        with pytest.raises(ParseError, match="run.cfg:4: k_s must be an integer"):
            load_config(path)


# A binary PLY: its body of float32 rows is not UTF-8.
BINARY_PLY = (b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
              b"property float x\nproperty float y\nproperty float z\nend_header\n"
              + np.array([[0.1, 2.5, -3.0], [1e-3, 7.0, 1.0]], "<f4").tobytes())


class TestUndecodableBytes:
    # Each file holds bytes that are not UTF-8; its error names its line.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, data, message", [
        ("f.ply", BINARY_PLY, ":2: unsupported format 'binary_little_endian 1.0'"),
        ("g.xyz", b"0 0 0\n\xff\xfe 1 1\n", r":2: non-numeric token in '\udcff\udcfe 1 1'"),
        ("run.cfg", b"k = 8\nlambda2 = \xff\xfe\n",
         r":2: lambda2 must be a number, got '\udcff\udcfe'"),
    ], ids=["binary.ply", "xyz", "config-value"])
    def test_is_a_data_error_at_its_line(self, tmp_path, capsys, name, data, message):
        from dpcdenoise.cli import cli_main

        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        path = tmp_path / name
        path.write_bytes(data)
        reader, args = read_point_cloud, [str(path)]
        if name.endswith(".cfg"):  # the cloud is plain
            cloud = tmp_path / "cloud.xyz"
            cloud.write_text("0 0 0\n1 0 0\n0 1 0\n")
            reader, args = load_config, ["--config", str(path), str(cloud)]
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}{message}"
        code = cli_main(["denoise", "--out-dir", str(tmp_path / "out"), *args])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {path}{message}\n"

    def test_config_comment_is_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"k = 8  # caf\xe9\n# \xff\xfe\n")
        assert load_config(path) == DenoiseConfig(k=8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, text, line", [
    ("n.ply", ply("0 0 0 0 0 1\n\n1 0 0 1e200 0 1\n", normals=True), 13),
    ("n.xyz", "0 0 0 0 0 1\n\n1 0 0 1e200 0 1\n", 3),
], ids=["ply", "xyz"])
def test_overflowing_normal_is_only_a_data_error(tmp_path, name, text, line):
    # The normal's length overflows: no numpy warning, one ParseError at its line.
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{name}:{line}: normals must have unit length"):
        read_point_cloud(path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = DenoiseConfig(k=12, lambda1=0.25, xi=7, cg_max_iters=99)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# tuning\n\nk = 8\nlambda2 = 0.5  # strong\n")
        cfg = load_config(path)
        assert cfg.k == 8
        assert cfg.lambda2 == 0.5

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kappa = 3\n")
        with pytest.raises(ParseError, match="unknown config key"):
            load_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 8\nlambda1 = much\n")
        with pytest.raises(ParseError, match="run.cfg:2"):
            load_config(path)

    def test_invalid_combination_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("xi = 3\n# comment\nlambda1 = -1\nc = 2\n")
        with pytest.raises(ParseError, match=re.escape("run.cfg:3: lambda1 must be in [0, inf)")):
            load_config(path)

    def test_key_given_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lambda2 = 0.5\nk = 8\n\nlambda2 = 0.25\n")
        with pytest.raises(ParseError, match="run.cfg:4: config key 'lambda2' given twice, "
                                             "on lines 1 and 4"):
            load_config(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(
            command="denoise",
            config=DenoiseConfig().to_dict(),
            inputs=["a.ply"],
            outputs=["out/a.ply"],
            timings_s={"denoise": 1.5},
        )
        path = tmp_path / "manifest.json"
        manifest.save(path)
        back = RunManifest.load(path)
        assert back == manifest

    def test_non_finite_value_is_refused_and_no_file_written(self, tmp_path):
        manifest = RunManifest(command="denoise",
                               frame_metrics=[{"diagnostics": {"spacing": float("nan")}}])
        path = tmp_path / "manifest.json"
        with pytest.raises(ValueError, match="JSON"):
            manifest.save(path)
        assert not path.exists()

    def test_loads_a_manifest_that_records_seeds(self, tmp_path):
        # Manifests written while the config had a seed field record it; it is dropped.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "denoise", "seeds": {"config": 3}}))
        assert RunManifest.load(path) == RunManifest(command="denoise")

    def test_infinite_gpsnr_serializable(self, tmp_path):
        # Identical clean and test clouds: the eval manifest's GPSNR is infinite.
        from dpcdenoise.cli import cli_main

        cloud = tmp_path / "cloud.ply"
        write_point_cloud(random_frame(30, 5, with_normals=True), cloud)
        path = tmp_path / "manifest.json"
        assert cli_main(["eval", "--clean", str(cloud), "--test", str(cloud),
                         "--out", str(tmp_path / "metrics.csv"), "--manifest", str(path)]) == 0
        assert RunManifest.load(path).frame_metrics[0]["gpsnr_db"] == "inf"
