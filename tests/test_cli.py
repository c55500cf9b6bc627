"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import contextlib
import enum
import io
import json
import math
import os
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkorobov import analysis, cli, sparsegrid
from qkorobov.cli import build_parser, json_text, main

# the options each subcommand reads and its --format choices, default first
# (None: JSON only); --config and --out go to every command
DECLARED = {
    "eval": ({"--fn", "--expr", "--d", "--n", "--x", "--normalized",
              "--include-identity-gates"}, ["csv", "json"]),
    "coeffs": ({"--fn", "--expr", "--d", "--n", "--quadrature"}, None),
    "convergence": ({"--fn", "--expr", "--d", "--n", "--n-range", "--p", "--seed"},
                    ["csv", "json", "svg"]),
    "resources": ({"--d", "--n", "--n-range", "--p", "--eps"}, ["json", "csv"]),
    "audit": ({"--fn", "--d", "--n", "--scale-coeffs"}, None),
    "circuit": ({"--fn", "--expr", "--d", "--n", "--x", "--include-identity-gates"}, None),
}

# one well-formed value per option, None for a switch
SAMPLE_VALUES = {
    "--fn": "prod-quad", "--expr": "x(1-x)", "--d": "1", "--n": "1", "--n-range": "1..2",
    "--p": "2", "--x": "0.5", "--eps": "0.1", "--seed": "1", "--normalized": None,
    "--quadrature": None, "--include-identity-gates": None, "--scale-coeffs": "1.0",
    "--format": "json",
}

# a cheap valid invocation of each command, which a foreign option must spoil
BASE_ARGS = {"eval": [], "coeffs": [], "convergence": ["--n", "1"],
             "resources": ["--d", "1", "--n", "1"], "audit": ["--n", "1"], "circuit": []}

FOREIGN = [
    (command, flag) for command, (options, formats) in DECLARED.items()
    for flag in SAMPLE_VALUES
    if flag not in options and not (flag == "--format" and formats)
]


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestEval:
    def test_fixture_point(self, tmp_path):
        code, data = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.125"],
            tmp_path, "eval.csv",
        )
        assert code == 0
        lines = data.decode().strip().splitlines()
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert float(row["classical"]) == pytest.approx(0.09375, abs=1e-12)
        assert float(row["circuit"]) == pytest.approx(0.09375, abs=1e-9)
        assert float(row["abs_diff"]) <= 1e-9
        assert row["width"] == "4"

    def test_boundary_point_all_zero(self, tmp_path):
        code, data = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.0",
             "--format", "json"],
            tmp_path, "eval.json",
        )
        assert code == 0
        row = json.loads(data)["rows"][0]
        assert row["classical"] == 0.0
        assert row["circuit"] == 0.0
        assert row["true"] == 0.0

    def test_d2_cross_oracle(self, tmp_path):
        code, data = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "2", "--n", "3",
             "--x", "0.3,0.7", "--format", "json"],
            tmp_path, "eval2.json",
        )
        assert code == 0
        row = json.loads(data)["rows"][0]
        assert abs(row["abs_diff"]) <= 1e-9

    def test_normalized_flag(self, tmp_path):
        code, data = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.3",
             "--normalized", "--format", "json"],
            tmp_path, "evaln.json",
        )
        row = json.loads(data)["rows"][0]
        assert row["one_norm"] * row["normalized_amplitude"] == pytest.approx(
            row["circuit"], abs=1e-12
        )

    def test_expr_function(self, tmp_path):
        code, data = run_cli(
            ["eval", "--expr", "x(1-x)*sin(pi x)", "--n", "2",
             "--x", "0.25,0.25", "--format", "json"],
            tmp_path, "evale.json",
        )
        assert code == 0
        doc = json.loads(data)
        assert doc["d"] == 2


class TestCoeffs:
    def test_fixture_values(self, tmp_path):
        code, data = run_cli(
            ["coeffs", "--fn", "prod-quad", "--d", "1", "--n", "2"],
            tmp_path, "coeffs.json",
        )
        assert code == 0
        doc = json.loads(data)
        values = {tuple(e["level"] + e["index"]): e["value"] for e in doc["entries"]}
        assert values == {(1, 1): 0.25, (2, 1): 0.0625, (2, 3): 0.0625}

    def test_zero_function(self, tmp_path):
        code, data = run_cli(
            ["coeffs", "--fn", "zero", "--d", "1", "--n", "2"],
            tmp_path, "zero.json",
        )
        assert code == 0
        doc = json.loads(data)
        assert all(e["value"] == 0.0 for e in doc["entries"])
        # the integral oracle reads the zero derivative one factor per axis
        code, data = run_cli(
            ["coeffs", "--fn", "zero", "--d", "2", "--n", "2", "--quadrature"],
            tmp_path, "zero2.json",
        )
        assert code == 0
        entries = json.loads(data)["entries"]
        assert len(entries) == 5 and all(e["quadrature"] == 0.0 for e in entries)

    def test_quadrature_column(self, tmp_path):
        code, data = run_cli(
            ["coeffs", "--fn", "prod-quad", "--d", "2", "--n", "1", "--quadrature"],
            tmp_path, "coeffsq.json",
        )
        assert code == 0
        entry = json.loads(data)["entries"][0]
        assert entry["value"] == pytest.approx(0.0625, abs=1e-12)
        assert entry["quadrature"] == pytest.approx(entry["value"], abs=1e-10)


class TestConvergence:
    def test_csv_schema_and_annotation(self, tmp_path):
        code, data = run_cli(
            ["convergence", "--fn", "prod-quad", "--d", "2", "--p", "inf",
             "--n-range", "1..3"],
            tmp_path, "conv.csv",
        )
        assert code == 0
        text = data.decode()
        assert "log_exponent=3(d-1)=3" in text.splitlines()[0]
        assert text.splitlines()[1] == "n,N,error_inf,error_2,slope_running"

    def test_single_row_has_empty_slope(self, tmp_path):
        code, data = run_cli(
            ["convergence", "--fn", "prod-quad", "--d", "1", "--p", "inf", "--n", "3"],
            tmp_path, "conv1.csv",
        )
        assert code == 0
        last = data.decode().strip().splitlines()[-1]
        assert last.endswith(",")  # slope_running column empty

    def test_running_slope_ends_at_fitted_slope(self, tmp_path):
        argv = ["convergence", "--fn", "prod-sin", "--d", "2", "--p", "inf",
                "--n-range", "2..5"]
        _, data = run_cli(argv, tmp_path, "conv.csv")
        running = [line.split(",")[-1] for line in data.decode().splitlines()[2:]]
        _, doc = run_cli(argv + ["--format", "json"], tmp_path, "conv.json")
        assert running[0] == ""
        assert float(running[-1]) == json.loads(doc)["slope"]

    def test_general_p_csv_prints_error_p(self, tmp_path):
        # for p outside {2, inf} the running slope is fitted on error_p
        argv = ["convergence", "--fn", "prod-sin", "--d", "2", "--p", "3", "--n-range", "2..4"]
        _, data = run_cli(argv, tmp_path, "conv.csv")
        lines = data.decode().splitlines()
        assert lines[1] == "n,N,error_inf,error_2,error_p,slope_running"
        rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
        _, doc = run_cli(argv + ["--format", "json"], tmp_path, "conv.json")
        doc = json.loads(doc)
        assert [float(r["error_p"]) for r in rows] == [r["error_p"] for r in doc["rows"]]
        assert float(rows[-1]["slope_running"]) == doc["slope"]

    def test_json_slope(self, tmp_path):
        code, data = run_cli(
            ["convergence", "--fn", "prod-quad", "--d", "1", "--p", "inf",
             "--n-range", "3..10", "--format", "json"],
            tmp_path, "conv.json",
        )
        doc = json.loads(data)
        assert doc["slope"] == pytest.approx(-2.0, abs=0.05)
        assert doc["log_exponent"] == 0

    def test_svg_output(self, tmp_path):
        code, data = run_cli(
            ["convergence", "--fn", "prod-quad", "--d", "1", "--p", "inf",
             "--n-range", "2..6", "--format", "svg"],
            tmp_path, "conv.svg",
        )
        assert code == 0
        text = data.decode()
        assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize("fn, n_range", [("zero", "1..3"), ("prod-quad", "1..1")])
    def test_svg_with_no_plottable_row(self, tmp_path, fn, n_range):
        # zero errors and N = 1 rows are never plotted: the label stands alone
        code, data = run_cli(
            ["convergence", "--fn", fn, "--d", "1", "--n-range", n_range, "--format", "svg"],
            tmp_path, "empty.svg",
        )
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0].startswith("<svg") and lines[-1] == "</svg>"
        assert len(lines) == 3 and f"{fn} d=1 p=inf" in lines[1]
        assert "polyline" not in data.decode()

    def test_empty_range_is_config_error(self, tmp_path):
        code, _ = run_cli(
            ["convergence", "--fn", "prod-quad", "--d", "1", "--p", "inf",
             "--n-range", "5..3"],
            tmp_path, "bad.csv",
        )
        assert code == 2


class TestResources:
    def test_orderings_and_measurement(self, tmp_path):
        code, data = run_cli(
            ["resources", "--p", "2", "--d", "1", "--n", "2"],
            tmp_path, "res.json",
        )
        assert code == 0
        doc = json.loads(data)
        for row in doc["estimates"]:
            assert row["simplified_depth"] >= row["refined_depth"]
            assert row["simplified_width"] >= row["refined_width"]
        measured = [m for m in doc["measured"] if m["feasible"]]
        assert measured and measured[0]["width"] == 4  # d=1, n=2 fixture

    def test_depth_monotone_in_eps(self, tmp_path):
        code, data = run_cli(
            ["resources", "--p", "2", "--d", "2", "--eps", "0.5,0.05",
             "--n", "1"],
            tmp_path, "res2.json",
        )
        doc = json.loads(data)
        depths = {r["epsilon"]: r["refined_depth"] for r in doc["estimates"]}
        assert depths[0.05] > depths[0.5]

    @pytest.mark.parametrize("args, field", [
        (["--eps", "1e-300", "--d", "1", "--p", "2"], "simplified_depth_bound"),
        (["--eps", "1e-320", "--d", "3", "--p", "3"], "simplified_depth_bound"),
        (["--eps", "1e-300", "--d", "2"], "simplified_depth_bound"),
        (["--eps", "0.01,1e-320", "--d", "1", "--format", "csv"], "Lambert W argument"),
    ])
    def test_non_finite_bound_is_config_error(self, tmp_path, capsys, args, field):
        code, data = run_cli(["resources", "--n", "1", *args], tmp_path, "res.out")
        assert (code, data) == (2, b"")
        assert f"the {field} at epsilon=" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, bad", [("0.5,abc", "abc"), ("0.5,", "")])
    def test_unparsable_eps_is_config_error(self, tmp_path, capsys, eps, bad):
        code, data = run_cli(["resources", "--eps", eps], tmp_path, "res.out")
        assert (code, data) == (2, b"")
        assert capsys.readouterr().err == f"error: cannot parse --eps {bad!r}\n"

    def test_csv_builds_no_map(self, tmp_path, monkeypatch):
        # the CSV prints only the estimates, so no surplus map may be built for it
        def refuse(*args, **kwargs):
            raise AssertionError("resources --format csv built a surplus map")

        monkeypatch.setattr(sparsegrid, "surplus_coefficients", refuse)
        code, data = run_cli(
            ["resources", "--d", "3", "--n-range", "1..6", "--format", "csv"],
            tmp_path, "res.csv",
        )
        assert code == 0
        golden = Path(__file__).resolve().parent / "golden" / "resources-csv.out"
        assert data == golden.read_bytes()


class TestAudit:
    def test_full_corpus_passes(self, tmp_path):
        code, data = run_cli(["audit", "--n", "3"], tmp_path, "audit.json")
        assert code == 0
        doc = json.loads(data)
        assert doc["pass"] is True
        assert all(r["max_ratio_inf"] <= 1.0 + 1e-12 for r in doc["reports"])
        assert all(r["stencil_vs_integral_max_gap"] <= r["gap_tolerance"]
                   for r in doc["reports"])

    def test_scaled_coefficients_fail(self, tmp_path):
        code, data = run_cli(
            ["audit", "--fn", "prod-quad", "--d", "1", "--n", "2",
             "--scale-coeffs", "1.1"],
            tmp_path, "audit-bad.json",
        )
        assert code == 3
        doc = json.loads(data)
        assert doc["pass"] is False
        offending = doc["reports"][0]["violations"] or doc["reports"][1]["violations"]
        assert offending[0]["level"] == [1]

    def test_d3_member_on_request(self, tmp_path):
        code, data = run_cli(["audit", "--fn", "prod-quad", "--d", "3", "--n", "4"],
                             tmp_path, "audit-d3.json")
        assert code == 0
        doc = json.loads(data)
        assert doc["pass"] is True
        assert [(r["function"], r["d"], r["n"]) for r in doc["reports"]] == [
            ("prod-quad", 3, n) for n in range(1, 5)]

    def test_d3_scaled_coefficients_fail(self, tmp_path):
        code, data = run_cli(["audit", "--fn", "prod-quad", "--d", "3", "--n", "4",
                              "--scale-coeffs", "1.1"], tmp_path, "audit-d3-bad.json")
        assert code == 3
        doc = json.loads(data)
        assert doc["pass"] is False
        violations = [v for r in doc["reports"] for v in r["violations"]]
        assert violations and all(len(v["level"]) == len(v["index"]) == 3 for v in violations)

    def test_scaled_audit_peak_memory(self, tmp_path):
        # violations are named a block at a time as they are written, never held
        argv = ["audit", "--fn", "prod-quad", "--d", "3", "--n", "7", "--scale-coeffs", "3.0",
                "--out", str(tmp_path / "audit.json")]
        assert main(argv) == 3
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_default_set_stays_d_at_most_2(self, tmp_path):
        code, data = run_cli(["audit", "--n", "2"], tmp_path, "audit-default.json")
        assert code == 0
        members = [(fn.name, fn.d) for fn in analysis.corpus() if fn.d <= 2]
        reports = json.loads(data)["reports"]
        assert [(r["function"], r["d"]) for r in reports] == [m for m in members for _ in (1, 2)]


class TestCircuitTrace:
    def test_trace_shape(self, tmp_path):
        code, data = run_cli(
            ["circuit", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.3"],
            tmp_path, "trace.json",
        )
        assert code == 0
        doc = json.loads(data)
        assert doc["width"] == 4
        assert doc["terms"] == 4
        op = doc["ops"][0]
        assert set(op) == {"kind", "label", "targets", "controls",
                           "control_values", "matrix"}
        # 2x2 matrices flattten to four [re, im] pairs
        assert len(op["matrix"]) in (4, 16)

    def test_trace_on_unsupported_point(self, tmp_path):
        # x_1 = 0 is on the boundary: no level supports the point, so no term exists
        code, data = run_cli(
            ["circuit", "--fn", "prod-quad", "--d", "2", "--n", "2", "--x", "0,0.3"],
            tmp_path, "trace0.json",
        )
        assert code == 0
        doc = json.loads(data)
        assert doc == {"function": "prod-quad", "d": 2, "n": 2, "x": [0.0, 0.3],
                       "width": 0, "terms": 0, "one_norm": 0.0, "ops": []}
        code, data = run_cli(
            ["circuit", "--fn", "prod-quad", "--d", "2", "--n", "2", "--x", "0.5,0.3"],
            tmp_path, "trace1.json",
        )
        assert code == 0
        # x = (0.5, 0.3) still sits inside the level-(1, 1) hat, so terms exist
        supported = json.loads(data)
        assert list(supported) == list(doc) and supported["terms"] >= 1

    def test_more_than_one_point_is_config_error(self, tmp_path, capsys):
        code, data = run_cli(
            ["circuit", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.3;0.7"],
            tmp_path, "trace2.json",
        )
        assert (code, data) == (2, b"")
        assert "--x gives 2" in capsys.readouterr().err

    def test_dense_state_preparation_beyond_ceiling_is_config_error(self, tmp_path, capsys):
        # 2,912 terms: the traced F would be dense on 12 selector qubits, 4^12 entries
        code, data = run_cli(
            ["circuit", "--fn", "prod-quad", "--d", "3", "--n", "12", "--x", "0.3,0.6,0.7"],
            tmp_path, "trace-big.json",
        )
        assert (code, data) == (2, b"")
        assert "above the dense ceiling" in capsys.readouterr().err


class TestJsonText:
    def test_doubles_round_trip(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2 ** 64, size=20000, dtype=np.uint64).view(np.float64)
        values = [v for v in bits.tolist() + rng.standard_normal(1000).tolist()
                  if math.isfinite(v)] + [0.0, -0.0, 5e-324, 1.7976931348623157e308]
        back = json.loads(json_text({"values": values}))["values"]
        assert [v.hex() for v in back] == [v.hex() for v in values]

    def test_non_finite_and_numpy_scalars(self):
        doc = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": np.float64("nan"),
               "e": np.float64(0.1), "f": np.float32(0.5), "g": np.int64(3), "h": (1, 2.5)}
        assert json.loads(json_text(doc)) == {
            "a": "inf", "b": "-inf", "c": "nan", "d": "nan",
            "e": 0.1, "f": 0.5, "g": 3, "h": [1, 2.5]}



def reference_json_text(doc) -> str:
    """The plain writer: clean the values, then ``json.dumps(indent=2)``."""
    def clean(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else repr(float(obj))
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            item = obj.item()  # a long double's item() is a long double: json refuses it
            return obj if isinstance(item, np.generic) else clean(item)
        return obj

    return json.dumps(clean(doc), indent=2) + "\n"


TRICKY_CHARS = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "a", " ",
                                "\u00e9", "\u20ac", "\U0001f600", "\ud800", "/"])
TEXT = st.text() | st.text(TRICKY_CHARS, max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    TEXT,
)
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
DOCS = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(KEYS, kids, max_size=4)), max_leaves=40)


def assert_same_text(got: str, want: str) -> None:
    """Exact equality of two texts, failing with a short window round the first difference.

    A mismatch reports the lengths, the first differing offset and 120
    characters of each text round it, before pytest's rewritten ``==`` could
    diff two texts of 0.25-0.5 MB, which can run for minutes.
    """
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        near = slice(max(0, at - 60), at + 60)
        pytest.fail(f"texts of {len(got)} and {len(want)} characters differ from offset "
                    f"{at}: got ...{got[near]!r}..., want ...{want[near]!r}...")
    assert got == want


def few_values(dtype) -> np.ndarray:
    """Eight distinct finite values of ``dtype``: both zeros, both smallest
    subnormals, a large power of two and three ordinary values."""
    info = np.finfo(dtype)
    tiny = float(info.smallest_subnormal)
    big = 2.0 ** min(70, info.maxexp - 2)  # 2**14 as float16
    return np.array([0.0, -0.0, tiny, -tiny, big, 0.5, -1 / 3, 0.1], dtype=dtype)


class Shade(enum.IntEnum):
    LIGHT = 1
    DARK = 2


class TestJsonWriterMatchesReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(DOCS)
    def test_nested_docs(self, doc):
        assert_same_text(json_text(doc), reference_json_text(doc))

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (4, 2), (2, 2, 2), (3, 0), (700, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ndarray_is_its_tolist(self, shape, dtype):
        rng = np.random.default_rng(len(shape))
        arr = rng.choice([0.0, -0.0, 5e-324, 0.5, -1 / 3, 2.0 ** 70],
                         size=shape).astype(dtype)
        if arr.size > 100:  # many distinct values too, as a general trace holds
            arr.flat[::7] = rng.standard_normal(arr.flat[::7].size)
        doc = {"a": arr, "nested": [arr, {"b": arr}]}
        want = {"a": arr.tolist(), "nested": [arr.tolist(), {"b": arr.tolist()}]}
        assert_same_text(json_text(doc), reference_json_text(want))
        assert_same_text(json_text(arr), reference_json_text(arr.tolist()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ndarray_with_non_finite_prints_strings(self, bad):
        large = np.random.default_rng(8).choice(few_values(np.float64), size=(10000, 2))
        for arr in (np.array([1.0, bad, -0.0]), np.full((40, 40), 0.25), large):
            arr[-1, ...] = bad
            assert_same_text(json_text({"m": arr}), reference_json_text({"m": arr.tolist()}))

    @pytest.mark.parametrize("bad", [
        {1, 2}, object(), np.array([1, 2]), np.array([1j]), np.bool_(True), {(1, 2): 0},
        pytest.param(np.longdouble(1.5), marks=pytest.mark.skipif(
            np.dtype(np.longdouble).itemsize <= 8, reason="long double is a double here")),
    ])
    def test_unwritable_types_raise(self, bad):
        for doc in (bad, {"a": [1, bad]}):
            with pytest.raises(TypeError):
                json_text(doc)
            if not isinstance(bad, np.ndarray):  # the reference has no ndarray rule
                with pytest.raises(TypeError):
                    reference_json_text(doc)

    @pytest.mark.parametrize("shape", [(20000,), (10000, 2), (50, 100, 2), (12, 1000)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, ">f8"])
    def test_large_array_of_few_values(self, shape, dtype):
        # (12, 1000): too many distinct rows for one integer key per row
        rng = np.random.default_rng(len(shape))
        arr = rng.choice(few_values(dtype), size=shape)
        assert arr.size >= 10 ** 4 and arr.dtype == np.dtype(dtype)
        assert_same_text(json_text(arr), reference_json_text(arr.tolist()))
        assert_same_text(json_text({"m": [arr]}), reference_json_text({"m": [arr.tolist()]}))

    @pytest.mark.parametrize("shape", [(20000,), (10000, 2), (50, 100, 2)])
    def test_large_array_of_distinct_values(self, shape):
        arr = np.random.default_rng(3).standard_normal(shape)
        assert_same_text(json_text({"m": arr}), reference_json_text({"m": arr.tolist()}))

    def test_mostly_repeated_with_some_distinct(self):
        rng = np.random.default_rng(4)
        arr = rng.choice(few_values(np.float64), size=(8192, 2))
        arr.flat[::97] = rng.standard_normal(arr.flat[::97].size)
        assert_same_text(json_text(arr), reference_json_text(arr.tolist()))

    def test_non_contiguous_and_fortran_order(self):
        base = np.random.default_rng(5).choice(few_values(np.float64), size=(400, 60))
        for arr in (base[::2, ::-3], base.T, np.asfortranarray(base), base[:, 7]):
            assert not arr.flags.c_contiguous or arr.ndim == 1
            assert_same_text(json_text({"m": arr}), reference_json_text({"m": arr.tolist()}))

    def test_repeated_array_at_two_depths_and_shapes(self):
        arr = np.random.default_rng(6).choice(few_values(np.float64), size=(6000, 2))
        flat = arr.reshape(-1)  # the same bytes under another shape
        swapped = arr.view(arr.dtype.newbyteorder())  # and under another dtype, same shape
        assert np.isfinite(swapped).all()
        doc = {"a": arr, "b": [[arr, {"c": arr}]], "d": flat, "e": swapped, "f": arr}
        want = {"a": arr.tolist(), "b": [[arr.tolist(), {"c": arr.tolist()}]],
                "d": flat.tolist(), "e": swapped.tolist(), "f": arr.tolist()}
        assert_same_text(json_text(doc), reference_json_text(want))

    def test_no_text_kept_between_documents(self):
        arr = np.random.default_rng(7).choice(few_values(np.float64), size=(10000, 2))
        first = json_text({"m": arr, "n": arr})
        arr[::3] = 0.25  # the same object, shape and dtype, other values
        tracemalloc.start()
        try:
            second = json_text({"m": arr, "n": arr})
            # what the call left allocated beyond the text it returned
            retained = tracemalloc.get_traced_memory()[0] - sys.getsizeof(second)
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024  # the array's text alone is 0.25 MB
        assert first != second
        assert_same_text(second, reference_json_text({"m": arr.tolist(), "n": arr.tolist()}))

    @pytest.mark.parametrize("ints", [
        [1, True, 2], [False], [np.int64(3), 4], [np.int64(-7)], [Shade.DARK, 2], [Shade.LIGHT],
        [1, 2.0], [0, -5, 10 ** 30], [2, None],
    ])
    def test_int_lists_with_other_values(self, ints):
        # only a list of plain ints takes the one-join path; the rest writes value by value
        for doc in (ints, {"a": ints, "b": [ints, []]}, tuple(ints)):
            assert_same_text(json_text(doc), reference_json_text(doc))


def as_iterators(obj):
    """``obj`` with every list and tuple in it turned into an iterator of its items."""
    if isinstance(obj, dict):
        return {key: as_iterators(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return iter([as_iterators(value) for value in obj])
    return obj


class CountingStream(io.StringIO):
    """A text stream that counts the ``writelines`` calls it takes."""

    calls = 0

    def writelines(self, lines):
        self.calls += 1
        super().writelines(lines)


class TestStreamedWriter:
    """``json_text(doc, stream)`` writes the text ``json_text(doc)`` returns."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(DOCS)
    def test_stream_gets_the_text(self, doc):
        want = json_text(doc)
        stream = CountingStream()
        assert json_text(doc, stream) is None
        assert_same_text(stream.getvalue(), want)
        assert stream.calls == 1  # fewer than SPILL_PIECES pieces go in one call

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(DOCS)
    def test_iterators_write_as_lists(self, doc):
        want = json_text(doc)
        assert_same_text(json_text(as_iterators(doc)), want)
        with mock.patch.object(cli, "SPILL_PIECES", 1):  # spill after every item
            stream = CountingStream()
            json_text(as_iterators(doc), stream)
        assert_same_text(stream.getvalue(), want)

    def test_long_iterator_is_spilled(self):
        rows = [{"level": [k % 9, 1], "ratio": k / 7} for k in range(2000)]
        with mock.patch.object(cli, "SPILL_PIECES", 64):
            stream = CountingStream()
            json_text({"rows": iter(rows), "n": 2000}, stream)
        assert stream.calls > 2000 * 6 // 64  # about 6 pieces a row
        assert_same_text(stream.getvalue(), reference_json_text({"rows": rows, "n": 2000}))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(DOCS)
    def test_out_file_and_stdout(self, tmp_path_factory, doc):
        want = json_text(doc)
        path = tmp_path_factory.getbasetemp() / "streamed.json"
        cli.write_json(doc, str(path))
        assert_same_text(path.read_bytes().decode("utf-8"), want)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.write_json(doc, None)
        assert_same_text(out.getvalue(), want)

    @pytest.mark.parametrize("argv", [
        ["circuit", "--fn", "prod-quad", "--d", "3", "--n", "4", "--x", "0.3,0.6,0.7"],
        ["audit", "--fn", "prod-quad", "--d", "1", "--n", "3", "--scale-coeffs", "1.1"],
    ])
    def test_commands_write_the_document_text(self, tmp_path, capsys, monkeypatch, argv):
        docs = []
        monkeypatch.setattr(cli, "write_json", lambda doc, path: docs.append(doc))
        code = main(argv)
        monkeypatch.undo()
        [doc] = docs
        want = json_text(doc)
        assert main(argv + ["--out", str(tmp_path / "doc.json")]) == code
        assert_same_text((tmp_path / "doc.json").read_bytes().decode("utf-8"), want)
        capsys.readouterr()
        assert main(argv) == code
        assert_same_text(capsys.readouterr().out, want)

    def test_trace_peak_memory(self, tmp_path):
        # pieces go to the file unjoined: no 8 MB document text and no encoded copy of it
        argv = ["circuit", "--fn", "prod-quad", "--d", "3", "--n", "4", "--x", "0.3,0.6,0.7",
                "--out", str(tmp_path / "trace.json")]
        assert main(argv) == 0
        assert (tmp_path / "trace.json").stat().st_size > 8 * 10 ** 6
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 19 * 2 ** 20

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_distinct_by_sort_is_unique(self, dtype):
        rng = np.random.default_rng(11)
        few = few_values(dtype)  # both zeros and both smallest subnormals among them
        cases = [few, rng.choice(few, 5000), np.repeat(few, 3)[::-1], few[:1], few[:0],
                 rng.standard_normal(3000).astype(dtype)]
        for values in cases:
            bits = np.ascontiguousarray(values).view(f"u{values.itemsize}")
            got, want = cli._distinct(bits), np.unique(bits)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        keys = rng.integers(0, 400, 10000)  # row keys are intp
        assert cli._distinct(keys).tolist() == np.unique(keys).tolist()


class TestOutPath:
    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "prod-quad", "--d", "1", "--n", "3", "--x", "0.3"],  # CSV
        ["circuit", "--fn", "prod-quad", "--d", "3", "--n", "4", "--x", "0.3,0.6,0.7"],  # JSON
    ])
    def test_missing_directory_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       argv):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before --out was checked")

        monkeypatch.setattr(sparsegrid, "surplus_coefficients", refuse)
        out = tmp_path / "missing" / "x.out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write --out {out}: no directory {out.parent}" in err
        assert "Traceback" not in err and not out.parent.exists()

    def test_directory_as_out_is_config_error(self, tmp_path, capsys):
        argv = ["eval", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.3"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"cannot write --out {tmp_path}: it is a directory" in capsys.readouterr().err

    def test_failed_write_is_config_error(self, tmp_path, capsys, monkeypatch):
        def failing_open(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        out = tmp_path / "full.json"
        argv = ["circuit", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "0.3"]
        assert main(argv + ["--out", str(out)]) == 2
        assert (f"error: cannot write --out {out}: No space left on device"
                in capsys.readouterr().err)


class TestPlumbing:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["convergence", "--fn", "prod-quad", "--d", "1", "--p", "2",
                "--n-range", "1..4"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fn": "prod-quad", "d": 1, "n": 2, "x": "0.125"}))
        code, data = run_cli(
            ["eval", "--config", str(cfg), "--format", "json"],
            tmp_path, "cfg-eval.json",
        )
        assert code == 0
        assert json.loads(data)["n"] == 2
        # flag overrides the file value
        code, data = run_cli(
            ["eval", "--config", str(cfg), "--n", "3", "--format", "json"],
            tmp_path, "cfg-eval2.json",
        )
        assert json.loads(data)["n"] == 3

    def test_unknown_function_is_config_error(self, tmp_path):
        code, _ = run_cli(
            ["eval", "--fn", "does-not-exist", "--d", "1", "--n", "2", "--x", "0.5"],
            tmp_path, "x.csv",
        )
        assert code == 2

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        code, _ = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "2", "--n", "2", "--x", "0.5"],
            tmp_path, "y.csv",
        )
        assert code == 2

    def test_point_outside_cube_is_config_error(self, tmp_path):
        code, _ = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "1", "--n", "2", "--x", "1.5"],
            tmp_path, "z.csv",
        )
        assert code == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _ = run_cli(
            ["eval", "--config", str(cfg), "--fn", "prod-quad", "--d", "1",
             "--n", "2", "--x", "0.5"],
            tmp_path, "w.csv",
        )
        assert code == 2

    def test_level_zero_is_config_error(self, tmp_path):
        code, _ = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "1", "--n", "0", "--x", "0.5"],
            tmp_path, "n0.csv",
        )
        assert code == 2

    def test_config_value_of_wrong_type(self, tmp_path):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"n": "3"}))
        code, _ = run_cli(
            ["eval", "--config", str(cfg), "--fn", "prod-quad", "--d", "1", "--x", "0.5"],
            tmp_path, "typed.csv",
        )
        assert code == 2

    def test_config_flag_values(self, tmp_path):
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({"fn": "prod-quad", "d": 1, "n": 2, "x": 0.3,
                                   "normalized": True, "format": "json"}))
        code, data = run_cli(["eval", "--config", str(cfg)], tmp_path, "flags.json")
        assert code == 0
        assert "normalized_amplitude" in json.loads(data)["rows"][0]


class TestDeclaration:
    def test_parsers_match_the_declaration(self):
        _, subparsers = build_parser()
        assert set(subparsers) == set(DECLARED)
        settable = 0
        for name, sp in subparsers.items():
            options, formats = DECLARED[name]
            actions = {a.option_strings[0]: a for a in sp._actions if a.dest != "help"}
            want = options | {"--config", "--out"} | ({"--format"} if formats else set())
            assert set(actions) == want, name
            if formats:
                assert list(actions["--format"].choices) == formats
                assert actions["--format"].default == formats[0]
            settable += len(actions)
        assert settable == 49

    def test_foreign_pairs_counted(self):
        assert len(FOREIGN) == 47

    @pytest.mark.parametrize("command", sorted(BASE_ARGS))
    def test_base_invocation_succeeds(self, tmp_path, command):
        code, data = run_cli([command] + BASE_ARGS[command], tmp_path, "out")
        assert code == 0 and data

    @pytest.mark.parametrize("command,flag", FOREIGN)
    def test_foreign_option_exits_2(self, tmp_path, command, flag):
        value = SAMPLE_VALUES[flag]
        out = tmp_path / "out"
        argv = [command, *BASE_ARGS[command], flag] + ([] if value is None else [value])
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_foreign_option_names_its_command(self, tmp_path, capsys):
        code, data = run_cli(["coeffs", "--p", "banana"], tmp_path, "out")
        assert (code, data) == (2, b"")
        err = capsys.readouterr().err
        assert "usage: qkorobov coeffs" in err and "unrecognized arguments: --p banana" in err

    @pytest.mark.parametrize("command", ["eval", "resources"])
    def test_foreign_format_exits_2(self, tmp_path, command):
        argv = [command, *BASE_ARGS[command], "--format", "svg"]
        code, data = run_cli(argv, tmp_path, "out")
        assert (code, data) == (2, b"")


class TestConfigPrecedence:
    def config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return ["--config", str(path)]

    def test_scale_flag_at_default_beats_config(self, tmp_path):
        cfg = self.config(tmp_path, {"scale_coeffs": 1.1})
        argv = ["audit", "--fn", "prod-quad", "--d", "1", "--n", "2"]
        code, data = run_cli(argv + cfg, tmp_path, "cfg.json")
        assert (code, json.loads(data)["scale"]) == (3, 1.1)
        code, data = run_cli(argv + cfg + ["--scale-coeffs", "1.0"], tmp_path, "flag.json")
        assert (code, json.loads(data)["scale"]) == (0, 1.0)

    def test_identity_gates_flag_beats_config(self, tmp_path):
        cfg = self.config(tmp_path, {"include_identity_gates": False})
        argv = ["eval", "--fn", "prod-quad", "--d", "2", "--n", "3", "--x", "0.3,0.7"]
        _, plain = run_cli(argv, tmp_path, "plain.csv")
        _, from_cfg = run_cli(argv + cfg, tmp_path, "cfg.csv")
        _, flagged = run_cli(argv + cfg + ["--include-identity-gates"], tmp_path, "flag.csv")
        assert from_cfg != plain
        assert flagged == plain

    def test_seed_flag_at_default_beats_config(self, tmp_path):
        # the seed only reaches the Monte Carlo L2 norm at d = 3
        cfg = self.config(tmp_path, {"seed": 5})
        argv = ["convergence", "--fn", "prod-quad", "--d", "3", "--p", "2", "--n", "1"]
        _, plain = run_cli(argv, tmp_path, "plain.csv")
        _, from_cfg = run_cli(argv + cfg, tmp_path, "cfg.csv")
        _, flagged = run_cli(argv + cfg + ["--seed", "0"], tmp_path, "flag.csv")
        assert from_cfg != plain
        assert flagged == plain

    @pytest.mark.parametrize("command,doc", [
        ("coeffs", {"x": "0.5"}),
        ("coeffs", {"format": "json"}),
        ("audit", {"expr": "x(1-x)"}),
        ("resources", {"fn": "prod-quad"}),
    ])
    def test_key_of_another_command_exits_2(self, tmp_path, capsys, command, doc):
        code, data = run_cli([command] + self.config(tmp_path, doc), tmp_path, "out")
        assert (code, data) == (2, b"")
        assert f"not an option of {command!r}" in capsys.readouterr().err


class TestParsedP:
    # the CSV comment line shows the p the command ran with, as JSON does
    @pytest.mark.parametrize("text", ["1e400", "2.50", "oo", "inf"])
    @pytest.mark.parametrize("command", [
        ["convergence", "--fn", "prod-quad", "--d", "1", "--n-range", "2..3"],
        ["resources", "--d", "1", "--n", "1"],
    ], ids=["convergence", "resources"])
    def test_csv_p_equals_json_p(self, tmp_path, command, text):
        _, csv = run_cli(command + ["--p", text, "--format", "csv"], tmp_path, "p.csv")
        _, doc = run_cli(command + ["--p", text, "--format", "json"], tmp_path, "p.json")
        [csv_p] = [f[2:] for f in csv.decode().splitlines()[0].split() if f.startswith("p=")]
        [json_p] = [line.split(": ")[1].strip('",') for line in doc.decode().splitlines()
                    if line.startswith('  "p": ')]
        assert csv_p == json_p

    @pytest.mark.parametrize("command", [["convergence", "--n", "2"], ["resources", "--n", "1"]],
                             ids=["convergence", "resources"])
    def test_p_below_2_is_config_error(self, tmp_path, command):
        code, data = run_cli(command + ["--p", "1"], tmp_path, "out")
        assert (code, data) == (2, b"")


class TestInputChecks:
    def test_nan_p_is_config_error(self, tmp_path):
        code, data = run_cli(
            ["convergence", "--fn", "prod-quad", "--d", "1", "--p", "nan", "--n", "2"],
            tmp_path, "nan.csv",
        )
        assert (code, data) == (2, b"")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_audit_level_below_one_is_config_error(self, tmp_path, n):
        code, data = run_cli(["audit", "--n", n], tmp_path, "audit.json")
        assert (code, data) == (2, b"")

    def test_nan_scale_is_config_error(self, tmp_path):
        code, data = run_cli(
            ["audit", "--fn", "prod-quad", "--d", "1", "--n", "2", "--scale-coeffs", "nan"],
            tmp_path, "audit.json",
        )
        assert (code, data) == (2, b"")

    def test_empty_coordinate_is_config_error(self, tmp_path):
        code, data = run_cli(
            ["eval", "--fn", "prod-quad", "--d", "2", "--n", "2", "--x", "0.3,,0.5"],
            tmp_path, "eval.csv",
        )
        assert (code, data) == (2, b"")

    @pytest.mark.parametrize("argv", [
        ["--d", "2", "--p", "2"],  # the seed is never used: no Monte Carlo norm
        ["--d", "3", "--p", "3"],
    ])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv, from_config):
        if from_config:
            cfg = tmp_path / "seed.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv = argv + ["--config", str(cfg)]
        else:
            argv = argv + ["--seed", "-1"]
        code, data = run_cli(["convergence", "--fn", "prod-quad", "--n", "2"] + argv,
                             tmp_path, "seed.csv")
        assert (code, data) == (2, b"")
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["circuit", "--fn", "prod-quad", "--d", "2", "--n", "30", "--x", "0.3,0.4"],
        ["eval", "--fn", "zero", "--d", "12", "--n", "30", "--x", ",".join(["0.3"] * 12)],
    ])
    def test_surplus_build_above_ceiling_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        # refused before the levels are listed, let alone a node array built
        def refuse(*args, **kwargs):
            raise AssertionError("built before the check")

        monkeypatch.setattr(sparsegrid, "enumerate_levels", refuse)
        start = time.perf_counter()
        code, data = run_cli(argv, tmp_path, "big.out")
        assert time.perf_counter() - start < 1.0
        assert (code, data) == (2, b"")
        err = capsys.readouterr().err
        assert f"d={argv[4]}, n=30 evaluates f on " in err
        assert "face points, above the limit of 16,777,216 points" in err

    @pytest.mark.parametrize("argv, message", [
        (["audit", "--fn", "prod-quad", "--d", "3", "--n", "17"],
         "d=3, n=17 evaluates f on 17,956,863 nodes + 12,582,918 face points"),
        (["audit", "--d", "2", "--n", "20"],
         "d=2, n=20 evaluates f on 19,922,945 nodes + 4,194,300 face points"),
        (["resources", "--d", "1", "--n-range", "22..24"],
         "d=1, n=24 evaluates f on 16,777,215 nodes + 2 face points"),
        (["resources", "--n-range", "1..22"],
         "d=2, n=22 evaluates f on 88,080,385 nodes + 16,777,212 face points"),
    ])
    def test_largest_build_checked_before_the_first(self, tmp_path, capsys, monkeypatch, argv,
                                                    message):
        # audit and resources build n = 1, 2, ... in turn: the top n is refused first
        def refuse(*args, **kwargs):
            raise AssertionError("built before the check")

        monkeypatch.setattr(sparsegrid, "surplus_coefficients", refuse)
        code, data = run_cli(argv, tmp_path, "big.out")
        assert (code, data) == (2, b"")
        assert f"a surplus build at {message}, above the limit of 16,777,216 points" in (
            capsys.readouterr().err)

    def test_resources_d_without_corpus_member_is_not_checked(self, tmp_path):
        # no map is built at d=4, so its rows stay infeasible whatever n
        code, data = run_cli(["resources", "--d", "4", "--n-range", "40..41"], tmp_path, "r.json")
        assert code == 0
        assert [(m["n"], m["feasible"]) for m in json.loads(data)["measured"]] == [
            (40, False), (41, False)]

    @pytest.mark.parametrize("argv, message", [
        (["--fn", "prod-quad", "--d", "3", "--p", "2", "--n-range", "6..6"],
         "sup norm at d=3, n=6 reads a tensor grid of 1,076,890,625 points"),
        (["--expr", "x(1-x)*x(1-x)*x(1-x)*x(1-x)", "--p", "2", "--n-range", "4..4"],
         "sup norm at d=4, n=4 reads a tensor grid of 4,362,470,401 points"),
        (["--fn", "prod-sin", "--d", "2", "--p", "2", "--n-range", "3..11"],
         "sup norm at d=2, n=11 reads a tensor grid of 1,073,807,361 points"),
    ])
    def test_norm_grid_above_ceiling_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                     argv, message):
        # refused before the first map is built or a grid read
        def refuse(*args, **kwargs):
            raise AssertionError("built or read before the check")

        monkeypatch.setattr(analysis, "surplus_coefficients", refuse)
        monkeypatch.setattr(analysis, "_grid_error", refuse)
        code, data = run_cli(["convergence"] + argv, tmp_path, "big.csv")
        assert (code, data) == (2, b"")
        assert message in capsys.readouterr().err
