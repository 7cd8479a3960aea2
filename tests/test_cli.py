import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gzflows import ratmodel, serialize, verify
from gzflows.cli import HANDLERS, run
from gzflows.errors import InputError, ToleranceError
from gzflows.matpoly import poly_from_roots
from gzflows.ratmodel import enumerate_sr, fixture_from_polar


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call_json(capsys, *argv):
    code, out, err = call(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBasicCommands:
    def test_gz_map_example(self, capsys):
        doc = call_json(
            capsys, "gz-map",
            "--input", '{"matrix": [[[1,0],[0,0]],[[0,0],[2,0]]]}',
        )
        assert doc["values"] == [[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]]
        assert doc["n"] == 2 and doc["basis"] == "tr-power"

    def test_gz_flow_conserves(self, capsys):
        payload = {
            "matrix": serialize.encode_array(np.array([[0.1, 0.4], [0.0, -0.2]])),
            "flows": [{"m": 1, "i": 1, "z": [0.3, 0.1]}],
        }
        doc = call_json(capsys, "gz-flow", "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert doc["conservation_defect"] < 1e-9

    def test_sregular(self, capsys):
        doc = call_json(
            capsys, "sregular",
            "--input", '{"matrix": [[[0,0],[1,0]],[[0,0],[0,0]]]}',
        )
        assert doc["strongly_regular"] is True
        assert doc["rank"] == 1 and doc["required_rank"] == 1

    def test_orbit_count_example(self, capsys):
        payload = {
            "polys": [
                serialize.encode_array([0, 1]),
                serialize.encode_array([0, 0, 1]),
            ],
            "mode": "matrices",
        }
        doc = call_json(capsys, "orbit-count", "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert doc["t"] == 1 and doc["count"] == 2

    def test_strata(self, capsys):
        payload = {
            "polys": [
                serialize.encode_array(poly_from_roots([1.0])),
                serialize.encode_array(poly_from_roots([1.0, 5.0])),
            ]
        }
        doc = call_json(capsys, "strata", "--input", json.dumps(payload, default=np.ndarray.tolist))
        mults = {tuple(e["multiplicities"]) for e in doc["signature"]}
        assert mults == {(1, 1), (0, 1)}

    def test_strata_from_gz_map_output(self, capsys):
        coords = call_json(
            capsys, "gz-map",
            "--input", '{"matrix": [[[1,0],[0,0]],[[0,0],[2,0]]], "basis": "charpoly"}',
        )
        doc = call_json(capsys, "strata", "--input", json.dumps({"coords": coords}, default=np.ndarray.tolist))
        assert len(doc["signature"]) == 2

    def test_enumerate_orbits(self, capsys):
        doc = call_json(capsys, "enumerate-orbits", "--input", '{"k": [1, 1]}')
        assert doc["count"] == 2
        assert all(e["strongly_regular"] for e in doc["representatives"])
        sigmas = {tuple(e["sigma"]) for e in doc["representatives"]}
        assert sigmas == {(-1,), (1,)}

    def test_polar_roundtrip(self, capsys):
        rng = np.random.default_rng(0)
        F = fixture_from_polar(
            [poly_from_roots([0.5]), poly_from_roots([-1.0, 2.0])], rng=rng
        )
        payload = {"data": serialize.encode_matricial(F)}
        doc = call_json(capsys, "polar", "--input", json.dumps(payload, default=np.ndarray.tolist))
        got = serialize.decode_array(doc["polys"][1], 1)
        assert np.max(np.abs(got - poly_from_roots([-1.0, 2.0]))) < 1e-8


class TestMdValidateCommand:
    def test_valid_fixture(self, capsys):
        F = enumerate_sr((1, 2))[0]
        payload = {"data": serialize.encode_matricial(F)}
        doc = call_json(capsys, "md-validate", "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert doc["valid"] is True

    def test_invalid_exits_2(self, capsys):
        F = enumerate_sr((1, 2))[0]
        F.b_plus[1][1, 0] += 0.25
        payload = {"data": serialize.encode_matricial(F)}
        code, out, err = call(capsys, "md-validate", "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False and doc["violations"]


# (k, path into the first enumerate_sr(k) document, value put there)
BAD_MODEL_POINTS = [
    pytest.param((1, 2), ("B_minus", 0), [[[1e308, 0]]], id="scale-1e308"),
    pytest.param((1, 2), ("B_minus", 0), [[[1e200, 0]]], id="scale-1e200"),
    pytest.param((1, 2), ("B_minus", 0), [[[np.nan, 0]]], id="nan-block"),
    pytest.param((1, 2), ("B_minus", 1), [[[0, 0]]], id="wrong-size-block"),
    pytest.param((1, 1), ("uw", 0, "u"), [[np.nan, 0]], id="nan-u"),
    pytest.param((1, 1), ("uw", 0, "w"), [[np.inf, 0]], id="inf-w"),
    pytest.param((1, 1), ("uw", 0, "u"), [[1, 0], [0, 0]], id="long-u"),
    pytest.param((1, 2), ("uw",), [{"i": 1, "u": [[0, 0]], "w": [[0, 0]]}], id="uw-at-untied-junction"),
]


def model_request(k, path=(), value=None, params=None):
    """The first enumerate_sr(k) point as a request, one field replaced."""
    doc = serialize.encode_matricial(enumerate_sr(k)[0])
    if path:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    params = params or [[[0, 0]] * size for size in k]
    return json.dumps({"data": doc, "params": params}, default=np.ndarray.tolist)


class TestModelPointBoundary:
    @pytest.mark.parametrize("name", ["md-validate", "polar", "ak-act"])
    @pytest.mark.parametrize("k, path, value", BAD_MODEL_POINTS)
    def test_invalid_point_65(self, capsys, name, k, path, value):
        code, out, err = call(capsys, name, "--input", model_request(k, path, value))
        assert code == 65 and out == "" and "input error" in err

    def test_ak_act_on_a_point_that_fails_a_bullet_2(self, capsys):
        payload = model_request((1, 2), ("B_minus", 0), [[[0.25, 0]]])
        code, out, err = call(capsys, "ak-act", "--input", payload)
        assert code == 2 and out == "" and "conjugacy" in err

    def test_ak_act_whose_exponential_overflows_3(self, capsys):
        params = [[[1e3, 0], [0, 0]], [[0, 0], [0, 0]]]
        code, out, err = call(capsys, "ak-act", "--input", model_request((2, 2), params=params))
        assert code == 3 and out == "" and "overflows" in err

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(["md-validate", "--input", model_request((1, 2), ("B_minus", 0), [[[1e308, 0]]])],
                     65, "input error: model data too large: its scale overflows", id="md-validate-1e308"),
        pytest.param(["ak-act", "--input", model_request((2, 2), params=[[[1e3, 0], [0, 0]], [[0, 0], [0, 0]]])],
                     3, "numerical failure: exp(p_1'(B_minus[1])) g[1] overflows", id="ak-act-exp-1e3"),
    ])
    def test_overflow_leaves_only_the_cli_line_on_stderr(self, argv, code, line):
        # a fresh interpreter prints numpy's RuntimeWarnings, which pytest would capture
        src = str(Path(ratmodel.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "gzflows.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code and done.stdout == ""
        assert done.stderr == line + "\n"

    @staticmethod
    def count_validations(monkeypatch) -> list:
        calls = []
        validate = ratmodel.md_validate

        def counted(F, *args, **kwargs):
            calls.append(F.k)
            return validate(F, *args, **kwargs)

        monkeypatch.setattr(ratmodel, "md_validate", counted)
        return calls

    def test_enumerate_orbits_validates_each_representative_once(self, capsys, monkeypatch):
        calls = self.count_validations(monkeypatch)
        doc = call_json(capsys, "enumerate-orbits", "--input", '{"k": [1, 2, 3, 3, 2]}')
        assert doc["count"] == 16 and len(calls) == 16

    @pytest.mark.parametrize("name", ["md-validate", "polar", "ak-act"])
    def test_a_request_validates_its_point_once(self, capsys, monkeypatch, name):
        payload = model_request((1, 2), params=[[[0.1, 0]], [[0.2, 0], [0, 0.1]]])
        calls = self.count_validations(monkeypatch)
        call_json(capsys, name, "--input", payload)
        assert calls == [(1, 2)]


class TestAkActCommand:
    def test_polar_preserved(self, capsys):
        F = enumerate_sr((1, 1))[0]
        payload = {
            "data": serialize.encode_matricial(F),
            "params": [
                [[0.3, 0.0]],
                [[0.0, 0.2]],
            ],
        }
        doc = call_json(capsys, "ak-act", "--input", json.dumps(payload, default=np.ndarray.tolist))
        moved = serialize.decode_matricial(doc["data"])
        assert np.array_equal(moved.b_minus[0], F.b_minus[0])
        assert not np.array_equal(moved.g[0], F.g[0])


class TestLaxCommands:
    def payload(self):
        return {
            "alpha": {"type": "constant", "matrix": serialize.encode_array(
                np.array([[0.0, 0.5], [-0.5, 0.0]])
            )},
            "beta": serialize.encode_array(np.array([[0.2, 0.1], [0.0, -0.2]])),
            "t_start": 0.0,
            "t_end": 1.0,
            "steps": 100,
        }

    def test_lax_run(self, capsys):
        doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist))
        assert doc["isospectral_drift"] < 1e-8
        assert len(doc["path"]["grid"]) == 101

    def test_lax_gauge_chain(self, capsys):
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist))
        gauge_doc = call_json(
            capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}, default=np.ndarray.tolist)
        )
        assert gauge_doc["drift"] < 1e-8
        X = serialize.decode_array(gauge_doc["constant_matrix"], 2)
        beta0 = serialize.decode_array(self.payload()["beta"], 2)
        assert np.max(np.abs(X - beta0)) < 1e-10


KW_CHECK_N3_SAMPLES2_SEED7 = """{
  "reports": [
    {
      "test": "kw-relations",
      "samples": 2,
      "max_defect": 1.4154722160747475e-11,
      "tolerance": 1e-06,
      "pass": true
    },
    {
      "test": "kw-fd-cross-check",
      "samples": 2,
      "max_defect": 2.7755575615628914e-16,
      "tolerance": 1e-07,
      "pass": true
    }
  ],
  "pass": true
}
"""


class TestVerificationCommands:
    def test_bracket_table(self, capsys):
        doc = call_json(
            capsys, "bracket-table",
            "--input", '{"n": 2}', "--samples", "5", "--seed", "1",
        )
        assert doc["pass"] is True

    def test_kw_check(self, capsys):
        doc = call_json(
            capsys, "kw-check",
            "--input", '{"n": 2}', "--samples", "3", "--seed", "2",
        )
        assert doc["pass"] is True
        names = {r["test"] for r in doc["reports"]}
        assert names == {"kw-relations", "kw-fd-cross-check"}

    def test_verify_suite(self, capsys):
        doc = call_json(
            capsys, "verify-suite",
            "--input", '{"n": 2}', "--samples", "4", "--seed", "0",
        )
        assert doc["pass"] is True
        assert all(r["pass"] for r in doc["reports"])

    @staticmethod
    def count_fd_gradients(monkeypatch) -> list:
        calls = []
        gradient = verify.fd_gradient

        def counted(f, x, *args, **kwargs):
            calls.append(np.size(x))
            return gradient(f, x, *args, **kwargs)

        monkeypatch.setattr(verify, "fd_gradient", counted)
        monkeypatch.setattr(ratmodel, "fd_gradient", counted)
        return calls

    def test_kw_check_takes_one_fd_gradient_per_function(self, capsys, monkeypatch):
        # n=3 has N=6 poles: 2N functions q_l, 1/rho_l per sample
        calls = self.count_fd_gradients(monkeypatch)
        call_json(capsys, "kw-check", "--input", '{"n": 3}', "--samples", "2")
        assert len(calls) == 2 * 2 * 6

    def test_bracket_table_takes_no_fd_gradient(self, capsys, monkeypatch):
        calls = self.count_fd_gradients(monkeypatch)
        doc = call_json(capsys, "bracket-table", "--input", '{"n": 4}', "--samples", "2")
        assert calls == [] and doc["reports"][0]["max_defect"] < 1e-14

    def test_kw_check_bytes_unchanged(self, capsys):
        # the bytes written when every bracket took its own FD gradients
        code, out, _ = call(capsys, "kw-check", "--input", '{"n": 3}', "--samples", "2", "--seed", "7")
        assert code == 0
        assert out == KW_CHECK_N3_SAMPLES2_SEED7


# entries whose power sums overflow: tr(B^2) = 2e400
HUGE_MATRIX = {"matrix": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]}


class TestNonFiniteOutput:
    """NaN and Infinity are not JSON: a request whose answer holds one exits 3."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow in the power sums
    @pytest.mark.parametrize("basis", ["tr-power", "charpoly"])
    def test_gz_map_3(self, capsys, basis):
        payload = json.dumps({**HUGE_MATRIX, "basis": basis})
        code, out, err = call(capsys, "gz-map", "--input", payload)
        assert code == 3 and out == "" and "numerical failure" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gz_flow_with_nan_invariants_3(self, capsys):
        payload = json.dumps({**HUGE_MATRIX, "flows": [{"m": 1, "i": 1, "z": [0.1, 0]}]})
        code, out, err = call(capsys, "gz-flow", "--input", payload)
        assert code == 3 and out == "" and "numerical failure" in err


def _requests(tmp_path):
    """One request of every subcommand, small enough to run in a test."""
    model = model_request((1, 2))
    lax_payload = json.dumps({
        "alpha": {"type": "polynomial", "coefficients": [
            [[[0, 0], [0.5, 0]], [[-0.5, 0], [0, 0]]], [[[0, 0.1], [0, 0]], [[0, 0], [0, 0]]],
        ]},
        "beta": [[[0.2, 0], [0.1, 0]], [[0, 0], [-0.2, 0]]],
        "t_start": 0, "t_end": 1, "steps": 20,
    })
    path_file = tmp_path / "path.json"
    run(["lax-run", "--input", lax_payload, "--output", str(path_file)])
    matrix = '"matrix": [[[0.1,0],[0.4,0.2]],[[0,0],[-0.2,0]]]'
    polys = '{"polys": [[[-1, 0], [1, 0]], [[1, 0], [-2, 0], [1, 0]]]}'
    return [
        ["gz-map", "--input", "{" + matrix + "}"],
        ["gz-flow", "--input", "{" + matrix + ', "flows": [{"m": 1, "i": 1, "z": [0.3, 0]}]}'],
        ["sregular", "--input", "{" + matrix + "}"],
        ["orbit-count", "--input", polys],
        ["strata", "--input", polys],
        ["enumerate-orbits", "--input", '{"k": [1, 2]}'],
        ["md-validate", "--input", model],
        ["md-validate", "--input", model_request((1, 2), ("B_minus", 0), [[[1e-3, 0]]])],
        ["ak-act", "--input", model],
        ["polar", "--input", model],
        ["kw-check", "--input", '{"n": 2}', "--samples", "2"],
        ["bracket-table", "--input", '{"n": 3}', "--samples", "2"],
        ["lax-run", "--input", lax_payload],
        ["lax-gauge", "--input", str(path_file)],
        ["verify-suite", "--input", '{"n": 2}', "--samples", "2"],
    ]


def test_every_subcommand_writes_indent_2_json(capsys, tmp_path):
    requests = _requests(tmp_path)
    capsys.readouterr()
    assert {argv[0] for argv in requests} == set(HANDLERS)
    for argv in requests:
        code, out, err = call(capsys, *argv)
        assert code in (0, 2), (argv[0], err)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv[0]


class TestCliContract:
    def test_unknown_subcommand_64(self, capsys):
        code, _, err = call(capsys, "frobnicate")
        assert code == 64 and "unknown subcommand" in err

    def test_no_args_64(self, capsys):
        assert call(capsys)[0] == 64

    def test_malformed_json_65(self, capsys):
        code, _, err = call(capsys, "gz-map", "--input", "{nope")
        assert code == 65 and "input error" in err

    def test_missing_field_65(self, capsys):
        code, _, _ = call(capsys, "gz-map", "--input", "{}")
        assert code == 65

    def test_bad_shape_65(self, capsys):
        code, _, _ = call(capsys, "gz-map", "--input", '{"matrix": [[[1,0]],[[0,0]]]}')
        assert code == 65

    @pytest.mark.parametrize("name, payload", [
        ("gz-flow", {"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]],
                     "flows": [{"m": 1, "i": 1, "z": [0.1, 0]}]}),
        ("sregular", {"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}),
        ("enumerate-orbits", {"k": []}),
        ("strata", {"coords": {"n": 2, "basis": "tr-power", "values": [[1, 0]]}}),
        ("gz-map", {"matrix": [[[10**400, 0]]]}),
    ])
    def test_input_the_library_refuses_65(self, capsys, name, payload):
        code, _, err = call(capsys, name, "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert code == 65 and "input error" in err

    def test_md_validate_block_of_wrong_shape_65(self, capsys):
        doc = serialize.encode_matricial(enumerate_sr((1, 2))[0])
        doc["B_minus"][1] = serialize.encode_array(np.zeros((1, 1)))
        code, _, err = call(capsys, "md-validate", "--input", json.dumps({"data": doc}, default=np.ndarray.tolist))
        assert code == 65 and "input error" in err

    def test_polynomial_alpha_of_unequal_sizes_65(self, capsys):
        # a 1x1 coefficient used to be broadcast against the 2x2 one
        two = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
        payload = {
            "alpha": {"type": "polynomial", "coefficients": [two, [[[1, 0]]]]},
            "beta": two, "t_start": 0, "t_end": 1, "steps": 4,
        }
        code, _, err = call(capsys, "lax-run", "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert code == 65 and "input error" in err

    def test_parser_defaults_do_not_leak_between_requests(self, capsys):
        matrix = '{"matrix": [[[1,0],[0,0]],[[0,0],[2,0]]]}'
        first = call_json(capsys, "gz-map", "--input", matrix, "--mode", "charpoly")
        second = call_json(capsys, "gz-map", "--input", matrix)
        assert first["basis"] == "charpoly" and second["basis"] == "tr-power"

    @pytest.mark.parametrize("name", ["verify-suite", "kw-check", "bracket-table"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_64(self, capsys, name, samples):
        code, out, _ = call(capsys, name, "--input", '{"n": 2}', "--samples", samples)
        assert code == 64 and out == ""

    @pytest.mark.parametrize("name, payload", [
        pytest.param("md-validate", model_request((1, 2)), id="md-validate"),
        pytest.param("orbit-count", '{"polys": [[[0, 0], [1, 0]]]}', id="orbit-count"),
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_not_positive_and_finite_64(self, capsys, name, payload, tol):
        code, out, _ = call(capsys, name, "--input", payload, "--tol", tol)
        assert code == 64 and out == ""

    def test_positive_tol_reaches_the_handler(self, capsys):
        # a conjugacy residual of 1e-6: rejected at the default 1e-8, accepted at 1e-3
        payload = model_request((1, 2), ("B_minus", 0), [[[1e-6, 0]]])
        assert call(capsys, "md-validate", "--input", payload)[0] == 2
        doc = call_json(capsys, "md-validate", "--input", payload, "--tol", "1e-3")
        assert doc["valid"] is True
        doc = call_json(capsys, "orbit-count", "--input", '{"polys": [[[0, 0], [1, 0]]]}',
                        "--tol", "1e-6")
        assert doc["count"] == 1

    def test_determinism_byte_identical(self, capsys):
        argv = [
            "verify-suite", "--input", '{"n": 2}', "--samples", "3", "--seed", "7",
        ]
        code1, out1, _ = call(capsys, *argv)
        code2, out2, _ = call(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unwritable_output_65(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = call(
            capsys, "gz-map", "--input", '{"matrix": [[[2,0]]]}', "--output", str(target),
        )
        assert code == 65 and out == "" and "cannot write output file" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow in the power sums
    def test_refused_document_leaves_output_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("earlier answer\n")
        code, out, err = call(
            capsys, "gz-map", "--input", json.dumps(HUGE_MATRIX), "--output", str(target),
        )
        assert code == 3 and out == "" and "numerical failure" in err
        assert target.read_text() == "earlier answer\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = call(
            capsys, "gz-map",
            "--input", '{"matrix": [[[2,0]]]}', "--output", str(target),
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["values"] == [[2.0, 0.0]]

    def test_input_file(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        src.write_text('{"matrix": [[[3,0]]]}')
        doc = call_json(capsys, "gz-map", "--input", str(src))
        assert doc["values"] == [[3.0, 0.0]]


class TestSerializationRoundTrip:
    def test_matricial_roundtrip(self):
        rng = np.random.default_rng(1)
        F = fixture_from_polar(
            [poly_from_roots([0.3]), poly_from_roots([1.5, -0.5])], rng=rng
        )
        back = serialize.decode_matricial(
            json.loads(json.dumps(serialize.encode_matricial(F), default=np.ndarray.tolist))
        )
        assert back.k == F.k
        assert np.array_equal(back.as_vector(), F.as_vector())

    def test_lax_path_roundtrip(self):
        from gzflows.lax import lax_integrate

        path = lax_integrate(
            lambda t: np.array([[0.0, 0.1], [0.0, 0.0]]),
            np.array([[0.5, 0.0], [0.2, -0.5]]),
            0.0, 1.0, 10,
        )
        back = serialize.decode_lax_path(
            json.loads(json.dumps(serialize.encode_lax_path(path), default=np.ndarray.tolist))
        )
        assert np.array_equal(back.alpha, path.alpha)
        assert np.array_equal(back.beta, path.beta)


EDGE_VALUES = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0])


class TestArrayCodec:
    @staticmethod
    def roundtrip(A, ndim):
        return serialize.decode_array(json.loads(json.dumps(serialize.encode_array(A), default=np.ndarray.tolist)), ndim)

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3), (3, 1, 2)])
    def test_exact_roundtrip(self, shape):
        size = int(np.prod(shape))
        A = np.empty(size, dtype=complex)
        A.real = EDGE_VALUES[:size]
        A.imag = EDGE_VALUES[::-1][:size]
        A = A.reshape(shape)
        back = self.roundtrip(A, len(shape))
        assert back.shape == A.shape and back.dtype == complex
        assert np.array_equal(back, A)
        assert np.array_equal(np.signbit(back.real), np.signbit(A.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(A.imag))

    def test_non_contiguous_view(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        view = A[::2, 1::2].T
        assert np.array_equal(self.roundtrip(view, 2), view)

    def test_real_integer_input(self):
        A = np.arange(6).reshape(2, 3)
        assert serialize.encode_array(A).tolist() == [[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                                                      [[3.0, 0.0], [4.0, 0.0], [5.0, 0.0]]]
        assert np.array_equal(self.roundtrip(A, 2), A)

    def test_scalar_is_a_pair(self):
        assert serialize.encode_array(1.5 - 2j).tolist() == [1.5, -2.0]
        assert complex(serialize.decode_array([1, True], 0)) == 1 + 1j

    def test_empty_list_has_the_requested_rank(self):
        for ndim in (1, 2, 3):
            assert serialize.decode_array([], ndim).shape == (0,) * ndim

    def test_integer_beyond_int64(self):
        assert serialize.decode_array([[[2**70, 0]]], 2)[0, 0] == 1.1805916207174113e21

    @pytest.mark.parametrize("obj, ndim", [
        ([[[1, 0], [0, 0]], [[1, 0]]], 2),
        ([[1, 0], [0, 0, 0]], 1),
        ("[[1, 0]]", 1),
        ([["1", 0]], 1),
        (None, 1),
        ([[None, 0]], 1),
        ({"re": 1, "im": 0}, 0),
        ([[1, 0, 2]], 1),
        ([1, 0, 2], 0),
        ([[1, 0]], 2),
        ([[[1, 0]]], 1),
        ([1, 0], 1),
        ([], 0),
        ([[10**400, 0]], 1),
    ])
    def test_rejects(self, obj, ndim):
        with pytest.raises(InputError):
            serialize.decode_array(obj, ndim)


FLOATS = st.sampled_from(EDGE_VALUES.tolist()) | st.floats(allow_nan=False, allow_infinity=False)
STRINGS = st.sampled_from(['', 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "é ∑ ☃ 𝄞"]) | st.text()
DOCS = st.recursive(
    STRINGS | FLOATS | st.booleans() | st.none() | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
             elements=FLOATS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=12,
)


class TestDumps:
    """serialize._dumps writes the bytes of json.dumps(doc, indent=2)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(doc=DOCS)
    def test_matches_json_dumps(self, doc):
        assert serialize._dumps(doc) == json.dumps(doc, indent=2, default=np.ndarray.tolist)

    @pytest.mark.parametrize("doc", [
        float("nan"),
        {"a": [1.0, float("inf")]},
        np.array([[0.0, -np.inf]]),
        {"x": serialize.encode_array([1.0, complex(0.0, np.nan)])},
    ])
    def test_non_finite_raises(self, doc):
        with pytest.raises(ToleranceError):
            serialize._dumps(doc)

    @pytest.mark.parametrize("doc", [object(), {"a": np.arange(3)}, [1j], {"a": {1, 2}}])
    def test_what_json_rejects_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc)
        with pytest.raises(TypeError):
            serialize._dumps(doc)
