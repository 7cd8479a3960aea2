import json

import numpy as np
import pytest

from gzflows import serialize
from gzflows.cli import run
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
            "matrix": serialize.encode_matrix(np.array([[0.1, 0.4], [0.0, -0.2]])),
            "flows": [{"m": 1, "i": 1, "z": [0.3, 0.1]}],
        }
        doc = call_json(capsys, "gz-flow", "--input", json.dumps(payload))
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
                serialize.encode_poly([0, 1]),
                serialize.encode_poly([0, 0, 1]),
            ],
            "mode": "matrices",
        }
        doc = call_json(capsys, "orbit-count", "--input", json.dumps(payload))
        assert doc["t"] == 1 and doc["count"] == 2

    def test_strata(self, capsys):
        payload = {
            "polys": [
                serialize.encode_poly(poly_from_roots([1.0])),
                serialize.encode_poly(poly_from_roots([1.0, 5.0])),
            ]
        }
        doc = call_json(capsys, "strata", "--input", json.dumps(payload))
        mults = {tuple(e["multiplicities"]) for e in doc["signature"]}
        assert mults == {(1, 1), (0, 1)}

    def test_strata_from_gz_map_output(self, capsys):
        coords = call_json(
            capsys, "gz-map",
            "--input", '{"matrix": [[[1,0],[0,0]],[[0,0],[2,0]]], "basis": "charpoly"}',
        )
        doc = call_json(capsys, "strata", "--input", json.dumps({"coords": coords}))
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
        doc = call_json(capsys, "polar", "--input", json.dumps(payload))
        got = serialize.decode_poly(doc["polys"][1])
        assert np.max(np.abs(got - poly_from_roots([-1.0, 2.0]))) < 1e-8


class TestMdValidateCommand:
    def test_valid_fixture(self, capsys):
        F = enumerate_sr((1, 2))[0]
        payload = {"data": serialize.encode_matricial(F)}
        doc = call_json(capsys, "md-validate", "--input", json.dumps(payload))
        assert doc["valid"] is True

    def test_invalid_exits_2(self, capsys):
        F = enumerate_sr((1, 2))[0]
        F.b_plus[1][1, 0] += 0.25
        payload = {"data": serialize.encode_matricial(F)}
        code, out, err = call(capsys, "md-validate", "--input", json.dumps(payload))
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False and doc["violations"]


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
        doc = call_json(capsys, "ak-act", "--input", json.dumps(payload))
        moved = serialize.decode_matricial(doc["data"])
        assert np.array_equal(moved.b_minus[0], F.b_minus[0])
        assert not np.array_equal(moved.g[0], F.g[0])


class TestLaxCommands:
    def payload(self):
        return {
            "alpha": {"type": "constant", "matrix": serialize.encode_matrix(
                np.array([[0.0, 0.5], [-0.5, 0.0]])
            )},
            "beta": serialize.encode_matrix(np.array([[0.2, 0.1], [0.0, -0.2]])),
            "t_start": 0.0,
            "t_end": 1.0,
            "steps": 100,
        }

    def test_lax_run(self, capsys):
        doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload()))
        assert doc["isospectral_drift"] < 1e-8
        assert len(doc["path"]["grid"]) == 101

    def test_lax_gauge_chain(self, capsys):
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload()))
        gauge_doc = call_json(
            capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]})
        )
        assert gauge_doc["drift"] < 1e-8
        X = serialize.decode_matrix(gauge_doc["constant_matrix"])
        beta0 = serialize.decode_matrix(self.payload()["beta"])
        assert np.max(np.abs(X - beta0)) < 1e-10


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
    ])
    def test_input_the_library_refuses_65(self, capsys, name, payload):
        code, _, err = call(capsys, name, "--input", json.dumps(payload))
        assert code == 65 and "input error" in err

    def test_md_validate_block_of_wrong_shape_65(self, capsys):
        doc = serialize.encode_matricial(enumerate_sr((1, 2))[0])
        doc["B_minus"][1] = serialize.encode_matrix(np.zeros((1, 1)))
        code, _, err = call(capsys, "md-validate", "--input", json.dumps({"data": doc}))
        assert code == 65 and "input error" in err

    @pytest.mark.parametrize("name", ["verify-suite", "kw-check", "bracket-table"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_64(self, capsys, name, samples):
        code, out, _ = call(capsys, name, "--input", '{"n": 2}', "--samples", samples)
        assert code == 64 and out == ""

    def test_determinism_byte_identical(self, capsys):
        argv = [
            "verify-suite", "--input", '{"n": 2}', "--samples", "3", "--seed", "7",
        ]
        code1, out1, _ = call(capsys, *argv)
        code2, out2, _ = call(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

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
            json.loads(json.dumps(serialize.encode_matricial(F)))
        )
        assert back.k == F.k
        assert np.max(np.abs(back.as_vector() - F.as_vector())) < 1e-15

    def test_lax_path_roundtrip(self):
        from gzflows.lax import lax_integrate

        path = lax_integrate(
            lambda t: np.array([[0.0, 0.1], [0.0, 0.0]]),
            np.array([[0.5, 0.0], [0.2, -0.5]]),
            0.0, 1.0, 10,
        )
        back = serialize.decode_lax_path(
            json.loads(json.dumps(serialize.encode_lax_path(path)))
        )
        assert np.max(np.abs(back.alpha - path.alpha)) < 1e-15
        assert np.max(np.abs(back.beta - path.beta)) < 1e-15
