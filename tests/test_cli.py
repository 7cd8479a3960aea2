import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gzflows import cli, gzcore, lax, matpoly, ratmodel, serialize, verify
from gzflows.cli import HANDLERS, _tensor_pairings, run
from gzflows.errors import ToleranceError, ValidationError
from gzflows.matpoly import poly_from_roots
from gzflows.ratmodel import enumerate_sr, fixture_from_polar
from oracles import per_level_chart


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

    def test_gz_flow_flows_once(self, capsys, monkeypatch):
        from gzflows import gzcore

        calls = []
        flow = gzcore.gz_flow
        monkeypatch.setattr(gzcore, "gz_flow", lambda *a: calls.append(a) or flow(*a))
        payload = {
            "matrix": serialize.encode_array(np.array([[0.1, 0.4], [0.0, -0.2]])),
            "flows": [{"m": 1, "i": 1, "z": [0.3, 0.1]}],
        }
        call_json(capsys, "gz-flow", "--input", json.dumps(payload, default=np.ndarray.tolist))
        assert len(calls) == 1

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


def flow_request(m, i) -> str:
    """A gz-flow request on a 2 x 2 matrix with one flow (m, i, 0.1)."""
    return json.dumps({"matrix": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]],
                       "flows": [{"m": m, "i": i, "z": [0.1, 0]}]})


class TestModelPointBoundary:
    @pytest.mark.parametrize("name", ["md-validate", "polar", "ak-act"])
    @pytest.mark.parametrize("k, path, value", BAD_MODEL_POINTS)
    def test_invalid_point_65(self, capsys, name, k, path, value):
        code, out, err = call(capsys, name, "--input", model_request(k, path, value))
        assert code == 65 and out == "" and "input error" in err

    @pytest.mark.parametrize("name", ["md-validate", "polar", "ak-act"])
    @pytest.mark.parametrize("uw, text", [
        # a second pair for junction 1 that would validate in place of the first
        pytest.param([{"i": 1, "u": [[0, 0], [0, 0]], "w": [[0, 0], [1, 0]]},
                      {"i": 1, "u": [[1, 0], [0, 0]], "w": [[0, 0], [0, 0]]}],
                     "uw holds junction 1 twice", id="junction-twice"),
        pytest.param(5, "uw must be a list of {i, u, w} objects", id="uw-not-a-list"),
    ])
    def test_a_malformed_uw_list_is_65(self, capsys, name, uw, text):
        code, out, err = call(capsys, name, "--input", model_request((2, 2), ("uw",), uw))
        assert (code, out, err) == (65, "", f"input error: {text}\n")

    def test_a_structure_text_numbers_blocks_from_1(self, capsys):
        # the second g block of a (2, 3) point with the first block's 2 x 2 shape
        payload = model_request((2, 3), ("g", 1), [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        code, out, err = call(capsys, "md-validate", "--input", payload)
        assert (code, out, err) == (65, "", "input error: g[2] has shape (2, 2), expected (3, 3)\n")

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

    @staticmethod
    def count_points(monkeypatch, name: str) -> list:
        """The k of every point that passes through ratmodel's stacked ``name``."""
        points, stacked = [], getattr(ratmodel, name)

        def counted(batch, *args, **kwargs):
            points.extend(F.k for F in batch)
            return stacked(batch, *args, **kwargs)

        monkeypatch.setattr(ratmodel, name, counted)
        return points

    def test_enumerate_orbits_validates_each_representative_once(self, capsys, monkeypatch):
        points = self.count_points(monkeypatch, "_validated_scales")
        doc = call_json(capsys, "enumerate-orbits", "--input", '{"k": [1, 2, 3, 3, 2]}')
        assert doc["count"] == 16 and len(points) == 16

    def test_enumerate_orbits_takes_each_sign_map_once(self, capsys, monkeypatch):
        points = self.count_points(monkeypatch, "_classified")
        doc = call_json(capsys, "enumerate-orbits", "--input", '{"k": [1, 2, 3, 3, 2]}')
        assert doc["count"] == 16 and len(points) == 16

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

    def gauge(self, capsys, alpha, steps=200):
        # a diagonal beta commutes with a diagonal alpha: the path is constant
        payload = {**self.payload(), "steps": steps, "beta": serialize.encode_array(np.diag([1.0, 2.0]))}
        payload["alpha"]["matrix"] = serialize.encode_array(alpha)
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(payload, default=np.ndarray.tolist))
        return call(capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}))

    def test_condition_gate_3(self, capsys):
        code, out, err = self.gauge(capsys, np.diag([30.0, -30.0]))
        assert code == 3 and out == ""
        assert err == "numerical failure: gauge factor lost invertibility (condition 1.308e+12)\n"

    def test_gauge_overflow_3_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self.gauge(capsys, 800.0 * np.eye(2))
        assert code == 3 and out == ""
        assert err == "numerical failure: gauge factor overflowed (not finite at t = 0.995)\n"

    def test_inaccurate_path_gauge_3(self, capsys):
        # lax-run's residual gate and lax-gauge's judge one residual alike: a numerical failure
        run_doc = call_json(capsys, "lax-run", "--input",
                            json.dumps({**self.payload(), "steps": 20}, default=np.ndarray.tolist))
        assert run_doc["lax_residual"] == pytest.approx(2.919e-7, rel=1e-3)
        code, out, err = call(capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}),
                              "--tol", "1e-12")
        assert (code, out) == (3, "")
        assert err == "numerical failure: path is not a Lax solution (residual 2.919e-07 > 1.0e-12)\n"

    def test_unstable_gauge_step_3(self, capsys):
        # 40 steps of h = 0.025 for alpha = 800 I: RK4 would answer g_end = 3.95e156 I
        code, out, err = self.gauge(capsys, 800.0 * np.eye(2), steps=40)
        assert code == 3 and out == ""
        assert err == (
            "numerical failure: gauge factor step is unstable "
            "(h * spectral radius of alpha 2.000e+01 > 2.78)\n"
        )

    @pytest.mark.parametrize("alpha, steps", [
        (np.diag([100j, -100j]), 400),
        # ad alpha = 0 whatever |alpha|_F
        (800.0 * np.eye(2), 40),
    ])
    def test_stable_lax_step_answers(self, capsys, alpha, steps):
        payload = {**self.payload(), "steps": steps, "beta": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]]}
        payload["alpha"]["matrix"] = serialize.encode_array(alpha)
        # --tol 2 lets the inaccurate 400-step path (residual 1.35) past the
        # residual gate, so that the step check alone is tested
        doc = call_json(capsys, "lax-run", "--input", json.dumps(payload, default=np.ndarray.tolist),
                        "--tol", "2")
        # the exact path keeps |beta_ij|: at most 4
        assert np.max(np.abs(serialize.decode_lax_path(doc["path"]).beta)) < 4.5

    def test_unstable_lax_step_3(self):
        # h * |100i - (-100i)| = 5 > 2 sqrt(2): RK4 would answer |beta| ~ 6e53 where the
        # exact path stays near 5
        payload = {**self.payload(), "steps": 40, "beta": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]]}
        payload["alpha"]["matrix"] = serialize.encode_array(np.diag([100j, -100j]))
        assert run_fresh("lax-run", "--input", json.dumps(payload, default=np.ndarray.tolist)) == (
            3, "", "numerical failure: Lax step is unstable "
            "(h * largest eigenvalue gap of alpha 5.000e+00 > 2.78)\n",
        )

    def test_inaccurate_lax_path_3(self, tmp_path):
        # stable (h * gap = 0.5) but inaccurate: RK4 damps the rotating entries by
        # about 4%, a residual of 1.35 and a spectrum drift of 0.48
        payload = {**self.payload(), "steps": 400, "beta": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]]}
        payload["alpha"]["matrix"] = serialize.encode_array(np.diag([100j, -100j]))
        target = tmp_path / "path.json"
        assert run_fresh(
            "lax-run", "--input", json.dumps(payload, default=np.ndarray.tolist), "--output", str(target)
        ) == (3, "", "numerical failure: Lax path is inaccurate (residual 1.353e+00 > 1.0e-03); "
                     "take more steps\n")
        assert not target.exists()

    @pytest.mark.parametrize("change, text", [
        # each of these integrated (2.5 -> 2 steps, true -> 1) or decoded ("3", "0") before
        pytest.param({"steps": 2.5}, "'steps' must be an integer in 1..inf, got 2.5", id="steps-2.5"),
        pytest.param({"steps": True}, "'steps' must be an integer in 1..inf, got True", id="steps-true"),
        pytest.param({"steps": "3"}, "'steps' must be an integer in 1..inf, got '3'", id="steps-text"),
        pytest.param({"steps": 0}, "'steps' must be an integer in 1..inf, got 0", id="steps-0"),
        pytest.param({"t_start": "0"}, "'t_start' must be a finite number, got '0'", id="t_start-text"),
        pytest.param({"t_start": None}, "'t_start' must be a finite number, got None", id="t_start-null"),
        pytest.param({"t_end": False}, "'t_end' must be a finite number, got False", id="t_end-false"),
        pytest.param({"t_end": 10**400}, f"'t_end' must be a finite number, got {10**400}",
                     id="t_end-integer-1e400"),
    ])
    def test_times_and_steps_are_json_numbers_65(self, capsys, change, text):
        payload = json.dumps({**self.payload(), **change}, default=np.ndarray.tolist)
        assert call(capsys, "lax-run", "--input", payload) == (65, "", f"input error: {text}\n")

    @pytest.mark.parametrize("times, text", [
        pytest.param('"t_start": 0, "t_end": 1e400', "'t_end' must be a finite number, got inf",
                     id="t_end-1e400"),
        pytest.param('"t_start": NaN, "t_end": 1', "'t_start' must be a finite number, got nan",
                     id="t_start-NaN"),
        pytest.param('"t_start": -1e308, "t_end": 1e308',
                     "t_start, t_end and every step time between them must be finite", id="span-2e308"),
    ])
    def test_times_past_the_largest_float_65_without_warnings(self, times, text):
        # these exited 3 with numpy's RuntimeWarning from the grid on stderr
        payload = json.dumps({**self.payload(), "t_start": 0, "t_end": 0}, default=np.ndarray.tolist)
        payload = payload.replace('"t_start": 0, "t_end": 0', times)
        assert run_fresh("lax-run", "--input", payload) == (65, "", f"input error: {text}\n")

    @pytest.mark.parametrize("tol, code", [("1e-3", 0), ("1e-12", 3)])
    def test_lax_run_residual_gate_follows_tol(self, capsys, tol, code):
        # the residual of the default request is about 5e-10
        argv = ["lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist), "--tol", tol]
        assert call(capsys, *argv)[0] == code

    def test_nan_lax_residual_3(self, capsys, monkeypatch):
        monkeypatch.setattr(lax, "lax_residual", lambda path: float("nan"))
        code, out, err = call(capsys, "lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist))
        assert (code, out) == (3, "")
        assert err == "numerical failure: Lax path is inaccurate (residual nan > 1.0e-03); take more steps\n"

    def test_nilpotent_alpha_with_a_large_norm_answers(self, capsys):
        payload = {**self.payload(), "steps": 40,
                   "beta": serialize.encode_array(np.array([[1.0, 5.0], [0.0, 1.0]]))}
        payload["alpha"]["matrix"] = serialize.encode_array(np.array([[0.0, 1000.0], [0.0, 0.0]]))
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(payload, default=np.ndarray.tolist))
        gauge_doc = call_json(capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}))
        assert gauge_doc["g_end"] == [[[1.0, 0.0], [1000.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_path_sample_65(self, capsys, key, value):
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist))
        run_doc["path"][key][7][1][0][1] = value
        code, out, err = call(capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}))
        assert code == 65 and out == ""
        assert err == "input error: matrix entries must be finite\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), pytest.param(10**400, id="integer-1e400")])
    def test_non_finite_grid_time_65(self, capsys, value):
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist))
        run_doc["path"]["grid"][7] = value
        code, out, err = call(capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}))
        assert code == 65 and out == ""
        assert err == "input error: grid times must be finite\n"

    def test_overflowing_grid_step_65_without_warnings(self):
        # finite times whose gap is past the largest float: this exited 3 with numpy's warnings
        sample = [[[0, 0]]]
        path = {"grid": [-1e308, 1e308], "alpha": [sample, sample], "beta": [sample, sample]}
        assert run_fresh("lax-gauge", "--input", json.dumps({"path": path})) == (
            65, "", "input error: grid steps must be finite\n")

    @pytest.mark.parametrize("value", [False, True])
    def test_bool_grid_time_65(self, capsys, value):
        # a bool is no real time, as in lax-run's t_start and t_end; false once passed as 0.0
        run_doc = call_json(capsys, "lax-run", "--input", json.dumps(self.payload(), default=np.ndarray.tolist))
        run_doc["path"]["grid"][0 if value is False else -1] = value
        code, out, err = call(capsys, "lax-gauge", "--input", json.dumps({"path": run_doc["path"]}))
        assert (code, out, err) == (65, "", "input error: grid must be a list of real times\n")


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
        # one Jacobian for each family, (q_l) = y[:N] and (1 / rho_l), over all samples
        calls = self.count_fd_gradients(monkeypatch)
        call_json(capsys, "kw-check", "--input", '{"n": 3}', "--samples", "2")
        assert calls == [2 * 12, 2 * 12]

    @pytest.mark.parametrize("samples", [1, 5])
    def test_bracket_table_takes_one_minor_power_per_index(self, capsys, monkeypatch, samples):
        power, calls = gzcore._padded_minor_power, []

        def counted(B, m, i):
            calls.append(B.shape)
            return power(B, m, i)

        monkeypatch.setattr(gzcore, "_padded_minor_power", counted)
        call_json(capsys, "bracket-table", "--input", '{"n": 4}', "--samples", str(samples))
        assert calls == [(samples, 4, 4)] * len(gzcore.gz_indices(4))

    def test_bracket_table_memory_does_not_grow_with_samples(self, capsys):
        # at n = 12 one sample's pair products fill a block: more samples, more blocks
        import tracemalloc

        def peak(samples):
            tracemalloc.start()
            try:
                call_json(capsys, "bracket-table", "--input", '{"n": 12}', "--samples", str(samples))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak(1), peak(8)
        assert eight <= 1.5 * one

    @staticmethod
    def break_samples(monkeypatch, n, seed, skewed=(), non_finite=()):
        """Make the cross-check tensor of the samples ``skewed`` not antisymmetric and the
        FD gradients of the samples ``non_finite`` fail, as drawn by kw-check at n, seed."""
        rng = np.random.default_rng(seed)
        points = [per_level_chart(rng, n).flat() for _ in range(max((*skewed, *non_finite)) + 1)]
        is_one_of = lambda x, picks: np.array([  # noqa: E731
            any(np.array_equal(row, points[k]) for k in picks) for row in np.reshape(x, (-1, x.shape[-1]))
        ])
        as_chart, gradient = ratmodel.chart_as_poisson_chart, verify.fd_gradient

        def chart(c):
            inverted = as_chart(c)

            def tensor(x):
                pi = inverted.poisson_tensor(x)
                bumps = is_one_of(x, skewed).reshape(x.shape[:-1] + (1, 1))
                return pi + bumps * np.eye(pi.shape[-1])

            return verify.Chart(names=inverted.names, poisson_tensor=tensor)

        def fd(f, x, *args, **kwargs):
            if is_one_of(np.asarray(x), non_finite).any():
                raise ValidationError("non-finite values in finite-difference gradient")
            return gradient(f, x, *args, **kwargs)

        monkeypatch.setattr(ratmodel, "chart_as_poisson_chart", chart)
        monkeypatch.setattr(verify, "fd_gradient", fd)

    @pytest.mark.parametrize("skewed, non_finite, message", [
        ((1,), (), "Poisson tensor not antisymmetric (defect 4.899e+00)"),
        ((1, 2), (2,), "Poisson tensor not antisymmetric (defect 4.899e+00)"),
        ((1,), (1,), "Poisson tensor not antisymmetric (defect 4.899e+00)"),
        ((2,), (1,), "non-finite values in finite-difference gradient"),
        ((), (0, 2), "non-finite values in finite-difference gradient"),
    ])
    def test_kw_check_raises_the_first_failing_sample(self, capsys, monkeypatch, skewed, non_finite, message):
        # one sample at a time, a sample's tensor was checked before its gradients
        self.break_samples(monkeypatch, 2, 11, skewed, non_finite)
        code, out, err = call(capsys, "kw-check", "--input", '{"n": 2}', "--samples", "3", "--seed", "11")
        assert (code, out, err) == (2, "", f"validation error: {message}\n  - {message}\n")

    def test_bracket_table_takes_no_fd_gradient(self, capsys, monkeypatch):
        calls = self.count_fd_gradients(monkeypatch)
        doc = call_json(capsys, "bracket-table", "--input", '{"n": 4}', "--samples", "2")
        assert calls == [] and doc["reports"][0]["max_defect"] < 1e-14

    def test_kw_check_bytes_unchanged(self, capsys):
        # the bytes written when every bracket took its own FD gradients
        code, out, _ = call(capsys, "kw-check", "--input", '{"n": 3}', "--samples", "2", "--seed", "7")
        assert code == 0
        assert out == KW_CHECK_N3_SAMPLES2_SEED7

    def test_verify_suite_nan_commute_defect_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "commute_defect", lambda *a: float("nan"))
        code, out, err = call(capsys, "verify-suite", "--input", '{"n": 2}', "--samples", "2")
        assert code == 3 and "numerical failure" in err

    def test_bracket_table_nan_gradient_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(gzcore, "_padded_minor_power", lambda B, m, i: np.full(B.shape, np.nan))
        code, out, err = call(capsys, "bracket-table", "--input", '{"n": 3}', "--samples", "2")
        assert code == 3 and "numerical failure" in err

    def test_kw_check_nan_pairing_fails(self, capsys, monkeypatch):
        pairing = ratmodel._chart_pairing
        monkeypatch.setattr(ratmodel, "_chart_pairing", lambda *a: np.nan * pairing(*a))
        code, out, err = call(capsys, "kw-check", "--input", '{"n": 2}', "--samples", "2")
        assert code == 3 and "numerical failure" in err

    def test_kw_check_nan_relation_fails(self, capsys, monkeypatch):
        # pairings come as {q_l, 1/rho_m}, {q_l, q_m}, {1/rho_l, 1/rho_m}: NaN in
        # the last two reaches kw-relations alone, not the cross-check
        pairing, calls = ratmodel._chart_pairing, []

        def patched(*args):
            calls.append(args)
            return pairing(*args) * (1.0 if len(calls) % 3 == 1 else np.nan)

        monkeypatch.setattr(ratmodel, "_chart_pairing", patched)
        code, out, err = call(capsys, "kw-check", "--input", '{"n": 2}', "--samples", "2")
        assert code == 3 and "numerical failure" in err


@pytest.mark.parametrize("N", range(1, 13))
def test_stacked_cross_check_is_each_pairs_bits(N):
    # the products kw-check made per row and per pair before they were stacked
    rng = np.random.default_rng(N)
    c = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
    for scale in (1e-5, 1.0, 1e5):
        df, pi, dg = scale * c(N, 2 * N), c(2 * N, 2 * N), c(N, 2 * N) / scale
        left = [row @ pi for row in df]
        want = np.array([[v @ w for w in dg] for v in left])
        got = _tensor_pairings(df, pi, dg)
        assert got.shape == (N, N)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # a stack of samples: each sample's pairings with their own bits
        pi2 = c(2 * N, 2 * N)
        stacked = _tensor_pairings(np.array([df, dg]), np.array([pi, pi2]), np.array([dg, df]))
        assert stacked.shape == (2, N, N)
        assert np.array_equal(stacked[0].view(np.uint64), want.view(np.uint64))
        other = _tensor_pairings(dg, pi2, df)
        assert np.array_equal(stacked[1].view(np.uint64), other.view(np.uint64))


# sha256 of stdout and the exit code of each (subcommand, n, samples, seed,
# tol), recorded when every sample, pair and path was checked on its own; the
# verify-suite entries re-recorded when the flows came to move only the
# off-diagonal blocks (tests/test_block_flows.py checks them against the full
# conjugation)
VERIFICATION_BYTES = {
    ("verify-suite", 2, 1, 0, None): ("407e63a558762e7603c4efdbf4c2fb78fb7ea2d430687e4ed1d512bb36a0d8a4", 0),
    ("verify-suite", 2, 1, 1000, None): ("a971f950611ab590d37fe12f2d63e838dc0748f481600306eb4c8bc8b510fc1b", 0),
    ("verify-suite", 2, 3, 0, None): ("ef4b1f7a03151c9385a3bc8eec388369b2055d440425e8acf4818348eb79ba37", 0),
    ("verify-suite", 2, 3, 1000, None): ("629cca7b1f82517dedac43917876e5d8a78ba1dcbb7d073a202fa783b289f896", 0),
    ("verify-suite", 2, 12, 0, None): ("36522313625d337b53f999ee9f7d6daae1881dd8da039e3ffcf991e676d73f5e", 0),
    ("verify-suite", 2, 12, 1000, None): ("bbaa1a884f9c18c1fbf0fee0b7d3f685ed0457047dfbe65c840f2c4f1df6b328", 0),
    ("verify-suite", 3, 1, 0, None): ("3c4ba2efd137c8c55e8f63f144c388eb5ce8c82b1d43ca432fb227215ea84be0", 0),
    ("verify-suite", 3, 1, 1000, None): ("e6805520080783afe0308b59ac4334383180ccdc79fa703f4e0dd9ef79e529ef", 0),
    ("verify-suite", 3, 3, 0, None): ("f1e89c00de630a6b5c0b51bec8cec9c219f5e186076208cbb2e5db70997bfc27", 0),
    ("verify-suite", 3, 3, 1000, None): ("b48391e79cd22debf6a63c478136ab8401516e6c8c55996f776ad8e7ec85e82b", 0),
    ("verify-suite", 3, 12, 0, None): ("1ad08d6bbf6ecf524857d32b12b8a7b711dadf349a00ae301a9e7dbe89d22471", 0),
    ("verify-suite", 3, 12, 1000, None): ("c09c42bcb60b28efbf2a557b17873da9513b8b60afff146da75d8d15df65d7c9", 0),
    ("verify-suite", 4, 1, 0, None): ("191c1d5bdc4ae16f00cd4ea69da849b35cc234cda8941ed916e48d6482fdd4de", 0),
    ("verify-suite", 4, 1, 1000, None): ("60e22ebf803d7e5fc554765c5d7da8a8887f257ee211b6729754a2fbced35421", 0),
    ("verify-suite", 4, 3, 0, None): ("04c657868fd1b1a2132748159271435996a7492a580283fc4fc7a96fadee1b76", 0),
    ("verify-suite", 4, 3, 1000, None): ("9acf61723935328e6a9281a619dc97ec3ee87c385beeefb27d109c956421bd12", 0),
    ("verify-suite", 4, 12, 0, None): ("bcd686bf620493e73b2879864b3e8e9d3a753f009d9ebfdc73d65142543b2000", 0),
    ("verify-suite", 4, 12, 1000, None): ("5ce6a661a4d7271315f80f29a912293e087839ca7b2f42d195b6451f3fb06567", 0),
    ("kw-check", 1, 1, 0, None): ("594c97bbeb1de00367fd689a43b3c4447ea55487cbf1a72295592f5ed01b66ae", 0),
    ("kw-check", 1, 1, 4007, None): ("6fa0271aaf30751df4f712229fd8d9e709d8cdda7d1fae92804c6be660be91d0", 0),
    ("kw-check", 1, 4, 0, None): ("18021d07a6f834073d1accdc4df53f2672a77a41466ca330ef8724599c00581b", 0),
    ("kw-check", 1, 4, 4007, None): ("4b7cd8f7ece0b84b3e10cd63f97851dc43726753d19fb28ad77d38a9f28419bf", 0),
    ("kw-check", 2, 1, 0, None): ("32169922e5be3658ce57baca3a9731c85d8230632e6749cce3329a4cf57f716d", 0),
    ("kw-check", 2, 1, 4007, None): ("aa4ec314f0f2ace71c54990a9c8d4a0ae37c7401f5113f7526bfe94955db219b", 0),
    ("kw-check", 2, 4, 0, None): ("6cf490c3ff93b624905cf41b7d69252af5a9c19bde9344a8de0b40bfdb45627b", 0),
    ("kw-check", 2, 4, 4007, None): ("3d579c8baa78819b19635c562c3d074c5d7b98a86e75c36b7797f34c37577464", 0),
    ("kw-check", 3, 1, 0, None): ("05226c91f4132a0441e3ca69d76f246abd665105b7fe63524583084d53f1aea5", 0),
    ("kw-check", 3, 1, 4007, None): ("5ebf9c48fe434623d7a96e86e539ae261b2d0b38e6c60e4efecc07a0a8fedbf6", 0),
    ("kw-check", 3, 4, 0, None): ("58a3771fabe1d64167d6631198016f9fffa072609d9d8c32efc67f83aaf05f7b", 0),
    ("kw-check", 3, 4, 4007, None): ("8ef2138cdf52ad52c66b71a274db3fa03a51e6d9f6de4e7ff606a57fcbde5e17", 0),
    ("kw-check", 4, 2, 0, None): ("5275876dd192705cae23198c1268447441a1f7b1646ded64a0270e946ff4f6ce", 0),
    ("kw-check", 2, 4, 3, None): ("fc6c43b65012f3b88cd536c1b6ac6ba659657bf4c8143512790f1b5dd360de97", 0),
    ("kw-check", 3, 1, 4, None): ("ac8c03621c9a767bb4bc71a80d90cd0b6ae5bf94fb07b15d8cb2930c8e97cd09", 0),
    ("kw-check", 3, 2, 5, None): ("23e7496c4b5c89171b631390e6f240ba183e6efbbbaf1a74a53b9593bdc5314e", 0),
    ("verify-suite", 3, 3, 5, None): ("2c890113ced70b2de87032c41b36b67a811e8eed85ad0aaf15e836077dba51f6", 0),
    ("verify-suite", 4, 2, 5, None): ("f679e32420733b31e1917507f2ba29d01f5c850561c46d167d2850538d28f757", 0),
    ("verify-suite", 5, 2, 5, None): ("480706812f752bcc7c7330bcdad5545aac33265f7b1906d0f9e08f131206ac25", 0),
    ("bracket-table", 1, 1, 0, None): ("4d032da02ff2a8ea2a8707fcaedd32497e52b05202baac8bf6fc4956894d83d2", 0),
    ("bracket-table", 1, 1, 4007, None): ("4d032da02ff2a8ea2a8707fcaedd32497e52b05202baac8bf6fc4956894d83d2", 0),
    ("bracket-table", 1, 7, 0, None): ("f5f6ce49274b29439797c2eb3331baaf781e243f08d999c21d999729c7961584", 0),
    ("bracket-table", 1, 7, 4007, None): ("f5f6ce49274b29439797c2eb3331baaf781e243f08d999c21d999729c7961584", 0),
    ("bracket-table", 2, 1, 0, None): ("4d032da02ff2a8ea2a8707fcaedd32497e52b05202baac8bf6fc4956894d83d2", 0),
    ("bracket-table", 2, 1, 4007, None): ("4d032da02ff2a8ea2a8707fcaedd32497e52b05202baac8bf6fc4956894d83d2", 0),
    ("bracket-table", 2, 7, 0, None): ("cf1dac473f07565fdc76bb47bf17dea8842de2c136ed790a3977008cbd7e6921", 0),
    ("bracket-table", 2, 7, 4007, None): ("a583ebe24a2ca3ed7787dda29b11798a2197a2ae7fd7e5fc4e7916b615571dd1", 0),
    ("bracket-table", 5, 1, 0, None): ("404daf20ca6b0b3e41bc2b07a6165d75ac5a610751dcc122e9d1887b94fede11", 0),
    ("bracket-table", 5, 1, 4007, None): ("d5dd4d55a7e320dc993779e74b3791512f0844c8da50ad1af6f683820f5fe43c", 0),
    ("bracket-table", 5, 7, 0, None): ("f1d25f7ddc72661fecf2f7dc0f6468148bf70cd6b2a322bb490a1df1cebb17d5", 0),
    ("bracket-table", 5, 7, 4007, None): ("578ff4c152970750dc2522627654bbe8cacd734b7e31461edc362a781d851803", 0),
    ("bracket-table", 8, 1, 0, None): ("9353facebcda9b4635bb9ec92ee604f9134c617f6251fb2ac5b910a8720ac6f0", 0),
    ("bracket-table", 8, 1, 4007, None): ("f0391a33be26bbd7f0400a0f31415ef8a851c20f57690a7a080a12b845cf2f65", 0),
    ("bracket-table", 8, 7, 0, None): ("7ff89765ecbb9997573e4c40f954d8356f4381291a23b38614a35d88e27a51ba", 0),
    ("bracket-table", 8, 7, 4007, None): ("1bd9b47992bff9e2ebd2dbc7ea88e3e4a028f55779dd8980e858f7ce387420d0", 0),
    ("bracket-table", 4, 2, 0, "1e-300"): ("2798dd92c098c104aa5204341c4557a0c917c7834f98d863bdfa2fe3e48763d5", 3),
    ("kw-check", 2, 2, 0, "1e-300"): ("4fb95b6cff7d7d766018b8fcc669f4fa4ebbb433258fbf70e578ce2a9013f42a", 3),
    ("verify-suite", 3, 2, 0, "1e-300"): ("bb4bfb46bafa54c0a74247a0c72bad96e19e5d9612cd99b756592daf0e5067fa", 3),
}


@pytest.mark.parametrize("key", list(VERIFICATION_BYTES), ids=lambda k: "-".join(map(str, k)))
def test_verification_bytes(capsys, key):
    cmd, n, samples, seed, tol = key
    argv = [cmd, "--input", json.dumps({"n": n}), "--samples", str(samples), "--seed", str(seed)]
    code, out, _ = call(capsys, *argv, *(["--tol", tol] if tol else []))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == VERIFICATION_BYTES[key]


# kw-check and bracket-table at n = 1..5, verify-suite at n = 2..4, over several
# sample counts and seeds
PINNED_VERIFICATION = [
    [cmd, "--input", json.dumps({"n": n}), "--samples", str(samples), "--seed", str(seed)]
    for cmd in ("kw-check", "bracket-table") for n in range(1, 6)
    for samples in (1, 2, 4, 7) for seed in range(4)
] + [
    ["verify-suite", "--input", json.dumps({"n": n}), "--samples", str(samples), "--seed", str(seed)]
    for n in range(2, 5) for samples in (1, 3) for seed in range(2)
]
# recorded when every sample was drawn and evaluated on its own, and re-recorded with
# the block-form flows
PINNED_VERIFICATION_SHA256 = "8b5dd3517ac7c42e392a35115d165addad4f7ca159e8b1faa7455b76813bb7ee"


def verification_digest(capsys) -> str:
    """sha256 over (argv, exit code, stdout) of every pinned verification request."""
    digest = hashlib.sha256()
    for argv in PINNED_VERIFICATION:
        code, out, _ = call(capsys, *argv)
        digest.update(json.dumps([argv, code, out]).encode())
    return digest.hexdigest()


def test_pinned_verification_digest(capsys):
    assert len(PINNED_VERIFICATION) == 172
    assert verification_digest(capsys) == PINNED_VERIFICATION_SHA256


def test_one_sample_blocks_give_the_same_bytes(capsys, monkeypatch):
    # blocks draw in order, so the block size moves no byte
    monkeypatch.setattr(matpoly, "_BLOCK_ENTRIES", 1)
    assert cli._blocks(7, 3) == [1] * 7
    assert verification_digest(capsys) == PINNED_VERIFICATION_SHA256


def test_blocks_cover_the_samples_in_order():
    assert cli._blocks(7, 2 ** 18) == [2, 2, 2, 1]
    # at least one sample, however large a sample's temporaries
    assert cli._blocks(3, 3003 * 144) == [1, 1, 1] == cli._blocks(3, 2 ** 30)
    # bracket-table at n = 5 (105 pairs of 5x5 products) and kw-check at n = 5 (N = 15):
    # 50 samples are one block
    assert cli._blocks(50, 105 * 25) == [50] == cli._blocks(50, max(16 * 15 * 15, 15 ** 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_whole_array_chart_draws_are_the_per_level_draws(n):
    for seed in range(50):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        x, want = cli._random_chart(ours, n).flat(), per_level_chart(theirs, n).flat()
        assert x.shape == want.shape and np.array_equal(x.view(np.uint64), want.view(np.uint64))
        # and the generators are left in the same state
        assert ours.uniform() == theirs.uniform()



def lax_payload(kind, n, steps):
    """A lax-run request on [0, 1]: alpha constant or quadratic in t, every |matrix|_F below 1."""
    rng = np.random.default_rng([n, steps, kind == "polynomial"])
    mat = lambda: 0.5 / n * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))  # noqa: E731
    if kind == "constant":
        alpha = {"type": "constant", "matrix": serialize.encode_array(mat())}
    else:
        alpha = {"type": "polynomial", "coefficients": serialize.encode_array([mat() for _ in range(3)])}
    payload = {"alpha": alpha, "beta": serialize.encode_array(mat()),
               "t_start": 0.0, "t_end": 1.0, "steps": steps}
    return json.dumps(payload, default=np.ndarray.tolist)


def lax_round_trip(capsys, tmp_path, kind, n, steps):
    """(sha256 of lax-run's stdout, its exit code, the same for lax-gauge on that path).

    Each request also runs with --output; the file must hold the bytes of
    stdout, and a refused request must leave no file.
    """
    got = []
    argvs = [["lax-run", "--input", lax_payload(kind, n, steps)],
             ["lax-gauge", "--input", str(tmp_path / "lax-run.json")]]
    for argv in argvs:
        code, out, _ = call(capsys, *argv)
        target = tmp_path / f"{argv[0]}.json"
        assert call(capsys, *argv, "--output", str(target))[:2] == (code, "")
        assert (target.read_text(encoding="utf-8") if target.exists() else "") == out
        got += [hashlib.sha256(out.encode()).hexdigest(), code]
    return tuple(got)


# sha256 of stdout and the exit code of lax-run, then of lax-gauge on its path;
# lax-run refuses a path whose residual exceeds 1e-3 (exit 3, no file), and
# lax-gauge then finds no input file (exit 65)
LAX_BYTES = {
    ("constant", 1, 1): (
        "3999acb0fe0df316fc6d5f661c2de9bc38a6b22317ef3df07e453d7a96cfc3b5", 0,
        "f7d226a6c217b9ac42c3a35056d3e869a4e49c933ef1c20ea05a7e1ecd420cbe", 0,
    ),
    ("constant", 1, 4): (
        "872422689beab48c730e497272c2c5fc8506d2acc37db13085d2a0a548a845c0", 0,
        "5ae59b81a52fa98a709ed7eb36b593b1456c29cd5a0ed267b5b912730b5ea672", 0,
    ),
    ("constant", 1, 5): (
        "52222e349a1f7d13f5ae168124ec8793a15cb9a2dfc19563e6001bc5c4711c9a", 0,
        "755a3c52eeee8ee935fe0744c931406ec036334f5a3550abc97af8e96d7638b5", 0,
    ),
    ("constant", 1, 40): (
        "5a28bed360b5a22f17f80a26998538ea2add223548305e2ac3df18a09c21a74a", 0,
        "8b0125285f4a9d705a6a4d7808ec3064e9418de567e1cb601858d3dbd09b5f4c", 0,
    ),
    ("constant", 1, 500): (
        "05bd09277014fb2f57d02e0e63634172737db9140e7eb202bf17f72387511aa3", 0,
        "076cde79a6d552c86eb93d1de8c646d0727163350f6aa418e312ab662fe2a550", 0,
    ),
    ("constant", 2, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("constant", 2, 4): (
        "d9b2a6aaf5c2efbc52f6f831a44376a96bdfd97d873a3984c390ccc15ee49df8", 0,
        "7ddcb51ddb5c35a654e652e5b86ddff39ba5f6861ade4c1651beebdda26d47a2", 0,
    ),
    ("constant", 2, 5): (
        "20b559fdba1d3c0849fb1b0f40abeee00bc72c1236280d05e399f592e6c6be94", 0,
        "0dcecf5290fb06e83c62bf0242eef28560a4f1bd6f63538ab95b670c1ee0ea22", 0,
    ),
    ("constant", 2, 40): (
        "288481703932c8e49d92f79d537add5ddd84fb7e04165cd921ecff2f949daeee", 0,
        "7907b689ad564d720ffb02261989459956302754ef29be438deae8a63a24e2ec", 0,
    ),
    ("constant", 2, 500): (
        "9365776008ebf752a2703d13de59bc8f2cdc7c3c64fac3995ae881b5242b1625", 0,
        "354d45fdfb0cc0ba48629c1d6702db4d76ffbc90cceffaed18d95ed9ad0d5164", 0,
    ),
    ("constant", 3, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("constant", 3, 4): (
        "88136ed248c6151b7f3142ecbe0ad15f4745505f6d9205b35c5f1ca5a605523e", 0,
        "39e5c06cba139b6f084fe3dd32e05b2740007e7033ba07cf6a9ce2ec05cf1a4d", 0,
    ),
    ("constant", 3, 5): (
        "6793bab8504431679fec33ff908d060839e6af941c21d4a517d34c5debf2606d", 0,
        "aa4b5c0ca027d9b0887dc961234d33e332c2f7b95d14e576997330dc7722c157", 0,
    ),
    ("constant", 3, 40): (
        "ff754896e737fcf87ef7f9e7a7600e54d2e9f0d0ad653224d79074ac6a6fab48", 0,
        "e8e30c2bd8f30bf3b313429498336a7c9ae39d9ea98ccdc24997dda9675bf846", 0,
    ),
    ("constant", 3, 500): (
        "d8929455fa870f81d6efb00856455b8e0e036e7a256b698de2a13acf72d31e82", 0,
        "4878ed689ae1eecc9dcf1243e97477332d52dadf511f6b9b3d98d5c5d9d1cf94", 0,
    ),
    ("constant", 4, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("constant", 4, 4): (
        "9a8d8b57a57dc4ec4dd480152b9d615f5e825cba95a95033effd249d16690e60", 0,
        "669d0a838afcb0bcf5eab8a52ef2a40b803b41f41e25ed07de367403fc3ebae4", 0,
    ),
    ("constant", 4, 5): (
        "94a8bc6708b317e6f3dcc1dd05fd43c0dd94b61a9fee226de26fe2637b1c150c", 0,
        "41b649a16a656f1de50159943f31f4dd4f99dd98d813a5c1b6769939cd6637ad", 0,
    ),
    ("constant", 4, 40): (
        "cd5e6947b4121232afe8e724c7ad9300ad30a58092a213a4bfb34c120f86ccc3", 0,
        "1c65f2493ac2ee5b0118fa7fbc9ef81d0b5f38000f897c6dd2de17cf2408934f", 0,
    ),
    ("constant", 4, 500): (
        "9ef1bd51f741e056755bb8c2c28993cf51f1e388d74ac0d6620387ef9b2df21c", 0,
        "197d266fc41e1250024b305355c400b437a1e1e9f455f0c49255768c1f6dd790", 0,
    ),
    ("constant", 5, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("constant", 5, 4): (
        "5063528cc56a5d77815439b3339fe5db68b877f11821b95a6696cac18ee80845", 0,
        "8803ee62c6fbff5ae382c4899e2e59c302e1e82bdd9426ec8a8403a68932c1d9", 0,
    ),
    ("constant", 5, 5): (
        "7b79db0d74b9614160b09311b7f882d47fbee406c2f5b76b45d8583c10b98d4c", 0,
        "c7b717d0a206dd4277d33d0b4b4479f0ce68824c25e64f829a05129c422105e0", 0,
    ),
    ("constant", 5, 40): (
        "af0fcf72a952c254bb0db4e831e07a943bcdfccacfe50f37c937fcb4dd936a80", 0,
        "5cbc05b27df8c163e4974db71c5bcc74cb048b004b8b01d5c0bfb729221f910d", 0,
    ),
    ("constant", 5, 500): (
        "167a851591b3309e9fa9723b45099820969f0520521ac43f4bf7384caa822485", 0,
        "a68f9e5b420dad8f2caedc3ffe73553c98d8aee4d583c8ca568a5ef8dd0c838f", 0,
    ),
    ("constant", 6, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("constant", 6, 4): (
        "648b9aea8795671a98a91451c213d1eee1ee7b791d3cb76cad86d8d7d9f231ce", 0,
        "f9916a13c5749f69793c3b2744b06a9930a1b9e107b4e5d8d67388f766bfd3e4", 0,
    ),
    ("constant", 6, 5): (
        "b86f52b4c567722e1a239d2dbce66ce54cb9448c86f935f7754f8edf85078ada", 0,
        "12888bd71ee9453ee36e3fdd7c2e2cbfdbbb58a16314745d5c29322aa7cc5554", 0,
    ),
    ("constant", 6, 40): (
        "2a1ffb262583ffb9e00d953028eec50ae40264f2b9868c35363ed4372ceb9d29", 0,
        "da1a0e85999e4ad719edf6fec47a82782311930a4c06f8186b8a29251911cbf8", 0,
    ),
    ("constant", 6, 500): (
        "9af56009c4c1b9d2b4476e59774e7a9ab7e1bfd2789e4e6be15f1d78145dc556", 0,
        "6b99acea0e6e135089b7e30e111acddc492dbdb7f7bdc33400f4d9db0b325f3b", 0,
    ),
    ("polynomial", 1, 1): (
        "d50e0f9ec67489947817942fe6052f95aa60aa4c23b6856476d23ff5b2b31e03", 0,
        "52462357b1df29e72f8ad34a1a4148e9566ed6b76c6eadb6ac8b44ed2cdf08ca", 0,
    ),
    ("polynomial", 1, 4): (
        "47b66d8c19bedadb3a82e60c733bfd72214c583593ab029afd223dbf7a27ca1a", 0,
        "5f540035c5a26ddc906e4eb4ade5ed4fe9d7164e479c03cf95c8f843e775be19", 0,
    ),
    ("polynomial", 1, 5): (
        "265145f94e268c68cf5d21548c1af57288abf738f8a74ceb92b137c620196e65", 0,
        "3e966993effe0221c02a206f9939981864d289410f9e4001b13840b6293f4c12", 0,
    ),
    ("polynomial", 1, 40): (
        "31061c58eca6903fa850c1ce05fe6312306b7b69de24ab2bc20662ec8c20567f", 0,
        "83ca92858dd9d5e2cfc655d743bdcabdc140df4bab9b1a180e03d40f8c58c921", 0,
    ),
    ("polynomial", 1, 500): (
        "3ac63d1dbe88eed65747083774ca3c3b567b252dd658c43af7e102716980feff", 0,
        "a4118db0ee1ad260195f54d8ff4e41d3ad6f65b0e4918475728ad44bcabfc8e5", 0,
    ),
    ("polynomial", 2, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("polynomial", 2, 4): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("polynomial", 2, 5): (
        "9b84dc5528e57972282f50cd5fd05a3a48d3adfb3d7e82c16fe808ea169a50b9", 0,
        "aa9c637ecf715141db24f10190f9130cf22c5adb42a8c17450f683bd68ac5f88", 0,
    ),
    ("polynomial", 2, 40): (
        "f664575cbca74dfdba258a82ade080deb0a36b05899b69bf74b94364f8a269b7", 0,
        "2aaa3b25caa82a60d47daf6438b1d82f0c762bdb9136b275a520089f30d85338", 0,
    ),
    ("polynomial", 2, 500): (
        "7351fc44c8aec15d21caa59d2523b491188d46253d1ae11d80e5771843d7c823", 0,
        "1ef93c359b6f5cb61194d3532afcca43b471efcb8d18ef8d18f3c871d2960c62", 0,
    ),
    ("polynomial", 3, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("polynomial", 3, 4): (
        "9cdc473ff0c8d1c3866ca7788e5e425b83c44e2567388d8e940729907fc16adf", 0,
        "18d0f4022f9f9da331473dd5fc7f33e4794336d66fa03c8213ba7f055e616631", 0,
    ),
    ("polynomial", 3, 5): (
        "50e4d66b53f80c69bc59b00162cc62d232f48679f7a9e8b56774fc6023318437", 0,
        "da078268b958b484d9d73fb1264a12702ac85bac983999116a51cf6fd38178c2", 0,
    ),
    ("polynomial", 3, 40): (
        "9a9d3b9c729e9d0e5d5513b6581ab5e4a49b78ce505d289e204a74aca635818f", 0,
        "bc77b12db1bacdcab98c897c35edb45e706b916473373ebeaca9a017550bd285", 0,
    ),
    ("polynomial", 3, 500): (
        "1849cddc69975cdddac19999155ca187b54bd7acb75926b75157ee7eff556c35", 0,
        "f8b8ca2b79bc9dd5089c2225f4f8b60b6f4b3b33a0d6ef3531463c2369bf9a62", 0,
    ),
    ("polynomial", 4, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("polynomial", 4, 4): (
        "16e93b7913bea331ffb602ce1b4cf5e7248d81470b40306471ca22cf1f1f1b52", 0,
        "e69c12ca7610050b571b30ae29d8438588ee78cd5487f4c04d6983e60fd9b023", 0,
    ),
    ("polynomial", 4, 5): (
        "da91a93d8bc659e0da3ccc8d51f2c9a1f50559f4dd815e1de489255e21db5764", 0,
        "dd21f6416cabb701bb4285464920ebce939c8f063a9136785eb500405451e5b5", 0,
    ),
    ("polynomial", 4, 40): (
        "29a2a4ebc7524b1e0628b719fa3df5d27a192c3d8812d53ecf55320042456c62", 0,
        "8a09a6dc41137f6c964f2ab28fdb5fe8958da01e99694020fec8920146a98bdc", 0,
    ),
    ("polynomial", 4, 500): (
        "b947fdab54ab7a59bb6f366c79aae3e13ae810cfc88c012093618286f1259e25", 0,
        "6832010b9a382a90d08fd77fd200bc649105d041c7f93b611f686a27ff90e3cc", 0,
    ),
    ("polynomial", 5, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("polynomial", 5, 4): (
        "e0ec412fe6948ecdafa67eb3810d33699fe7566b611db293de3bb2198c1449ac", 0,
        "9ebaaa3e3c0301adc3914f6c2c429a324918473afb23a258b7064cf3dca65b58", 0,
    ),
    ("polynomial", 5, 5): (
        "676ee85df573075cc006ca1bb2ba1463689128c89486b1e56fe6a7bb262f2c0f", 0,
        "9e34cb5827194a8853b5563fe97e2d5120d31383d997708e2fef51e9e3d3fec6", 0,
    ),
    ("polynomial", 5, 40): (
        "bcc7e6867d9278e971bcaeef64519789845e210260e83b1ed2af417dbd73b296", 0,
        "539a08d9fe7b1b324aceec83c53f0c63e4a06e9ea672cca566e93889e656cd7b", 0,
    ),
    ("polynomial", 5, 500): (
        "79ec0d45877990930a3bd9256a9c58e141a173188df5b7a2c10e07dbbd3a0f41", 0,
        "6817c61d5a50db282c50fcb469b0cc03e6da8d18e3f0b07475e8cdc2d84a7d0a", 0,
    ),
    ("polynomial", 6, 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65,
    ),
    ("polynomial", 6, 4): (
        "a1074f614aecb65bab0016b20ce2dc5e6ebe63fea66648745b5853b44d39998d", 0,
        "57d64c53ad22b8c485e08e192a16adf2d387b2f1f9eae2c9fedb224814c9057a", 0,
    ),
    ("polynomial", 6, 5): (
        "3faa9feacf781621da494aaa4f4c612e83308d1847dd0b5aff1ac09f17eef30e", 0,
        "c05e3849ca24f398197aeddc79863afa76fa16af9468d1fdd53522fe0f25e8ac", 0,
    ),
    ("polynomial", 6, 40): (
        "e29548b2d1725c68732fb33b07f55ca71ee99dc2257fc009230b4bd74d55685a", 0,
        "1b7149ea96ed1e1781265f8878995c565c07ed2bc55c5766da4bbe0e926623d9", 0,
    ),
    ("polynomial", 6, 500): (
        "df1ea5658e472e7ab8188f0a76823c95d6c61b6c6f20cd1f958dc7e54a33e786", 0,
        "b1226a4ae4391c308204c52a8c7593a4fbb78fac637b7792849a4f9e9dd9fb12", 0,
    ),
}


@pytest.mark.parametrize("key", list(LAX_BYTES), ids=lambda k: "-".join(map(str, k)))
def test_lax_bytes(capsys, tmp_path, key):
    assert lax_round_trip(capsys, tmp_path, *key) == LAX_BYTES[key]

def fixture_point(k, seed=5):
    """fixture_from_polar over degrees k, roots drawn uniformly in the square |re|, |im| < 2."""
    rng = np.random.default_rng(seed)
    polys = [poly_from_roots(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)) for d in k]
    return fixture_from_polar(polys, rng=rng)


def model_argv(cmd, k, variant):
    """One model-subcommand request: a fixture or enumerated point, or a fixture
    whose block on the given side of the last junction has its (1, 1) entry moved."""
    if cmd == "enumerate-orbits":
        return [cmd, "--input", json.dumps({"k": list(k)})]
    F = enumerate_sr(k)[-1] if variant == "enumerated" else fixture_point(k)
    j = len(k) - 2
    if variant == "B_plus":
        F.b_plus[j][0, 0] += 0.5
    elif variant == "B_minus":
        F.b_minus[j + 1][0, 0] += 0.5
    params = [[[0.1 * (l + 1), -0.05 * l] for l in range(d)] for d in k]
    payload = {"data": serialize.encode_matricial(F), "params": params}
    return [cmd, "--input", json.dumps(payload, default=np.ndarray.tolist)]


# sha256 of stdout and the exit code of model requests over junctions k_j > k_(j+1),
# k_j < k_(j+1) and k_j = k_(j+1), and zero degrees; the "B_plus" and "B_minus"
# points break the matching at the last junction from either side
MODEL_BYTES = {
    ("enumerate-orbits", (3, 2), None): ("d8c8f3cca47c286e1d1a9884a723c7253b84e1b67b18358807f1129d31c05d11", 0),
    ("enumerate-orbits", (2, 3), None): ("288a899a91727692492a11d290b10382ed2474f0c65b0a6ce1b9050534539ea1", 0),
    ("enumerate-orbits", (2, 2), None): ("9efe56d4184e586bd4b257f9dc75e11d0ebfa9237ac7054e542289a73383ce29", 0),
    ("enumerate-orbits", (1, 3, 2), None): ("8e709e7515f30ea99a34b9c647aac218483fe3553240aa31d7cdedcdef531601", 0),
    ("enumerate-orbits", (1, 2, 3), None): ("d6944728d3f384872177642ccfa8a7c4871a69860b76cb18ed568e6aa042a408", 0),
    ("enumerate-orbits", (3, 1, 2, 2), None): ("3953fa838f5e516b6b3a0b7ce9a5c3bcb931c83792afc001fcfaf3f152f631c6", 0),
    ("enumerate-orbits", (1, 2, 3, 3, 2), None): ("b4bb39714aabbf3e1561ecc821c701011b67c9d5cdd761b61c33984b41037904", 0),
    ("md-validate", (3, 2), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (3, 2), "fixture"): ("0eaf96a62e212ce21dcde5dd442e65cdcfdcd4fbd3d182138c3ef2adfba0f143", 0),
    ("ak-act", (3, 2), "fixture"): ("c5174225cc1e21772c906bf03ad072a88a757ea412ddcc26c3327558a5c3e9ea", 0),
    ("md-validate", (2, 3), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (2, 3), "fixture"): ("3368b71b3a30bae62c3053c3d7a0ba2cb63064efb93b0e3fd431006a138a0e76", 0),
    ("ak-act", (2, 3), "fixture"): ("e9dd0d406710008f47a67d96cde80f34ce4b2e2713e30447e46fa58b8c8946ba", 0),
    ("md-validate", (2, 2), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (2, 2), "fixture"): ("4d1f49ca5b33509a9a1eb9b78950f885fc371684bfa89af71c0dc5b4ab0a13df", 0),
    ("ak-act", (2, 2), "fixture"): ("16b4ea3eccac8a902965d851cd5c265e99f4b012613cb1e18a532c6d166c23de", 0),
    ("md-validate", (1, 3, 2), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (1, 3, 2), "fixture"): ("23e001a9abec8c79de843b40fa6e5b54263ca7a93d32d14325a452ac4d728b34", 0),
    ("ak-act", (1, 3, 2), "fixture"): ("1b4a517c4dd9213e5046a5fb6bbd142285c997a5ee63b6690f0e7882b50158b2", 0),
    ("md-validate", (1, 2, 3), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (1, 2, 3), "fixture"): ("befcffb472efe24f537e2c0721cfcafe491332ffa2b15e0be7ddd420b5131e0c", 0),
    ("ak-act", (1, 2, 3), "fixture"): ("d9bd11543b4fa74b381da0874f5839bed876f5798da1b57a6c2d27d335129e47", 0),
    ("md-validate", (2, 0, 3), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (2, 0, 3), "fixture"): ("4f0b69deb50b4ff50ca42487d01bfedeee747e1886d3900dd65d64152b04e2f5", 0),
    ("ak-act", (2, 0, 3), "fixture"): ("7e55c510bb04a5cb8031db16ff5e9e224db51ad72cf3f350f36a17f091ac83d3", 0),
    ("md-validate", (0, 2, 2, 1), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (0, 2, 2, 1), "fixture"): ("cf052eb13cdffb285ff33da28e909b906f092d6043d5dba71a34ab1e07ed7f57", 0),
    ("ak-act", (0, 2, 2, 1), "fixture"): ("c050bc6607faff1cfa8070159c51a1daeea45b99e3a0c7c515a6ee4027106df6", 0),
    ("md-validate", (3, 1, 2, 2), "fixture"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("polar", (3, 1, 2, 2), "fixture"): ("c0a57591831ccbabf458cb4f6bdc7944e39b54957f4ea7e6377b8ddfda6524af", 0),
    ("ak-act", (3, 1, 2, 2), "fixture"): ("56f638dacd1786b0020146cf70166ed0b59dd2b123ec9e47f8bb7926b4ede9c4", 0),
    ("md-validate", (3, 2), "enumerated"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("md-validate", (2, 3), "enumerated"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("md-validate", (2, 2), "enumerated"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("md-validate", (1, 3, 2), "enumerated"): ("1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328", 0),
    ("md-validate", (3, 2), "B_plus"): ("7abba78368d0b5b45b10bd6b94a079f7a6476287c20761080c06632b53d21410", 2),
    ("md-validate", (3, 2), "B_minus"): ("a7ead0d77788cce01490108bec2034f677d18da8bc1179783034290bf22bba97", 2),
    ("md-validate", (2, 3), "B_plus"): ("e7d6c0423e0e7988eb2685ce888c7af4ab142def7fb2753b05c841c513cee533", 2),
    ("md-validate", (2, 3), "B_minus"): ("29fe0a6cc9a67afddf01979f048a2d8323e1d4722e21bc37cad8f01c53782d8c", 2),
    ("md-validate", (2, 2), "B_plus"): ("e187dcfaa13e26e88a80451d035f1f804edcdb72d00527a6c9074b26e79a9ef1", 2),
    ("md-validate", (2, 2), "B_minus"): ("5d48dbb90d5e7435e854891735e420b8080c7daf8be0523b288a9bce254fa943", 2),
    ("md-validate", (1, 3, 2), "B_plus"): ("6861eed3156923ed413e2d137714c8b308413e287076db8d3922c445cbff0cb2", 2),
    ("md-validate", (1, 3, 2), "B_minus"): ("a497a2e6f8e3b7f95b2cb400828a07e1d3c9238d1cd4dd08f9dda539bd108e7d", 2),
    ("md-validate", (1, 2, 3), "B_plus"): ("f19abde44af78765b2f21ace02125f9e6734644c51bb620912acf0b74855bd14", 2),
    ("md-validate", (1, 2, 3), "B_minus"): ("3a0b4100c4cc3c020fea097fb466e09888ceab49700968c97565ce90608c23ba", 2),
    ("md-validate", (2, 1, 1), "B_plus"): ("c34a8e6993703ce4d0187086688ef238e5e8bf6cc55ef8edc7e47bb894dd87af", 2),
    ("md-validate", (2, 1, 1), "B_minus"): ("def7aceef6597d7045040be122b9df9d20af4827262a8953b9e95590c39213f0", 2),
}


@pytest.mark.parametrize("key", list(MODEL_BYTES), ids=lambda k: "-".join(map(str, k)))
def test_model_bytes(capsys, key):
    code, out, _ = call(capsys, *model_argv(*key))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == MODEL_BYTES[key]


# entries whose power sums overflow: tr(B^2) = 2e400
HUGE_MATRIX = {"matrix": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]}
NOT_JSON = "numerical failure: non-finite number in the output (NaN and Infinity are not JSON)\n"


class TestNonFiniteOutput:
    """NaN and Infinity are not JSON: a request whose answer holds one exits 3."""

    @pytest.mark.parametrize("basis", ["tr-power", "charpoly"])
    def test_gz_map_3(self, capsys, basis):
        payload = json.dumps({**HUGE_MATRIX, "basis": basis})
        code, out, err = call(capsys, "gz-map", "--input", payload)
        assert code == 3 and out == "" and "numerical failure" in err

    def test_gz_flow_with_nan_invariants_3(self, capsys):
        payload = json.dumps({**HUGE_MATRIX, "flows": [{"m": 1, "i": 1, "z": [0.1, 0]}]})
        code, out, err = call(capsys, "gz-flow", "--input", payload)
        assert code == 3 and out == "" and "numerical failure" in err


def run_fresh(*argv):
    """(exit code, stdout, stderr) of one request in a fresh interpreter, whose
    numpy warnings reach stderr instead of pytest's warning filters."""
    src = str(Path(ratmodel.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "gzflows.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return done.returncode, done.stdout, done.stderr


def overflowing_lax_run(steps):
    # beta grows like exp(1600 t) off the diagonal
    return json.dumps({
        "alpha": {"type": "constant", "matrix": [[[800, 0], [0, 0]], [[0, 0], [-800, 0]]]},
        "beta": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]], "t_start": 0, "t_end": 1, "steps": steps,
    })


def overflowing_composite_flow(seed):
    # entries U(-1, 1) + iU(-1, 1), not normalised: exp(0.3 B_m^(i-1)) overflows for large i
    rng = np.random.default_rng(seed)
    n = 12
    B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    flows = [{"m": m, "i": i, "z": [0.3, 0]} for m in range(1, n) for i in range(1, m + 1)]
    return json.dumps({"matrix": serialize.encode_array(B).tolist(), "flows": flows})


class TestQuietOverflow:
    """A request that overflows exits 3 with the CLI's one line on stderr, no numpy warnings.

    A request that is only scaled near overflow answers as its scaled copy does.
    """

    @pytest.mark.parametrize("argv, err", [
        pytest.param(["gz-map", "--input", json.dumps({**HUGE_MATRIX, "basis": "tr-power"})], NOT_JSON,
                     id="gz-map-tr-power"),
        pytest.param(["gz-map", "--input", json.dumps({**HUGE_MATRIX, "basis": "charpoly"})], NOT_JSON,
                     id="gz-map-charpoly"),
        # the invariants of the moved matrix overflow: a NaN defect fails gz-flow's gate
        pytest.param(["gz-flow", "--input", json.dumps(
            {**HUGE_MATRIX, "flows": [{"m": 1, "i": 1, "z": [0.1, 0]}]})],
            "numerical failure: flow does not conserve the invariants (defect nan > 1.0e-09)\n",
            id="gz-flow"),
        # ad alpha has the rates +-1600, and h * 1600 = 40: refused before any output is made
        pytest.param(["lax-run", "--input", overflowing_lax_run(40)],
                     "numerical failure: Lax step is unstable "
                     "(h * largest eigenvalue gap of alpha 4.000e+01 > 2.78)\n", id="lax-run-40"),
    ])
    def test_non_finite_output_is_one_line(self, argv, err):
        assert run_fresh(*argv) == (3, "", err)

    def test_overflowing_minor_power_is_a_flow_failure(self):
        # B_3**2 = 1e320 I_3 overflows inside the flow: a numerical failure, not malformed input
        B = 1e160 * np.eye(4)
        payload = json.dumps({"matrix": serialize.encode_array(B).tolist(),
                              "flows": [{"m": 3, "i": 3, "z": [0.1, 0]}]})
        assert run_fresh("gz-flow", "--input", payload) == (
            3, "", "numerical failure: flow factor for (m, i) = (3, 3) overflowed\n",
        )

    def test_overflowing_ak_act_exponent_3(self):
        F = fixture_from_polar([poly_from_roots([1, -1]), poly_from_roots([1, 2])], rng=0)
        payload = json.dumps({"data": serialize.encode_matricial(F),
                              "params": [[[1e308, 0], [1e308, 0]], [[0, 0], [0, 0]]]},
                             default=np.ndarray.tolist)
        assert run_fresh("ak-act", "--input", payload) == (
            3, "", "numerical failure: exp(p_1'(B_minus[1])) g[1] overflows\n",
        )

    @pytest.mark.parametrize("steps, t", [(100, "0.86"), (200, "0.62"), (500, "0.476")])
    def test_lax_run_overflow_3(self, steps, t):
        assert run_fresh("lax-run", "--input", overflowing_lax_run(steps)) == (
            3, "", f"numerical failure: integration overflowed (not finite at t = {t})\n",
        )

    @pytest.mark.parametrize("steps", [40, 100, 200, 500])
    def test_lax_run_overflow_3_in_process(self, capsys, steps):
        code, out, err = call(capsys, "lax-run", "--input", overflowing_lax_run(steps))
        assert code == 3 and out == "" and err.startswith("numerical failure: ")

    def test_sregular_at_1e200_answers_as_its_scaled_copy(self):
        # raw commutators [pad(B_m**(i-1)), B] of this B overflow; its unit-norm chain is
        # that of B / 1e200, and so is the span
        B = np.array([[1e200, 1e200, 0], [0, 1e200, 0], [1, 1, 1e200]])
        payloads = [json.dumps({"matrix": serialize.encode_array(M).tolist()}) for M in (B, B / 1e200)]
        answers = [run_fresh("sregular", "--input", payload) for payload in payloads]
        assert answers[0] == answers[1] == (
            0, '{\n  "strongly_regular": false,\n  "rank": 1,\n  "required_rank": 3\n}\n', "",
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composite_gz_flow_overflow_3(self, seed):
        code, out, err = run_fresh("gz-flow", "--input", overflowing_composite_flow(seed))
        assert (code, out) == (3, "") and err.count("\n") == 1
        assert err.startswith("numerical failure: flow factor for (m, i) = (")


def gz_flow_request(B, m, i, z) -> str:
    return json.dumps({"matrix": serialize.encode_array(B).tolist(),
                       "flows": [{"m": m, "i": i, "z": [z, 0]}]})


def normal_flow(seed) -> str:
    # (m, i, z) = (2, 2, 8) on a 3x3 standard-normal B: h is ill-conditioned at seeds 2 and 3
    return gz_flow_request(np.random.default_rng(seed).standard_normal((3, 3)), 2, 2, 8)


# sha256 of the answers of normal_flow(seed), recorded with the block-form flows
# (tests/test_block_flows.py checks them against the full conjugation)
NORMAL_FLOW_BYTES = {
    0: "9032426a55777626c9a16001b599a3cfc275c889047bc6e7ed2662b83e2d8bcb",
    1: "297b184c118529e36275d0421d86b42aeb8bd8e5c028b202651c7dd8acc03ce1",
    4: "08dcbadf51a234ff06d43c56d9476574d26b40cb27548565945b6f91dbe3baca",
    5: "244331685aa38f686ee1a454367a04834aa2f839f41479ecac9461e12e58b72c",
}
FLOW_REFUSED = "numerical failure: flow does not conserve the invariants (defect "


class TestToleranceContract:
    """Every --tol default comes from one table, and gz-flow refuses a flow that drifts."""

    def test_benchmark_fault_b_exits_3(self):
        # (m, i, z) = (2, 2, 4) on U(-2, 2) + iU(-2, 2): cond(h) is about 3e7
        rng = np.random.default_rng(197)
        B = rng.uniform(-2, 2, (3, 3)) + 1j * rng.uniform(-2, 2, (3, 3))
        code, out, err = run_fresh("gz-flow", "--input", gz_flow_request(B, 2, 2, 4))
        assert (code, out) == (3, "") and err.count("\n") == 1 and err.startswith(FLOW_REFUSED)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_drifting_flow_exits_3(self, capsys, seed):
        code, out, err = call(capsys, "gz-flow", "--input", normal_flow(seed))
        assert (code, out) == (3, "") and err.startswith(FLOW_REFUSED)

    @pytest.mark.parametrize("seed", sorted(NORMAL_FLOW_BYTES))
    def test_conserving_flow_keeps_its_bytes(self, capsys, seed):
        code, out, _ = call(capsys, "gz-flow", "--input", normal_flow(seed))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, NORMAL_FLOW_BYTES[seed])

    def test_tol_sets_the_gate(self, capsys):
        # seed 12 drifts by 7.4e-10: inside the default 1e-9, outside 1e-10
        code, _, err = call(capsys, "gz-flow", "--input", normal_flow(12), "--tol", "1e-10")
        assert code == 3 and err == FLOW_REFUSED + "7.356e-10 > 1.0e-10)\n"
        assert call(capsys, "gz-flow", "--input", normal_flow(12))[0] == 0

    def test_parser_defaults_are_the_table(self):
        for name in HANDLERS:
            assert cli._parse_options(name, []).tol == cli._TOLERANCES.get(name), name
        ignoring = {name for name in HANDLERS if name not in cli._TOLERANCES}
        assert ignoring == {"gz-map", "sregular", "enumerate-orbits", "ak-act", "polar"}
        assert cli._TOLERANCES["md-validate"] == ratmodel.VALIDATE_TOL
        assert cli._TOLERANCES["strata"] == cli._TOLERANCES["orbit-count"] == gzcore.CLUSTER_TOL

    def test_verify_suite_reports_read_the_table(self, capsys):
        doc = json.loads(call(capsys, "verify-suite", "--input", '{"n": 2}', "--samples", "1")[1])
        table = cli._TOLERANCES
        assert {r["test"]: r["tolerance"] for r in doc["reports"]} == {
            "lie-poisson-bracket-table": table["verify-suite"],
            "flow-commutation": table["flow-commutation"],
            "flow-conservation": table["gz-flow"],
            "kw-relations": table["verify-suite"],
            "kw-fd-cross-check": table["kw-fd-cross-check"],
            "lax-isospectral": table["lax-isospectral"],
        }

    @pytest.mark.parametrize("coords, message", [
        ({"n": 2, "basis": "foo", "values": [[1, 0], [2, 0], [3, 0]]}, "coords need a basis in"),
        ({"n": 2, "basis": "charpoly", "values": [[1, 0], [2, 0], [3, 0], [4, 0]]},
         "n(n+1)/2 = 3 values"),
        ({"n": True, "basis": "charpoly", "values": [[1, 0]]}, "'n' must be an integer"),
        ({"n": -1, "basis": "charpoly", "values": []}, "'n' must be an integer"),
        ({"n": 2, "values": [[1, 0], [2, 0], [3, 0]]}, "missing keys: basis"),
    ])
    def test_strata_coords_are_checked_65(self, capsys, coords, message):
        code, out, err = call(capsys, "strata", "--input", json.dumps({"coords": coords}))
        assert (code, out) == (65, "") and message in err

    def test_decode_coords_inverts_encode_coords(self):
        B = np.arange(9.0).reshape(3, 3) + 1j
        for basis in gzcore.GZ_BASES:
            c = gzcore.gz_map(B, basis=basis)
            back = serialize.decode_coords(json.loads(serialize._dumps(serialize.encode_coords(c))))
            assert (back.n, back.basis) == (c.n, c.basis) and np.array_equal(back.values, c.values)


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

    @pytest.mark.parametrize("name, payload", [
        # lax-run's grid alone would take 7.11 PiB, enumerate-orbits' shift 1.42 PiB: more than
        # a 2**47-byte address space, so each allocation fails at once
        pytest.param("lax-run", json.dumps({"alpha": {"type": "constant", "matrix": [[[0, 0]]]},
                                            "beta": [[[1, 0]]], "t_start": 0, "t_end": 1, "steps": 10**15}),
                     id="lax-run-steps-1e15"),
        pytest.param("enumerate-orbits", '{"k": [10000000]}', id="enumerate-orbits-k-1e7"),
    ])
    def test_request_too_large_to_allocate_65(self, name, payload):
        # each ended in a traceback, exit 1
        code, out, err = run_fresh(name, "--input", payload)
        assert (code, out) == (65, "")
        assert err.startswith("input error: request too large: Unable to allocate ") and err.count("\n") == 1

    @pytest.mark.parametrize("steps", [pytest.param(10**400, id="steps-1e400"),
                                       pytest.param(2**63, id="steps-2**63")])
    def test_steps_past_an_indexable_grid_65(self, capsys, steps):
        # an OverflowError from the step h and an IndexError from an empty grid: exit 1
        payload = json.dumps({"alpha": {"type": "constant", "matrix": [[[0, 0]]]},
                              "beta": [[[1, 0]]], "t_start": 0, "t_end": 1, "steps": steps})
        assert call(capsys, "lax-run", "--input", payload) == (
            65, "", f"input error: steps must be below {np.iinfo(np.intp).max}, the grid size numpy can index\n")

    def test_json_nested_too_deep_to_decode_65(self, capsys):
        # json.loads raised RecursionError out of the request: a traceback, exit 1
        payload = '{"matrix": ' + "[" * 50000 + "]" * 50000 + "}"
        code, out, err = call(capsys, "gz-map", "--input", payload)
        assert (code, out) == (65, "")
        assert err.startswith("input error: invalid JSON: maximum recursion depth exceeded") and err.count("\n") == 1

    def test_enumerate_orbits_without_degrees_names_the_problem_65(self, capsys):
        code, out, err = call(capsys, "enumerate-orbits", "--input", '{"k": []}')
        assert (code, out, err) == (65, "", "input error: k must hold at least one degree\n")

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
        pytest.param("gz-map", '{"matrix": [[[1, 0]]]}', id="gz-map"),
        pytest.param("kw-check", '{"n": 2}', id="kw-check"),
    ])
    def test_seed_below_zero_64(self, capsys, name, payload):
        code, out, _ = call(capsys, name, "--input", payload, "--seed", "-1")
        assert code == 64 and out == ""

    @pytest.mark.parametrize("name, payload", [
        pytest.param("gz-flow", flow_request(True, True), id="flow-m-i-true"),
        pytest.param("gz-flow", flow_request(2, 1.0), id="flow-i-float"),
        pytest.param("kw-check", '{"n": true}', id="kw-check-n-true"),
        pytest.param("bracket-table", '{"n": true}', id="bracket-table-n-true"),
        pytest.param("verify-suite", '{"n": 2.0}', id="verify-suite-n-float"),
        pytest.param("enumerate-orbits", '{"k": [true, 2]}', id="k-true"),
        pytest.param("md-validate", model_request((1, 2), ("k", 0), True), id="model-k-true"),
        pytest.param("md-validate", model_request((2, 2), ("uw", 0, "i"), True), id="model-uw-i-true"),
    ])
    def test_bool_or_non_integer_field_65(self, capsys, name, payload):
        code, out, err = call(capsys, name, "--input", payload)
        assert code == 65 and out == "" and "must be an integer" in err

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

    def test_refused_document_leaves_output_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("earlier answer\n")
        code, out, err = call(
            capsys, "gz-map", "--input", json.dumps(HUGE_MATRIX), "--output", str(target),
        )
        assert code == 3 and out == "" and "numerical failure" in err
        assert target.read_text() == "earlier answer\n"

    def test_refused_large_array_leaves_output_file_untouched(self, capsys, monkeypatch, tmp_path):
        # alpha's pieces are rendered before beta's last piece is refused
        doc = {"alpha": lax_like_path(), "beta": non_finite_last(lax_like_path(1))}
        monkeypatch.setitem(cli.HANDLERS, "gz-map", lambda payload, args: (doc, 0))
        target = tmp_path / "out.json"
        target.write_text("earlier answer\n")
        code, out, err = call(capsys, "gz-map", "--input", "{}", "--output", str(target))
        assert (code, out, err) == (3, "", NOT_JSON)
        assert target.read_text() == "earlier answer\n"

    def test_emit_of_a_lax_path_peaks_below_its_text(self, tmp_path):
        # doc-roundtrip's lax-run document (n = 5, 500 steps): rendered whole, its
        # templates, argument tuples and texts peaked at 4.57 MB for a 2.39 MB text
        rng = np.random.default_rng(0)
        alpha, beta = ((rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))) / np.sqrt(10 / 3)
                       for _ in range(2))
        path = lax.lax_integrate(lambda t: alpha, beta, 0.0, 1.5, 500)
        doc = {"path": serialize.encode_lax_path(path), "lax_residual": float(lax.lax_residual(path)),
               "isospectral_drift": float(lax.isospectral_drift(path))}
        text = serialize._dumps(doc) + "\n"
        target = tmp_path / "lax.json"
        tracemalloc.start()
        try:
            cli._emit(doc, str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.read_text() == text
        assert peak < len(text)

    def test_a_memory_error_without_text_gives_a_reason(self, capsys, monkeypatch):
        # the line ended at "request too large: ", nothing after the colon
        def handler(payload, args):
            raise MemoryError()

        monkeypatch.setitem(cli.HANDLERS, "gz-map", handler)
        assert call(capsys, "gz-map", "--input", "{}") == (65, "", "input error: request too large: out of memory\n")

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


MATRIX_2 = '{"matrix": [[[1,0],[0,0]],[[0,0],[2,0]]]}'
# z - 1 and (z - 1)(z - 1 - 1e-7): two roots at the default clustering radius, one at 1e-6
NEAR_ROOTS = '{"polys": [[[-1, 0], [1, 0]], [[1.0000001, 0], [-2.0000001, 0], [1, 0]]]}'


class TestArgvContract:
    """Exact option names, --name value or --name=value, the last occurrence wins."""

    @pytest.mark.parametrize("argv, code, same_as", [
        pytest.param(["orbit-count", "--input", NEAR_ROOTS, "--tol=1e-6"], 0,
                     ["orbit-count", "--input", NEAR_ROOTS, "--tol", "1e-6"], id="name=value"),
        pytest.param(["gz-map", "--input", MATRIX_2, "--mode"], 64, None, id="no-value-at-end"),
        pytest.param(["gz-map", "--input", MATRIX_2, "--frobnicate", "1"], 64, None,
                     id="unknown-option"),
        pytest.param(["gz-map", "--inp", MATRIX_2], 64, None, id="abbreviated-option"),
        pytest.param(["gz-map", "--input", MATRIX_2, "extra"], 64, None, id="stray-positional"),
        pytest.param(["gz-map", "--input", MATRIX_2, "--mode", "charpoly", "--mode", "tr-power"], 0,
                     ["gz-map", "--input", MATRIX_2, "--mode", "tr-power"], id="last-wins"),
        pytest.param(["gz-map", "-h"], 0, None, id="help"),
    ])
    def test_argv(self, capsys, argv, code, same_as):
        got = call(capsys, *argv)
        if same_as is not None:
            assert got == call(capsys, *same_as) and got[0] == code
        elif code == 64:
            assert got[:2] == (64, "") and got[2].startswith("usage error: ")
        else:
            assert got == (0, cli.USAGE + "\n", "")

    def test_name_value_tol_reaches_the_handler(self, capsys):
        default = call_json(capsys, "orbit-count", "--input", NEAR_ROOTS)
        wide = call_json(capsys, "orbit-count", "--input", NEAR_ROOTS, "--tol=1e-6")
        assert (default["s"], wide["s"]) == (3, 2)


class TestPolynomialIntake:
    """The refusals of gzcore._checked_monic, byte for byte through the CLI."""

    @pytest.mark.parametrize("polys, message", [
        pytest.param([[[0, 0], [0, 0], [1, 0]]], "polynomial 1 has degree 2, expected 1",
                     id="wrong-degree"),
        pytest.param([[[-1, 0], [1, 0]], [[1, 0], [0, 0], [2, 0]]], "polynomial 2 is not monic",
                     id="not-monic"),
        pytest.param([[[-1, 0], [1, 0]], [[0, 0], [0, 0]]], "polynomial 2 has degree -1, expected 2",
                     id="zero"),
    ])
    def test_orbit_count_refuses_2(self, capsys, polys, message):
        code, out, err = call(capsys, "orbit-count", "--input", json.dumps({"polys": polys}))
        assert (code, out, err) == (2, "", f"validation error: {message}\n  - {message}\n")

    @pytest.mark.parametrize("argv", [["strata"], ["orbit-count", "--mode", "rational-maps"]],
                             ids=["strata", "orbit-count"])
    @pytest.mark.parametrize("polys, j", [
        pytest.param([[[1, 0], [1, 0]], [[0, 0]]], 2, id="after-a-root"),
        pytest.param([[[0, 0]]], 1, id="alone"),
        pytest.param([[[2, 0]], [[0, 0], [0, 0], [-0.0, 0]]], 2, id="after-a-constant"),
    ])
    def test_the_zero_polynomial_is_refused_2(self, capsys, argv, polys, j):
        # it vanishes at every point: no root list describes it
        message = f"polynomial {j} is the zero polynomial"
        code, out, err = call(capsys, *argv, "--input", json.dumps({"polys": polys}))
        assert (code, out, err) == (2, "", f"validation error: {message}\n  - {message}\n")

    def test_strata_takes_a_constant(self, capsys):
        code, out, err = call(capsys, "strata", "--input", '{"polys": [[[3, 0]], [[-1, 0], [1, 0]]]}')
        want = {"signature": [{"root": [1.0, 0.0], "multiplicities": [0, 1]}], "cluster_tol": 2e-08}
        assert (code, out, err) == (0, json.dumps(want, indent=2) + "\n", "")


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


def per_entry_blocks(doc) -> list:
    """B_minus, B_plus and g of a model-point document, each entry through its own decode_array."""
    return [[serialize.decode_array(M, 2) for M in doc[name]] for name in ("B_minus", "B_plus", "g")]


def decode_text(obj, ndim) -> str:
    with pytest.raises(ValueError) as info:
        serialize.decode_array(obj, ndim)
    return str(info.value)


def model_doc(k=(1, 2, 3, 3, 2), point=5) -> dict:
    return json.loads(json.dumps(serialize.encode_matricial(enumerate_sr(k)[point]), default=np.ndarray.tolist))


RAGGED = [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]


class TestMatricialDecode:
    """decode_matricial decodes each block and each junction's u and w by decode_array, in
    wire order: every entry keeps the bits and the texts of decoding it alone."""

    @pytest.mark.parametrize("edit", ["none", "integers", "bools", "negative-zero", "empty-level"])
    def test_blocks_have_the_bits_of_per_entry_decoding(self, edit):
        doc = model_doc()
        if edit == "integers":  # one whole block of ints beside float ones
            doc["g"][2] = [[[int(re), int(im)] for re, im in row] for row in doc["g"][2]]
        elif edit == "bools":
            doc["B_plus"][2] = [[[bool(re), False] for re, _ in row] for row in doc["B_plus"][2]]
        elif edit == "negative-zero":
            doc["B_minus"][1] = [[[-0.0, -0.0] for _ in row] for row in doc["B_minus"][1]]
        elif edit == "empty-level":  # a degree 0
            doc = {"k": [0, 1], "B_minus": [[], [[[1, 0]]]], "B_plus": [[], [[[2, 0]]]], "g": [[], [[[1, 0]]]]}
        F = serialize.decode_matricial(doc)
        for got, want in zip((F.b_minus, F.b_plus, F.g), per_entry_blocks(doc)):
            for a, b in zip(got, want, strict=True):
                assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["B_minus", "B_plus", "g"])
    @pytest.mark.parametrize("entry, text", [
        pytest.param(RAGGED, None, id="ragged"),
        pytest.param([[[0, 0]] * 3, [[0, "x"]] * 3, [[0, 0]] * 3],
                     "expected nested [re, im] pairs of JSON numbers", id="text-entry"),
        pytest.param([[[0, 0]] * 3, [[0, None]] * 3, [[0, 0]] * 3],
                     "expected nested [re, im] pairs of JSON numbers", id="null-entry"),
        pytest.param([[[0, 0, 0]] * 3] * 3,
                     "expected a rank-2 array of [re, im] pairs, got nested shape (3, 3, 3)", id="triples"),
        pytest.param([[0] * 3] * 3,
                     "expected a rank-2 array of [re, im] pairs, got nested shape (3, 3)", id="no-pairs"),
        pytest.param([[[0, 0]] * 3, [[0, 10**400]] * 3, [[0, 0]] * 3],
                     "expected nested [re, im] pairs: int too large to convert to float", id="int-1e400"),
        pytest.param([[[0, 0]] * 3, [[0, float("nan")]] * 3, [[0, 0]] * 3],
                     "matrix entries must be finite", id="nan-entry"),
    ])
    def test_a_bad_entry_raises_its_own_text(self, name, entry, text):
        text = text or decode_text(entry, 2)
        assert text == decode_text(entry, 2)
        doc = model_doc()
        doc[name][2] = entry
        with pytest.raises(ValueError) as info:
            serialize.decode_matricial(doc)
        assert str(info.value) == text

    def test_the_first_bad_entry_in_wire_order_raises(self):
        doc = model_doc()
        doc["g"][1] = [[[0, 0, 0]] * 2] * 2  # a bad block later in wire order
        doc["B_plus"][3] = RAGGED
        with pytest.raises(ValueError) as info:
            serialize.decode_matricial(doc)
        assert str(info.value) == decode_text(RAGGED, 2)

    def test_a_short_list_names_its_key(self):
        doc = model_doc()
        doc["B_plus"] = doc["B_plus"][:-1]
        with pytest.raises(ValueError, match="^B_plus must be a list of length 5$"):
            serialize.decode_matricial(doc)

    @pytest.mark.parametrize("edit", ["none", "integers", "bools", "negative-zero", "empty-vector", "two-lengths"])
    def test_uw_vectors_have_the_bits_of_per_entry_decoding(self, edit):
        doc = model_doc((1, 1, 2, 2, 2), 5)  # three tied junctions, vectors of lengths 1 and 2
        if edit == "integers":
            doc["uw"][1]["u"] = [[int(re), int(im)] for re, im in doc["uw"][1]["u"]]
        elif edit == "bools":
            doc["uw"][2]["w"] = [[bool(re), False] for re, _ in doc["uw"][2]["w"]]
        elif edit == "negative-zero":
            doc["uw"][0]["w"] = [[-0.0, -0.0]]
        elif edit == "empty-vector":
            doc["uw"][0]["u"] = []
        elif edit == "two-lengths":  # a w longer than its u
            doc["uw"][1]["w"] = doc["uw"][1]["w"] + [[0.5, -0.0]]
        F = serialize.decode_matricial(doc)
        assert list(F.u) == list(F.w) == [entry["i"] - 1 for entry in doc["uw"]]
        for entry in doc["uw"]:
            for got, key in ((F.u, "u"), (F.w, "w")):
                a, b = got[entry["i"] - 1], serialize.decode_array(entry[key], 1)
                assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("key", ["u", "w"])
    @pytest.mark.parametrize("vector", [
        pytest.param([[0, 0], [0]], id="ragged"),
        pytest.param([[0, 0], [0, "x"]], id="text-entry"),
        pytest.param([[0, 0], [0, float("nan")]], id="nan-entry"),
        pytest.param([[0, 0, 0], [0, 0, 0]], id="triples"),
        pytest.param([[[0, 0]], [[0, 0]]], id="matrix"),
        pytest.param(5, id="number"),
    ])
    def test_a_bad_uw_vector_raises_its_own_text(self, key, vector):
        doc = model_doc((1, 1, 2, 2, 2), 5)
        doc["uw"][2][key] = vector
        with pytest.raises(ValueError) as info:
            serialize.decode_matricial(doc)
        assert str(info.value) == decode_text(vector, 1)

    def test_the_first_bad_uw_entry_in_wire_order_raises(self):
        doc = model_doc((1, 1, 2, 2, 2), 5)
        doc["uw"][1]["w"] = [[0, float("inf")], [0, 0]]
        doc["uw"][2] = {**doc["uw"][0]}  # junction 1 again, after the bad vector
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            serialize.decode_matricial(doc)
        del doc["uw"][1]["w"]
        with pytest.raises(ValueError, match="^missing keys: w$"):
            serialize.decode_matricial(doc)


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
        with pytest.raises(ValueError):
            serialize.decode_array(obj, ndim)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("obj, ndim, text", [
        ([0, "x"], 0, "a scalar must be finite"),
        ([[1, 0], ["x", 0]], 1, "vector entries must be finite"),
        ([[[1, 0], [0, "x"]]], 2, "matrix entries must be finite"),
        ([[[["x", 0]]]], 3, "matrix entries must be finite"),
    ])
    def test_non_finite_entries_are_refused(self, value, obj, ndim, text):
        # Python's json reads NaN, Infinity and 1e400 as floats that are not finite
        doc = json.loads(json.dumps(obj).replace('"x"', json.dumps(value)))
        assert decode_text(doc, ndim) == text


FLOATS = st.sampled_from(EDGE_VALUES.tolist()) | st.floats(allow_nan=False, allow_infinity=False)
STRINGS = st.sampled_from(['', 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "é ∑ ☃ 𝄞"]) | st.text()
SHAPES = array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3)
# arrays whose leaves share a few values, as a constant alpha path does: each
# distinct value is rendered once and its text used for every leaf holding it
FEW_VALUES = st.lists(FLOATS, min_size=1, max_size=3).flatmap(
    lambda values: arrays(np.float64, SHAPES, elements=st.sampled_from(values))
)
SIGNED_ZEROS = arrays(np.float64, SHAPES, elements=st.sampled_from([0.0, -0.0]))
CONSTANT_STACKS = st.builds(
    lambda count, sample: np.broadcast_to(sample, (count,) + sample.shape),
    st.integers(min_value=1, max_value=5),
    arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=3), elements=FLOATS),
)
# lists of floats only, which render in one pass
FLOAT_LISTS = st.lists(FLOATS | st.sampled_from([-0.0, 1e16, 5e-324]), min_size=1, max_size=6)
DOCS = st.recursive(
    STRINGS | FLOATS | FLOAT_LISTS | st.booleans() | st.none() | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | arrays(np.float64, SHAPES, elements=FLOATS)
    | FEW_VALUES | SIGNED_ZEROS | CONSTANT_STACKS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=12,
)

NUMBERS = FLOATS | st.sampled_from([-0.0, 5e-324, 1e16]) | st.integers(-(2**70), 2**70)
RECORD_KEYS = STRINGS | st.sampled_from(["root", "multiplicities", "%", "%r", "100%s", "nan", "inf"])


@st.composite
def record_lists(draw):
    """Lists of records as a stratum signature holds them: one key order, one length per key."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=3, unique=True))
    lengths = [draw(st.integers(0, 4)) for _ in keys]
    return [{key: draw(st.lists(NUMBERS, min_size=size, max_size=size)) for key, size in zip(keys, lengths)}
            for _ in range(draw(st.integers(1, 5)))]


def signature_doc(records):
    return {"signature": records, "cluster_tol": 2e-08}


class TestRecordLists:
    """A list of flat records renders from one template with the bytes of json.dumps."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(records=record_lists())
    def test_matches_json_dumps(self, records):
        assert serialize._render_records(records, "\n  ") is not None
        doc = signature_doc(records)
        assert serialize._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("records", [
        [{"root": [-0.0, 5e-324], "multiplicities": [2**63, 1]},
         {"root": [1e16, -5e-324], "multiplicities": [0, 2**64 + 1]}],
        [{"root": [1.5, -0.0], "multiplicities": [1, 0, 2]}],
        [{"%": [1], "%r": [2.5], "100%s": [3]}, {"%": [-1], "%r": [0.1], "100%s": [10**30]}],
        [{"naïve ☃": [1.0], "\x00\n": [2]}, {"naïve ☃": [-0.0], "\x00\n": [3]}],
        [{"nan": [1.0, 2], "inf": [0.5]}, {"nan": [3, -1e300], "inf": [-0.0]}],
        [{"a": [], "b": [1]}, {"a": [], "b": [2.0]}],
        [{"a": [1, 2.5]}, {"a": [2.5, 1]}],
    ], ids=["edge-numbers", "single-record", "percent-keys", "non-ascii-keys", "n-in-keys",
            "empty-values", "ints-and-floats"])
    def test_template_matches_json_dumps(self, records):
        assert serialize._render_records(records, "\n  ") is not None
        doc = signature_doc(records)
        assert serialize._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("records", [
        [{"root": [1.0, 0.0], "multiplicities": [True, 0]}, {"root": [2.0, 0.0], "multiplicities": [1, 0]}],
        [{"root": [1.0, 0.0]}, {"root": [2.0, False]}],
        [{"a": [1, 2]}, {"a": [3]}],
        [{"a": [1], "b": [2]}, {"b": [3], "a": [4]}],
        [{"a": [1], "b": [2]}, {"a": [3]}],
        [{"a": [1]}, [1]],
        [{"a": [1]}, {"a": {"x": 1}}],
        [{"a": [1]}, {"a": (2,)}],
        [{"a": [[1]]}, {"a": [[2]]}],
        [{"a": [1], "b": None}],
        [{}, {}],
        [{"a": ["x"]}],
    ], ids=["bool", "bool-late", "ragged", "key-order", "missing-key", "not-a-dict",
            "dict-value", "tuple-value", "nested", "not-a-list", "empty-records", "string-leaf"])
    def test_other_lists_take_the_walk(self, records):
        assert serialize._render_records(records, "\n  ") is None
        doc = signature_doc(records)
        assert serialize._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("records", [
        [{"root": [float("nan"), 0.0], "multiplicities": [1]}],
        [{"root": [0.0, 1.0]}, {"root": [float("inf"), 0.0]}],
        [{"nan": [1.0]}, {"nan": [float("-inf")]}],
        [{"inf": [1, 2]}, {"inf": [3, float("nan")]}],
    ])
    def test_non_finite_raises(self, records):
        with pytest.raises(ToleranceError):
            serialize._dumps(signature_doc(records))


def lax_like_path(seed=0) -> np.ndarray:
    """The wire form of a (501, 5, 5) complex path, as lax-run writes its alpha and beta."""
    rng = np.random.default_rng(seed)
    return serialize.encode_array(rng.standard_normal((501, 5, 5)) + 1j * rng.standard_normal((501, 5, 5)))


def signed_zero_path(at: int) -> np.ndarray:
    """A constant real path on the wire whose slice at ``at`` differs only by one zero's sign."""
    path = np.array(np.broadcast_to(serialize.encode_array(np.arange(25.0).reshape(5, 5)), (501, 5, 5, 2)))
    path[at, 2, 3, 1] = -0.0
    return path


def non_finite_last(A: np.ndarray) -> np.ndarray:
    A = A.copy()
    A.flat[-1] = np.inf
    return A


class TestDumps:
    """serialize._dumps writes the bytes of json.dumps(doc, indent=2)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(doc=DOCS)
    def test_matches_json_dumps(self, doc):
        assert serialize._dumps(doc) == json.dumps(doc, indent=2, default=np.ndarray.tolist)

    @pytest.mark.parametrize("doc", [
        np.array([0.0, -0.0, 0.0, -0.0]),
        np.array([[-0.0, 0.0], [0.0, 0.0]]),
        np.broadcast_to(np.array([[-0.0, 1.5], [0.0, -0.0]]), (4, 2, 2)),
        np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]),
        np.array([[[1.5, -0.0]], [[1.5, -0.0]], [[1.5, 0.0]]]),
        {"a": np.array([-0.0]), "b": np.array([0.0, 0.0])},
        signed_zero_path(-1),  # the last slice: a short final piece of its own
        signed_zero_path(255),  # a slice inside a piece between pieces that share one string
        signed_zero_path(0),
    ])
    def test_signed_zeros_keep_their_texts(self, doc):
        # 0.0 == -0.0: slices compared by value instead of by bytes would lose a sign
        assert serialize._dumps(doc) == json.dumps(doc, indent=2, default=np.ndarray.tolist)

    @pytest.mark.parametrize("doc", [
        np.array(1.5),
        {"a": np.array(-0.0), "b": [np.array(1e16)]},
        np.array([[[0.5, -2.0], [1e-7, 3.0]]]),  # one slice
        np.zeros((2, 0, 2)),
        {"a": np.zeros((0, 2)), "b": np.zeros((3, 0))},
    ])
    def test_scalars_single_slices_and_empty_axes_match_json_dumps(self, doc):
        assert serialize._dumps(doc) == json.dumps(doc, indent=2, default=np.ndarray.tolist)

    @pytest.mark.parametrize("doc", [
        lax_like_path(),  # (501, 5, 5) complex: 10 slices a piece, a short final piece of 1
        np.broadcast_to(lax_like_path()[0], (501, 5, 5, 2)),  # a constant path
        {"path": {"grid": np.linspace(0.0, 1.5, 501), "alpha": np.broadcast_to(lax_like_path()[7], (501, 5, 5, 2)),
                  "beta": lax_like_path()}, "lax_residual": 1e-9},
        np.random.default_rng(1).standard_normal((23, 50)),  # pieces of 10, 10 and a short 3 slices
        np.random.default_rng(2).standard_normal(513),  # a full piece and a short one of 1 float
        np.random.default_rng(3).standard_normal(512),  # one piece, rendered whole
        np.random.default_rng(4).standard_normal((3, 257)),  # one slice a piece
        np.random.default_rng(5).standard_normal((2, 600)),  # a slice of more than 512 floats
        np.zeros((600, 0, 2)),
    ], ids=["complex-path", "constant-path", "lax-document", "short-final-piece", "513-floats",
            "512-floats", "slice-per-piece", "slice-over-512", "large-but-empty"])
    def test_large_arrays_render_in_pieces_with_json_dumps_bytes(self, doc):
        pieces = serialize._pieces(doc)
        assert "".join(pieces) == json.dumps(doc, indent=2, default=np.ndarray.tolist)
        # every piece holds at most 512 floats, or one slice of 600 here: tens of KB at most
        assert max(map(len, pieces)) < 32 * 1024

    def test_pieces_of_a_repeated_slice_share_one_string(self):
        pieces = serialize._pieces(np.broadcast_to(lax_like_path()[0], (501, 5, 5, 2)))
        rendered = {id(piece) for piece in pieces if len(piece) > 100}
        # 50 full pieces of 10 slices, then a short one of 1 slice
        assert len(pieces) == 2 * 51 + 1 and len(rendered) == 2

    @pytest.mark.parametrize("doc", [
        [0, 1, -7, 2**63, -(2**63) - 1, 10**40],
        [True, False, True],
        [1, True, 0, False],
        {"a": [3, 1], "b": [[1, 2], [True]], "c": [2**64, 1.5]},
    ])
    def test_int_lists_match_json_dumps(self, doc):
        assert serialize._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        [-0.0, 0.0, 1e16, 5e-324, -5e-324, 1e308, 0.1],
        [[1.0, -0.0], [1e16, 5e-324]],
        {"roots": [[0.5, -0.0]], "mixed": [1.0, 2, True, None]},
    ])
    def test_float_lists_match_json_dumps(self, doc):
        assert serialize._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        float("nan"),
        {"a": [1.0, float("inf")]},
        [float("-inf"), 0.0],
        [[0.5, float("nan")]],
        np.array([[0.0, -np.inf]]),
        {"x": serialize.encode_array([1.0, complex(0.0, np.nan)])},
        np.broadcast_to(np.array([np.nan, 0.0]), (3, 2)),  # a repeated slice: rendered once
        np.array(np.inf),
        np.append(np.zeros(600), np.nan),  # in the short final piece
        {"alpha": lax_like_path(), "beta": non_finite_last(lax_like_path())},
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


MATRIX_2 = "[[[1, 0], [2, 0]], [[3, 0], [4, 0]]]"
EMPTY_MODEL = '{"k": [], "B_minus": [], "B_plus": [], "g": []}'
OVERFLOWING_POWER_SUMS = '{"coords": {"n": 2, "basis": "tr-power", "values": [[1e308, 0], [1e308, 0], [1e308, 0]]}}'
MAX_MATRIX = '{"matrix": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]}'
# exp(-1000 I_2) underflows to the zero matrix: the flow factor of (2, 2, 1) is singular
SINGULAR_FLOW = ('{"matrix": [[[-1000, 0], [0, 0], [1, 0]], [[0, 0], [-1000, 0], [0, 0]], '
                 '[[1, 0], [0, 0], [1, 0]]], "flows": [{"m": 2, "i": 2, "z": [1, 0]}]}')
# alpha(t) = M + t H overflows from the first midpoint, t = h / 2 = 1.25e299
OVERFLOWING_ALPHA = ('{"alpha": {"type": "polynomial", "coefficients": [%s, [[[1e308, 0], [1e308, 0]], '
                     '[[1e308, 0], [1e308, 0]]]]}, "beta": %s, "t_start": 0, "t_end": 1e300, "steps": 4}'
                     % (MATRIX_2, MATRIX_2))
# texts numpy puts in its own exceptions and warnings
NUMPY_PHRASES = ("Array must not contain", "need at least one array", "cannot reshape", "encountered in",
                 "RuntimeWarning")

# (subcommand, request, exit code, its one stderr line): each request once gave another
# code, numpy's text or a RuntimeWarning on stderr
REFUSALS = [
    pytest.param("gz-flow", '{"matrix": %s, "flows": [{"m": 1, "i": 1, "z": [%s, 0]}]}' % (MATRIX_2, z),
                 65, "input error: a scalar must be finite", id=f"gz-flow-z-{z}")
    for z in ("NaN", "Infinity", "1e400")
] + [
    pytest.param("orbit-count", '{"polys": [[[NaN, 0], [1, 0]]]}', 65,
                 "input error: vector entries must be finite", id="orbit-count-nan"),
    pytest.param("strata", '{"coords": {"n": 1, "basis": "tr-power", "values": [[NaN, 0]]}}', 65,
                 "input error: vector entries must be finite", id="strata-nan-coords"),
    pytest.param("strata", '{"polys": [[[Infinity, 0], [1, 0]]]}', 65,
                 "input error: vector entries must be finite", id="strata-infinite-coefficient"),
    pytest.param("ak-act", model_request((1, 2), params=[[[np.nan, 0]], [[0, 0], [0, 0]]]), 65,
                 "input error: vector entries must be finite", id="ak-act-nan-params"),
    pytest.param("md-validate", model_request((1, 2), ("B_plus", 1), [[[0, 0], [np.inf, 0]], [[1, 0], [0, 0]]]),
                 65, "input error: matrix entries must be finite", id="md-validate-infinite-block"),
] + [
    pytest.param(name, payload, 65, "input error: k must hold at least one degree", id=f"{name}-empty-k")
    for name, payload in (("md-validate", EMPTY_MODEL), ("polar", EMPTY_MODEL),
                          ("ak-act", '{"data": %s, "params": []}' % EMPTY_MODEL))
] + [
    pytest.param("gz-map", MAX_MATRIX, 3, NOT_JSON[:-1], id="gz-map-1e308"),
    pytest.param("strata", OVERFLOWING_POWER_SUMS, 3,
                 "numerical failure: the power sums of level 2 overflow in the conversion to coefficients",
                 id="strata-power-sums-1e308"),
    pytest.param("lax-run", '{"alpha": {"type": "constant", "matrix": []}, "beta": [], '
                 '"t_start": 0, "t_end": 1, "steps": 4}', 65,
                 "input error: beta must be a nonempty square matrix or a stack of them, got shape (0, 0)",
                 id="lax-run-empty-beta"),
    pytest.param("gz-flow", SINGULAR_FLOW, 3, "numerical failure: flow factor for (m, i) = (2, 2) is singular",
                 id="gz-flow-singular-factor"),
    pytest.param("lax-run", OVERFLOWING_ALPHA, 3, "numerical failure: alpha overflowed (not finite at t = 1.25e+299)",
                 id="lax-run-alpha-1e308"),
]


class TestCollectorPause:
    """cli.run pauses the cyclic collector for a request and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def keep_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("code, argv", [
        pytest.param(0, ["gz-map", "--input", '{"matrix": %s}' % MATRIX_2], id="exit-0"),
        pytest.param(2, ["md-validate", "--input", model_request((1, 2), ("B_minus", 0), [[[0.25, 0]]])],
                     id="exit-2"),
        pytest.param(3, ["gz-flow", "--input", SINGULAR_FLOW], id="exit-3"),
        pytest.param(64, ["gz-map", "--bogus"], id="exit-64"),
        pytest.param(65, ["gz-map", "--input", "{"], id="exit-65"),
        pytest.param(0, ["gz-map", "-h"], id="help"),
    ])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, capsys, code, argv, enabled):
        (gc.enable if enabled else gc.disable)()
        assert call(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled

    def test_paused_during_the_request(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(HANDLERS, "gz-map", lambda payload, args: (seen.append(gc.isenabled()) or {}, 0))
        gc.enable()
        assert call(capsys, "gz-map") == (0, "{}\n", "")
        assert seen == [False] and gc.isenabled()


class TestRefusalCorpus:
    """Each refusal is one line on stderr in the package's own words, with no warning."""

    @pytest.mark.parametrize("name, payload, code, line", REFUSALS)
    def test_one_line_and_no_warning(self, capsys, name, payload, code, line):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = call(capsys, name, "--input", payload)
        assert got == (code, "", line + "\n")
        assert not any(phrase in line for phrase in NUMPY_PHRASES)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("name, payload, line", [
        pytest.param("gz-map", MAX_MATRIX, NOT_JSON, id="gz-map-1e308"),
        pytest.param("strata", OVERFLOWING_POWER_SUMS,
                     "numerical failure: the power sums of level 2 overflow in the conversion to coefficients\n",
                     id="strata-power-sums-1e308"),
        pytest.param("gz-flow", SINGULAR_FLOW,
                     "numerical failure: flow factor for (m, i) = (2, 2) is singular\n", id="gz-flow-singular-factor"),
        pytest.param("lax-run", OVERFLOWING_ALPHA,
                     "numerical failure: alpha overflowed (not finite at t = 1.25e+299)\n", id="lax-run-alpha-1e308"),
    ])
    def test_overflow_leaves_only_the_cli_line_on_stderr(self, name, payload, line):
        assert run_fresh(name, "--input", payload) == (3, "", line)

    def test_roots_too_far_apart_to_subtract_answer_quietly(self, capsys):
        payload = '{"polys": [[[1e308, 0], [1, 0]], [[1e308, 0], [-1e308, 0], [1, 0]]]}'
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = call(capsys, "orbit-count", "--input", payload)
        assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
        assert json.loads(out)["s"] == 3
