import argparse
import json
import re
import shlex
import shutil
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_python
from spencerkit import brackets, cli, elliptic, holomorphy, hypercomplex, report, \
    spencer, structures
from spencerkit.cli import main
from spencerkit.gridio import read_field_csv, write_field_csv
from spencerkit.fields import MatrixField, Patch, ScalarField
from spencerkit.report import jsonable
from spencerkit.scene import SceneError, load_scene, parse_scene

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"


def run(args):
    return main([str(a) for a in args])


class TestSceneParsing:
    def _minimal(self):
        return {
            "schema": 1,
            "dim_half": 1,
            "patch": {"bounds": [0.0, 1.0], "resolution": 9},
            "structure": {"kind": "standard"},
        }

    def test_minimal_scene(self):
        scene = parse_scene(self._minimal())
        assert scene.patch.dim == 2
        assert scene.structure().acs_residual == 0.0

    def test_unknown_top_level_key_rejected(self):
        data = self._minimal()
        data["extra"] = 1
        with pytest.raises(SceneError, match="unknown keys"):
            parse_scene(data)

    def test_unknown_structure_key_rejected(self):
        data = self._minimal()
        data["structure"] = {"kind": "standard", "bogus": True}
        with pytest.raises(SceneError, match="unknown keys"):
            parse_scene(data)

    def test_wrong_schema_rejected(self):
        data = self._minimal()
        data["schema"] = 2
        with pytest.raises(SceneError, match="schema"):
            parse_scene(data)

    def test_bounds_shorthand_expands(self):
        scene = parse_scene(self._minimal())
        assert scene.patch.bounds == ((0.0, 1.0), (0.0, 1.0))

    def test_grid_override(self):
        scene = parse_scene(self._minimal(), grid_override=33)
        assert scene.patch.resolution == (33, 33)

    def test_pattern_tolerance_key_rejected(self):
        data = self._minimal()
        data["tolerances"] = {"pattern": 1e-6}
        with pytest.raises(SceneError, match="unknown keys in tolerances"):
            parse_scene(data)

    def test_missing_field_reports_names(self):
        scene = parse_scene(self._minimal())
        with pytest.raises(SceneError, match="no field named"):
            scene.scalar_field("nope")

    def test_shipped_scenes_load(self):
        for path in SCENES.glob("*.json"):
            scene = load_scene(path)
            assert scene.patch.n_points > 0

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_named_objects_hold_no_samples(self, mode):
        # the scene checks each field's samples, and outside fd mode its
        # exact derivatives, but keeps none of them
        hyper = load_scene(SCENES / "hyper_flat.json", mode_override=mode)
        type1 = load_scene(SCENES / "type1.json", mode_override=mode)
        reals = [hyper.scalar_field("uj"),
                 *hyper.quaternion_function("square").components()]
        parts = [type1.complex_field("zsq").parts,
                 *(f.parts for f in type1.chart("type1").functions())]
        assert all(f.is_exact and f._values is None for f in reals + parts)


class TestCliExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["acs"])
        assert err.value.code == 2

    def test_missing_scene_is_2(self, capsys):
        assert run(["acs", "check", "/nonexistent.json", "--no-meta"]) == 2

    def test_tolerance_failure_is_1(self, tmp_path, capsys):
        scene = {
            "schema": 1,
            "dim_half": 1,
            "patch": {"bounds": [0.0, 1.0], "resolution": 9},
            "structure": {"kind": "standard"},
            "fields": {"zbar": {"re": "x1", "im": "-x2"}},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scene))
        code = run(["holo", "residual", path, "--field", "zbar",
                    "--tol", "1e-8", "--no-meta"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["results"]["residual"]["sup_norm"] > 2.0

    def test_exact_nijenhuis_names_a_non_finite_derivative_on_the_ring(self, tmp_path,
                                                                       capsys):
        # J^2 = -E holds everywhere, but d_1 J is infinite on the ring x1 = 0:
        # the exact derivative stack spans the grid, ring included, so the
        # check names that node rather than passing on the interior alone
        scene = {
            "schema": 1,
            "dim_half": 1,
            "patch": {"bounds": [0.0, 1.0], "resolution": 9},
            "structure": {"kind": "matrix", "entries": [["sqrt(x1)", "1"],
                                                        ["-(1 + x1)", "-sqrt(x1)"]]},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scene))
        assert run(["acs", "check", path, "--no-meta"]) == 0
        capsys.readouterr()
        assert run(["acs", "check", path, "--nijenhuis", "--no-meta"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "spencerctl: non-finite value in field " \
                      "'1.0 / (2.0 * sqrt(x1))' at node (0, 0)\n"

    def test_pass_is_0(self, capsys):
        code = run(["holo", "residual", SCENES / "standard2d.json",
                    "--field", "z", "--tol", "1e-10", "--no-meta"])
        assert code == 0

    _HOLO = ["holo", "residual", SCENES / "standard2d.json", "--field", "z"]
    _ORDERS = ["convergence", SCENES / "pullback2d.json", "--check", "pluri",
               "--field", "pluri", "--grid", "9"]

    # a NaN tolerance or order would reach the report as a bare NaN token,
    # which is not JSON, a negative tolerance fails every residual, and
    # numpy rejects a negative seed without naming the flag
    @pytest.mark.parametrize("argv, flag, values", [
        (_HOLO, "--tol", ["nan", "inf", "-1", "x"]),
        (_ORDERS + ["--expect-order", "2"], "--order-window", ["nan", "inf", "-0.5"]),
        (_ORDERS, "--expect-order", ["nan", "inf", "-inf"]),
        (["acs", "check", SCENES / "standard2d.json"], "--seed", ["-1", "1.5", "x"]),
    ], ids=["tol", "order-window", "expect-order", "seed"])
    def test_bad_float_flag_is_a_usage_error(self, capsys, argv, flag, values):
        for value in values:
            with pytest.raises(SystemExit) as err:
                run(argv + [f"{flag}={value}", "--no-meta"])
            out, stderr = capsys.readouterr()
            assert err.value.code == 2, value
            assert out == "" and "Traceback" not in stderr
            assert f"error: argument {flag}: '{value}' is " in stderr

    def test_from_pq_without_expressions_is_2(self, tmp_path, capsys, monkeypatch):
        # n = 4 is past the symbolic reconstruction, whose expressions the
        # written scene needs (5 nodes per axis is the smallest 8D grid);
        # P, Q and n decide it, before any grid of Q is guarded or inverted
        p = [[f"0.1*x{i + j + 1}" for j in range(4)] for i in range(4)]
        q = [["-1" if i == j else "0" for j in range(4)] for i in range(4)]
        scene = {
            "schema": 1,
            "dim_half": 4,
            "patch": {"bounds": [-0.2, 0.2], "resolution": 5},
            "structure": {"kind": "pq", "p": p, "q": q},
        }
        path, target = tmp_path / "pq4.json", tmp_path / "rec.json"
        path.write_text(json.dumps(scene))
        argv = ["acs", "from-pq", path, "-o", target]
        assert _grid_linalg_calls(monkeypatch, argv) == (2, {})
        out, stderr = capsys.readouterr()
        assert out == "" and "Traceback" not in stderr
        assert "symbolic reconstruction unavailable for this pair" in stderr
        assert not target.exists()

    # each command takes only the flags it reads: convergence always runs in
    # fd mode, acs check has no tolerance, and --seed is acs check's alone
    @pytest.mark.parametrize("argv, flag", [
        (_ORDERS + ["--mode", "exact"], "--mode"),
        (["acs", "check", SCENES / "standard2d.json", "--tol", "1e-3"], "--tol"),
        (_HOLO + ["--seed", "1"], "--seed"),
    ], ids=["convergence-mode", "acs-check-tol", "holo-residual-seed"])
    def test_flag_a_command_does_not_read_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as err:
            run(argv + ["--no-meta"])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == "" and "Traceback" not in stderr
        assert f"error: unrecognized arguments: {flag} " in stderr

    # json reads a bare NaN token, true as a bool and an integer of any
    # size; a scene tolerance takes the --tol rule
    @pytest.mark.parametrize("value", [float("nan"), -1.0, True, 10 ** 400],
                             ids=["nan", "negative", "bool", "past-float"])
    def test_bad_scene_tolerance_is_2(self, tmp_path, capsys, value):
        scene = json.loads((SCENES / "standard2d.json").read_text())
        scene["tolerances"] = {"check": value}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scene))
        assert run(["spencer", "verify", path, "--chart", "identity", "--no-meta"]) == 2
        out, stderr = capsys.readouterr()
        assert out == "" and "tolerances.check must be a finite number" in stderr

    # scene values that once ended in a traceback, or were truncated to an
    # integer and ran: each is a scene error that names its key
    @pytest.mark.parametrize("scene, mutate, argv, key", [
        ("type1", lambda s: s["patch"].update(bounds=5), [], "patch.bounds"),
        ("pq_n1", lambda s: s["patch"].update(bounds=[[-1, 1], 5]), [], "patch.bounds"),
        ("pq_n1", lambda s: s["patch"].update(bounds=[0, 10 ** 400]), [], "patch.bounds"),
        ("type1", lambda s: s["patch"].update(resolution=9.7), [], "patch.resolution"),
        ("pq_n1", lambda s: s["patch"].update(resolution=[9.5, 9]), [],
         "patch.resolution"),
        ("type1", lambda s: s["charts"]["type1"].pop("m"),
         ["spencer", "verify", "--chart", "type1"], "charts.type1 needs 'm'"),
        ("type1", lambda s: s["charts"]["type1"].update(m=1.5),
         ["spencer", "verify", "--chart", "type1"], "charts.type1.m"),
        ("pq_n1", lambda s: s["structure"].pop("q"), [], "needs 'q'"),
        ("fixture_n1", lambda s: s["structure"].pop("entries"), [], "needs 'entries'"),
        ("pullback2d", lambda s: s["structure"].pop("map"), [], "needs 'map'"),
        ("pq_n1", lambda s: s.update(dim_half=1.5), [], "dim_half"),
        ("pq_n1", lambda s: s.update(dim_half=True), [], "dim_half"),
        ("pq_n1", lambda s: s.update(dim_half="x"), [], "dim_half"),
    ], ids=["bounds-number", "bounds-range-number", "bounds-past-float",
            "resolution-float", "resolution-entry-float", "chart-without-m", "chart-m-float",
            "pq-without-q", "matrix-without-entries", "pullback-without-map",
            "dim-half-float", "dim-half-bool", "dim-half-string"])
    def test_malformed_scene_value_is_2(self, tmp_path, capsys, scene, mutate, argv,
                                        key):
        data = json.loads((SCENES / f"{scene}.json").read_text())
        mutate(data)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        argv = argv or ["acs", "check"]
        assert run(argv[:2] + [path] + argv[2:] + ["--no-meta"]) == 2
        out, stderr = capsys.readouterr()
        assert out == "" and "Traceback" not in stderr
        assert stderr.startswith("spencerctl: ") and key in stderr


class TestCliDeepExpressions:
    def _scene(self, tmp_path, fields):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "schema": 1,
            "dim_half": 1,
            "patch": {"bounds": [0.0, 1.0], "resolution": 9},
            "structure": {"kind": "standard"},
            "fields": fields,
        }))
        return path

    def test_long_sum_field_matches_closed_form(self, tmp_path, capsys):
        # 3,000 terms of 0.5*x1^2 is 1500*x1^2: Laplacian 3000, and the
        # standard operator is twice the Laplacian
        path = self._scene(tmp_path, {"deep": " + ".join(["0.5*x1^2"] * 3000),
                                      "closed": "1500*x1^2"})
        reports = {}
        for name in ("deep", "closed"):
            assert run(["pluri", "check", path, "--field", name, "--no-meta"]) == 0
            reports[name] = json.loads(capsys.readouterr().out)["results"]
            del reports[name]["field"]
        assert reports["deep"]["closedness"]["sup_norm"] == 3000.0
        assert reports["deep"]["laplacian_sup"] == 6000.0
        assert reports["deep"] == reports["closed"]

    @pytest.mark.parametrize("text", [
        "(" * 600 + "x1" + ")" * 600,
        "-" * 1500 + "x1",
    ], ids=["parens", "minus"])
    def test_deep_nesting_is_a_usage_error(self, tmp_path, capsys, text):
        path = self._scene(tmp_path, {"deep": text})
        assert run(["pluri", "check", path, "--field", "deep", "--no-meta"]) == 2
        assert "expression nested too deeply" in capsys.readouterr().err


# Inputs that once ended in a traceback or an unnamed error.  Each is argv
# (the probe scene is {scene}, a malformed grid dump {csv}), the exit code,
# and the cause the message (exit 2) or the report's results (exit 1) must
# name.
_PROBES = [
    ("const-division", ["pluri", "check", "{scene}", "--field", "div"], 2,
     "fields.div: "),
    ("const-negative-power", ["pluri", "check", "{scene}", "--field", "negpow"], 2,
     "fields.negpow: "),
    # 0^0*x1 + x2 is x1 + x2: finite, with finite exact derivatives
    ("const-zero-power", ["pluri", "check", "{scene}", "--field", "zeropow"], 0,
     "fields.zeropow: "),
    ("const-overflow", ["pluri", "check", "{scene}", "--field", "overflow"], 2,
     "fields.overflow: "),
    ("holo-const-division", ["holo", "residual", "{scene}", "--field", "div"], 2,
     "fields.div: "),
    ("solve-without-bc", ["convergence", "{scene}", "--check", "solve",
                          "--oracle", "x1"], 2, "--bc"),
    ("solve-without-oracle", ["convergence", "{scene}", "--check", "solve",
                              "--bc", "x1"], 2, "--oracle"),
    ("holo-without-field", ["convergence", "{scene}", "--check", "holo"], 2,
     "--field"),
    ("pluri-without-field", ["convergence", "{scene}", "--check", "pluri"], 2,
     "--field"),
    ("zero-samples", ["acs", "check", "{scene}", "--samples", "0"], 2, "--samples"),
    ("samples-over-bound", ["acs", "check", "{scene}", "--samples",
                            str(cli.MAX_SAMPLES + 1)], 2,
     "--samples must be at most 1,000,000"),
    ("hyper-u-without-zeta", ["hyper", "check", "{scene}", "--u", "div"], 2, "--zeta"),
    ("hyper-zeta-without-u", ["hyper", "check", "{scene}", "--zeta", "div"], 2, "--u"),
    ("unconverged-solve", ["elliptic", "solve", "{scene}", "--bc", "x1^2 - x2^2"], 1,
     "stats"),
    ("unconverged-convergence-solve", ["convergence", "{scene}", "--check", "solve",
                                       "--bc", "x1", "--oracle", "x1"], 1, "stats"),
    ("short-csv-bounds", ["elliptic", "solve", "{scene}", "--bc-csv", "{csv}"], 2,
     "probe.csv: "),
    ("base-not-integer", ["acs", "extract-pq", "{scene}", "--base", "a,b"], 2, "--base"),
    ("base-empty-index", ["acs", "extract-pq", "{scene}", "--base", "1,,2"], 2,
     "--base"),
    ("solve-two-boundary-sources", ["elliptic", "solve", "{scene}", "--bc", "x1",
                                    "--bc-field", "zeropow"], 2, "--bc and --bc-field"),
    # d1 and d2 are real, so in neither eigenspace: a failed law, not a usage error
    ("bracket-outside-eigenspaces", ["bracket", "check", "{scene}", "--x", "d1",
                                     "--y", "d2", "--field", "bump", "--case",
                                     "holo_antiholo"], 1, "eigen_residuals"),
]


class TestExitCodeContract:
    @pytest.mark.parametrize("argv, code, cause", [p[1:] for p in _PROBES],
                             ids=[p[0] for p in _PROBES])
    def test_probe(self, tmp_path, capsys, argv, code, cause):
        scene = tmp_path / "probe.json"
        scene.write_text(json.dumps({
            "schema": 1,
            "dim_half": 1,
            "patch": {"bounds": [0.0, 1.0], "resolution": 9},
            "structure": {"kind": "standard"},
            "fields": {"div": "x1 + 1/0", "negpow": "x1 + 0^-1",
                       "zeropow": "0^0*x1 + x2", "overflow": "x1*10^400",
                       "bump": "x1^2"},
            "vector_fields": {"d1": [{"re": "1", "im": "0"}, {"re": "0", "im": "0"}],
                              "d2": [{"re": "0", "im": "0"}, {"re": "1", "im": "0"}]},
            # no solve reaches this: every one ends in ConvergenceError
            "tolerances": {"solver": 1e-300},
        }))
        # its bounds line lists one axis of two
        csv = tmp_path / "probe.csv"
        csv.write_text("axes,x1,x2\nresolution,9,9\nbounds,0.0,1.0\ndata\n"
                       + "0.0\n" * 81)
        rc = run([a.format(scene=scene, csv=csv) for a in argv] + ["--no-meta"])
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2)
        assert rc == code
        assert "Traceback" not in err
        if rc == 2:
            assert err.startswith("spencerctl: ") and cause in err
        if rc == 1:
            report = json.loads(out)
            assert report["passed"] is False
            assert cause in report["results"]

    def test_unconverged_convergence_level_is_reported(self, capsys, monkeypatch):
        def no_convergence(op, boundary, tolerance):
            stats = elliptic.SolveStats("iterative", 2000, 1e-3, False, 49, True)
            raise elliptic.ConvergenceError(stats, boundary)

        monkeypatch.setattr(cli, "solve_dirichlet", no_convergence)
        rc = run(["convergence", SCENES / "standard2d.json", "--check", "solve",
                  "--bc", "x1", "--oracle", "x1", "--no-meta"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["results"]["values"] == []
        assert report["results"]["stats"]["converged"] is False


def _report_classes() -> dict:
    """Every report dataclass of the analysis modules, by name."""
    found = {}
    for module in (report, elliptic, brackets, holomorphy, hypercomplex, spencer):
        for name, obj in vars(module).items():
            if isinstance(obj, type) and is_dataclass(obj) \
                    and obj.__module__ == module.__name__ \
                    and name.endswith(("Report", "Stats")):
                found[name] = obj
    return found


# one value per field annotation used by the report dataclasses; numpy
# scalars check their conversion to plain numbers
_SAMPLE_VALUES = {
    "float": np.float64(0.5),
    "int": np.int64(3),
    "bool": True,
    "str": "exact",
    "float | None": None,
    "tuple[int, ...]": (1, 2),
    "tuple[float, ...]": (0.25, np.float64(0.75)),
    "tuple[float, float]": (0.25, 0.75),
    "dict[str, float]": {"b": np.float64(1.5), "a": 2.0},
}


def _sample_report(cls, classes):
    return cls(**{f.name: _sample_report(classes[f.type], classes)
                  if f.type in classes else _SAMPLE_VALUES[f.type]
                  for f in fields(cls)})


def _assert_serialised(obj, data):
    assert list(data) == [f.name for f in fields(obj)]
    for f in fields(obj):
        value, out = getattr(obj, f.name), data[f.name]
        if is_dataclass(value):
            _assert_serialised(value, out)
        elif isinstance(value, tuple):
            assert isinstance(out, list) and out == list(value)
        elif isinstance(value, (np.floating, np.integer)):
            assert type(out) in (float, int) and out == value


_PINNED_PLURI_BUMP = """\
{
  "check": "pluri.check",
  "description": "closedness of the potential form and the operator kernel",
  "passed": true,
  "results": {
    "bound": 4.0000000001,
    "closedness": {
      "breakdown": {
        "R_12": 2.0
      },
      "l2_norm": 2.0,
      "mode": "exact",
      "sup_norm": 2.0,
      "worst_node": [
        1,
        1
      ]
    },
    "field": "bump",
    "laplacian_sup": 4.0,
    "mode": "exact",
    "passes": true,
    "tolerance": 1e-08
  },
  "schema": 1
}
"""


# the round trip of pq_n1 closes to roundoff, so a moved bit in either
# inverse of the moduli pipeline shows in these reports
_PINNED_EXTRACT_PQ_N1 = """\
{
  "check": "acs.extract_pq",
  "description": "block decomposition, moduli pair and round trip",
  "passed": true,
  "results": {
    "base_node": [
      4,
      4
    ],
    "identity_residuals": {
      "off_bottom": 0.0,
      "off_top": 0.0,
      "sq_bottom": 2.220446049250313e-16,
      "sq_top": 2.220446049250313e-16
    },
    "q_condition": 1.0,
    "round_trip_gap": 2.220446049250313e-16,
    "tolerance": 1e-10
  },
  "schema": 1
}
"""


_PINNED_REDUCED_LINEAR = """\
{
  "check": "holo.reduced",
  "description": "reduced n-equation residual in the normalized frame",
  "passed": true,
  "results": {
    "equivalence": {
      "bound_holds": true,
      "full_residual": 2.8236324815076412,
      "identity_residual": 0.0,
      "kappa": 2.414213562373095,
      "mode": "exact",
      "reduced_residual": 2.125
    },
    "field": "linear",
    "residual": {
      "breakdown": {
        "eq_1": 2.125,
        "factored_form_gap": 0.0
      },
      "l2_norm": 1.5138251770487459,
      "mode": "exact",
      "sup_norm": 2.125,
      "worst_node": [
        1,
        15
      ]
    }
  },
  "schema": 1
}
"""


_PINNED_SPENCER_SUPERPOSE = """\
{
  "check": "spencer.verify",
  "description": "chart pattern and superposition verification",
  "passed": true,
  "results": {
    "chart": "type1",
    "pattern": {
      "block_residuals": {
        "lead_identity": 0.0,
        "zero_complement": 0.0,
        "zero_conj_complement": 0.0,
        "zero_conjugate": 0.0
      },
      "holo_residuals": [
        0.0
      ],
      "m": 1,
      "mode": "exact",
      "passes": true,
      "tolerance": 1e-08,
      "worst_node": [
        1,
        1,
        1,
        1
      ]
    },
    "superposition": {
      "breakdown": {
        "complement": 0.0,
        "conj_complement": 0.0,
        "conj_holo": 0.0
      },
      "l2_norm": 0.0,
      "mode": "exact",
      "sup_norm": 0.0,
      "worst_node": [
        1,
        1,
        1,
        1
      ]
    }
  },
  "schema": 1
}
"""

_PINNED_SPENCER_OVERCLAIM = """\
{
  "check": "spencer.verify",
  "description": "chart pattern and superposition verification",
  "passed": false,
  "results": {
    "chart": "overclaim",
    "pattern": {
      "block_residuals": {
        "lead_identity": 0.0,
        "zero_complement": 0.0,
        "zero_conj_complement": 0.0,
        "zero_conjugate": 0.9428090415820636
      },
      "holo_residuals": [
        0.0,
        1.3333333333333335
      ],
      "m": 2,
      "mode": "exact",
      "passes": false,
      "tolerance": 1e-08,
      "worst_node": [
        1,
        1,
        1,
        1
      ]
    }
  },
  "schema": 1
}
"""


class TestDefaultTolerance:
    def test_exact_mode_is_the_floor(self):
        assert report.default_tolerance(Patch.box(1, 0.0, 1.0, 9), "exact",
                                        1e-8, 30.0) == 1e-8

    def test_fd_mode_scales_with_the_largest_spacing(self):
        p = Patch(1, ((0.0, 1.0), (0.0, 2.0)), (9, 9))
        assert report.default_tolerance(p, "fd", 1e-8, 30.0) == 30.0 * 0.25 * 0.25

    def test_fd_mode_stops_at_the_floor(self):
        # 30 h^2 = 3e-9 < 1e-8 for h = 1e-5
        p = Patch.box(1, 0.0, 4e-5, 5)
        assert report.default_tolerance(p, "fd", 1e-8, 30.0) == 1e-8


class TestReportSerialisation:
    def test_every_report_dataclass(self):
        classes = _report_classes()
        assert len(classes) == 11
        for cls in classes.values():
            obj = _sample_report(cls, classes)
            data = jsonable(obj)
            _assert_serialised(obj, data)
            assert json.loads(json.dumps(data)) == data

    def test_no_meta_report_is_pinned(self, capsys):
        assert run(["pluri", "check", SCENES / "standard2d.json", "--field", "bump",
                    "--no-meta"]) == 0
        assert capsys.readouterr().out == _PINNED_PLURI_BUMP

    @pytest.mark.parametrize("argv, pinned", [
        (["acs", "extract-pq", SCENES / "pq_n1.json"], _PINNED_EXTRACT_PQ_N1),
        (["holo", "reduced", SCENES / "fixture_n1.json", "--field", "linear"],
         _PINNED_REDUCED_LINEAR),
    ], ids=["extract-pq", "holo-reduced"])
    def test_moduli_reports_are_pinned(self, capsys, argv, pinned):
        assert run(argv + ["--no-meta"]) == 0
        assert capsys.readouterr().out == pinned

    @pytest.mark.parametrize("argv, code, pinned", [
        (["--chart", "type1", "--superpose", "zsq"], 0, _PINNED_SPENCER_SUPERPOSE),
        (["--chart", "overclaim"], 1, _PINNED_SPENCER_OVERCLAIM),
    ], ids=["superpose", "overclaim"])
    def test_spencer_reports_are_pinned(self, capsys, argv, code, pinned):
        assert run(["spencer", "verify", SCENES / "type1.json", *argv, "--no-meta"]) == code
        assert capsys.readouterr().out == pinned


class TestCliReports:
    def test_deterministic_output_with_no_meta(self, capsys):
        run(["acs", "check", SCENES / "fixture_n1.json", "--seed", "5",
             "--no-meta"])
        first = capsys.readouterr().out
        run(["acs", "check", SCENES / "fixture_n1.json", "--seed", "5",
             "--no-meta"])
        second = capsys.readouterr().out
        assert first == second

    def test_meta_included_by_default(self, capsys):
        run(["acs", "check", SCENES / "standard2d.json"])
        out = json.loads(capsys.readouterr().out)
        assert out["meta"]["tool"] == "spencerctl"

    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["acs", "check", SCENES / "standard2d.json",
                    "--out", target, "--no-meta"])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["check"] == "acs.check"
        assert data["results"]["certificate"]["passes"]

    @pytest.mark.parametrize("scene", ["fixture_n1", "pq_n1", "pullback2d",
                                       "standard2d", "type1"])
    def test_acs_check_builds_no_operator(self, scene, capsys, monkeypatch):
        def no_operator(*args, **kwargs):
            raise AssertionError("acs check assembled the operator")

        monkeypatch.setattr(elliptic, "assemble_operator", no_operator)
        monkeypatch.setattr(cli, "assemble_operator", no_operator)
        for mode in ("exact", "fd"):
            for extra in ([], ["--nijenhuis"]):
                assert run(["acs", "check", SCENES / f"{scene}.json", "--mode", mode,
                            "--no-meta"] + extra) == 0
        capsys.readouterr()

    def test_nijenhuis_flag(self, capsys):
        run(["acs", "check", SCENES / "pullback2d.json", "--nijenhuis",
             "--no-meta"])
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["nijenhuis_residual"] <= 1e-10


def _grid_linalg_calls(monkeypatch, argv) -> tuple[int, dict]:
    """The exit code of one CLI run, its numpy ``det`` and ``inv`` calls on
    a grid of matrices, and the passes of ``pointwise_inverse``'s guard
    (``_singular``) and inverse (``_inverse``) kernels.  These grids fit one
    slab, so each kernel call is one pass over the grid."""
    calls = Counter()
    for owner, name in ((np.linalg, "det"), (np.linalg, "inv"),
                        (structures, "_singular"), (structures, "_inverse")):
        def counting(a, name=name, original=getattr(owner, name)):
            if np.ndim(a) > 2:
                calls[name] += 1
            return original(a)

        monkeypatch.setattr(owner, name, counting)
    return run(argv + ["--no-meta"]), dict(calls)


class TestOneInversePerMatrix:
    """The moduli pipeline guards and inverts C - E and Q once each, and
    for n <= 3 makes no LAPACK ``det`` or ``inv`` call on a grid."""

    def test_extract_pq(self, capsys, monkeypatch):
        # type1 is 4D: C - E and Q are 2 x 2
        argv = ["acs", "extract-pq", SCENES / "type1.json", "--grid", "5"]
        assert _grid_linalg_calls(monkeypatch, argv) == (
            0, {"_singular": 2, "_inverse": 2})
        capsys.readouterr()

    def test_holo_reduced(self, capsys, monkeypatch):
        # the factored form and the equivalence check read the
        # decomposition's (C - E)^-1, here 1 x 1; no moduli pair is built
        argv = ["holo", "reduced", SCENES / "fixture_n1.json", "--field", "linear"]
        assert _grid_linalg_calls(monkeypatch, argv) == (
            0, {"_singular": 1, "_inverse": 1})
        capsys.readouterr()

    def test_extract_pq_of_a_6d_pair(self, capsys, monkeypatch, tmp_path):
        # n = 3: the pair's Q, the frame's C - E and the extracted Q, each
        # 3 x 3, are guarded and inverted in closed form.  The round trip's
        # tile holds 8 (2n)^2 floats a node, so its 5^6 nodes fit one slab
        # of 64 MiB
        monkeypatch.setattr(report, "SLAB_BYTES", 64 << 20)
        scene = tmp_path / "pq_n3.json"
        scene.write_text(json.dumps({
            "schema": 1, "name": "pq_n3", "dim_half": 3,
            "patch": {"bounds": [-0.4, 0.4], "resolution": 5},
            "structure": {"kind": "pq",
                          "p": [["0.1*x1", "0.2", "0.1*x6"], ["0.1", "0.2*x3", "0"],
                                ["0", "0.1*x2", "0.3*x4"]],
                          "q": [["-1 + 0.1*x2", "0.05", "0"], ["0", "-1 + 0.1*x4", "0.05"],
                                ["0.05", "0", "-1 + 0.1*x6"]]}}))
        argv = ["acs", "extract-pq", scene]
        assert _grid_linalg_calls(monkeypatch, argv) == (
            0, {"_singular": 3, "_inverse": 3})
        capsys.readouterr()


class TestNoUnreadSampleStack:
    """A scene's fields hold no samples, and a matrix of expression fields
    keeps their expressions, sampled when first read: no check that reads
    the scene's objects stacks samples of expression entries through
    ``fields.slab_map``, in exact or fd mode.  (An fd check still stacks
    the sample-backed parts of the fields it computes.)"""

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    @pytest.mark.parametrize("argv", [
        ["holo", "residual", SCENES / "type1.json", "--field", "zsq"],
        ["bracket", "check", SCENES / "standard2d.json", "--x", "dz", "--y",
         "dzbar", "--field", "cubic", "--case", "holo_antiholo"],
        ["hyper", "check", SCENES / "hyper_flat.json", "--function", "identity"],
        ["spencer", "verify", SCENES / "type1.json", "--chart", "type1"],
    ], ids=["holo-residual", "bracket-check", "hyper-check", "spencer-verify"])
    def test_no_stack(self, capsys, monkeypatch, argv, mode):
        stacks = []

        def recording(self, patch, rows, original=MatrixField.__init__):
            original(self, patch, rows)
            if self.is_exact and self._values is not None:
                stacks.append(self.exprs)

        monkeypatch.setattr(MatrixField, "__init__", recording)
        assert run(argv + ["--mode", mode, "--tol", "1e-6", "--no-meta"]) == 0
        assert stacks == []
        capsys.readouterr()


class TestFlagHelp:
    def test_every_flag_has_help(self):
        missing, todo = [], [cli.build_parser()]
        while todo:
            parser = todo.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    todo.extend(action.choices.values())
                elif not action.help:
                    missing.append(f"{parser.prog} {'/'.join(action.option_strings)}")
        assert missing == []


class TestParserReuse:
    """``main`` builds its parser once per process; no call sees another's
    arguments."""

    SEQUENCE = [
        ["acs", "from-pq", SCENES / "pq_n1.json", "-o", "{tmp}/rec.json"],
        ["acs", "check", SCENES / "standard2d.json", "--samples", "50"],
        ["pluri", "check", SCENES / "standard2d.json"],  # no --field: exit 2
        ["holo", "residual", SCENES / "standard2d.json", "--field", "z",
         "--tol", "1e-8"],
        ["acs", "check", "{tmp}/rec.json", "--seed", "3", "--samples", "50"],
        ["pluri", "check", SCENES / "standard2d.json", "--field", "bump"],
    ]

    def _run_all(self, tmp_path, capsys, fresh: bool) -> list:
        results = []
        for argv in self.SEQUENCE:
            if fresh:
                cli._parser.cache_clear()
            argv = [str(a).format(tmp=tmp_path) for a in argv] + ["--no-meta"]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_reused_parser_gives_the_reports_of_separate_runs(self, tmp_path, capsys):
        separate = self._run_all(tmp_path, capsys, fresh=True)
        cli._parser.cache_clear()
        reused = self._run_all(tmp_path, capsys, fresh=False)
        assert cli._parser.cache_info().misses == 1
        assert reused == separate
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
        assert "--field" in reused[2][2]
        # from-pq sends its report to stdout; the next call has no --out
        assert json.loads(reused[0][1])["check"] == "acs.from_pq"
        assert json.loads(reused[1][1])["check"] == "acs.check"

    def test_build_parser_still_builds_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestCliWorkflows:
    def test_from_pq_then_check_round_trip(self, tmp_path, capsys):
        target = tmp_path / "reconstructed.json"
        assert run(["acs", "from-pq", SCENES / "pq_n1.json", "-o", target,
                    "--no-meta"]) == 0
        capsys.readouterr()
        assert run(["acs", "check", target, "--no-meta"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["acs_residual"] <= 1e-10

    def test_extract_pq_round_trip(self, capsys):
        assert run(["acs", "extract-pq", SCENES / "pq_n1.json",
                    "--no-meta"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["round_trip_gap"] <= 1e-10
        assert max(out["results"]["identity_residuals"].values()) <= 1e-10

    def test_elliptic_solve_with_oracle_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "solution.csv"
        code = run(["elliptic", "solve", SCENES / "standard2d.json",
                    "--bc", "x1^3 - 3*x1*x2^2", "--grid", "33",
                    "--oracle", "x1^3 - 3*x1*x2^2", "--tol", "1e-8",
                    "--csv", csv, "--no-meta"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["oracle_max_error"] <= 1e-10
        field = read_field_csv(csv)
        assert field.patch.resolution == (33, 33)

    def test_pluri_check(self, capsys):
        assert run(["pluri", "check", SCENES / "pullback2d.json",
                    "--field", "pluri", "--no-meta"]) == 0

    def test_elliptic_solve_with_csv_boundary(self, tmp_path, capsys):
        p = Patch.box(1, 0.0, 1.0, 17)
        trace = tmp_path / "trace.csv"
        write_field_csv(ScalarField.from_expr(p, "exp(x1)*cos(x2)").sampled(),
                        trace)
        code = run(["elliptic", "solve", SCENES / "standard2d.json",
                    "--bc-csv", trace, "--oracle", "exp(x1)*cos(x2)",
                    "--no-meta"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["oracle_max_error"] <= 1e-3

    def test_holo_reduced_on_matrix_scene(self, capsys):
        code = run(["holo", "reduced", SCENES / "fixture_n1.json",
                    "--field", "linear", "--no-meta"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["equivalence"]["identity_residual"] <= 1e-8

    def test_bracket_check_with_law(self, capsys):
        code = run(["bracket", "check", SCENES / "standard2d.json",
                    "--x", "dz", "--y", "dzbar", "--field", "cubic",
                    "--case", "holo_antiholo", "--no-meta"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["law"]["law_residual"] <= 1e-10

    def test_hyper_check(self, capsys):
        code = run(["hyper", "check", SCENES / "hyper_flat.json",
                    "--function", "identity", "--u", "uj", "--zeta", "zk",
                    "--no-meta"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["j_residual"]["sup_norm"] == 0.0
        assert out["results"]["potential"]["coupled"] <= 1e-12

    def test_hyper_rejects_bad_function(self, capsys):
        code = run(["hyper", "check", SCENES / "hyper_flat.json",
                    "--function", "square", "--no-meta"])
        assert code == 1

    def test_spencer_verify_with_superposition(self, capsys):
        code = run(["spencer", "verify", SCENES / "type1.json",
                    "--chart", "type1", "--superpose", "zsq", "--no-meta"])
        assert code == 0

    def test_spencer_superpose_builds_the_chart_basis_once(self, capsys, monkeypatch):
        calls = []
        basis_columns = spencer._basis_columns

        def counting(*args):
            calls.append(args)
            return basis_columns(*args)

        monkeypatch.setattr(spencer, "_basis_columns", counting)
        code = run(["spencer", "verify", SCENES / "type1.json",
                    "--chart", "type1", "--superpose", "zsq", "--no-meta"])
        assert code == 0
        assert "superposition" in json.loads(capsys.readouterr().out)["results"]
        assert len(calls) == 1

    @pytest.mark.parametrize("superpose, calls", [([], 0), (["--superpose", "zsq"], 1)],
                             ids=["pattern", "superpose"])
    def test_spencer_reads_chart_holomorphy_in_the_pattern_pass(
            self, capsys, monkeypatch, superpose, calls):
        # the chart coordinates' residuals come from the pattern's own pass;
        # only h, with --superpose, takes a pass of _cr_residual
        seen = []
        cr_residual = holomorphy._cr_residual

        def counting(*args):
            seen.append(args)
            return cr_residual(*args)

        monkeypatch.setattr(holomorphy, "_cr_residual", counting)
        monkeypatch.setattr(spencer, "_cr_residual", counting)
        code = run(["spencer", "verify", SCENES / "type1.json", "--chart", "type1",
                    *superpose, "--no-meta"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]["pattern"]["passes"]
        assert len(seen) == calls

    def test_spencer_superpose_factors_no_complex_matrix(self, capsys, monkeypatch):
        # the chart basis B = R T is factored through the real R alone, and
        # the 4 x 4 R in closed form: its determinant (_det) and the
        # adjugate of its solves (_adjugate), never by LAPACK.  Exact mode
        # reads a linear chart's R on one node, fd mode on every node.
        dtypes = []
        for owner, name in ((np.linalg, "solve"), (np.linalg, "det"),
                            (spencer, "_det"), (structures, "_adjugate")):
            def recording(*args, fn=getattr(owner, name), name=name):
                dtypes.append((name, *(np.asarray(a).dtype for a in args)))
                return fn(*args)
            monkeypatch.setattr(owner, name, recording)
        for mode in (["--mode", "exact"], ["--mode", "fd", "--grid", "7"]):
            dtypes.clear()
            code = run(["spencer", "verify", SCENES / "type1.json", "--chart", "type1",
                        "--superpose", "zsq", "--no-meta", *mode])
            assert code == 0
            assert "superposition" in json.loads(capsys.readouterr().out)["results"]
            assert {call[0] for call in dtypes} == {"_det", "_adjugate"}
            assert not [call for call in dtypes if any(t.kind == "c" for t in call[1:])]

    def test_spencer_overclaim_fails(self, capsys):
        code = run(["spencer", "verify", SCENES / "type1.json",
                    "--chart", "overclaim", "--no-meta"])
        assert code == 1

    def test_spencer_superpose_on_a_failing_chart_reports_the_pattern(self, capsys):
        code = run(["spencer", "verify", SCENES / "type1.json",
                    "--chart", "overclaim", "--superpose", "zsq", "--no-meta"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["results"]["pattern"]["passes"] is False
        assert "superposition" not in out["results"]

    def test_spencer_superpose_verifies_the_chart_at_the_given_tolerance(
            self, tmp_path, capsys):
        data = json.loads((SCENES / "type1.json").read_text())
        data["charts"]["c"] = {"m": 1, "holo": [{"re": "x1 + 0.001*x3^2", "im": "x2"}],
                               "complement": [{"re": "x3", "im": "x4"}]}
        scene = tmp_path / "bent.json"
        scene.write_text(json.dumps(data))
        argv = ["spencer", "verify", scene, "--chart", "c", "--superpose", "zsq",
                "--no-meta", "--tol"]
        assert run(argv + ["0.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 1e-3 < out["results"]["superposition"]["sup_norm"] < 2e-3
        assert run(argv + ["1e-3"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["pattern"]["passes"] is False
        assert "superposition" not in out["results"]

    # argv on a shipped scene, a tolerance its verdict fails and one it
    # passes, then the exit code and the reported tolerance given neither
    # (None: no tolerance in the report).  The measure-only verdicts, holo
    # residual, holo reduced and the solve's oracle error, pass without one;
    # pluri check reports its default but bounds closedness only by a given
    # tolerance; bracket's default fails the eigenfield check of d1 and d2,
    # a failed verdict that reports the residuals.
    @pytest.mark.parametrize("scene, argv, fails, passes, default", [
        ("type1", ["holo", "residual", "--field", "w"], 1.0, 2.0, (0, None)),
        ("fixture_n1", ["holo", "reduced", "--field", "linear"], 1.0, 3.0, (0, None)),
        ("standard2d", ["elliptic", "solve", "--bc", "x1", "--oracle", "x1 + x2^2",
                        "--grid", "9"], 0.5, 1.0, (0, None)),
        ("fixture_n1", ["pluri", "check", "--field", "product", "--mode", "fd"],
         1.0, 10.0, (0, 30 * 0.125 ** 2)),
        ("type1", ["spencer", "verify", "--chart", "type1", "--mode", "fd"],
         1e-30, 1e-12, (0, pytest.approx(30 / 9))),
        ("standard2d", ["bracket", "check", "--x", "d1", "--y", "d2", "--field", "bump",
                        "--case", "holo_antiholo"], 1.5, 3.0, (1, 1e-8)),
        ("hyper_flat", ["hyper", "check", "--function", "square"], 1.0, 100.0,
         (1, 1e-8)),
        ("pq_n1", ["acs", "extract-pq", "--mode", "fd"], 0.0, 1e-10, (0, 1e-10)),
    ], ids=["holo-residual", "holo-reduced", "solve-oracle", "pluri", "spencer",
            "bracket", "hyper", "extract-pq"])
    def test_one_tolerance_rule(self, tmp_path, capsys, scene, argv, fails, passes,
                                default):
        data = json.loads((SCENES / f"{scene}.json").read_text())
        path = tmp_path / "s.json"

        def verdict(check, tol=None):
            data["tolerances"] = {} if check is None else {"check": check}
            path.write_text(json.dumps(data))
            flag = [] if tol is None else ["--tol", str(tol)]
            rc = run(argv[:2] + [path] + argv[2:] + flag + ["--no-meta"])
            out = capsys.readouterr().out
            results = json.loads(out)["results"] if out else {}
            return rc, results.get("pattern", results).get("tolerance")

        assert verdict(fails) == (1, fails)
        assert verdict(passes) == (0, passes)
        assert verdict(fails, tol=passes) == (0, passes)
        assert verdict(passes, tol=fails) == (1, fails)
        assert verdict(None) == default

    def test_a_sampled_structure_gets_the_fd_allowance(self, tmp_path, capsys,
                                                       monkeypatch):
        # pq_n1 reconstructs exactly; sampled, it runs in fd mode under auto
        monkeypatch.setattr(structures, "reconstructs_exactly", lambda p, q: False)
        data = json.loads((SCENES / "pq_n1.json").read_text())
        data["fields"]["u"] = "x1^2"
        data["charts"] = {"c": {"m": 1, "holo": [{"re": "x1", "im": "x2"}]}}
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps(data))
        scene = load_scene(path)
        acs = scene.structure()
        assert not acs.is_exact
        pattern = spencer.verify_chart(acs, scene.chart("c"))
        # 30 h^2 at h = 0.1, not the exact floor 1e-8
        assert pattern.tolerance == pytest.approx(0.3)
        run(["spencer", "verify", path, "--chart", "c", "--no-meta"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["pattern"]["tolerance"] == pattern.tolerance
        assert run(["pluri", "check", path, "--field", "u", "--no-meta"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["mode"] == "fd"
        assert results["tolerance"] == pattern.tolerance

    def test_convergence_orders(self, capsys):
        code = run(["convergence", SCENES / "pullback2d.json",
                    "--check", "pluri", "--field", "pluri", "--grid", "9",
                    "--expect-order", "2", "--no-meta"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        for order in out["results"]["richardson_orders"]:
            assert abs(order - 2.0) <= 0.5


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        p = Patch.box(1, -1.0, 2.0, 9)
        field = ScalarField.from_expr(p, "x1^2*x2 - 0.5").sampled()
        target = tmp_path / "dump.csv"
        write_field_csv(field, target)
        back = read_field_csv(target)
        assert back.patch == p
        assert np.array_equal(back.samples, field.samples)

    @pytest.mark.parametrize("header, rows, message", [
        ("axes,x1\nresolution,9\nbounds,0.0,1.0", 9, "even number of axes"),
        ("axes,x1,x2\nresolution,9\nbounds,0.0,1.0,0.0,1.0", 81, "2 resolutions"),
        ("axes,x1,x2\nresolution,9,9\nbounds,0.0,1.0,0.0", 81, "4 bounds"),
        ("axes,x1,x2\nbounds,0.0,1.0,0.0,1.0\nresolution,9,9", 81, "2 resolutions"),
        ("axes,x1,x2\nresolution,9,9\nbounds,0.0,1.0,0.0,1.0", 80, "81 values"),
    ])
    def test_malformed_dump_names_the_file(self, tmp_path, header, rows, message):
        target = tmp_path / "bad.csv"
        target.write_text(header + "\ndata\n" + "0.5\n" * rows)
        with pytest.raises(ValueError, match=message) as err:
            read_field_csv(target)
        assert str(err.value).startswith(f"{target}: ")

    def test_rows_have_the_bytes_of_one_repr_per_value(self, tmp_path):
        # signed zero, the least subnormal, a large integral value, integral
        # values of both signs and long fractions
        p = Patch.box(1, 0.0, 1.0, 5)
        samples = np.array([[-0.0, 0.0, 5e-324, 1e22, 3.0],
                            [-2.0, 1.0 / 3.0, -1e-300, 2.0 ** 53, 0.1],
                            [1e16, -1e22, 123456789.0, -5e-324, 2.5],
                            [np.pi, -np.e, 7.0, 1e-5, -0.5],
                            [0.2, 4.0, -8.0, 1.7976931348623157e308, 6e-7]])
        target = tmp_path / "exact.csv"
        write_field_csv(ScalarField.from_samples(p, samples), target)
        rows = [",".join(repr(float(v)) for v in row) for row in samples]
        assert target.read_text().splitlines()[4:] == rows
        assert np.array_equal(read_field_csv(target).samples, samples)
        assert np.signbit(read_field_csv(target).samples[0, 0])

    def test_4d_round_trip(self, tmp_path):
        p = Patch.box(2, 0.0, 1.0, 5)
        field = ScalarField.from_expr(p, "x1 + 2*x3 - x4").sampled()
        target = tmp_path / "dump4.csv"
        write_field_csv(field, target)
        back = read_field_csv(target)
        assert np.array_equal(back.samples, field.samples)


def _readme_commands() -> list[list[str]]:
    """The spencerctl commands of the ``sh`` block under "Command line" in
    the README, each without the leading ``spencerctl``."""
    section = ROOT.joinpath("README.md").read_text().split("## Command line")[1]
    block = re.search(r"```sh\n(.*?)```", section.split("\n## ")[0], re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        for command in line.split("&&"):
            words = shlex.split(command)
            assert words[0] == "spencerctl", command
            commands.append(words[1:])
    return commands


class TestReadmeExamples:
    def test_examples_exit_0(self, tmp_path, capsys, monkeypatch):
        shutil.copytree(SCENES, tmp_path / "scenes")
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert len(commands) >= 5
        for argv in commands:
            assert main(argv) == 0, argv
        capsys.readouterr()


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = fresh_python("-m", "spencerkit.cli", "acs", "check",
                            str(SCENES / "standard2d.json"), "--no-meta")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


# Prints the scipy modules loaded after each step, as one JSON object.
_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import spencerkit
loaded["import spencerkit"] = scipy_modules()
from spencerkit import cli, elliptic
cli.build_parser()
loaded["build_parser"] = scipy_modules()
scene = sys.argv[1]
runs = {"acs check": ["acs", "check", scene, "--nijenhuis"],
        "holo residual": ["holo", "residual", scene, "--field", "z"],
        "elliptic solve": ["elliptic", "solve", scene, "--bc", "x1^2 - x2^2"]}
for step, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        loaded[step + " exit"] = cli.main(argv + ["--no-meta"])
    loaded[step] = scipy_modules()
import scipy.sparse.linalg
loaded["spla is scipy.sparse.linalg"] = elliptic.spla is scipy.sparse.linalg
print(json.dumps(loaded))
"""


class TestStartUp:
    """scipy loads at its first use, not when the package or the CLI does.
    The probe runs in a fresh interpreter, because other tests import scipy
    into this one."""

    def test_only_a_solve_loads_scipy(self):
        proc = fresh_python("-c", _SCIPY_PROBE, str(SCENES / "standard2d.json"))
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        for step in ("import spencerkit", "build_parser", "acs check",
                     "holo residual"):
            assert loaded[step] == [], step
        assert loaded["acs check exit"] == loaded["holo residual exit"] == 0
        assert loaded["elliptic solve exit"] == 0
        assert "scipy.sparse.linalg" in loaded["elliptic solve"]
        assert loaded["spla is scipy.sparse.linalg"] is True
