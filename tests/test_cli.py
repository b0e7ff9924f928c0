import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import cvsim as cv
from cvsim import cli

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = "schema/sweep.schema.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestGridParsing:
    def test_linspace(self):
        np.testing.assert_allclose(cli.parse_grid("0:1:5"), np.linspace(0, 1, 5))

    def test_comma_list(self):
        np.testing.assert_allclose(cli.parse_grid("0.1,0.2,0.5"), [0.1, 0.2, 0.5])

    def test_single_value(self):
        np.testing.assert_allclose(cli.parse_grid("0.7"), [0.7])

    def test_garbage(self):
        with pytest.raises(cli.SpecError):
            cli.parse_grid("a:b:c")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0,nan", "0:inf:3", "-1e308:1e308:3"])
    def test_non_finite_is_spec_error(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the SpecError
            with pytest.raises(cli.SpecError, match="non-finite"):
                cli.parse_grid(text)


class TestEntanglementSweep:
    def test_csv_shape_and_monotonicity(self, capsys):
        code, out = run_cli(capsys, ["entanglement-sweep", "--length", "0.1:2:20", "--zeta", "0.8"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "l_over_lA,t_squared,en_max_ln,en_zeta_ln"
        assert len(lines) == 21
        en_max = [float(r.split(",")[2]) for r in lines[1:]]
        assert all(a >= b for a, b in zip(en_max, en_max[1:]))

    def test_zero_length_is_infinite_in_csv(self, capsys):
        code, out = run_cli(capsys, ["entanglement-sweep", "--length", "0", "--zeta", "1"])
        row = out.strip().split("\n")[1].split(",")
        assert row[2] == "inf"
        assert float(row[3]) == pytest.approx(2.0)

    def test_known_base_two_value(self, capsys):
        half_ln2 = 0.5 * np.log(2.0)
        code, out = run_cli(
            capsys,
            ["entanglement-sweep", "--length", f"{half_ln2}", "--zeta", "20", "--log-base", "2"],
        )
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(1.0, abs=1e-9)

    def test_failing_point_is_named_with_a_plain_float(self, capsys):
        code = cli.main(["entanglement-sweep", "--length=-1"])
        assert code == 2
        assert "length=-1.0," in capsys.readouterr().err

    @pytest.mark.parametrize("argv, first_row", [
        pytest.param(["--length", "1e308"], "1e+308,0,0,0", id="length"),
        pytest.param(["--absorption-length", "1e-320"], "0,1,inf,2", id="absorption-length"),
    ])
    def test_overflowing_ratio_runs_on_python_floats(self, capsys, argv, first_row):
        # numpy scalars warned "overflow encountered in scalar multiply/divide",
        # which this suite's error::RuntimeWarning turned into an exception
        code, out = run_cli(capsys, ["entanglement-sweep", *argv])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert rows[0] == first_row and set(rows[1:]) <= {"inf,0,0,0"}


class TestSweepColumns:
    @pytest.mark.parametrize("argv, closed_forms", [
        (["entanglement-sweep", "--length", "0:2:50"], ["max_transmittable", "transmitted_log_negativity"]),
        (["fidelity-sweep", "--eta", "0:1:40", "--zeta", "0:1:30"], ["pure_squeezed_fidelity"]),
        (["separability", "--zeta", "0:1:40", "--t2", "0.1:0.9:30"],
         ["separability_length", "fiber_separability_threshold"]),
    ])
    def test_each_closed_form_is_called_once(self, capsys, monkeypatch, argv, closed_forms):
        calls = []
        for name in closed_forms:
            module = cli if hasattr(cli, name) else cli.ent
            function = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=function, n=name: calls.append(n) or f(*args))
        code, out = run_cli(capsys, argv)
        assert code == 0 and len(out.splitlines()) > 50
        assert sorted(calls) == sorted(closed_forms)

    @pytest.mark.parametrize("argv, err", [
        (["separability", "--zeta", "0.1,0.2", "--t2", "0.5,1.5"],
         "error: zeta=0.1, t2=1.5: transmission magnitude must lie in [0, 1]\n"),
        (["separability", "--zeta", "0.1", "--t2=-0.5"], "error: zeta=0.1, t2=-0.5: transmission magnitude must lie in [0, 1]\n"),
        (["separability", "--zeta", "0.1,0.2", "--nth=-1"], "error: zeta=0.1, t2=0.5: mean thermal photon number must be "
         "non-negative\n"),
        (["fidelity-sweep", "--eta", "0,1,800", "--zeta", "0,1"], "error: eta=800.0, zeta=0.0: sinh(eta) or cosh(eta) + "
         "cosh(2 zeta) overflows or is NaN at eta = 800.0, zeta = 0.0\n"),
        (["entanglement-sweep", "--length", "0,1", "--zeta=-2"], "error: length=0.0, zeta=-2.0: squeezing zeta must be "
         "non-negative, got -2.0\n"),
    ])
    def test_first_failing_point_is_named(self, capsys, argv, err):
        # the suite turns RuntimeWarning into an error, so the square root of a negative t2 must not warn
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err


class TestSeparability:
    def test_rows_match_the_closed_forms_point_by_point(self, capsys):
        """zeta = 0 rows included: both closed forms run once per distinct
        input and every row carries their exact values."""
        code, out = run_cli(
            capsys,
            ["separability", "--zeta", "0,0.3,0.3,1", "--t2", "0.2,0.2,0.9", "--nth", "0.4", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        expected = [
            [zeta, t2, 0.0, cv.fiber_separability_threshold(zeta, math.sqrt(t2)),
             cv.separability_length(zeta, 0.4, 1.0) / 1.0]
            for zeta in (0.0, 0.3, 0.3, 1.0)
            for t2 in (0.2, 0.2, 0.9)
        ]
        assert rows == expected


class TestJsonOutput:
    def test_validates_against_schema(self, capsys):
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        for argv in (
            ["entanglement-sweep", "--length", "0:1:4", "--format", "json"],
            ["fidelity-sweep", "--eta", "0:1:3", "--zeta", "0:1:3", "--format", "json"],
            ["separability", "--zeta", "0.2,0.6", "--t2", "0.5", "--nth", "0", "--format", "json"],
            ["teleport", "--eta", "0.5", "--zeta", "0.4", "--format", "json"],
            ["check-state", "--zeta", "0.5", "--t2", "0.8", "--format", "json"],
        ):
            code, out = run_cli(capsys, argv)
            assert code == 0
            doc = json.loads(out)
            validate(doc, schema)

    def test_infinite_flagged_as_null(self, capsys):
        code, out = run_cli(
            capsys,
            ["separability", "--zeta", "0.5", "--t2", "0.5", "--nth", "0", "--format", "json"],
        )
        doc = json.loads(out)
        col = doc["columns"].index("l_s_over_lA")
        assert doc["rows"][0][col] is None
        assert [0, col] in doc["infinite_flags"]


class TestJsonWriter:
    @staticmethod
    def seeded_doc(rng, n_rows, seed, flagged):
        rows, flags = [], []
        for i in range(n_rows):
            row = [float(rng.normal()), float(rng.uniform()) * 1e300, int(rng.integers(-9, 9)), bool(rng.integers(2))]
            if flagged and rng.uniform() < 0.2:
                row[0] = None
                flags.append([i, 0])
            rows.append(row)
        return {
            "schema_version": cli.SCHEMA_VERSION,
            "command": "separability",
            "log_base": "e",
            "seed": seed,
            "parameters": {"nth": float(rng.uniform()), "zeta": "0.1:1:10", "odd": "a\n],\n      [\"b"},
            "columns": ["x", "big", "count", "flag"],
            "rows": rows,
            "infinite_flags": flags,
        }

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 10_000])
    @pytest.mark.parametrize("seed, flagged", [(None, True), (12, False)])
    def test_matches_indented_dumps(self, n_rows, seed, flagged):
        doc = self.seeded_doc(np.random.default_rng(n_rows), n_rows, seed, flagged)
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_string_cells_cannot_fake_a_row_boundary(self):
        doc = {"rows": [["],\n      [", 1.5], ["x\n    ],\n    [", True]], "infinite_flags": [[0, 1]]}
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_emit_flags_infinities(self, capsys):
        code, out = run_cli(capsys, ["separability", "--zeta", "0,0.5", "--t2", "0:1:3", "--nth", "0", "--format", "json"])
        doc = json.loads(out)
        nulls = [[i, j] for i, row in enumerate(doc["rows"]) for j, v in enumerate(row) if v is None]
        assert code == 0 and [5, 3] in nulls and doc["infinite_flags"] == nulls
        assert out == json.dumps(doc, indent=2) + "\n"


class TestEmitter:
    """Seeded tables through _emit: one column of Python floats, one of numpy
    float64, one of bools and one that mixes the two float kinds."""

    EDGES = [-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.7e308, -1.7e308]

    @classmethod
    def seeded_rows(cls, seed):
        rng = np.random.default_rng(seed)

        def value():
            if rng.uniform() < 0.3:
                return cls.EDGES[int(rng.integers(len(cls.EDGES)))]
            return float(rng.normal()) * 10.0 ** int(rng.integers(-320, 308))

        return [
            [value(), np.float64(value()), bool(rng.integers(2)), (float, np.float64)[int(rng.integers(2))](value())]
            for _ in range(int(rng.integers(1, 40)))
        ]

    @staticmethod
    def emit(rows, fmt):
        args = argparse.Namespace(format=fmt, log_base="e", seed=None)
        return cli._emit("fidelity-sweep", {}, ["a", "b", "flag", "c"], [list(row) for row in rows], args)

    @pytest.mark.parametrize("seed", range(20))
    def test_csv_cells(self, seed):
        rows = self.seeded_rows(seed)
        header, *lines = self.emit(rows, "csv").split("\n")
        assert header == "a,b,flag,c" and lines.pop() == ""
        want = [[("false", "true")[v] if isinstance(v, bool) else format(v, ".12g") for v in row] for row in rows]
        assert [line.split(",") for line in lines] == want

    @pytest.mark.parametrize("seed", range(20))
    def test_json_flags_every_infinity_in_row_major_order(self, seed):
        rows = self.seeded_rows(seed)
        out = self.emit(rows, "json")
        doc = json.loads(out)
        flags = [[i, j] for i, row in enumerate(rows) for j, v in enumerate(row) if v in (math.inf, -math.inf)]
        assert doc["infinite_flags"] == flags
        for i, j in flags:
            rows[i][j] = None
        assert doc["rows"] == [list(row) for row in rows]
        assert out == json.dumps(doc, indent=2) + "\n"


class TestDeterminismAndOutput:
    def test_byte_identical_reruns(self, capsys):
        argv = ["fidelity-sweep", "--eta", "0:1:6", "--zeta", "0:1:6", "--seed", "3"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out = run_cli(capsys, ["fidelity-sweep", "--eta", "0,1", "--zeta", "0", "--out", str(target)])
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("eta,zeta,f_qu\n")
        assert text.endswith("\n")

    # an output path that cannot be written is a malformed request; it exited 1 with a traceback
    @pytest.mark.parametrize("where", [
        pytest.param(lambda tmp: tmp / "missing" / "x.csv", id="missing-directory"),
        pytest.param(lambda tmp: tmp, id="a-directory"),
    ])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        target = str(where(tmp_path))
        code = cli.main(["fidelity-sweep", "--eta", "0", "--zeta", "0", "--out", target])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write output {target}: ")

    def test_twelve_significant_digits(self, capsys):
        _, out = run_cli(capsys, ["fidelity-sweep", "--eta", "1", "--zeta", "0"])
        value = out.strip().split("\n")[1].split(",")[2]
        assert value == format(float(np.sqrt(2.0 / (1.0 + np.cosh(1.0)))), ".12g")


class TestFidelitySweep:
    def test_classical_column_and_monotonicity(self, capsys):
        _, out = run_cli(capsys, ["fidelity-sweep", "--eta", "1", "--zeta", "0:2:9"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        fids = [float(r[2]) for r in rows]
        assert fids[0] == pytest.approx(np.sqrt(2.0 / (1.0 + np.cosh(1.0))))
        assert all(b > a for a, b in zip(fids, fids[1:]))


class TestConfigPrecedence:
    def test_config_supplies_defaults_cli_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zeta = 0.25\nlog-base = 2\n# comment\nformat = csv\n")
        _, out = run_cli(capsys, ["fidelity-sweep", "--eta", "0.5", "--config", str(cfg)])
        header = out.strip().split("\n")[0]
        assert header == "eta,zeta,f_qu"
        assert float(out.strip().split("\n")[1].split(",")[1]) == 0.25
        _, out2 = run_cli(capsys, ["fidelity-sweep", "--eta", "0.5", "--zeta", "0.75", "--config", str(cfg)])
        assert float(out2.strip().split("\n")[1].split(",")[1]) == 0.75

    def test_config_key_of_another_command_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("eta = 0.5\nlength = 0:1:3\nnth = 5\n")
        code, out = run_cli(capsys, ["fidelity-sweep", "--eta", "0.25", "--zeta", "0.5", "--format", "json",
                                     "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["parameters"] == {"zeta": "0.5", "eta": "0.25"}

    def test_non_integer_config_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = abc\n")
        code, _ = run_cli(capsys, ["fidelity-sweep", "--config", str(cfg)])
        assert code == 2

    def test_unreadable_config_is_spec_error(self, capsys):
        code, _ = run_cli(capsys, ["fidelity-sweep", "--config", "/nonexistent.cfg"])
        assert code == 2


class TestExitCodes:
    def test_bad_grid_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["entanglement-sweep", "--length", "nope"])
        assert code == 2

    def test_non_monotone_grid_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["entanglement-sweep", "--length", "1,0.5,2"])
        assert code == 2

    def test_energy_violation_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["teleport", "--t2", "0.9", "--r2", "0.9"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-state", "--zeta", "400"],
            ["teleport", "--zeta", "400"],
            ["teleport", "--zeta", "180"],
            ["teleport", "--eta", "800"],
            ["teleport", "--eta=-800"],
            ["fidelity-sweep", "--eta", "800", "--zeta", "0"],
            ["fidelity-sweep", "--eta", "0", "--zeta", "400"],
            ["fidelity-sweep", "--eta", "710", "--zeta", "355"],
        ],
    )
    def test_squeezing_past_the_float_range_exits_2(self, capsys, argv):
        # the suite turns RuntimeWarning into an error, so an overflow before the range check fails here
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "overflows" in captured.err

    # The single-point commands across the input rules of the records they build: TeleportSetup holds
    # the zeta range and the signal's physicality, degraded_tmsv the range of tmsv_state.  The setup
    # needs its fibers first, so a bad t2 is reported before a bad zeta.  teleport refuses a closed
    # form that overflows inside the range, or whose denominator rounds to 0.
    @pytest.mark.parametrize(
        "argv, code, err",
        [
            pytest.param(*row, id=" ".join(row[0]))
            for row in [
                (["teleport", "--zeta", "180"], 2, "error: |zeta| = 180.0 is past 177.79, where cosh(2 zeta)^2 overflows"),
                (["teleport", "--zeta", "400"], 2, "error: |zeta| = 400.0 is past 177.79, where cosh(2 zeta)^2 overflows"),
                (["teleport", "--eta", "800"], 2, "error: |eta| = 800.0 is past 710.48, where cosh(eta) overflows"),
                (["teleport", "--eta", "16"], 2, "error: signal covariance is unphysical"),
                (["check-state", "--zeta", "400"], 2, "error: |zeta| = 400.0 is past 355.24, where cosh(2 zeta) overflows"),
                (["teleport", "--t2", "1.5", "--zeta", "400"], 2, "error: transmission magnitude must lie in [0, 1]"),
                (["check-state", "--t2", "1.5", "--zeta", "400"], 2, "error: transmission magnitude must lie in [0, 1]"),
                (["teleport", "--eta", "0.3", "--zeta", "177.785"], 2,
                 "error: the closed-form receiver covariance overflows at zeta = 177.785"),
                (["teleport", "--eta", "40"], 2,
                 "error: the closed-form receiver covariance's denominator rounds to 0.0 at zeta = 0.5"),
                (["teleport", "--eta", "300"], 2,
                 "error: the closed-form receiver covariance's denominator rounds to 0.0 at zeta = 0.5"),
            ]
        ],
    )
    def test_single_point_refusals(self, capsys, argv, code, err):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err + "\n"

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise ArithmeticError("synthetic validity failure")

        monkeypatch.setitem(cli._RUNNERS, "check-state", boom)
        code, _ = run_cli(capsys, ["check-state", "--zeta", "0.5"])
        assert code == 3

    def test_teleport_cross_check_failure_exits_3(self, capsys, monkeypatch):
        # only teleport's refusals, its ValueErrors, are malformed requests
        def disagree(setup):
            raise RuntimeError("closed-form and Schur-complement receiver covariances disagree")

        monkeypatch.setattr(cli, "teleport", disagree)
        assert cli.main(["teleport"]) == 3
        err = "numerical failure: closed-form and Schur-complement receiver covariances disagree\n"
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity-sweep", "--nth", "5"],
            ["fidelity-sweep", "--length", "9"],
            ["entanglement-sweep", "--eta", "0.5"],
            ["teleport", "--absorption-length", "2"],
            ["check-state", "--eta", "0.5"],
        ],
    )
    def test_unread_value_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-state", "--zeta", "nan"],
            ["fidelity-sweep", "--eta", "inf"],
            ["separability", "--zeta", "-1"],
            ["separability", "--zeta=-1:1:3"],
            ["entanglement-sweep", "--zeta", "-1"],
            ["separability", "--absorption-length", "0"],
            ["separability", "--absorption-length", "nan"],
            ["entanglement-sweep", "--absorption-length", "-1"],
            ["entanglement-sweep", "--absorption-length", "inf"],
            ["separability", "--zeta", "0", "--nth", "-1"],
            ["separability", "--zeta", "0", "--absorption-length", "0"],
            ["entanglement-sweep", "--absorption-length", "0"],
        ],
    )
    def test_malformed_value_exits_2(self, capsys, argv):
        code, out = run_cli(capsys, argv)
        assert code == 2 and out == ""

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2


class TestCheckState:
    def test_reports_entanglement_of_clean_tmsv(self, capsys):
        _, out = run_cli(capsys, ["check-state", "--zeta", "0.5", "--t2", "1.0"])
        header, row = out.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert record["physical"] == "true"
        assert record["separable"] == "false"
        assert float(record["e_n_ln"]) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_noise_separates(self, capsys):
        _, out = run_cli(capsys, ["check-state", "--zeta", "0.5", "--t2", "0.5", "--nth", "0.5"])
        record = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        assert record["separable"] == "true"
        assert float(record["e_n_ln"]) == 0.0


# The README examples, without their --format flag; each runs in both formats.
README_EXAMPLES = {
    "entanglement-sweep": ["entanglement-sweep", "--length", "0:2:81", "--zeta", "1.0", "--log-base", "2"],
    "fidelity-sweep": ["fidelity-sweep", "--eta", "0:1.5:16", "--zeta", "0:1.5:16"],
    "separability": ["separability", "--zeta", "0.1:1.0:10", "--t2", "0.5", "--nth", "0.1"],
    "teleport": ["teleport", "--eta", "0.5", "--zeta", "0.5", "--t2", "0.8"],
    "check-state": ["check-state", "--zeta", "0.5", "--t2", "0.8", "--nth", "0.1"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_matches_golden(capsys, name, fmt):
    code, out = run_cli(capsys, README_EXAMPLES[name] + ["--format", fmt])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, code",
    [
        (README_EXAMPLES["separability"], 0),
        (["separability", "--zeta", "0", "--nth", "-1"], 2),
        (README_EXAMPLES["fidelity-sweep"] + ["--format", "json"], 0),
    ],
)
def test_module_entry_point_exit_code(argv, code):
    """``python -m cvsim.cli`` hands main's return value to sys.exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cvsim.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == code
    if code == 0:
        fmt = "json" if "json" in argv else "csv"
        assert proc.stdout == (GOLDEN_DIR / f"{argv[0]}.{fmt}").read_text(encoding="utf-8")
