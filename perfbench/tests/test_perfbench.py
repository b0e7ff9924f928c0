"""Tests of the benchmark itself: metric names and units, seeded inputs,
and output checks that can fail."""

import dataclasses
import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

import tracing
import workloads
from bootstrap import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / "perfbench" / "run.py"


def _tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload,trace",
    [(w["name"], 0) for w in SPEC["workloads"]] + [("grid", 1), ("cli", 1)],
)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = list(itertools.islice(workload.inputs(5), 80))
    again = list(itertools.islice(workload.inputs(5), 80))
    other = list(itertools.islice(workload.inputs(6), 80))
    assert first == again
    assert first != other


def test_grid_has_a_fixed_share_of_edge_points():
    points = list(itertools.islice(workloads.Grid.inputs(1), 64 * workloads.EDGE_EVERY * 4))
    assert sum(p.edge for p in points) == len(points) // workloads.EDGE_EVERY
    assert max(p.zeta for p in points) <= workloads.EDGE_MAX
    assert min(p.zeta for p in points) >= workloads.MAIN_MIN


def test_census_finds_the_known_defects_and_nothing_else():
    for name in ("grid", "cli"):
        found = workloads.census(workloads.WORKLOADS[name])
        assert found
        for group, outcomes in found.items():
            assert all(o.ok or o.known for o in outcomes), [o.detail for o in outcomes if not o.known]
            assert any(not o.ok for o in outcomes), group  # the defect shows
    assert workloads.census(workloads.MonteCarlo) == {}


def test_grid_check_catches_a_wrong_reference(monkeypatch):
    point = workloads.GridPoint(0, 1.0, 0.7, 0.0, 0.0, 0.0, 0.5)
    result = workloads.Grid.run(point)
    assert workloads.Grid.check(point, result, None).ok
    true_ref = workloads.cvsim.transmitted_log_negativity
    monkeypatch.setattr(workloads.cvsim, "transmitted_log_negativity", lambda z, t: true_ref(z, t) + 1e-3)
    outcome = workloads.Grid.check(point, result, None)
    assert not outcome.ok and not outcome.known
    assert "zeta=1.0" in outcome.detail and "transmitted_log_negativity" in outcome.detail


def test_grid_failure_is_known_only_for_baseline_defects():
    edge = workloads.GridPoint(0, 6.0, 1.0, 0.0, 0.0, 0.0, 0.5)
    err = RuntimeError("closed-form and symplectic-spectrum log-negativities disagree: 12.0 vs 12.1")
    assert workloads.Grid.check(edge, None, err).known
    assert workloads.Grid.check(edge, None, ValueError("covariance matrix is unphysical")).known
    assert workloads.Grid.check(dataclasses.replace(edge, zeta=1e-6), None, err).known
    assert not workloads.Grid.check(dataclasses.replace(edge, zeta=1.0), None, err).known
    assert not workloads.Grid.check(edge, None, RuntimeError("something else")).known
    assert not workloads.Grid.check(edge, None, ZeroDivisionError("float division by zero")).known


def test_grid_wrong_number_at_large_squeezing_is_not_known(monkeypatch):
    point = workloads.GridPoint(0, 6.0, 0.9, 0.0, 0.0, 0.0, 0.5)
    result = workloads.Grid.run(point)
    assert workloads.Grid.check(point, result, None).ok
    wrong = dataclasses.replace(result, e_n=result.e_n * 1.01)
    outcome = workloads.Grid.check(point, wrong, None)
    assert not outcome.ok and not outcome.known and "zeta=6.0" in outcome.detail
    wrong = dataclasses.replace(result, separable=True)
    assert not workloads.Grid.check(point, wrong, None).known


def test_montecarlo_check_catches_a_wrong_estimate():
    for ideal in (False, True):
        call = workloads.McCall(0, 0.8, 0.5, 0.9, 0.7, 0.0, 0.5, 11, ideal)
        est = workloads.MonteCarlo.run(call)
        assert workloads.MonteCarlo.check(call, est, None).ok
        outcome = workloads.MonteCarlo.check(call, est + 0.05, None)
        assert not outcome.ok and "McCall(index=0" in outcome.detail


def test_ideal_gain_expectation_matches_a_long_run():
    call = workloads.McCall(0, 0.6, 0.5, 0.8, 0.8, 0.0, 0.0, 3, True)
    setup = call.setup()
    mean, var = workloads.ideal_gain_moments(setup, workloads.cvsim.teleport(setup))
    n = 20000
    gain = workloads.cvsim.ideal_displacement_gain(setup.f1, setup.f2)
    est = workloads.cvsim.teleport_monte_carlo(setup, n, 3, gain=gain)
    assert abs(est - mean) <= 5.0 * np.sqrt(var / n)


def test_oracle_check_catches_a_wrong_result():
    case = workloads.OracleCase(0, 0.3, 0.8, 0.6, 0.4)
    result = workloads.Oracle.run(case)
    assert workloads.Oracle.check(case, result, None).ok
    bad = dataclasses.replace(result, overlap=result.overlap + 1e-4)
    outcome = workloads.Oracle.check(case, bad, None)
    assert not outcome.ok and "gaussian_fock overlap" in outcome.detail


def test_cli_check_catches_wrong_rows_and_exit_codes():
    request = workloads.CliRequest(
        0, ("fidelity-sweep", "--eta", "0:1:4", "--zeta", "0:1:3", "--format", "csv", "--log-base", "e"), 0
    )
    result = workloads.Cli.run(request)
    assert workloads.Cli.check(request, result, None).ok
    lines = result.stdout.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",0.5"
    outcome = workloads.Cli.check(request, dataclasses.replace(result, stdout="\n".join(lines)), None)
    assert not outcome.ok and "fidelity-sweep" in outcome.detail

    defect = workloads.CliRequest(1, workloads.KNOWN_DEFECTS[0], 2, "ROADMAP item 4")
    outcome = workloads.Cli.check(defect, workloads.CliResult(0, "", ""), None)
    assert not outcome.ok and outcome.known


def test_tracer_patches_every_binding_and_computes_self_time():
    tracer = tracing.Tracer()
    tracer.prepare(workloads.cvsim)
    names = tracer.patched_names()
    for binding in ("cvsim.teleportation.degraded_tmsv", "cvsim.teleportation.homodyne_project",
                    "cvsim.cli.teleport", "cvsim.channels.degraded_tmsv", "cvsim.degraded_tmsv"):
        assert binding in names
    tracer.install()
    try:
        tracer.op_id = 0
        workloads.Grid.run(workloads.GridPoint(0, 0.5, 0.8, 0.0, 0.0, 0.0, 0.5))
        tracer.op_id = None
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer.spans)
    assert summary["teleportation.teleport"]["calls"] == 1
    assert summary["channels.degraded_tmsv"]["calls"] == 2  # once directly, once inside teleport
    teleport = next(s for s in tracer.spans if s[0] == "teleportation.teleport")
    assert 0.0 < summary["teleportation.teleport"]["self_s"] < teleport[2] - teleport[1]


def test_summarize_subtracts_child_spans():
    spans = [
        ("teleportation.teleport", 0.0, 10.0, -1, 0, True),
        ("channels.degraded_tmsv", 1.0, 4.0, 0, 0, True),
        ("measurement.homodyne_project", 5.0, 6.0, 0, 0, False),
    ]
    summary = tracing.summarize(spans)
    assert summary["teleportation.teleport"]["self_s"] == pytest.approx(6.0)
    assert summary["measurement.homodyne_project"]["failed"] == 1
    assert summary["fock.build_tmsv_fock"]["calls"] == 0
