"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Every workload is a closed loop driven by one single-threaded caller: an
op starts only after the previous one has finished.  Inputs are a pure
function of the workload seed; the library sees only the generated
values.  Checks compare each output with an independent reference and
name the input when they fail.

The timed inputs stay where no operation fails.  The documented defects
seen at baseline are measured apart from them, by a fixed *defect census*
run after the timed loop (:func:`census`):

- at large squeezing, from zeta ~ 4.2 on (ROADMAP.md open item 4), the
  RuntimeError of ``log_negativity``'s or ``is_separable``'s cross-check,
  and ``degraded_tmsv`` raising ValueError ("unphysical");
- at zeta < 1e-4, ``log_negativity``'s RuntimeError and ``is_separable``
  calling an entangled near-product state separable;
- the CLI's exit codes for ``--zeta -1`` and ``nan`` (open item 4).

A census failure of a documented kind is *known* and counted in the census
figures; any other failure, in the census or in a timed op, makes a run
incorrect.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bootstrap import ROOT, child_env, import_cvsim
from tracing import SPAN_MARKER

cvsim = import_cvsim()
fock = cvsim.fock

LAUNCHER = Path(__file__).resolve().parent / "cli_launcher.py"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    known: bool = False  # the failure matches a documented defect
    detail: str = ""


def _outcome(problems: list[str], label: str, known: bool) -> Outcome:
    if not problems:
        return Outcome(True)
    return Outcome(False, known, f"{label}: " + "; ".join(problems))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------- grid

EDGE_EVERY = 8  # every 8th sweep samples the large-squeezing edge
# The timed edge ends at 3.5: from zeta ~ 4.2 on, points at |T| near 1 raise
# the known cross-check RuntimeError; the census samples zeta in CENSUS_EDGE.
EDGE_MAX = 3.5
CENSUS_EDGE = (4.0, 8.0)
CENSUS_TINY = (1e-7, 1e-5)
MAIN_MIN = 0.01  # above the near-product defect at zeta < TINY_ZETA
TINY_ZETA = 1e-4
SWEEP_SHAPE = (8, 8)  # zeta x |T|^2 points per sweep
EN_TOL = 1e-8  # relative; the library's own cross-check uses 1e-9
SEP_BAND = 1e-4  # relative distance from n_crit inside which no verdict is checked
FID_TOL = 1e-9


@dataclass(frozen=True)
class GridPoint:
    sweep: int
    zeta: float
    t2: float
    r: float
    phase: float
    nth: float
    eta: float

    @property
    def edge(self) -> bool:
        return self.zeta > 2.0

    @property
    def tiny(self) -> bool:
        """A near-product state: E_N ~ 2 zeta is below the precision of the
        closed form's nested square root, and the determinant margin
        ~ zeta^2 is inside is_separable's 1e-8 borderline band."""
        return self.zeta < TINY_ZETA


# The exceptions seen at baseline where the library's fixed 1e-9 cross-check
# tolerances ask for more than float64 holds, by the points that raise them.
EN_CROSS_CHECK = (RuntimeError, "closed-form and symplectic-spectrum log-negativities disagree")
# is_separable's own cross-check; ROADMAP.md item 4 records it for the TMSV at zeta = 10
SEP_CROSS_CHECK = (RuntimeError, "separability criterion and partial-transpose test disagree")
KNOWN_RAISES = {
    "edge": (EN_CROSS_CHECK, SEP_CROSS_CHECK, (ValueError, "covariance matrix is unphysical")),
    "tiny": (EN_CROSS_CHECK,),
}


def _known_raise(p: GridPoint, exc: BaseException) -> bool:
    kinds = KNOWN_RAISES["edge"] if p.edge else KNOWN_RAISES["tiny"] if p.tiny else ()
    return any(type(exc) is cls and str(exc).startswith(text) for cls, text in kinds)


@dataclass(frozen=True)
class GridResult:
    physical: bool
    nus: tuple
    separable: bool
    e_n: float
    fidelity: float


class Grid:
    name = "grid"
    op_definition = (
        "one grid point: FiberParams, degraded_tmsv, validate_covariance, symplectic_eigenvalues, "
        "is_separable, log_negativity, then teleport of squeezed_signal(eta); points arrive as "
        f"{SWEEP_SHAPE[0]}x{SWEEP_SHAPE[1]} Cartesian zeta x |T|^2 sweeps, every {EDGE_EVERY}th sweep "
        f"at zeta in [2, {EDGE_MAX}], the rest at zeta in [{MAIN_MIN}, 2]"
    )
    # p99 would have ~90 samples beyond it, but on a shared host it measures
    # preemption: over ten seeds it read 3.0-15.5 ms on a ~2.2 ms op
    tail_pct = 90
    setup_repeats = 9

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng([seed, 1])
        sweep = 0
        while True:
            if sweep % EDGE_EVERY == EDGE_EVERY - 1:
                lo, hi = rng.uniform(2.0, 2.5), rng.uniform(3.0, EDGE_MAX)
            else:
                lo, hi = rng.uniform(MAIN_MIN, 0.5), rng.uniform(1.5, 2.0)
            r = float(rng.choice([0.0, 0.2]))
            phase = float(rng.choice([0.0, 0.6]))
            nth = float(rng.choice([0.0, 0.05, 0.5, 2.0]))
            eta = float(rng.choice([0.2, 1.0]))
            # the |T|^2 axis ends at 1 - |R|^2, so |T| = 1 occurs whenever R = 0
            t2s = np.linspace(rng.uniform(0.0, 0.3), 1.0 - r * r, SWEEP_SHAPE[1])
            for zeta in np.linspace(lo, hi, SWEEP_SHAPE[0]):
                for t2 in t2s:
                    yield GridPoint(sweep, float(zeta), float(t2), r, phase, nth, eta)
            sweep += 1

    @staticmethod
    def warmup_input(seed: int) -> GridPoint:
        return GridPoint(-1, 0.7, 0.8, 0.0, 0.0, 0.1, 0.5)

    @staticmethod
    def census_inputs() -> dict:
        """Fixed points on both defect regions, the same for every seed."""
        edge = [
            GridPoint(-2, float(zeta), float(t2), r, phase, nth, 0.5)
            for zeta in np.linspace(*CENSUS_EDGE, 9)
            for r, phase, nth in itertools.product((0.0, 0.2), (0.0, 0.6), (0.0, 0.5))
            for t2 in np.linspace(0.5, 1.0 - r * r, 6)
        ]
        tiny = [
            GridPoint(-2, float(zeta), float(t2), 0.0, 0.0, nth, 0.5)
            for zeta in np.geomspace(*CENSUS_TINY, 3)
            for nth in (0.0, 0.05)
            for t2 in np.linspace(0.5, 1.0, 6)
        ]
        return {"grid_edge": edge, "grid_tiny": tiny}

    @staticmethod
    def run(p: GridPoint, tracer=None) -> GridResult:
        f = cvsim.FiberParams(t_mag=math.sqrt(p.t2), phase=p.phase, r_mag=p.r, n_th=p.nth)
        gamma = cvsim.degraded_tmsv(p.zeta, f, f)
        report = cvsim.validate_covariance(gamma)
        nus = cvsim.symplectic_eigenvalues(gamma)
        verdict = cvsim.is_separable(gamma)
        neg = cvsim.log_negativity(gamma)
        tele = cvsim.teleport(cvsim.TeleportSetup(cvsim.squeezed_signal(p.eta).gamma, p.zeta, f, f))
        return GridResult(report.physical, tuple(nus), verdict.separable, neg.e_n, tele.fidelity_zero_mean)

    @staticmethod
    def check(p: GridPoint, res: GridResult | None, exc: BaseException | None) -> Outcome:
        if exc is not None:
            return _outcome([f"{type(exc).__name__}: {exc}"], repr(p), _known_raise(p, exc))
        problems = []
        n_known = 0  # problems that match a baseline defect
        if not res.physical:
            problems.append("validate_covariance calls a degraded TMSV unphysical")
        t_mag = math.sqrt(p.t2)
        if p.nth == 0.0:
            ref = cvsim.transmitted_log_negativity(p.zeta, t_mag)
            if not _close(res.e_n, ref, EN_TOL):
                problems.append(f"E_N {res.e_n!r} vs transmitted_log_negativity {ref!r}")
        n_crit = cvsim.fiber_separability_threshold(p.zeta, t_mag, p.r)
        if math.isinf(n_crit) or abs(p.nth - n_crit) > SEP_BAND * max(1.0, n_crit):
            if res.separable != (p.nth >= n_crit):
                problems.append(f"separable={res.separable} but n_th={p.nth} vs n_crit={n_crit!r}")
                n_known += p.tiny and res.separable
        if p.t2 == 1.0 and p.phase == 0.0:
            ref = cvsim.pure_squeezed_fidelity(p.eta, p.zeta)
            if abs(res.fidelity - ref) > FID_TOL:
                problems.append(f"fidelity {res.fidelity!r} vs pure_squeezed_fidelity {ref!r}")
        return _outcome(problems, repr(p), n_known == len(problems))


# ---------------------------------------------------------- montecarlo

MC_RECORDS = 4000  # as in demos/03_teleportation_fidelity.py
MC_SIGMAS = 6.0  # statistical tolerance of the ideal-gain estimate


@dataclass(frozen=True)
class McCall:
    index: int
    zeta: float
    eta: float
    t2_1: float
    t2_2: float
    nth: float
    phase: float
    mc_seed: int
    ideal_gain: bool

    def setup(self):
        f1 = cvsim.FiberParams(t_mag=math.sqrt(self.t2_1), phase=self.phase, n_th=self.nth)
        f2 = cvsim.FiberParams(t_mag=math.sqrt(self.t2_2), n_th=self.nth)
        return cvsim.TeleportSetup(cvsim.squeezed_signal(self.eta).gamma, self.zeta, f1, f2)


def ideal_gain_moments(setup, matched) -> tuple[float, float]:
    """Mean and variance of one record's overlap under the ideal gain.

    For a zero-mean signal the receiver is displaced by d = -sqrt(2) D w
    with D = G_matched - G_ideal and record w ~ N(0, B/2), so d ~ N(0, C),
    C = D B D^T, and the overlap is F0 exp(-d^T A d), A = (g_in + g_rec)^-1.
    Gaussian integrals give E[exp(-k d^T A d)] = det(1 + 2k C A)^(-1/2).
    """
    ideal = cvsim.ideal_displacement_gain(setup.f1, setup.f2)
    delta = matched.gain - ideal
    c = delta @ matched.density.block @ delta.T
    a = np.linalg.inv(setup.gamma_in + matched.gamma_rec)
    f0 = matched.fidelity_zero_mean
    eye = np.eye(2)
    mean = f0 / math.sqrt(np.linalg.det(eye + 2.0 * c @ a))
    second = f0 * f0 / math.sqrt(np.linalg.det(eye + 4.0 * c @ a))
    return mean, max(second - mean * mean, 0.0)


class MonteCarlo:
    name = "montecarlo"
    op_definition = (
        f"one teleport_monte_carlo call with {MC_RECORDS} records on a seeded zero-mean squeezed "
        "signal; calls alternate between the matched gain and ideal_displacement_gain"
    )
    tail_pct = 90  # 150-220 ops per run: 15-22 samples beyond it
    setup_repeats = 9

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng([seed, 2])
        index = 0
        while True:
            params = dict(
                zeta=float(rng.uniform(0.2, 1.5)),
                eta=float(rng.uniform(0.0, 1.2)),
                t2_1=float(rng.uniform(0.5, 1.0)),
                t2_2=float(rng.uniform(0.5, 1.0)),
                nth=float(rng.choice([0.0, 0.1])),
                phase=float(rng.choice([0.0, 0.5])),
            )
            for ideal in (False, True):
                yield McCall(index, mc_seed=int(rng.integers(2**31)), ideal_gain=ideal, **params)
                index += 1

    @staticmethod
    def warmup_input(seed: int) -> McCall:
        return McCall(-1, 0.8, 0.5, 0.9, 0.9, 0.0, 0.0, 7, False)

    @staticmethod
    def census_inputs() -> dict:
        return {}  # no known defect

    @staticmethod
    def run(call: McCall, tracer=None) -> float:
        setup = call.setup()
        gain = cvsim.ideal_displacement_gain(setup.f1, setup.f2) if call.ideal_gain else None
        return cvsim.teleport_monte_carlo(setup, MC_RECORDS, call.mc_seed, gain=gain)

    @staticmethod
    def check(call: McCall, est: float | None, exc: BaseException | None) -> Outcome:
        if exc is not None:
            return _outcome([f"{type(exc).__name__}: {exc}"], repr(call), False)
        setup = call.setup()
        matched = cvsim.teleport(setup)
        problems = []
        if not call.ideal_gain:
            if abs(est - matched.fidelity_zero_mean) > 1e-9:
                problems.append(f"matched-gain estimate {est!r} vs fidelity_zero_mean {matched.fidelity_zero_mean!r}")
        else:
            mean, var = ideal_gain_moments(setup, matched)
            tol = MC_SIGMAS * math.sqrt(var / MC_RECORDS) + 1e-12
            if abs(est - mean) > tol:
                problems.append(f"ideal-gain estimate {est!r} vs expectation {mean!r} +- {tol:.3e}")
        return _outcome(problems, repr(call), False)


# -------------------------------------------------------------- oracle

# Tolerances: the oracle enforces a truncation budget of 1e-6 on every
# state it builds; E_N takes a logarithm of a trace norm, so it gets 10x.
ORACLE_TOL = 1e-6
ORACLE_EN_TOL = 1e-5
PALETTE_SIZE = 3
WARMUP_T2 = 0.45  # outside the palette range, so the timed run starts with a cold Kraus cache


@dataclass(frozen=True)
class OracleCase:
    index: int
    zeta: float
    t2_1: float
    t2_2: float
    eta: float

    def fibers(self):
        return cvsim.FiberParams(t_mag=math.sqrt(self.t2_1)), cvsim.FiberParams(t_mag=math.sqrt(self.t2_2))


@dataclass(frozen=True)
class OracleResult:
    e_n: float
    gamma: np.ndarray
    grid: np.ndarray
    pdf: np.ndarray
    gamma_rec: np.ndarray
    overlap: float


class Oracle:
    name = "oracle"
    op_definition = (
        "one Fock cross-check at cutoff 25: build_tmsv_fock, apply_loss_fock on both arms, "
        "log_negativity_fock, covariance_from_fock, homodyne_povm_fock of mode 0, and one "
        f"gaussian_fock overlap of signal and teleported state; |T|^2 from a seeded palette of {PALETTE_SIZE}"
    )
    tail_pct = 75  # 7-9 ops per run: no percentile has 10 samples beyond it
    setup_repeats = 4

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng([seed, 3])
        palette = [round(float(x), 3) for x in rng.uniform(0.55, 0.95, PALETTE_SIZE)]
        index = 0
        while True:
            # distinct arms: the first op always misses the cache twice,
            # later ops miss at most once
            t2_1, t2_2 = (float(t) for t in rng.choice(palette, 2, replace=False))
            yield OracleCase(
                index,
                zeta=float(rng.uniform(0.2, 0.6)),
                t2_1=t2_1,
                t2_2=t2_2,
                eta=float(rng.uniform(0.1, 0.6)),
            )
            index += 1

    @staticmethod
    def warmup_input(seed: int) -> OracleCase:
        return OracleCase(-1, 0.4, WARMUP_T2, WARMUP_T2, 0.3)

    @staticmethod
    def census_inputs() -> dict:
        return {}  # no known defect

    @staticmethod
    def run(case: OracleCase, tracer=None) -> OracleResult:
        state = fock.build_tmsv_fock(case.zeta)
        state = fock.apply_loss_fock(state, 0, case.t2_1)
        state = fock.apply_loss_fock(state, 1, case.t2_2)
        e_n = fock.log_negativity_fock(state)
        _kappa, gamma = fock.covariance_from_fock(state)
        hom = fock.homodyne_povm_fock(state, 0)
        f1, f2 = case.fibers()
        gamma_in = cvsim.squeezed_signal(case.eta).gamma
        gamma_rec = cvsim.teleport(cvsim.TeleportSetup(gamma_in, case.zeta, f1, f2)).gamma_rec
        overlap = fock.overlap_fock(fock.gaussian_fock(gamma_in), fock.gaussian_fock(gamma_rec))
        return OracleResult(e_n, gamma, hom.grid, hom.pdf, gamma_rec, overlap)

    @staticmethod
    def check(case: OracleCase, res: OracleResult | None, exc: BaseException | None) -> Outcome:
        if exc is not None:
            return _outcome([f"{type(exc).__name__}: {exc}"], repr(case), False)
        f1, f2 = case.fibers()
        gamma = cvsim.degraded_tmsv(case.zeta, f1, f2)
        problems = []
        e_n = cvsim.log_negativity(gamma).e_n
        if abs(res.e_n - e_n) > ORACLE_EN_TOL:
            problems.append(f"log_negativity_fock {res.e_n!r} vs log_negativity {e_n!r}")
        cov_err = float(np.max(np.abs(res.gamma - gamma)))
        if cov_err > ORACLE_TOL:
            problems.append(f"covariance_from_fock differs from degraded_tmsv by {cov_err:.3e}")
        dx = res.grid[1] - res.grid[0]
        mass = float(res.pdf.sum() * dx)
        variance = float((res.grid**2 * res.pdf).sum() * dx) / mass
        if abs(variance - gamma[0, 0] / 2.0) > ORACLE_TOL:
            problems.append(f"homodyne variance {variance!r} vs gamma_00/2 {gamma[0, 0] / 2.0!r}")
        fid = cvsim.fidelity(cvsim.squeezed_signal(case.eta).gamma, res.gamma_rec)
        if abs(res.overlap - fid) > ORACLE_TOL:
            problems.append(f"gaussian_fock overlap {res.overlap!r} vs fidelity {fid!r}")
        return _outcome(problems, repr(case), False)


# ----------------------------------------------------------------- cli

CLI_TIMEOUT_S = 120
CLI_VALUE_TOL = 1e-9  # relative; CSV carries 12 significant digits


@dataclass(frozen=True)
class CliRequest:
    index: int
    argv: tuple
    expect_exit: int
    known_defect: str = ""  # ROADMAP item the request is expected to hit


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def _num(x: float) -> str:
    return f"{x:.4f}"


def _grid(rng, lo: float, hi_range: tuple, n_max: int) -> str:
    return f"{_num(lo)}:{_num(rng.uniform(*hi_range))}:{int(rng.integers(10, n_max + 1))}"


def _valid_request(kind: str, fmt: str, rng) -> list[str]:
    base = str(rng.choice(["e", "2"]))
    common = ["--format", fmt, "--log-base", base]
    if kind == "entanglement-sweep":
        return [kind, "--length", _grid(rng, 0.0, (1.0, 3.0), 100), "--zeta", _num(rng.uniform(0.1, 2.0)),
                "--absorption-length", _num(rng.uniform(0.5, 2.0))] + common
    if kind == "fidelity-sweep":
        return [kind, "--eta", _grid(rng, 0.0, (0.5, 1.5), 100), "--zeta", _grid(rng, 0.0, (0.5, 1.5), 100)] + common
    if kind == "separability":
        return [kind, "--zeta", _grid(rng, 0.05, (0.5, 2.0), 100), "--t2", _grid(rng, 0.1, (0.5, 0.9), 100),
                "--r2", str(rng.choice(["0", "0.05"])), "--nth", _num(rng.uniform(0.01, 1.0)),
                "--absorption-length", _num(rng.uniform(0.5, 2.0))] + common
    if kind == "teleport":
        return [kind, "--eta", _num(rng.uniform(0.1, 1.5)), "--zeta", _num(rng.uniform(0.1, 1.5)),
                "--t2", _num(rng.uniform(0.5, 1.0)), "--r2", "0", "--nth", str(rng.choice(["0", "0.1"]))] + common
    return [kind, "--zeta", _num(rng.uniform(0.1, 2.0)), "--t2", _num(rng.uniform(0.3, 1.0)), "--r2", "0",
            "--nth", str(rng.choice(["0", "0.05"]))] + common


# Requests the CLI must refuse with exit 2, and does.
MALFORMED = (
    ("teleport", "--t2", "1.5"),
    ("separability", "--zeta", "1:0:5"),
    ("fidelity-sweep", "--eta", "0:1:0"),
    ("teleport", "--zeta", "0:1:3"),
    ("check-state", "--format", "xml"),
    ("entanglement-sweep", "--zeta", "abc"),
)
# Malformed requests that ROADMAP item 4 records as exiting 0 or 3 instead of 2.
KNOWN_DEFECTS = (
    ("separability", "--zeta", "-1"),
    ("check-state", "--zeta", "nan"),
)
# One round of the stratified mix: one malformed request and every command
# in both formats.
CLI_ROUND = [("malformed", "")] + [
    (kind, fmt)
    for kind in ("entanglement-sweep", "fidelity-sweep", "separability", "teleport", "check-state")
    for fmt in ("csv", "json")
]


def _parse_output(text: str, fmt: str) -> list[list]:
    if fmt == "json":
        doc = json.loads(text)
        rows = [list(r) for r in doc["rows"]]
        for i, j in doc["infinite_flags"]:
            rows[i][j] = math.inf
        return rows
    lines = text.strip().splitlines()[1:]
    conv = {"true": True, "false": False, "inf": math.inf}
    return [[conv[tok] if tok in conv else float(tok) for tok in line.split(",")] for line in lines]


def _flags(argv) -> dict:
    return {argv[i].lstrip("-").replace("-", "_"): argv[i + 1] for i in range(1, len(argv), 2)}


def expected_rows(argv) -> list[list]:
    """The rows a valid request should print, recomputed through the library."""
    kind, a = argv[0], _flags(argv)
    grid, ent = importlib.import_module("cvsim.cli").parse_grid, cvsim.entanglement
    base = a["log_base"]
    if kind == "entanglement-sweep":
        zeta, l_abs = float(a["zeta"]), float(a["absorption_length"])
        rows = []
        for length in grid(a["length"]):
            t_sq = math.exp(-2.0 * length / l_abs)
            rows.append([length / l_abs, t_sq, ent.max_transmittable(float(length), l_abs, base),
                         ent.transmitted_log_negativity(zeta, math.sqrt(t_sq), base)])
        return rows
    if kind == "fidelity-sweep":
        return [[eta, zeta, cvsim.pure_squeezed_fidelity(float(eta), float(zeta))]
                for eta in grid(a["eta"]) for zeta in grid(a["zeta"])]
    if kind == "separability":
        r2, nth, l_abs = float(a["r2"]), float(a["nth"]), float(a["absorption_length"])
        rows = []
        for zeta in grid(a["zeta"]):
            for t2 in grid(a["t2"]):
                l_s = ent.separability_length(float(zeta), nth, l_abs) / l_abs if zeta > 0 else 0.0
                rows.append([zeta, t2, r2, ent.fiber_separability_threshold(float(zeta), math.sqrt(t2), math.sqrt(r2)), l_s])
        return rows
    zeta, t2, r2, nth = (float(a[k]) for k in ("zeta", "t2", "r2", "nth"))
    fiber = cvsim.FiberParams(t_mag=math.sqrt(t2), r_mag=math.sqrt(r2), n_th=nth)
    if kind == "teleport":
        eta = float(a["eta"])
        res = cvsim.teleport(cvsim.TeleportSetup(cvsim.squeezed_signal(eta).gamma, zeta, fiber, fiber))
        g, k = res.gamma_rec, res.gain
        return [[eta, zeta, t2, r2, nth, res.fidelity_zero_mean, g[0, 0], g[0, 1], g[1, 1],
                 k[0, 0], k[0, 1], k[1, 0], k[1, 1]]]
    gamma = cvsim.degraded_tmsv(zeta, fiber, fiber)
    report = cvsim.validate_covariance(gamma)
    nus = cvsim.symplectic_eigenvalues(gamma)
    cls = cvsim.classicality_test(gamma)
    return [[zeta, t2, r2, nth, report.physical, report.min_eigenvalue, nus[0], nus[1],
             cls.min_gamma_eigenvalue, cls.classical, cvsim.is_separable(gamma).separable,
             cvsim.log_negativity(gamma, base).e_n]]


def _same(got, want) -> bool:
    if isinstance(want, (bool, np.bool_)):
        return got is bool(want)
    if isinstance(got, bool):
        return False
    want = float(want)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= CLI_VALUE_TOL * max(1.0, abs(want))


class Cli:
    name = "cli"
    op_definition = (
        "one `python -m cvsim.cli ...` subprocess, at most one at a time; a seeded, stratified mix of "
        "all 5 commands in CSV and JSON with grids up to 100x100, and one malformed request per "
        f"round of {len(CLI_ROUND)}"
    )
    tail_pct = 75  # 34-49 ops per run: about 8-12 samples beyond it
    setup_repeats = 7

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng([seed, 4])
        index = 0
        while True:
            for slot in rng.permutation(len(CLI_ROUND)):
                kind, fmt = CLI_ROUND[slot]
                if kind == "malformed":
                    yield CliRequest(index, MALFORMED[int(rng.integers(len(MALFORMED)))], 2)
                else:
                    yield CliRequest(index, tuple(_valid_request(kind, fmt, rng)), 0)
                index += 1

    @staticmethod
    def warmup_input(seed: int) -> CliRequest:
        return CliRequest(-1, ("fidelity-sweep", "--eta", "0:1:20", "--zeta", "0:1:20", "--format", "csv",
                               "--log-base", "e"), 0)

    @staticmethod
    def census_inputs() -> dict:
        return {"cli": [CliRequest(-2, argv, 2, "ROADMAP item 4") for argv in KNOWN_DEFECTS]}

    @staticmethod
    def run(req: CliRequest, tracer=None) -> CliResult:
        traced = tracer is not None and tracer.op_id is not None
        head = [sys.executable, str(LAUNCHER)] if traced else [sys.executable, "-m", "cvsim.cli"]
        proc = subprocess.run(head + list(req.argv), cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr
        if traced:
            kept = []
            for line in stderr.splitlines():
                if line.startswith(SPAN_MARKER):
                    tracer.add_foreign(json.loads(line[len(SPAN_MARKER):]), tracer.op_id)
                else:
                    kept.append(line)
            stderr = "\n".join(kept)
        return CliResult(proc.returncode, proc.stdout, stderr)

    @staticmethod
    def check(req: CliRequest, res: CliResult | None, exc: BaseException | None) -> Outcome:
        label = "cvsim " + " ".join(req.argv)
        known = bool(req.known_defect)
        if exc is not None:
            return _outcome([f"{type(exc).__name__}: {exc}"], label, False)
        if res.returncode != req.expect_exit:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            return _outcome([f"exit {res.returncode}, expected {req.expect_exit} ({tail[0][:120]})"], label, known)
        if req.expect_exit != 0:
            return Outcome(True)
        fmt = req.argv[req.argv.index("--format") + 1]
        got = _parse_output(res.stdout, fmt)
        want = expected_rows(req.argv)
        problems = []
        if len(got) != len(want):
            problems.append(f"{len(got)} rows, expected {len(want)}")
        for i, (g_row, w_row) in enumerate(zip(got, want)):
            bad = [j for j, (g, w) in enumerate(zip(g_row, w_row)) if not _same(g, w)]
            if len(g_row) != len(w_row) or bad:
                problems.append(f"row {i} columns {bad}: {g_row} vs {w_row}")
                break
        return _outcome(problems, label, False)


WORKLOADS = {w.name: w for w in (Grid, MonteCarlo, Oracle, Cli)}


def census(workload) -> dict:
    """Run a workload's defect census: group -> outcomes, one per input."""
    out = {}
    for group, inputs in workload.census_inputs().items():
        outcomes = []
        for inp in inputs:
            result = exc = None
            try:
                result = workload.run(inp)
            except Exception as err:
                exc = err
            outcomes.append(workload.check(inp, result, exc))
        out[group] = outcomes
    return out
