"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import math

import numpy as np
import cvsim as cv
from cvsim import fock
from conftest import random_fiber, random_symplectic, random_two_mode_physical, random_two_mode_physical_stack

SEED = 715517


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_tmsv_log_negativity_is_two_zeta():
    tol = 1e-12
    zetas = np.arange(0.1, 2.0001, 0.1)
    errs = [abs(cv.transmitted_log_negativity(z, 1.0) - 2.0 * z) for z in zetas]
    ok = max(errs) <= tol
    report(1, ok, f"E_N(TMSV, |T|=1) = 2*zeta over {len(zetas)} points, max |delta| = {max(errs):.2e} (tol {tol:g})")
    assert ok


def test_criterion_02_closed_form_matches_matrix_pipeline():
    tol = 1e-10
    zetas = np.linspace(0.05, 1.0, 20)
    t_sqs = np.linspace(0.05, 0.8, 20)
    closed = np.array(
        [[cv.transmitted_log_negativity(float(zeta), math.sqrt(t_sq)) for t_sq in t_sqs] for zeta in zetas]
    )
    gammas = np.empty((zetas.size, t_sqs.size, 3, 4, 4))
    for i, zeta in enumerate(zetas):
        for j, t_sq in enumerate(t_sqs):
            for k, r_sq in enumerate((0.0, 0.1, 0.2)):
                f = cv.FiberParams(t_mag=math.sqrt(t_sq), r_mag=math.sqrt(r_sq))
                gammas[i, j, k] = cv.degraded_tmsv(float(zeta), f, f)
    values = cv.log_negativity(gammas).e_n  # [zeta, t_sq, r_sq]
    worst = float(np.max(np.abs(values - closed[..., np.newaxis])))
    spread = float(np.max(np.ptp(values, axis=-1)))
    ok = worst <= tol
    report(2, ok, f"matrix log-negativity vs closed form on 20x20 grid x 3 reflections, "
                  f"max |delta| = {worst:.2e} (tol {tol:g}), reflection spread {spread:.2e}")
    assert ok


def test_criterion_03_base_two_saturation_values():
    tol = 1e-6
    val_length = cv.max_transmittable(0.5 * math.log(2.0), 1.0, base="2")
    val_half = cv.transmitted_log_negativity(20.0, math.sqrt(0.5), base="2")
    val_dense = cv.transmitted_log_negativity(20.0, math.sqrt(0.75), base="2")
    errs = (abs(val_length - 1.0), abs(val_half - 1.0), abs(val_dense - 2.0))
    ok = max(errs) <= tol
    report(3, ok, f"base-two saturation: E_max(l = ln2/2 l_A) = {val_length:.9f}, "
                  f"E(|T|^2 = 0.5) = {val_half:.9f}, E(|T|^2 = 0.75) = {val_dense:.9f} (tol {tol:g})")
    assert ok


def test_criterion_04_separability_consistency_and_threshold():
    rng = np.random.default_rng(SEED)
    states = random_two_mode_physical_stack(rng, 10_000)
    try:
        cv.is_separable(states)  # a RuntimeError names the first disagreeing state
        disagreement = None
    except RuntimeError as exc:
        disagreement = str(exc)

    tol = 1e-6
    worst = 0.0
    for _ in range(10):
        zeta = rng.uniform(0.2, 1.2)
        t_sq = rng.uniform(0.2, 0.7)
        r_sq = rng.uniform(0.0, min(0.25, 0.9 - t_sq))
        n_crit = cv.fiber_separability_threshold(zeta, math.sqrt(t_sq), math.sqrt(r_sq))

        def separable_at(n_th):
            f = cv.FiberParams(t_mag=math.sqrt(t_sq), r_mag=math.sqrt(r_sq), n_th=n_th)
            return cv.is_separable(cv.degraded_tmsv(zeta, f, f)).separable

        lo, hi = 0.0, 2.0 * n_crit + 0.1
        assert not separable_at(lo) and separable_at(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if separable_at(mid):
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(0.5 * (lo + hi) - n_crit))
    ok = disagreement is None and worst <= tol
    report(4, ok, f"criterion vs PT test over 10^4 states: {disagreement or 'no disagreement'}; "
                  f"bisected flip vs threshold formula max |delta| = {worst:.2e} (tol {tol:g})")
    assert ok


def test_criterion_05_teleportation_identity_limit():
    tol = 1e-8
    rng = np.random.default_rng(SEED + 1)
    worst_gamma = 0.0
    worst_fid = 0.0
    for _ in range(20):
        eta = rng.uniform(0.0, 1.2)
        theta = rng.uniform(0.0, np.pi)
        r = cv.rotation_matrix(theta)
        gamma_in = r @ cv.squeezed_signal(eta).gamma @ r.T
        res = cv.teleport(cv.TeleportSetup(gamma_in, zeta=20.0))
        worst_gamma = max(worst_gamma, float(np.max(np.abs(res.gamma_rec - gamma_in))))
        worst_fid = max(worst_fid, abs(res.fidelity_zero_mean - 1.0))
    ok = worst_gamma <= tol and worst_fid <= tol
    report(5, ok, f"gamma_rec = gamma_in at zeta = 20 over 20 signals, max ||delta|| = {worst_gamma:.2e}, "
                  f"max |F - 1| = {worst_fid:.2e} (tol {tol:g})")
    assert ok


def test_criterion_06_pure_squeezed_fidelity_grid():
    tol_grid, tol_classical = 1e-10, 1e-12
    etas = np.linspace(0.0, 1.5, 10)
    zetas = np.linspace(0.0, 1.5, 10)
    worst = 0.0
    for eta in etas:
        for zeta in zetas:
            pipeline = cv.teleport(cv.TeleportSetup(cv.squeezed_signal(float(eta)).gamma, float(zeta)))
            closed = cv.pure_squeezed_fidelity(float(eta), float(zeta))
            worst = max(worst, abs(pipeline.fidelity_zero_mean - closed))
    worst_classical = max(
        abs(cv.pure_squeezed_fidelity(float(eta), 0.0) - math.sqrt(2.0 / (1.0 + math.cosh(eta))))
        for eta in etas
    )
    ok = worst <= tol_grid and worst_classical <= tol_classical
    report(6, ok, f"closed form vs pipeline on 10x10 grid, max |delta| = {worst:.2e} (tol {tol_grid:g}); "
                  f"classical column max |delta| = {worst_classical:.2e} (tol {tol_classical:g})")
    assert ok


def test_criterion_07_displacement_gain_limit():
    tol = 1e-6
    rng = np.random.default_rng(SEED + 2)
    res = cv.teleport(cv.TeleportSetup(np.eye(2), 20.0))
    worst_ideal = float(np.max(np.abs(res.gain - np.array([[0.0, 1.0], [-1.0, 0.0]]))))
    worst = 0.0
    for _ in range(10):
        f1, f2 = random_fiber(rng), random_fiber(rng)
        out = cv.teleport(cv.TeleportSetup(np.eye(2), 20.0, f1, f2))
        expected = cv.ideal_displacement_gain(f1, f2)
        worst = max(worst, float(np.max(np.abs(out.gain - expected))))
    ok = worst <= tol and worst_ideal <= tol
    report(7, ok, f"gain at zeta = 20 vs Sigma |T2/T1| R(phi1+phi2) over 10 fiber pairs, "
                  f"max |delta| = {worst:.2e}; ideal-fiber gain vs Sigma: {worst_ideal:.2e} (tol {tol:g})")
    assert ok


def test_criterion_08_fock_oracle_equivalence():
    cutoff = 25

    worst_cov = 0.0
    for zeta in (0.3, 0.5):
        _, gamma = fock.covariance_from_fock(fock.build_tmsv_fock(zeta, cutoff))
        worst_cov = max(worst_cov, float(np.max(np.abs(gamma - cv.tmsv_state(zeta).gamma))))
    ok_a = worst_cov <= 1e-6

    worst_en = 0.0
    for zeta in (0.2, 0.4):
        for t_sq in (0.6, 0.8):
            st = fock.build_tmsv_fock(zeta, cutoff)
            st = fock.apply_loss_fock(st, 0, t_sq)
            st = fock.apply_loss_fock(st, 1, t_sq)
            closed = cv.transmitted_log_negativity(zeta, math.sqrt(t_sq))
            worst_en = max(worst_en, abs(fock.log_negativity_fock(st) - closed))
    ok_b = worst_en <= 1e-3

    worst_fid = 0.0
    for eta in (0.2, 0.5):
        gamma_in = cv.squeezed_signal(eta).gamma
        gamma_rec = cv.teleport(cv.TeleportSetup(gamma_in, 0.5)).gamma_rec
        sig = fock.gaussian_fock(gamma_in, cutoff=30)
        rec = fock.gaussian_fock(gamma_rec, cutoff=30)
        worst_fid = max(worst_fid, abs(fock.overlap_fock(sig, rec) - cv.fidelity(gamma_in, gamma_rec)))
    ok_c = worst_fid <= 1e-4

    worst_pdf = 0.0
    cases = [
        (fock.vacuum_fock(1, cutoff), np.eye(2), 0),
        (fock.gaussian_fock(cv.squeezed_state(0.3).gamma, cutoff), cv.squeezed_state(0.3).gamma, 0),
        (fock.build_tmsv_fock(0.4, cutoff), cv.tmsv_state(0.4).gamma, 0),
    ]
    for state, gamma, mode in cases:
        res = fock.homodyne_povm_fock(state, mode, phi=0.0)
        var = gamma[2 * mode, 2 * mode] / 2.0
        marginal = np.exp(-res.grid**2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        worst_pdf = max(worst_pdf, float(np.max(np.abs(res.pdf - marginal))))
    ok_d = worst_pdf <= 1e-3

    ok = ok_a and ok_b and ok_c and ok_d
    report(8, ok, f"Fock oracle: (a) TMSV covariance {worst_cov:.2e} <= 1e-6; "
                  f"(b) degraded E_N {worst_en:.2e} <= 1e-3; "
                  f"(c) fidelity overlap {worst_fid:.2e} <= 1e-4; "
                  f"(d) homodyne pdf {worst_pdf:.2e} <= 1e-3")
    assert ok


def test_criterion_09_outcome_density_normalisation():
    tol = 1e-6
    rng = np.random.default_rng(SEED + 3)
    xs = np.linspace(-15.0, 15.0, 601)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([xg.ravel(), yg.ravel()])
    worst = 0.0
    for _ in range(5):
        eta = rng.uniform(0.0, 1.0)
        setup = cv.TeleportSetup(
            cv.squeezed_signal(eta).gamma,
            rng.uniform(0.1, 1.0),
            random_fiber(rng),
            random_fiber(rng),
            kappa_in=rng.normal(size=2),
        )
        pdf = cv.teleport(setup).density.pdf(pts).reshape(xg.shape)
        integral = float(np.trapezoid(np.trapezoid(pdf, xs, axis=1), xs))
        worst = max(worst, abs(integral - 1.0))
    ok = worst <= tol
    report(9, ok, f"outcome density normalisation over 5 random setups, max |integral - 1| = {worst:.2e} (tol {tol:g})")
    assert ok


def test_criterion_10_property_suites():
    cases = 1000
    rng = np.random.default_rng(SEED + 4)

    outs, conds = [], []
    for _ in range(cases):
        gamma = random_two_mode_physical(rng)
        f1, f2 = random_fiber(rng), random_fiber(rng)
        ch = cv.tensor_channels(cv.fiber_channel(f1), cv.fiber_channel(f2))
        outs.append(cv.apply_channel(cv.GaussianState(np.zeros(4), gamma), ch).gamma)
        quad = int(rng.integers(0, 4))
        conds.append(cv.homodyne_project(outs[-1], measured={quad}).gamma_out)
    worst_uncertainty = max(
        0.0,
        -float(np.min(cv.validate_covariance(np.array(outs)).min_eigenvalue)),
        -float(np.min(cv.validate_covariance(np.array(conds)).min_eigenvalue)),
    )
    ok_unc = worst_uncertainty <= 1e-9

    worst_euler = 0.0
    for _ in range(cases):
        s = random_symplectic(rng, 2)
        o1, d, o2 = cv.euler_decompose(s)
        worst_euler = max(worst_euler, float(np.max(np.abs(o1 @ d @ o2 - s))))
    ok_euler = worst_euler <= 1e-10

    pairs = [(random_two_mode_physical(rng), random_symplectic(rng, 2)) for _ in range(cases)]
    before = cv.symplectic_eigenvalues(np.array([gamma for gamma, _ in pairs]))
    after = cv.symplectic_eigenvalues(np.array([s @ gamma @ s.T for gamma, s in pairs]))
    worst_congruence = float(np.max(np.abs(before - after)))
    ok_cong = worst_congruence <= 1e-9

    worst_penrose = 0.0
    for _ in range(cases):
        rank = int(rng.integers(1, 4))
        basis = rng.normal(size=(4, rank))
        m = basis @ np.diag(rng.uniform(0.5, 3.0, size=rank)) @ basis.T
        plus = cv.mp_inverse(m)
        worst_penrose = max(
            worst_penrose,
            float(np.max(np.abs(m @ plus @ m - m))),
            float(np.max(np.abs(plus @ m @ plus - plus))),
            float(np.max(np.abs((m @ plus).T - m @ plus))),
            float(np.max(np.abs((plus @ m).T - plus @ m))),
        )
    ok_pen = worst_penrose <= 1e-9

    ok = ok_unc and ok_euler and ok_cong and ok_pen
    report(10, ok, f"property suites (10^3 each): uncertainty {worst_uncertainty:.2e} <= 1e-9; "
                   f"Euler recomposition {worst_euler:.2e} <= 1e-10; "
                   f"congruence invariance {worst_congruence:.2e} <= 1e-9; "
                   f"Penrose {worst_penrose:.2e} <= 1e-9")
    assert ok


def test_criterion_11_vacuum_projection_calibration():
    tol = 1e-6
    rng = np.random.default_rng(SEED + 5)
    ratios = []
    for _ in range(5):
        n_th = rng.uniform(0.0, 0.5)
        zeta = rng.uniform(0.0, 0.25)
        theta = rng.uniform(0.0, np.pi)
        r = cv.rotation_matrix(theta)
        sq = np.diag([math.exp(2 * zeta), math.exp(-2 * zeta)])
        gamma = r @ sq @ r.T * (2.0 * n_th + 1.0)

        literal = cv.gaussian_project(gamma, [0], np.eye(2)).prob_factor
        exact = float(fock.gaussian_fock(gamma, cutoff=40).matrix[0, 0].real)
        ratios.append(exact / literal)
    spread = max(ratios) - min(ratios)
    ok = spread <= tol
    report(11, ok, f"vacuum-projection normalisation: Fock probability / bare det factor = "
                   f"{np.mean(ratios):.9f} per measured mode (spread {spread:.2e}, tol {tol:g}); "
                   f"the literal factor needs a 2-per-mode constant")
    assert ok
