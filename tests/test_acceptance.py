"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Later criteria reuse the designs produced by earlier ones through the
module-level registry, and the trace-monotonicity criterion audits every
solver run recorded anywhere in this module.
"""
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erfc

from pcs_shaper.capacity import EntropyGrid, GAUSS_ENTROPY_STD, secrecy_capacity
from pcs_shaper.channel import LinkBudget, average_eve_gain, hyp2f1
from pcs_shaper.constellation import ConstraintSet, Distribution, \
    PamConstellation, signed_amplitude_mean, symmetry_residual
from pcs_shaper.error_rate import (
    PairwiseGeometry,
    ber_approx,
    ber_upper_bound,
    grad_ber_upper,
    pair_hessian_block,
    pairwise_error_prob,
    ser_approx,
    ser_upper_bound,
)
from pcs_shaper.montecarlo import SimConfig, pairwise_error_mc, simulate_error_rates
from pcs_shaper.solver import CccpSettings, DesignProblem, solve

from conftest import dirichlet_interior, links_at_dbm
from oracles import average_eve_gain_quadrature, pair_term_value

THRESHOLD = 3.8e-3
ALPHA = 0.01

# every solve performed in this module lands here for criteria 6 and 11
RUN_REGISTRY: list[dict] = []


def _solve_and_register(problem: DesignProblem, settings: CccpSettings):
    result = solve(problem, settings)
    RUN_REGISTRY.append({
        "variant": problem.variant,
        "mode": problem.constraints.mode,
        "dc_bias": problem.dc_bias,
        "constellation": problem.constellation,
        "result": result,
    })
    return result


def _paper_problem(power_dbm, receiver, noise_params, variant="known_csi",
                   mode="flicker", m=8):
    led, bob, eve, eve_avg, power = links_at_dbm(power_dbm, receiver,
                                                 noise_params, ratio=10.0)
    c = PamConstellation(m, led.peak_amplitude)
    known = variant in ("known_csi", "qos_max_eve_ber")
    problem = DesignProblem(
        variant=variant, constellation=c, bob_link=bob, dc_bias=led.dc_bias,
        constraints=ConstraintSet(pre_fec_threshold=THRESHOLD,
                                  flicker_alpha=ALPHA, mode=mode),
        eve_link=eve if known else None,
        eve_avg=None if known else eve_avg)
    return problem, led, bob, eve, eve_avg


@pytest.fixture(scope="module")
def fig3_sweep(receiver, noise_params):
    """Known-CSI flicker-mode designs over the 20..35 dBm grid."""
    out = {}
    for power in range(20, 36):
        problem, led, bob, eve, _ = _paper_problem(float(power), receiver,
                                                   noise_params)
        result = _solve_and_register(problem, CccpSettings(n_starts=8, seed=1))
        out[power] = (problem, bob, eve, result)
    return out


def test_criterion_01_pairwise_closed_form_vs_event_simulation():
    t_start = time.monotonic()
    rng = np.random.default_rng(2024_01)
    n_samples = 10_000_000
    for _ in range(50):
        m = int(rng.choice([4, 8]))
        c = PamConstellation(m, float(rng.uniform(1.0, 7.0)))
        p = rng.dirichlet(np.ones(m))
        i, j = rng.choice(m, size=2, replace=False)
        geom = PairwiseGeometry(
            d=float(c.amplitudes[i] - c.amplitudes[j]), sigma=1.0)
        exact = pairwise_error_prob(p[i], p[j], geom)
        est, _ = pairwise_error_mc(p[i], p[j], geom, n_samples,
                                   seed=int(rng.integers(2**31)))
        se = math.sqrt(exact * (1.0 - exact) / n_samples)
        assert abs(est - exact) <= 4.0 * se + 2.0 / n_samples, \
            (p[i], p[j], geom.d, exact, est)
    elapsed = time.monotonic() - t_start
    assert elapsed < 120.0
    print(f"PASS criterion 1: 50/50 pairwise probabilities within 4 sigma of "
          f"10^7-sample event simulation ({elapsed:.0f}s < 120s)")


def test_criterion_02_bound_ordering_and_approximation_fit():
    t_start = time.monotonic()
    rng = np.random.default_rng(2024_02)
    amplitudes = np.linspace(1.0, 8.0, 8)
    low_half = amplitudes <= amplitudes[len(amplitudes) // 2 - 1]
    dev_ub, dev_ap = [], []
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    for trial in range(20):
        m = 4 if trial % 2 == 0 else 8
        p = Distribution(rng.dirichlet(np.ones(m)))
        for a_peak, is_low in zip(amplitudes, low_half):
            c = PamConstellation(m, float(a_peak))
            stats = simulate_error_rates(SimConfig(
                n_symbols=200_000, seed=int(rng.integers(2**31)), link=link,
                constellation=c, distribution=p))
            ub = ser_upper_bound(c, p, link)
            ap = ser_approx(c, p, link)
            assert stats.ser <= ub + 4.0 * stats.ser_stderr
            if is_low:
                dev_ub.append(abs(ub - stats.ser))
                dev_ap.append(abs(ap - stats.ser))
    assert np.mean(dev_ap) < np.mean(dev_ub)
    elapsed = time.monotonic() - t_start
    assert elapsed < 300.0
    print(f"PASS criterion 2: simulation never exceeds the union bound; "
          f"low-amplitude MAD approximation {np.mean(dev_ap):.4f} < bound "
          f"{np.mean(dev_ub):.4f} ({elapsed:.0f}s < 300s)")


def test_criterion_03_concavity_and_hessian_structure():
    rng = np.random.default_rng(2024_03)
    for fun in (ber_upper_bound, ber_approx):
        for _ in range(1000):
            m = int(rng.choice([4, 8]))
            c = PamConstellation(m, float(rng.uniform(0.5, 8.0)))
            link = LinkBudget(composite_gain=float(rng.uniform(0.3, 3.0)),
                              sigma=float(rng.uniform(0.2, 1.5)))
            p1 = dirichlet_interior(rng, m)
            p2 = dirichlet_interior(rng, m)
            mid = fun(c, 0.5 * (p1 + p2), link)
            assert mid >= 0.5 * fun(c, p1, link) + 0.5 * fun(c, p2, link) - 1e-12
    h = 1e-5
    for _ in range(100):
        geom = PairwiseGeometry(d=float(rng.uniform(0.3, 4.0)),
                                sigma=float(rng.uniform(0.3, 2.0)))
        p_m, p_n = rng.uniform(0.08, 0.9, size=2)
        block = pair_hessian_block(p_m, p_n, geom)
        z = rng.standard_normal((100, 2))
        assert np.max(np.einsum("ki,ij,kj->k", z, block, z)) <= 1e-12
        fd = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for si in (1, -1):
                    for sj in (1, -1):
                        q = np.array([p_m, p_n])
                        q[i] += si * h
                        q[j] += sj * h
                        acc += si * sj * pair_term_value(q[0], q[1], geom)
                fd[i, j] = acc / (4.0 * h * h)
        assert np.abs(block - fd).max() <= 1e-4 * max(np.abs(block).max(), 1e-10)
    print("PASS criterion 3: 2x1000 midpoint concavity checks and 100 "
          "closed-form Hessian blocks (NSD + 1e-4 finite-difference match)")


def test_criterion_04_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024_04)
    h = 1e-6
    for _ in range(200):
        m = int(rng.choice([4, 8]))
        c = PamConstellation(m, float(rng.uniform(1.0, 6.0)))
        link = LinkBudget(composite_gain=float(rng.uniform(0.3, 2.0)),
                          sigma=float(rng.uniform(0.3, 1.5)))
        p = dirichlet_interior(rng, m, floor=0.02)
        analytic = grad_ber_upper(c, p, link)
        numeric = np.zeros(m)
        for i in range(m):
            up, dn = p.copy(), p.copy()
            up[i] += h
            dn[i] -= h
            numeric[i] = (ber_upper_bound(c, up, link)
                          - ber_upper_bound(c, dn, link)) / (2.0 * h)
        assert np.abs(analytic - numeric).max() \
            <= 1e-5 * max(np.abs(analytic).max(), 1e-12)
    print("PASS criterion 4: analytic BER gradient matches central "
          "differences to 1e-5 relative on 200 interior points")


def test_criterion_05_hypergeometric_consistency(receiver):
    for deg in (30.0, 45.0, 70.0):
        psi = math.radians(deg)
        closed = (math.sin(2 * psi) + 2 * psi) / (4.0 * math.tan(psi))
        assert hyp2f1(0.5, 2.0, 1.5, -math.tan(psi) ** 2) \
            == pytest.approx(closed, rel=1e-10)
    from test_channel import led_for_order
    for order in (1.0, 2.0, 5.0):
        led = led_for_order(order)
        assert average_eve_gain(led, receiver) == pytest.approx(
            average_eve_gain_quadrature(led, receiver), rel=1e-8)
    print("PASS criterion 5: 2F1 reduction exact at unit order and radial "
          "integral matched to 1e-8 for orders {1, 2, 5}")


def test_criterion_06_cccp_iteration_budget(receiver, noise_params):
    problem, *_ = _paper_problem(25.0, receiver, noise_params)
    result = _solve_and_register(problem, CccpSettings(n_starts=100, seed=77))
    runs = [rec for rec in result.per_start if rec["feasible"]]
    assert len(runs) == 100
    iters = [rec["iterations"] for rec in runs]
    assert all(rec["converged"] for rec in runs)
    for rec in runs:
        trace = rec["trace"]
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
    mean_iters = float(np.mean(iters))
    assert mean_iters <= 10.0
    print(f"PASS criterion 6: all 100 start traces non-decreasing; mean "
          f"iterations to 1e-2 relative change = {mean_iters:.2f} <= 10")


def test_criterion_07_small_instance_global_check(receiver, noise_params):
    t_start = time.monotonic()
    power = 25.0
    led, bob, eve, eve_avg, _ = links_at_dbm(power, receiver, noise_params)
    c = PamConstellation(4, led.peak_amplitude)
    a = c.amplitudes

    # exhaustive step-0.02 simplex grid with exact constraint checks
    step = 0.02
    n = int(round(1.0 / step))
    pts = [(i, j, k, n - i - j - k)
           for i in range(n + 1)
           for j in range(n + 1 - i)
           for k in range(n + 1 - i - j)]
    grid = np.asarray(pts, dtype=float) * step
    a_mean = grid @ a

    def grid_ber(link):
        sig = link.sigma
        d = link.composite_gain * (a[:, None] - a[None, :])
        total = np.zeros(len(grid))
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(grid > 0, np.log(np.maximum(grid, 1e-320)), -np.inf)
            for mm in range(4):
                for nn in range(4):
                    if mm == nn:
                        continue
                    u = (2.0 * sig**2 * (logp[:, mm] - logp[:, nn]) + d[mm, nn]**2) \
                        / (2.0 * math.sqrt(2.0) * sig * abs(d[mm, nn]))
                    u = np.where((grid[:, mm] == 0) | (grid[:, nn] == 0), np.inf, u)
                    total += grid[:, mm] * 0.5 * erfc(u)
        return total / c.bits_per_symbol

    ber_grid = grid_ber(bob)
    flicker_ok = np.abs(a_mean) <= ALPHA * led.dc_bias
    reliable = ber_grid <= THRESHOLD
    sym_ok = (grid[:, 0] == grid[:, 3]) & (grid[:, 1] == grid[:, 2])

    gb = EntropyGrid(bob.composite_gain * a, bob.sigma)
    ge = EntropyGrid(eve.composite_gain * a, eve.sigma)

    def entropies(table):
        pdf_grid = grid @ table._pdf
        with np.errstate(divide="ignore"):
            logs = np.where(pdf_grid > 0,
                            np.log2(np.where(pdf_grid > 0, pdf_grid, 1.0)), 0.0)
        return -((grid @ (table._pdf * table._w)) * logs).sum(axis=1) + table._log_sigma

    h_bob = entropies(gb)
    cs_grid = h_bob - entropies(ge) + math.log2(eve.sigma / bob.sigma)
    snr_scale = (eve_avg.composite_gain / eve_avg.sigma) ** 2
    cap_b = h_bob - GAUSS_ENTROPY_STD - math.log2(bob.sigma)
    unknown_grid = cap_b - 0.5 * np.log2(
        1.0 + snr_scale * np.maximum(c.peak_a**2 - a_mean**2, 0.0))

    def grid_eve_ber_approx():
        sig = eve.sigma
        delta = abs(eve.composite_gain * (a[1] - a[0]))
        total = np.zeros(len(grid))
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(grid > 0, np.log(np.maximum(grid, 1e-320)), -np.inf)
            for mm in range(4):
                for nn in (mm - 1, mm + 1):
                    if not 0 <= nn < 4:
                        continue
                    u = (2.0 * sig**2 * (logp[:, mm] - logp[:, nn]) + delta**2) \
                        / (2.0 * math.sqrt(2.0) * sig * delta)
                    u = np.where((grid[:, mm] == 0) | (grid[:, nn] == 0), np.inf, u)
                    total += grid[:, mm] * 0.5 * erfc(u)
        return total / c.bits_per_symbol

    cases = {
        "known_csi": (np.where(flicker_ok & reliable, cs_grid, -np.inf).max(),
                      "flicker"),
        "unknown_csi": (np.where(flicker_ok & reliable, unknown_grid,
                                 -np.inf).max(), "flicker"),
        "unknown_csi_symmetric": (np.where(sym_ok & reliable, unknown_grid,
                                           -np.inf).max(), "symmetric"),
        "qos_max_eve_ber": (np.where(flicker_ok & reliable,
                                     grid_eve_ber_approx(), -np.inf).max(),
                            "flicker"),
    }
    for variant, (grid_best, mode) in cases.items():
        problem, *_ = _paper_problem(power, receiver, noise_params,
                                     variant=variant, mode=mode, m=4)
        result = _solve_and_register(problem, CccpSettings(n_starts=32, seed=5))
        assert result.objective >= grid_best - 1e-3, \
            (variant, result.objective, grid_best)
        print(f"  criterion 7 [{variant}]: solver {result.objective:.6f} vs "
              f"grid optimum {grid_best:.6f}")
    elapsed = time.monotonic() - t_start
    assert elapsed < 600.0
    print(f"PASS criterion 7: all four variants within 1e-3 of the exhaustive "
          f"step-0.02 simplex grid ({elapsed:.0f}s < 600s)")


def test_criterion_08_power_sweep_trends(receiver, noise_params, fig3_sweep):
    # (a) uniform signaling crosses the pre-FEC threshold near 26.5 dBm
    p_uni = np.ones(8) / 8

    def uniform_ber_excess(power_dbm):
        problem, _, bob, _, _ = _paper_problem(power_dbm, receiver, noise_params)
        return ber_upper_bound(problem.constellation, p_uni, bob) - THRESHOLD

    crossing = brentq(uniform_ber_excess, 20.0, 35.0, xtol=1e-6)
    assert abs(crossing - 26.5) <= 1.5

    # (b) the shaped designs satisfy the reliability constraint everywhere
    for power, (problem, bob, _, result) in fig3_sweep.items():
        assert ber_upper_bound(problem.constellation, result.p_opt.probs, bob) \
            <= THRESHOLD + 1e-8, f"constraint violated at {power} dBm"

    # (c) secrecy-capacity gain over uniform signaling at 30 dBm
    problem, bob, eve, result = fig3_sweep[30]
    cs_pcs = secrecy_capacity(result.p_opt.probs, bob, eve, problem.constellation)
    cs_uni = secrecy_capacity(p_uni, bob, eve, problem.constellation)
    gain_pct = (cs_pcs / cs_uni - 1.0) * 100.0
    assert 4.7 - 2.0 <= gain_pct <= 4.7 + 2.0
    print(f"PASS criterion 8: uniform threshold crossing {crossing:.2f} dBm "
          f"(target 26.5±1.5); shaped design reliable on all 16 powers; "
          f"30 dBm secrecy gain {gain_pct:.2f}% (target 4.7±2)")


def test_criterion_09_sparsity_grows_as_power_drops(fig3_sweep):
    inactive_20 = fig3_sweep[20][3].inactive_count
    inactive_30 = fig3_sweep[30][3].inactive_count
    assert inactive_20 > inactive_30
    print(f"PASS criterion 9: inactive symbols {inactive_20} at 20 dBm > "
          f"{inactive_30} at 30 dBm")


def test_criterion_10_qos_design_blinds_the_eavesdropper(receiver, noise_params):
    records = []
    for power in (24.0, 27.0, 30.0, 33.0):
        problem, led, bob, eve, _ = _paper_problem(power, receiver, noise_params,
                                                   variant="qos_max_eve_ber")
        result = _solve_and_register(problem, CccpSettings(n_starts=8, seed=9))
        bob_ber = ber_upper_bound(problem.constellation, result.p_opt.probs, bob)
        stats = simulate_error_rates(SimConfig(
            n_symbols=200_000, seed=13, link=eve,
            constellation=problem.constellation, distribution=result.p_opt))
        assert bob_ber <= THRESHOLD + 1e-8
        assert stats.ber > THRESHOLD
        records.append((power, bob_ber, stats.ber))
    lines = ", ".join(f"{p:.0f} dBm eve {e:.3f}" for p, _, e in records)
    print(f"PASS criterion 10: eavesdropper simulated BER above 3.8e-3 at "
          f"every power while the legitimate bound holds ({lines})")


def test_criterion_11_symmetry_and_flicker_residuals(receiver, noise_params):
    # add symmetric-mode designs so both constraint families are audited
    for power, variant, mode in ((23.0, "known_csi", "symmetric"),
                                 (29.0, "unknown_csi_symmetric", "symmetric")):
        problem, *_ = _paper_problem(power, receiver, noise_params,
                                     variant=variant, mode=mode)
        _solve_and_register(problem, CccpSettings(n_starts=4, seed=15))

    n_sym = n_flick = 0
    for record in RUN_REGISTRY:
        probs = record["result"].p_opt.probs
        c = record["constellation"]
        if record["mode"] == "symmetric":
            assert np.abs(symmetry_residual(probs)).max() <= 1e-9
            assert abs(signed_amplitude_mean(c, probs)) <= 1e-9
            n_sym += 1
        else:
            bound = ALPHA * record["dc_bias"]
            assert abs(signed_amplitude_mean(c, probs)) <= bound + 1e-12
            n_flick += 1
    # criterion 6 companion: every trace recorded in this module is monotone
    for record in RUN_REGISTRY:
        for rec in record["result"].per_start:
            if rec.get("feasible"):
                trace = rec["trace"]
                assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
    assert n_sym >= 2 and n_flick >= 20
    print(f"PASS criterion 11: {n_sym} symmetric designs with S p = 0 and "
          f"a^T p = 0 to 1e-9; {n_flick} flicker designs within "
          f"alpha*I_DC + 1e-12; all registered traces non-decreasing")
