"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
from irsim import (
    AnglePair,
    ArraySpec,
    ProblemData,
    ScenarioConfig,
    ScenarioGeometry,
    SweepSpec,
    bilinear_link_power,
    brute_force_oracle,
    build_problem,
    closed_form_lrs_only,
    closed_form_urs_null,
    composite_vector,
    default_grid,
    irs_received_powers,
    link_power,
    no_irs_baseline_power,
    pdd_solve,
    power_report,
    problem_constraint,
    default_rcs,
    run_cpi,
    run_experiment,
    EstimationError,
    Infeasible,
)

from conftest import overlap_monte_carlo, random_angles, random_geometry, random_reflection

P = 0.03


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(name, timer, budget):
    verdict = "PASS" if timer.elapsed < budget else "FAIL"
    print(f"{verdict}: {name} ({timer.elapsed:.2f} s, budget {budget:.0f} s)")
    assert timer.elapsed < budget


def test_criterion_closed_form_optimum():
    """Coherent alignment reaches the exact N^2 gain; the solver matches it."""
    cfg = ScenarioConfig.default()
    geom = cfg.geometry
    n = geom.irs_spec.size
    with Timer() as t:
        u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
        theta = closed_form_lrs_only(u)
        gain = abs(np.vdot(u, theta.coefficients)) ** 2
        np.testing.assert_allclose(gain, float(n**2), rtol=1e-9)
        assert n**2 == 4096
        prob = ProblemData(Q=u[:, None], B=None, gamma=1.0)
        res = pdd_solve(prob)
        assert res.objective >= 0.999 * n**2
    report("closed-form optimum: alignment gain N^2 = 4096, solver >= 0.999 N^2", t, 1.0)


def test_criterion_urs_null():
    """Closed-form nulls kill the unauthorized echo for every index pair."""
    spec = ArraySpec(8, 8, 0.02, 0.2)
    n = spec.size
    rng = np.random.default_rng(11)
    with Timer() as t:
        worst = 0.0
        for _ in range(100):
            au = random_angles(rng)
            g = composite_vector("G", au, au, spec)
            for ix in range(1, 8):
                for iy in range(1, 8):
                    theta = closed_form_urs_null(spec, au, (ix, iy))
                    leak = abs(np.vdot(g, theta.coefficients)) ** 2 / n**2
                    worst = max(worst, leak)
        assert worst <= 1e-15
    report(f"unauthorized-echo null: worst leakage {worst:.2e} <= 1e-15 over 100x49 cases", t, 1.0)


def test_criterion_pdd_vs_oracle():
    """The solver reaches >= 0.95 of the exhaustive 16-level grid optimum."""
    rng = np.random.default_rng(42)
    spec = ArraySpec(2, 2, 0.02, 0.2)
    with Timer() as t:
        worst = np.inf
        for _ in range(50):
            comps = tuple(
                composite_vector(k, random_angles(rng), random_angles(rng), spec) for k in "UVRG"
            )
            q_ls = float(10 ** rng.uniform(-8, -5))
            q_us = float(10 ** rng.uniform(-8, -5))
            loose = build_problem("P3", (q_ls, q_us), comps, None, 1.0, P)
            cap = problem_constraint(loose, np.exp(1j * np.angle(loose.Q[:, 0])))
            gamma = float(max(cap * rng.uniform(0.05, 0.8), 1e-300))
            prob = build_problem("P3", (q_ls, q_us), comps, None, gamma, P)
            res = pdd_solve(prob)
            _, best = brute_force_oracle(prob, 16)
            assert problem_constraint(prob, res.theta.coefficients) <= gamma * (1 + 1e-6)
            worst = min(worst, res.objective / best)
        assert worst >= 0.95
    report(f"solver vs 16-level grid oracle: worst ratio {worst:.4f} >= 0.95 on 50 instances", t, 60.0)


def test_criterion_cross_term_vanishing():
    """Monte-Carlo overlapped power matches the two-term closed form within 1%."""
    rng = np.random.default_rng(7)
    with Timer() as t:
        for _ in range(10):
            geom = random_geometry(rng)
            theta = random_reflection(rng, geom.irs_spec.size)
            for side in ("L", "U"):
                mc = overlap_monte_carlo(geom, theta, P, P, 10**5, rng, side)
                rep = power_report(theta, geom, P, P)
                analytic = rep.q_ol if side == "L" else rep.q_ou
                np.testing.assert_allclose(mc, analytic, rtol=0.01)
    report("cross-term vanishing: Monte-Carlo overlap power within 1% on 10 scenarios", t, 30.0)


def test_criterion_energy_ordering():
    """Per-case reflection never collects less energy than a fixed one."""
    from irsim import PulseSpec, TimingPlan

    rng = np.random.default_rng(3)

    def scenario():
        return ScenarioGeometry(
            angles_l=random_angles(rng, 0.2, np.pi / 2),
            angles_u=random_angles(rng, 0.2, np.pi / 2),
            dist_li=float(rng.uniform(15, 60)),
            dist_ui=float(rng.uniform(15, 60)),
            lrs_spec=ArraySpec(16, 1, 0.1, 0.2),
            urs_spec=ArraySpec(16, 1, 0.1, 0.2),
            irs_spec=ArraySpec(16, 1, 0.02, 0.2),  # fast mode size
        )

    def cap_for(geom, frac):
        comps = tuple(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG")
        prob = build_problem("P3", irs_received_powers(geom, P, P), comps, None, 1.0, P)
        return float(max(problem_constraint(prob, np.exp(1j * np.angle(prob.Q[:, 0]))) * frac, 1e-30))

    with Timer() as t:
        for trial in range(100):
            geom = scenario()
            urs_start = float(rng.uniform(0.0, 60e-6))
            plan = TimingPlan(
                pri=100e-6, pulses_per_cpi=3,
                lrs=PulseSpec(P, 25e-6, 100e6, 0.0),
                urs=PulseSpec(P, 30e-6, 100e6, urs_start),
            )
            gamma = cap_for(geom, float(rng.uniform(0.05, 2.0)))
            short = run_cpi(geom, plan, "short_term", gamma, P, P)
            long_ = run_cpi(geom, plan, "long_term", gamma, P, P)
            assert short.lrs_energy >= long_.lrs_energy - 1e-9
        for trial in range(10):
            geom = scenario()
            plan = TimingPlan(
                pri=100e-6, pulses_per_cpi=3,
                lrs=PulseSpec(P, 30e-6, 100e6, 0.0),
                urs=PulseSpec(P, 30e-6, 100e6, 0.0),
            )
            gamma = cap_for(geom, 0.3)
            short = run_cpi(geom, plan, "short_term", gamma, P, P)
            long_ = run_cpi(geom, plan, "long_term", gamma, P, P)
            if short.lrs_energy > 0:
                assert abs(short.lrs_energy - long_.lrs_energy) <= 1e-6 * short.lrs_energy
    report("energy ordering: short-term >= long-term on 100 draws; equal at full overlap", t, 60.0)


def test_criterion_security_cap():
    """Every converged cap-sweep run respects the cap; energy grows with it."""
    cfg = ScenarioConfig.default()
    with Timer() as t:
        grid = default_grid("gamma_sweep", cfg)
        rows = run_experiment(cfg, SweepSpec(grid, "gamma_sweep"))
        for scheme in ("short_term", "long_term"):
            sub = [r for r in rows if r["scheme"] == scheme]
            for r in sub:
                if r["feasible"]:
                    assert r["urs_power"] <= r["swept_value"] * (1 + 1e-6)
            energies = [r["lrs_power_or_energy"] for r in sub]
            assert all(a <= b * (1 + 1e-9) for a, b in zip(energies, energies[1:]))
    report("security cap: reported unauthorized power <= gamma and energy non-decreasing", t, 120.0)


def test_criterion_random_phase_expectation():
    """Random phases average to gain N; optimization is worth the full N^2."""
    cfg = ScenarioConfig.default()
    geom = cfg.geometry
    p_l, p_u = cfg.timing.lrs.power, cfg.timing.urs.power
    n = geom.irs_spec.size
    rng = np.random.default_rng(19)
    with Timer() as t:
        u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
        thetas = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(10**4, n)))
        mean_gain = float(np.mean(np.abs(thetas @ np.conj(u)) ** 2))
        assert 0.95 * n <= mean_gain <= 1.05 * n
        # optimized vs random-phase gap is N up to the sampling error (+-1 dB)
        ratio_db = 10 * np.log10(n**2 / mean_gain)
        target_db = 10 * np.log10(n)
        assert abs(ratio_db - target_db) <= 1.0
        # optimized vs bare target: >= 10 dB under the repo's gain conventions
        theta = closed_form_lrs_only(u)
        q_opt = link_power("LL", theta, geom, p_l, p_u)
        q_base, _ = no_irs_baseline_power(geom, default_rcs(geom.irs_spec), p_l, p_u)
        gain_db = 10 * np.log10(q_opt / q_base)
        assert gain_db >= 10.0
    report(
        f"random-phase expectation: mean gain {mean_gain:.1f} ~ N={n}; "
        f"optimized beats bare target by {gain_db:.1f} dB",
        t,
        30.0,
    )


def test_criterion_angle_error_robustness():
    """A 1-degree estimation offset costs <= 5% energy, cap stays <= 2 gamma."""
    cfg = ScenarioConfig.default()
    geom, plan = cfg.geometry, cfg.timing
    p_l, p_u = plan.lrs.power, plan.urs.power
    with Timer() as t:
        clean = run_cpi(geom, plan, "short_term", cfg.gamma, p_l, p_u, cfg.p_u_min)
        err = EstimationError(angle_offset=float(np.deg2rad(1.0)))
        noisy = run_cpi(geom, plan, "short_term", cfg.gamma, p_l, p_u, cfg.p_u_min, err=err)
        assert clean.feasible and noisy.feasible
        loss = 1.0 - noisy.lrs_energy / clean.lrs_energy
        assert loss <= 0.05
        assert noisy.urs_peak_power <= 2.0 * cfg.gamma
    report(f"angle-error robustness: 1 deg offset loses {100 * loss:.2f}% <= 5%", t, 120.0)


def test_criterion_aoa_separation():
    """Wide separations keep most of the gain; tiny ones collapse or fail.

    The reference level is the coherent alignment bound: the value the
    objective would take with the full N^2 reflection gain on the
    own-echo term and no cap.
    """
    cfg = ScenarioConfig.default().replace(gamma=1e-9)
    base = cfg.geometry
    n = base.irs_spec.size
    with Timer() as t:
        for delta, regime in ((0.1, "wide"), (0.2, "wide"), (0.005, "narrow"), (0.01, "narrow")):
            geom = ScenarioGeometry(
                angles_l=AnglePair(np.pi / 2, np.pi / 2),
                angles_u=AnglePair(np.pi / 2, np.pi / 2 + delta),
                dist_li=base.dist_li,
                dist_ui=base.dist_ui,
                lrs_spec=base.lrs_spec,
                urs_spec=base.urs_spec,
                irs_spec=base.irs_spec,
            )
            comps = tuple(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG")
            q_ls, q_us = irs_received_powers(geom, cfg.timing.lrs.power, cfg.timing.urs.power)
            alignment_bound = q_ls**2 * n**2
            prob = build_problem("P3", (q_ls, q_us), comps, None, cfg.gamma, cfg.p_u_min)
            try:
                res = pdd_solve(prob)
            except Infeasible:
                assert regime == "narrow"
                continue
            assert problem_constraint(prob, res.theta.coefficients) <= cfg.gamma * (1 + 1e-6)
            share = res.objective / alignment_bound
            if regime == "wide":
                assert share >= 0.5
            else:
                assert share <= 0.10
    report("separation trade-off: >= 50% of the alignment bound beyond 0.1 rad, <= 10% under 0.02 rad", t, 120.0)


def test_criterion_closed_form_oracle_equivalence():
    """1000 random draws: closed forms match the matrix-product oracle to 1e-9."""
    rng = np.random.default_rng(23)
    with Timer() as t:
        for _ in range(1000):
            geom = random_geometry(rng)
            theta = random_reflection(rng, geom.irs_spec.size)
            link = ("LL", "LU", "UL", "UU")[int(rng.integers(4))]
            closed = link_power(link, theta, geom, P, P)
            oracle = bilinear_link_power(
                link, theta, geom, P, P,
                nu_l=float(rng.uniform(0, 2 * np.pi)),
                nu_u=float(rng.uniform(0, 2 * np.pi)),
            )
            np.testing.assert_allclose(closed, oracle, rtol=1e-9)
    report("closed-form/oracle equivalence: 1000 random draws within 1e-9 relative", t, 30.0)
