"""The three workloads: inputs made from the seed, timed operations, independent checks.

A workload makes its inputs once per run and then runs rounds that repeat
the same operations on them, so a run's failed share does not depend on how
many rounds fit in its time. An operation fails when it raises, when a CLI
run exits nonzero, or when one of its output checks fails.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
import traceback

import numpy as np

import irsim.cli
import irsim.power
import irsim.protocol
from irsim import AnglePair, ArraySpec, PulseSpec, ReflectionVector, ScenarioGeometry, TimingPlan

import physics as ph

P = 0.03  # both transmit powers, watts
COLUMNS = "swept_value,scheme,lrs_power_or_energy,urs_power,feasible,iterations,wall_time"
FLOAT_FIELDS = (0, 2, 3, 6)
OPTIMIZED = ("short_term", "long_term")
LINKS = ("LL", "LU", "UL", "UU")
CAP_RTOL = 1e-6  # the program's stated slack on the power cap
ECHO_RATIO = 1.2  # bare-target echo surface over reflector area, as in the reference scenario


class CheckFailed(Exception):
    """An output disagreed with an independent computation or a required property."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Run:
    """What one run measured: operations attempted and failed, round times, latencies, quality."""

    def __init__(self, tracer=None, before_op=None, clock=None):
        self.tracer = tracer
        self.before_op = before_op  # called before each operation, outside its timing
        self.clock = clock  # a RefClock: also convert each operation's time to the reference speed
        self.attempted = 0
        self.failures: list[str] = []
        self.round_walls: list[float] = []  # timed operations only, per round
        self.op_times: list[list[float]] = []  # per round, every operation's time in order
        self.op_refs: list[list[float]] = []  # the same at the reference speed, when there is a clock
        self.latencies: list[float] = []
        self.gains: list[float] = []
        self.bound_ratios: list[float] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, label: str, call, check):
        """Time ``call()``, then run ``check(output, seconds)``.

        ``check`` returns (latencies, gains, bound ratios) to record, which
        are kept only when every check passed.
        """
        self.attempted += 1
        if self.before_op is not None:
            self.before_op()
        t0 = time.perf_counter()
        try:
            with self.span("bench.op"):
                out = call()
        except Exception as exc:  # the program failed this operation; keep running the rest
            self.failures.append(f"{label}: raised {exc!r} at {_origin(exc)}")
            return None
        finally:
            dt = time.perf_counter() - t0
            self.op_times[-1].append(dt)
            if self.clock is not None:
                self.op_refs[-1].append(self.clock.to_ref(dt))
        try:
            with self.span("bench.check"):
                latencies, gains, ratios = check(out, dt)
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        except Exception as exc:  # output too malformed to check
            self.failures.append(f"{label}: check raised {exc!r} at {_origin(exc)}")
            return None
        self.latencies.extend(latencies)
        self.gains.extend(gains)
        self.bound_ratios.extend(ratios)
        return out

    def round(self, body) -> None:
        self.op_times.append([])
        self.op_refs.append([])
        body()
        self.round_walls.append(sum(self.op_times[-1]))

    def best_round(self) -> float:
        """A round's time with every operation at its fastest repeat in the run.

        Rounds repeat the same operations. On shared cores whose speed
        changes for stretches of seconds, a median over rounds snaps to
        whichever speed held for most of a run, and runs disagree by that
        factor; each operation's fastest repeat lands in a fast stretch in
        most runs.
        """
        return sum(min(times) for times in zip(*self.op_times))

    def ref_round(self) -> float:
        """A round's time at the reference speed: each operation at its median repeat."""
        return sum(statistics.median(refs) for refs in zip(*self.op_refs))


def _origin(exc: Exception) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def to_geometry(scene: ph.Scene) -> ScenarioGeometry:
    def spec(a: ph.Array) -> ArraySpec:
        return ArraySpec(a.count_a, a.count_b, a.spacing, a.wavelength)

    return ScenarioGeometry(
        angles_l=AnglePair(*scene.angles_l),
        angles_u=AnglePair(*scene.angles_u),
        dist_li=scene.dist_l,
        dist_ui=scene.dist_u,
        lrs_spec=spec(scene.lrs),
        urs_spec=spec(scene.urs),
        irs_spec=spec(scene.irs),
    )


def link_levels(scene: ph.Scene) -> dict[str, float]:
    """Coherent (N^2) level of each link power: the scale for near-null comparisons."""
    k_l, k_u = ph.unit_gains(scene)
    n2 = float(scene.irs.size) ** 2
    return {"LL": k_l**2 * P * n2, "LU": k_l * k_u * P * n2, "UL": k_l * k_u * P * n2, "UU": k_u**2 * P * n2}


# ---------------------------------------------------------------------------
# the reference scenario, written out in full so program defaults cannot leak in

REFERENCE = {
    "arrays": {
        "wavelength": 0.2, "lrs_count_y": 64, "lrs_count_z": 1, "urs_count_y": 64,
        "urs_count_z": 1, "irs_count_x": 64, "irs_count_y": 1, "radar_spacing": 0.1,
        "irs_spacing": 0.02, "sensor_count": 15,
    },
    "geometry": {
        "lrs_elevation_deg": 90, "lrs_azimuth_deg": 0, "urs_elevation_deg": 90,
        "urs_azimuth_deg": 30, "lrs_distance": 30, "urs_distance": 20,
    },
    "timing": {
        "pri": 100e-6, "lrs_duration": 25e-6, "urs_duration": 30e-6, "lrs_start": 0,
        "urs_start": 15e-6, "pulses_per_cpi": 10, "bandwidth": 100e6,
    },
    "power": {"p_l": P, "p_u": P, "p_u_min": P, "gamma": 1e-8, "noise_l": 1e-12, "noise_u": 1e-12},
    "protocol": {"mode": "short_term", "step1_pris": 1, "echo_ratio": ECHO_RATIO},
    "error": {"angle_offset_deg": 0, "angle_sigma_deg": 0, "power_rel_error": 0},
    "pdd": {
        "rho0": 1.0, "c": 0.7, "inner_tol": 1e-7, "outer_tol": 1e-6, "max_outer": 50,
        "max_inner": 100, "max_sca": 200,
    },
    "run": {"random_phase_draws": 10000},
}
REF_ARRAY = ph.Array(64, 1, 0.1, 0.2)
REF_IRS = ph.Array(64, 1, 0.02, 0.2)
REF_DURATIONS = ph.case_durations((0.0, 25e-6), (15e-6, 30e-6))
REF_PRIS = 9  # pulses_per_cpi - step1_pris
REF_GAMMA = 1e-8


def reference_scene(angles_l=(np.pi / 2, 0.0), angles_u=(np.pi / 2, np.pi / 6)) -> ph.Scene:
    return ph.Scene(angles_l, angles_u, 30.0, 20.0, REF_ARRAY, REF_ARRAY, REF_IRS)


def write_scenario(path: str, seed: int) -> str:
    lines = []
    for section, values in REFERENCE.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}" for key, value in values.items()]
        if section == "run":
            lines.append(f"seed = {seed}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return path


def read_rows(path: str) -> list[dict]:
    """Parse an emitted CSV, checking the column contract and the 12-digit floats."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    expect(bool(lines) and lines[0] == COLUMNS, f"header {lines[:1]} differs from the column contract")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        expect(len(f) == 7, f"row {line!r} does not have 7 fields")
        for i in FLOAT_FIELDS:
            expect(format(float(f[i]), ".12g") == f[i], f"{f[i]!r} is not written with 12 significant digits")
        expect(f[4] in ("true", "false"), f"feasible field {f[4]!r}")
        rows.append({
            "value": float(f[0]), "scheme": f[1], "lrs": float(f[2]), "urs": float(f[3]),
            "feasible": f[4] == "true", "iterations": int(f[5]), "wall": float(f[6]),
            "key": ",".join(f[:6]),  # everything but wall_time
        })
    return rows


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return irsim.cli.main(argv)


# ---------------------------------------------------------------------------
# figure_sweeps: the cap sweep and an AoA sweep at N=64, through the CLI

AOA_GRID = "0.02,0.2,0.4"  # one narrow separation (the solver's heavy tail) beside two wide ones


class FigureSweeps:
    min_rounds = 2  # the second round checks that a rerun gives identical rows

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.ini = write_scenario(os.path.join(workdir, "scenario.ini"), seed)
        self.first_rows: dict[str, list[str]] = {}

    def round(self, run: Run, r: int) -> None:
        sweeps = (
            ("fig8", ["reproduce", "fig8"], lambda v: reference_scene(), None),
            ("aoa_difference", ["sweep", "--experiment", "aoa_difference", "--grid", AOA_GRID],
             lambda v: reference_scene((np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 2 + v)), REF_GAMMA),
        )
        for name, argv, scene_for, cap in sweeps:
            out = os.path.join(self.workdir, f"{name}-{r}.csv")
            argv = argv + ["--config", self.ini, "--out", out]
            run.op(f"round {r} {name}", lambda: run_cli(argv),
                   lambda rc, dt: self.check(name, rc, out, scene_for, cap))

    def check(self, name, rc, path, scene_for, cap):
        expect(rc == 0, f"exit code {rc}")
        rows = read_rows(path)
        keys = [row["key"] for row in rows]
        first = self.first_rows.setdefault(name, keys)
        expect(keys == first, "rows differ from the first run with the same seed")
        points: dict[float, dict[str, dict]] = {}
        for row in rows:
            points.setdefault(row["value"], {})[row["scheme"]] = row
        latencies, gains, ratios = [], [], []
        for value, by_scheme in points.items():
            expect(set(by_scheme) >= {"random_phase", "no_irs"}, f"point {value}: schemes {sorted(by_scheme)}")
            scene = scene_for(value)
            gamma = value if cap is None else cap
            bound = ph.coherent_energy_bound(scene, P, P, REF_DURATIONS, REF_PRIS)
            bare = REF_PRIS * REFERENCE["timing"]["lrs_duration"] * ph.bare_target_power(scene, P, ECHO_RATIO)
            expect(ph.close(by_scheme["no_irs"]["lrs"], bare, 1e-9),
                   f"point {value}: no_irs energy {by_scheme['no_irs']['lrs']} != radar-range value {bare}")
            rand = by_scheme["random_phase"]["lrs"] / (bound / scene.irs.size)
            expect(abs(rand - 1.0) <= 0.05, f"point {value}: random-phase energy is {rand:.4f} of the N-gain level")
            opt = [by_scheme[s] for s in OPTIMIZED if s in by_scheme]
            expect(bool(opt), f"point {value}: no optimized row")
            for row in opt:
                latencies.append(row["wall"])
                if not row["feasible"]:
                    continue
                expect(row["urs"] <= gamma * (1 + CAP_RTOL), f"point {value} {row['scheme']}: urs_power {row['urs']} above cap {gamma}")
                expect(0 < row["lrs"] <= bound * (1 + 1e-9), f"point {value} {row['scheme']}: energy {row['lrs']} outside (0, {bound}]")
                gains.append(row["lrs"] / by_scheme["no_irs"]["lrs"])
                ratios.append(row["lrs"] / bound)
            if all(s in by_scheme and by_scheme[s]["feasible"] for s in OPTIMIZED):
                expect(by_scheme["short_term"]["lrs"] >= by_scheme["long_term"]["lrs"] * (1 - 1e-9),
                       f"point {value}: short-term energy below long-term")
        if cap is None:  # a cap sweep: energy may not fall as the cap rises
            for scheme in OPTIMIZED:
                feasible = sorted((v, s[scheme]["lrs"]) for v, s in points.items() if s.get(scheme, {}).get("feasible"))
                for (g0, e0), (g1, e1) in zip(feasible, feasible[1:]):
                    expect(e1 >= e0 * (1 - 1e-11), f"{scheme}: energy falls from {e0} to {e1} as the cap rises {g0} -> {g1}")
        return latencies, gains, ratios


# ---------------------------------------------------------------------------
# cpi_draws: many small random scenarios, a short-term and a long-term CPI each

DESIGN_SEED = 20230805  # the design is part of the benchmark; the run seed only jitters it
DESIGN_SIZE = 16
FULL_OVERLAP_EVERY = 8  # every eighth draw has fully overlapping pulses
JITTER = 1e-4  # radians on angles, relative on distances and cap, x 50 us on the URS start
SMALL = ph.Array(16, 1, 0.1, 0.2)
SMALL_IRS = ph.Array(16, 1, 0.02, 0.2)
CPI_PRIS = 2  # 3 pulses per CPI, one of them sensing


def _latin_hypercube(rng, count: int, dims: int) -> np.ndarray:
    return (np.argsort(rng.random((dims, count)), axis=1).T + rng.random((count, dims))) / count


DESIGN = _latin_hypercube(np.random.default_rng(DESIGN_SEED), DESIGN_SIZE, 8)


def principal_cap(scene: ph.Scene) -> float:
    """Cap value of the overlapped-case problem at the principal-direction reflection."""
    k_l, k_u = ph.unit_gains(scene)
    q_ls, q_us = k_l * P, k_u * P
    theta = np.exp(1j * np.angle(ph.composite(scene, "U")))
    h1 = q_us / np.sqrt(P) * ph.composite(scene, "G")
    h2 = np.sqrt(q_ls * q_us / P) * ph.composite(scene, "V")
    return float(abs(np.vdot(h1, theta)) ** 2 + abs(np.vdot(h2, theta)) ** 2)


class CpiDraws:
    """Draws follow the make-up of the energy-ordering criterion.

    Elevations 0.2..pi/2, azimuths over the circle, distances 15..60 m, a URS
    pulse start of 0..60 us, a cap of 0.05..2.0 times the principal-direction
    cap value, and full-overlap draws at 0.3 times it. The draws are a fixed
    Latin-hypercube design that the run seed jitters, so runs solve distinct
    instances while the cost mix, and with it the run-to-run spread, stays
    steady. Every round solves the same draws.
    """

    min_rounds = 3  # each CPI counts at its median repeat, which needs three

    def __init__(self, workdir: str, seed: int):
        jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, DESIGN.shape)
        self.draws = []
        for i, (x, j) in enumerate(zip(DESIGN, jitter)):
            full = i % FULL_OVERLAP_EVERY == FULL_OVERLAP_EVERY - 1
            scene, lrs, urs, gamma = self.draw(x, j, full)
            plan = TimingPlan(pri=100e-6, pulses_per_cpi=3,
                              lrs=PulseSpec(P, lrs[1], 100e6, lrs[0]),
                              urs=PulseSpec(P, urs[1], 100e6, urs[0]))
            ctx = (scene, ph.case_durations(lrs, urs), gamma, lrs[1])
            self.draws.append((full, to_geometry(scene), plan, gamma, ctx))

    @staticmethod
    def draw(x: np.ndarray, j: np.ndarray, full_overlap: bool):
        lo, hi = 0.2, np.pi / 2
        elev = lambda t, d: float(np.clip(lo + t * (hi - lo) + JITTER * d, lo, hi))
        azim = lambda t, d: float(-np.pi + 2 * np.pi * t + JITTER * d)
        scene = ph.Scene(
            (elev(x[0], j[0]), azim(x[1], j[1])), (elev(x[2], j[2]), azim(x[3], j[3])),
            (15 + 45 * x[4]) * (1 + JITTER * j[4]), (15 + 45 * x[5]) * (1 + JITTER * j[5]),
            SMALL, SMALL, SMALL_IRS,
        )
        if full_overlap:
            lrs, urs, frac = (0.0, 30e-6), (0.0, 30e-6), 0.3
        else:
            lrs = (0.0, 25e-6)
            urs = (float(np.clip(60e-6 * x[6] + 50e-6 * JITTER * j[6], 0.0, 60e-6)), 30e-6)
            frac = 0.05 + 1.95 * x[7]
        gamma = max(principal_cap(scene) * frac * (1 + JITTER * j[7]), 1e-30)
        return scene, lrs, urs, gamma

    def round(self, run: Run, r: int) -> None:
        for i, (full, geom, plan, gamma, ctx) in enumerate(self.draws):
            short = run.op(f"round {r} draw {i} short_term",
                           lambda: irsim.protocol.run_cpi(geom, plan, "short_term", gamma, P, P),
                           lambda res, dt: self.check(res, dt, "short_term", ctx))
            run.op(f"round {r} draw {i} long_term",
                   lambda: irsim.protocol.run_cpi(geom, plan, "long_term", gamma, P, P),
                   lambda res, dt: self.check(res, dt, "long_term", ctx, short, full))

    def check(self, res, dt, variant, ctx, short=None, full=False):
        scene, durations, gamma, lrs_duration = ctx
        refl = res.mode.reflections
        expect(res.mode.variant == variant and len(refl) == (3 if variant == "short_term" else 1),
               f"mode {res.mode.variant} with {len(refl)} reflections")
        for th in refl:
            mod = np.abs(th.coefficients)
            if res.feasible:
                expect(float(np.max(np.abs(mod - 1.0))) <= 1e-12, f"reflection off unit modulus by {np.max(np.abs(mod - 1.0)):.3g}")
            else:
                expect(not np.any(th.amplitudes), "infeasible CPI left reflector elements on")
        c1, c2, c3 = (th.coefficients for th in (refl if len(refl) == 3 else refl * 3))
        fp = ph.FullProduct(scene, P, P)
        floor = 1e-6 * max(link_levels(scene).values())  # near-null powers: compare on this scale
        own = {
            "q_ll": fp.power("LL", c1)[0], "q_lu": fp.power("LU", c1)[0],
            "q_ul": fp.power("UL", c2)[0], "q_uu": fp.power("UU", c2)[0],
            "q_ol": fp.power("LL", c3)[0] + fp.power("UL", c3)[0],
            "q_ou": fp.power("LU", c3)[0] + fp.power("UU", c3)[0],
        }
        for name, value in own.items():
            got = getattr(res.powers, name)
            expect(ph.close(got, value, 1e-9, floor),
                   f"{name} {got} != full-product {value}")
        k_l, k_u = ph.unit_gains(scene)
        expect(ph.close(res.powers.q_ls, k_l * P, 1e-9) and ph.close(res.powers.q_us, k_u * P, 1e-9), "reflector input powers")
        t1, t2, t3 = durations
        energy = CPI_PRIS * (t1 * own["q_ll"] + t2 * own["q_ul"] + t3 * own["q_ol"])
        expect(ph.close(res.lrs_energy, energy, 1e-9), f"lrs_energy {res.lrs_energy} != recomputed {energy}")
        peaks = [p for t, p in ((t1, own["q_lu"]), (t2, own["q_uu"]), (t3, own["q_ou"])) if t > 0]
        expect(ph.close(res.urs_peak_power, max(peaks), 1e-9, floor), "urs_peak_power != recomputed peak")
        if res.feasible:
            expect(res.urs_peak_power <= gamma * (1 + CAP_RTOL), f"urs_peak_power {res.urs_peak_power} above cap {gamma}")
        bound = ph.coherent_energy_bound(scene, P, P, durations, CPI_PRIS)
        expect(res.lrs_energy <= bound * (1 + 1e-9), f"energy {res.lrs_energy} above the coherent bound {bound}")
        if short is not None:
            expect(short.lrs_energy >= res.lrs_energy * (1 - 1e-9),
                   f"short-term energy {short.lrs_energy} below long-term {res.lrs_energy}")
            if full:
                expect(ph.close(short.lrs_energy, res.lrs_energy, 1e-6), "full overlap: short-term and long-term energies differ")
        if variant != "short_term" or not res.feasible:
            return [dt], [], []
        bare = CPI_PRIS * lrs_duration * ph.bare_target_power(scene, P, ECHO_RATIO)
        return [dt], [res.lrs_energy / bare], [res.lrs_energy / bound]


# ---------------------------------------------------------------------------
# power_eval: closed-form power evaluation, beam scans and the random-phase baseline

SHAPES = ((16, 1, 16), (64, 1, 64), (8, 8, 64), (16, 16, 64))  # reflector axes, radar elements
ITEMS_PER_SHAPE = 40


class PowerEval:
    min_rounds = 1

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.workdir = workdir
        self.ini = write_scenario(os.path.join(workdir, "scenario.ini"), seed)
        rng = np.random.default_rng(seed)
        self.items = []
        for nx, ny, m in SHAPES:
            irs, radar = ph.Array(nx, ny, 0.02, 0.2), ph.Array(m, 1, 0.1, 0.2)
            for _ in range(ITEMS_PER_SHAPE):
                scene = self.random_scene(rng, irs, radar)
                theta = ReflectionVector.on(rng.uniform(0.0, 2 * np.pi, irs.size))
                self.items.append((scene, to_geometry(scene), theta))
        self.rp_scene = self.random_scene(rng, REF_IRS, REF_ARRAY)
        self.rp_geom = to_geometry(self.rp_scene)

    @staticmethod
    def random_scene(rng, irs: ph.Array, radar: ph.Array) -> ph.Scene:
        def angles():
            return float(rng.uniform(0.05, np.pi - 0.05)), float(rng.uniform(-np.pi, np.pi))

        return ph.Scene(angles(), angles(), float(rng.uniform(10, 100)), float(rng.uniform(10, 100)), radar, radar, irs)

    def round(self, run: Run, r: int) -> None:
        for i, (scene, geom, theta) in enumerate(self.items):
            run.op(f"round {r} item {i} (N={scene.irs.size})", lambda: self.evaluate(geom, theta),
                   lambda out, dt: self.check_item(out, dt, scene, geom, theta))
        run.op(f"round {r} random_phase_baseline",
               lambda: irsim.protocol.random_phase_baseline(
                   self.rp_geom, np.random.default_rng([self.seed, 1]), 10000, P, P),
               lambda rep, dt: self.check_random_phase(rep, self.rp_scene))
        for fig, check in (("fig6", self.check_fig6), ("fig7", self.check_fig7)):
            out = os.path.join(self.workdir, f"{fig}-{r}.csv")
            run.op(f"round {r} {fig}", lambda: run_cli(["reproduce", fig, "--config", self.ini, "--out", out]),
                   lambda rc, dt: check(rc, out))

    @staticmethod
    def evaluate(geom, theta):
        powers = [irsim.power.link_power(link, theta, geom, P, P) for link in LINKS]
        return powers, irsim.power.power_report(theta, geom, P, P)

    @staticmethod
    def check_item(out, dt, scene, geom, theta):
        powers, rep = out
        fp = ph.FullProduct(scene, P, P)
        level = link_levels(scene)
        for link, got in zip(LINKS, powers):
            own = fp.power(link, theta.coefficients)[0]
            expect(ph.close(got, own, 1e-9, 1e-9 * level[link]), f"{link}: closed form {got} != full product {own}")
            guard = irsim.power.bilinear_link_power(link, theta, geom, P, P)
            expect(ph.close(got, guard, 1e-9, 1e-9 * level[link]), f"{link}: closed form {got} != guard path {guard}")
        q_ll, q_lu, q_ul, q_uu = powers
        for name, want in (("q_ll", q_ll), ("q_lu", q_lu), ("q_ul", q_ul), ("q_uu", q_uu),
                           ("q_ol", q_ll + q_ul), ("q_ou", q_lu + q_uu)):
            expect(ph.close(getattr(rep, name), want, 1e-12), f"power_report {name} {getattr(rep, name)} != link_power {want}")
        k_l, k_u = ph.unit_gains(scene)
        expect(ph.close(rep.q_ls, k_l * P, 1e-9) and ph.close(rep.q_us, k_u * P, 1e-9), "reflector input powers")
        return [dt], [], []

    @staticmethod
    def check_random_phase(rep, scene):
        k_l, k_u = ph.unit_gains(scene)
        q_ls, q_us = k_l * P, k_u * P
        expect(ph.close(rep.q_ls, q_ls, 1e-9) and ph.close(rep.q_us, q_us, 1e-9), "reflector input powers")
        n = scene.irs.size
        gains = {
            "U": rep.q_ll * P / q_ls**2, "V": rep.q_lu * P / (q_ls * q_us),
            "R": rep.q_ul * P / (q_ls * q_us), "G": rep.q_uu * P / q_us**2,
        }
        for kind, gain in gains.items():
            expect(abs(gain / n - 1.0) <= 0.05, f"mean random-phase gain {kind} = {gain:.2f}, not within 5% of N={n}")
        return [], [], []

    def scan_rows(self, rc, path, zeta):
        """Rows of a beam scan at the DFT beam nearest to ``zeta``."""
        expect(rc == 0, f"exit code {rc}")
        rows = read_rows(path)
        nearest = min({row["value"] for row in rows}, key=lambda v: abs(v - zeta))
        expect(abs(nearest - zeta) < 1e-9, f"no beam at direction cosine {zeta}")
        return rows, {row["scheme"]: row for row in rows if row["value"] == nearest}

    def check_fig6(self, rc, path):
        scene = reference_scene()
        coherent = link_levels(scene)["LL"]
        rows, matched = self.scan_rows(rc, path, 0.0)  # the LRS sits at broadside of its array
        for row in rows:
            if row["scheme"] == "proposed":
                expect(row["lrs"] <= coherent * (1 + 1e-9), f"beam {row['value']}: {row['lrs']} above the coherent level")
        got = matched["proposed"]["lrs"]
        expect(ph.close(got, coherent, 1e-9), f"matched-beam LRS power {got} != coherent N^2 level {coherent}")
        return [], [got / matched["no_irs"]["lrs"]], [got / coherent]

    def check_fig7(self, rc, path):
        _, matched = self.scan_rows(rc, path, 0.5)  # sin(30 deg): the URS direction cosine
        expect(matched["proposed"]["urs"] < matched["random_phase"]["urs"],
               "the designed null does not suppress the URS echo below random phases")
        return [], [], []


WORKLOADS = {"figure_sweeps": FigureSweeps, "cpi_draws": CpiDraws, "power_eval": PowerEval}
