import numpy as np
import pytest
from scipy.integrate import quad

from irsim import PulseSpec, TimingPlan, pulse_sample, segment_pri

US = 1e-6


def plan(t_l=25 * US, t_u=30 * US, lrs_start=0.0, urs_start=0.0, pri=100 * US):
    return TimingPlan(
        pri=pri,
        pulses_per_cpi=10,
        lrs=PulseSpec(0.03, t_l, 100e6, lrs_start),
        urs=PulseSpec(0.03, t_u, 100e6, urs_start),
    )


def test_pulse_outside_support_is_zero():
    spec = PulseSpec(0.03, 25 * US, 100e6, 10 * US)
    assert pulse_sample(spec, 5 * US) == 0
    assert pulse_sample(spec, 40 * US) == 0


def test_pulse_onset_value():
    spec = PulseSpec(0.03, 25 * US, 100e6, 10 * US)
    np.testing.assert_allclose(pulse_sample(spec, 10 * US), np.sqrt(0.03), atol=1e-15)


def test_pulse_vectorized():
    spec = PulseSpec(1.0, 25 * US, 100e6, 0.0)
    t = np.array([-1 * US, 0.0, 10 * US, 30 * US])
    out = pulse_sample(spec, t)
    assert out[0] == 0 and out[3] == 0 and out[1] == 1.0


@pytest.mark.parametrize("bandwidth,duration", [(100e6, 25 * US), (50e6, 30 * US), (0.0, 10 * US)])
def test_chirp_unit_average_power(bandwidth, duration):
    spec = PulseSpec(1.0, duration, bandwidth, 0.0)

    def integrand(t):
        return abs(pulse_sample(spec, t)) ** 2

    val, _ = quad(integrand, 0.0, duration, limit=200)
    np.testing.assert_allclose(val / duration, 1.0, atol=1e-6)


def test_segments_adjacent_pulses():
    t1, t2, t3 = segment_pri(plan(urs_start=25 * US))
    assert t3 == 0.0
    np.testing.assert_allclose((t1, t2), (25 * US, 30 * US), rtol=0, atol=1e-18)


def test_segments_common_start():
    t1, t2, t3 = segment_pri(plan())
    assert t1 == 0.0
    np.testing.assert_allclose((t2, t3), (5 * US, 25 * US), rtol=0, atol=1e-18)


def test_segments_partial_overlap():
    durations = segment_pri(plan(urs_start=10 * US))
    np.testing.assert_allclose(durations, (10 * US, 15 * US, 15 * US), rtol=0, atol=1e-18)


def test_segments_urs_inside_lrs():
    # the longer pulse runs alone before and after the shorter one
    t1, t2, t3 = segment_pri(plan(t_l=30 * US, t_u=10 * US, urs_start=10 * US))
    assert t2 == 0.0
    np.testing.assert_allclose((t1, t3), (20 * US, 10 * US), rtol=0, atol=1e-18)


def test_segment_measure_conservation(rng):
    for _ in range(100):
        pri = 100 * US
        t_l = float(rng.uniform(1, 40)) * US
        t_u = float(rng.uniform(1, 40)) * US
        s_l = float(rng.uniform(0, (100 - 41))) * US
        s_u = float(rng.uniform(0, (100 - 41))) * US
        t1, t2, t3 = segment_pri(plan(t_l=t_l, t_u=t_u, lrs_start=s_l, urs_start=s_u, pri=pri))
        np.testing.assert_allclose(t1 + t3, t_l, atol=1e-18)
        np.testing.assert_allclose(t2 + t3, t_u, atol=1e-18)
        assert 0 <= t3 <= min(t_l, t_u) + 1e-18


def test_plan_rejects_duration_at_pri():
    with pytest.raises(ValueError):
        plan(t_l=100 * US)


def test_plan_rejects_wrap():
    with pytest.raises(ValueError):
        plan(urs_start=90 * US)


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(0.0, 25 * US, 100e6)
    with pytest.raises(ValueError):
        PulseSpec(0.03, -1.0, 100e6)
