import random

import pytest

from ftsim.energy import (
    FrequencyLevel,
    PhaseEstimate,
    SystemProfile,
    WaitAction,
    WaitMode,
    WaitTooShort,
    awake_wait_energy,
    compute_phase_energy,
    node_best_plan,
    sleep_feasible,
    sleep_wait_energy,
)

# Measured levels of the reference node: 2.8 down to 1.2 GHz.
LEVELS = (
    FrequencyLevel(2.8, 166.0, 1.0, 150.0, 1.0),
    FrequencyLevel(2.1, 148.0, 1.2, 142.0, 1.1),
    FrequencyLevel(1.7, 139.0, 1.5, 131.0, 1.2),
    FrequencyLevel(1.2, 126.0, 2.1, 125.0, 1.4),
)

PROFILE = SystemProfile(freqs=LEVELS)


def default_estimate(t_comp_fmax, window, n_ckpt=0, t_ckpt=120.0):
    return PhaseEstimate(
        node=1, t_comp_fmax=t_comp_fmax, window=window, n_ckpt=n_ckpt, t_ckpt=t_ckpt
    )


@pytest.mark.parametrize("order", [LEVELS[::-1], (LEVELS[0], LEVELS[1], LEVELS[1], LEVELS[3])])
def test_a_profile_needs_strictly_descending_ghz(order):
    """Two levels of one GHz would share a name in the report and the trace."""
    with pytest.raises(ValueError, match="^frequency table must be ordered by strictly descending GHz$"):
        SystemProfile(freqs=order)


def test_t_comp_scaling():
    # with no checkpoint in the phase, its duration is the slowed compute alone
    est = default_estimate(600.0, 1000.0)
    assert est.phase(PROFILE.f_max) == 600.0
    est2 = default_estimate(603.5, 1000.0)
    assert est2.phase(PROFILE.freqs[1]) == pytest.approx(724.2)
    est3 = default_estimate(100.0, 1000.0)
    assert est3.phase(PROFILE.freqs[3]) == pytest.approx(210.0)


def test_compute_phase_energy():
    assert compute_phase_energy(PROFILE.f_max, default_estimate(60.0, 100.0)) == 9960.0
    est = default_estimate(0.0, 400.0, n_ckpt=1)
    assert compute_phase_energy(PROFILE.freqs[3], est) == pytest.approx(21000.0)
    assert compute_phase_energy(PROFILE.freqs[2], default_estimate(0.0, 10.0)) == 0.0


def test_awake_wait_energy():
    assert awake_wait_energy(PROFILE.freqs[3], 300.0, WaitMode.ACTIVE, PROFILE) == 37800.0
    assert awake_wait_energy(PROFILE.freqs[2], 300.0, WaitMode.IDLE, PROFILE) == 18000.0
    assert awake_wait_energy(PROFILE.f_max, 0.0, WaitMode.ACTIVE, PROFILE) == 0.0


def test_sleep_wait_energy():
    assert sleep_wait_energy(300.0, PROFILE) == pytest.approx(4970.0, rel=1e-6)
    assert sleep_wait_energy(30.0, PROFILE) == pytest.approx(1730.0)
    with pytest.raises(WaitTooShort):
        sleep_wait_energy(20.0, PROFILE)


def test_sleep_energy_slope_is_sleep_power():
    e1 = sleep_wait_energy(100.0, PROFILE)
    e2 = sleep_wait_energy(101.0, PROFILE)
    assert e2 - e1 == pytest.approx(PROFILE.p_sleep)


def test_sleep_feasible():
    assert sleep_feasible(300.0, WaitMode.ACTIVE, PROFILE) is True
    assert sleep_feasible(50.0, WaitMode.ACTIVE, PROFILE) is False
    assert sleep_feasible(0.0, WaitMode.ACTIVE, PROFILE) is False


def test_zero_wait_means_no_action():
    est = default_estimate(100.0, 100.0)
    plan = node_best_plan(est, PROFILE, WaitMode.ACTIVE, set(PROFILE.freqs))
    assert plan.compute_action.ghz == 2.8
    assert plan.wait_action is WaitAction.NONE
    assert plan.saving_j == 0.0


def brute_force_plan(est, profile, mode):
    """Exhaustive enumeration over (frequency, wait action), kept independent
    of the selector's helper functions and of the estimate's methods."""
    fmin = profile.freqs[-1]
    candidates = []
    for f in profile.freqs:
        phase = est.t_comp_fmax * f.beta + est.n_ckpt * est.t_ckpt * f.gamma
        if phase > est.window and f is not profile.freqs[0]:
            continue
        wait = max(0.0, est.window - phase)
        comp_e = est.t_comp_fmax * f.beta * f.p_comp + est.n_ckpt * (
            est.t_ckpt * f.gamma
        ) * f.p_ckpt
        options = {}
        if mode is WaitMode.ACTIVE:
            pa = f.p_comp if f.p_active_wait is None else f.p_active_wait
            pa_min = fmin.p_comp if fmin.p_active_wait is None else fmin.p_active_wait
            options[WaitAction.NONE] = wait * pa
            options[WaitAction.MIN_FREQ] = wait * pa_min
            awake_min = wait * pa_min
        else:
            options[WaitAction.NONE] = wait * profile.p_idle_wait
            awake_min = wait * profile.p_idle_wait
        transitions = profile.t_go_sleep + profile.t_wakeup
        if wait > profile.mu1 * transitions:
            sleep_e = (
                profile.t_go_sleep * profile.p_go_sleep
                + (wait - transitions) * profile.p_sleep
                + profile.t_wakeup * profile.p_wakeup
            )
            if sleep_e < profile.mu2 * awake_min:
                options[WaitAction.SLEEP] = sleep_e
        rank = {WaitAction.NONE: 0, WaitAction.MIN_FREQ: 1, WaitAction.SLEEP: 2}
        for action, wait_e in options.items():
            candidates.append((comp_e + wait_e, -f.ghz, rank[action], f, action))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    return candidates[0]


def random_profile(rng):
    """A random profile and a random checkpoint duration, drawn last."""
    n = rng.randint(2, 5)
    ghz = sorted((rng.uniform(0.8, 3.5) for _ in range(n)), reverse=True)
    betas = sorted(rng.uniform(1.0, 3.0) for _ in range(n))
    gammas = sorted(rng.uniform(1.0, 2.0) for _ in range(n))
    betas[0] = gammas[0] = 1.0
    levels = tuple(
        FrequencyLevel(
            ghz=g,
            p_comp=rng.uniform(90, 220),
            beta=b,
            p_ckpt=rng.uniform(80, 200),
            gamma=c,
            p_active_wait=rng.uniform(60, 200) if rng.random() < 0.5 else None,
        )
        for g, b, c in zip(ghz, betas, gammas)
    )
    profile = SystemProfile(
        freqs=levels,
        t_go_sleep=rng.uniform(5, 60),
        t_wakeup=rng.uniform(2, 20),
        p_go_sleep=rng.uniform(30, 90),
        p_wakeup=rng.uniform(50, 120),
        p_sleep=rng.uniform(3, 25),
        p_idle_wait=rng.uniform(40, 80),
        mu1=rng.uniform(1.0, 8.0),
        mu2=rng.uniform(0.3, 1.0),
    )
    return profile, rng.uniform(30, 300)


def test_oracle_equivalence_randomized():
    rng = random.Random(20240811)
    mismatches = 0
    for _ in range(1200):
        profile, t_ckpt = random_profile(rng)
        t_fmax = rng.uniform(0, 2000)
        n_ckpt = rng.choice([0, 0, 0, 1, 1, 2])
        base = t_fmax + n_ckpt * t_ckpt
        window = base + rng.uniform(0, 4000)
        mode = rng.choice([WaitMode.ACTIVE, WaitMode.IDLE])
        est = default_estimate(t_fmax, window, n_ckpt=n_ckpt, t_ckpt=t_ckpt)
        plan = node_best_plan(est, profile, mode, set(profile.freqs))
        ei, _, _, f, action = brute_force_plan(est, profile, mode)
        if (plan.compute_action.ghz, plan.wait_action) != (f.ghz, action):
            mismatches += 1
        assert plan.ei_j == pytest.approx(ei, rel=1e-12)
        assert plan.saving_j >= 0.0
    assert mismatches == 0


def test_sleep_dominates_when_feasible():
    rng = random.Random(99)
    for _ in range(500):
        profile, _ = random_profile(rng)
        est = default_estimate(rng.uniform(0, 500), rng.uniform(500, 5000))
        mode = rng.choice([WaitMode.ACTIVE, WaitMode.IDLE])
        plan = node_best_plan(est, profile, mode, set(profile.freqs))
        if sleep_feasible(plan.t_wait, mode, profile):
            assert plan.wait_action is WaitAction.SLEEP


def test_compute_wait_trade_identity():
    fitting = 0
    for n_ckpt in (0, 1, 2):
        for window in (803.4, 1203.4):
            est = default_estimate(603.5, window, n_ckpt=n_ckpt)
            for f in PROFILE.freqs:
                phase = est.t_comp_fmax * f.beta + n_ckpt * 120.0 * f.gamma
                assert est.phase(f) == phase
                if phase <= window:
                    fitting += 1
                    assert est.phase(f) + est.wait(f) == pytest.approx(window, rel=1e-9)
                else:
                    assert est.wait(f) == 0.0
    assert fitting == 12
