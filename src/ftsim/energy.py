"""Energy model and per-node strategy selection.

Given the estimated compute and waiting phases of a surviving node, evaluate
every available clock frequency for the compute phase and the awake/sleep
options for the waiting phase, and pick the cheapest combination that does
not extend the application's completion time.

All energies are piecewise-constant power times duration, in joules, carried
in double precision; rounding happens only at report time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class UnknownFrequency(KeyError):
    """Frequency not present in the system profile."""


class WaitTooShort(ValueError):
    """Wait shorter than the sleep plus wake transition time."""


class WaitMode(enum.Enum):
    ACTIVE = "active"
    IDLE = "idle"


class WaitAction(enum.Enum):
    NONE = "none"
    MIN_FREQ = "min_freq"
    SLEEP = "sleep"


#: Preference order when energies tie: less intervention wins.
_ACTION_RANK = {WaitAction.NONE: 0, WaitAction.MIN_FREQ: 1, WaitAction.SLEEP: 2}


@dataclass(frozen=True)
class FrequencyLevel:
    """One P-state row: application and checkpoint power plus slowdowns."""

    ghz: float
    p_comp: float
    beta: float
    p_ckpt: float
    gamma: float
    p_active_wait: float | None = None

    @property
    def active_wait_power(self) -> float:
        # Busy polling dissipates application-level power unless the profile
        # carries a measured value for this frequency.
        return self.p_comp if self.p_active_wait is None else self.p_active_wait


@dataclass(frozen=True)
class SystemProfile:
    """Node-level energy constants and the frequency table (descending GHz)."""

    freqs: tuple[FrequencyLevel, ...]
    t_go_sleep: float = 25.0
    t_wakeup: float = 5.0
    p_go_sleep: float = 51.0
    p_wakeup: float = 91.0
    p_sleep: float = 12.0
    p_idle_wait: float = 60.0
    mu1: float = 2.0
    mu2: float = 0.9
    t_ckpt: float = 120.0

    def __post_init__(self) -> None:
        if not self.freqs:
            raise ValueError("profile needs at least one frequency level")
        ghz = [f.ghz for f in self.freqs]
        if ghz != sorted(ghz, reverse=True):
            raise ValueError("frequency table must be ordered by descending GHz")

    @property
    def f_max(self) -> FrequencyLevel:
        return self.freqs[0]

    @property
    def f_min(self) -> FrequencyLevel:
        return self.freqs[-1]

    def level(self, ghz: float) -> FrequencyLevel:
        for f in self.freqs:
            if f.ghz == ghz:
                return f
        raise UnknownFrequency(f"{ghz} GHz not in profile")


@dataclass(frozen=True)
class PhaseEstimate:
    """Phases of one surviving node's intervention interval.

    ``t_comp_fmax`` is the pure compute time at the maximum frequency;
    ``wait_at`` maps each frequency to the wait remaining when the compute
    phase runs at that frequency; ``reference_end`` is the absolute end of
    the waiting phase in the no-intervention case.
    """

    node: int
    t_comp_fmax: float
    wait_at: dict[float, float]
    n_ckpt: int = 0
    reference_end: float = 0.0
    phase_start: float = 0.0

    def window(self, profile: SystemProfile) -> float:
        """Duration of the whole intervention interval."""
        fmax = profile.f_max
        return (
            self.t_comp_fmax
            + self.n_ckpt * profile.t_ckpt * fmax.gamma
            + self.wait_at[fmax.ghz]
        )


@dataclass(frozen=True)
class NodePlan:
    node: int
    compute_action: FrequencyLevel
    wait_action: WaitAction
    eni_j: float
    ei_j: float
    saving_j: float
    t_comp: float
    t_wait: float
    tt: float

    @property
    def rate_j_s(self) -> float:
        return self.saving_j / self.tt if self.tt > 0 else 0.0

    @property
    def saving_pct(self) -> float:
        return 100.0 * self.saving_j / self.eni_j if self.eni_j > 0 else 0.0


def t_comp(f: FrequencyLevel, est: PhaseEstimate) -> float:
    """Compute-phase duration at frequency f (slowdown-scaled)."""
    return est.t_comp_fmax * f.beta


def compute_phase_energy(f: FrequencyLevel, est: PhaseEstimate, profile: SystemProfile) -> float:
    """Compute-phase energy: slowed compute plus any checkpoints in the phase."""
    return t_comp(f, est) * f.p_comp + est.n_ckpt * (profile.t_ckpt * f.gamma) * f.p_ckpt


def awake_wait_energy(
    f: FrequencyLevel, t_wait: float, mode: WaitMode, profile: SystemProfile
) -> float:
    """Energy of an awake wait: busy polling at f, or near-base idle power."""
    if t_wait < 0:
        raise ValueError("negative wait")
    if mode is WaitMode.ACTIVE:
        return t_wait * f.active_wait_power
    return t_wait * profile.p_idle_wait


def sleep_wait_energy(t_wait: float, profile: SystemProfile) -> float:
    """Energy of sleeping through a wait, including both transitions."""
    transitions = profile.t_go_sleep + profile.t_wakeup
    if t_wait < transitions:
        raise WaitTooShort(f"wait {t_wait} s shorter than transitions {transitions} s")
    t_sleep = t_wait - transitions
    return (
        profile.t_go_sleep * profile.p_go_sleep
        + t_sleep * profile.p_sleep
        + profile.t_wakeup * profile.p_wakeup
    )


def sleep_feasible(
    f: FrequencyLevel, t_wait: float, mode: WaitMode, profile: SystemProfile
) -> bool:
    """Whether sleeping the node through a wait of t_wait is worthwhile.

    The wait must exceed the transition time by the factor mu1, and sleeping
    must beat the cheapest awake alternative (minimum-frequency polling for
    active waits, idle power otherwise) by the factor mu2.
    """
    if t_wait <= profile.mu1 * (profile.t_go_sleep + profile.t_wakeup):
        return False
    awake = awake_wait_energy(profile.f_min, t_wait, mode, profile)
    return sleep_wait_energy(t_wait, profile) < profile.mu2 * awake


def _wait_options(
    f: FrequencyLevel, t_wait: float, mode: WaitMode, profile: SystemProfile
) -> list[tuple[float, WaitAction]]:
    options = [(awake_wait_energy(f, t_wait, mode, profile), WaitAction.NONE)]
    if mode is WaitMode.ACTIVE:
        options.append(
            (awake_wait_energy(profile.f_min, t_wait, mode, profile), WaitAction.MIN_FREQ)
        )
    if sleep_feasible(f, t_wait, mode, profile):
        options.append((sleep_wait_energy(t_wait, profile), WaitAction.SLEEP))
    return options


def node_best_plan(
    est: PhaseEstimate,
    profile: SystemProfile,
    mode: WaitMode,
    allowed: set[float] | None = None,
) -> NodePlan:
    """Minimum-energy plan for one node that never delays the block release.

    Every frequency whose slowed compute phase still fits inside the
    intervention window is a candidate; for each, the waiting phase may stay
    untouched, poll at the minimum frequency (active waits only), or sleep
    when feasible. Ties prefer higher frequency, then less intervention.
    ``allowed`` optionally restricts the candidate compute frequencies; the
    maximum frequency is always admissible.
    """
    fmax = profile.f_max
    window = est.window(profile)

    eni = compute_phase_energy(fmax, est, profile) + awake_wait_energy(
        fmax, est.wait_at[fmax.ghz], mode, profile
    )

    best_key: tuple[float, float, int] | None = None
    best: tuple[float, float, WaitAction, FrequencyLevel, float] | None = None
    for f in profile.freqs:
        phase = t_comp(f, est) + est.n_ckpt * profile.t_ckpt * f.gamma
        if phase > window and f is not fmax:
            continue
        if allowed is not None and f is not fmax and f.ghz not in allowed:
            continue
        t_wait = est.wait_at[f.ghz]
        for wait_energy, action in _wait_options(f, t_wait, mode, profile):
            ei = compute_phase_energy(f, est, profile) + wait_energy
            key = (ei, -f.ghz, _ACTION_RANK[action])
            if best_key is None or key < best_key:
                best_key = key
                best = (ei, phase, action, f, t_wait)

    assert best is not None
    ei, phase, action, f, t_wait = best
    saving = eni - ei
    return NodePlan(
        node=est.node,
        compute_action=f,
        wait_action=action,
        eni_j=eni,
        ei_j=ei,
        saving_j=saving,
        t_comp=phase,
        t_wait=t_wait,
        tt=phase + t_wait,
    )
