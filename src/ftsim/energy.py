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
from itertools import pairwise


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


def ghz_name(ghz: float) -> str:
    """A frequency as flags and reports name it: ``f"{ghz:g}"`` when that
    reads back as ``ghz``, else the exact ``repr``, so two levels never
    share a name."""
    short = f"{ghz:g}"
    return short if float(short) == ghz else repr(ghz)


@dataclass(frozen=True)
class FrequencyLevel:
    """One P-state row: application and checkpoint power plus slowdowns."""

    ghz: float
    p_comp: float
    beta: float
    p_ckpt: float
    gamma: float
    p_active_wait: float | None = None

    def checkpoint_time(self, duration: float) -> float:
        """The one checkpoint length: ``duration`` at f_max, taken at this level."""
        return duration * self.gamma

    @property
    def active_wait_power(self) -> float:
        # Busy polling dissipates application-level power unless the profile
        # carries a measured value for this frequency.
        return self.p_comp if self.p_active_wait is None else self.p_active_wait


@dataclass(frozen=True)
class SystemProfile:
    """Node-level energy constants and the frequency table (strictly
    descending GHz), checked as they are built."""

    freqs: tuple[FrequencyLevel, ...]
    t_go_sleep: float = 25.0
    t_wakeup: float = 5.0
    p_go_sleep: float = 51.0
    p_wakeup: float = 91.0
    p_sleep: float = 12.0
    p_idle_wait: float = 60.0
    mu1: float = 2.0
    mu2: float = 0.9

    def __post_init__(self) -> None:
        if not self.freqs:
            raise ValueError("profile needs at least one frequency level")
        # strictly: a level is named by its GHz, so two rows of one GHz would share a name
        if any(a.ghz <= b.ghz for a, b in pairwise(self.freqs)):
            raise ValueError("frequency table must be ordered by strictly descending GHz")
        if self.f_max.beta != 1.0 or self.f_max.gamma != 1.0:
            raise ValueError("maximum-frequency row must have beta = gamma = 1")
        if any(b.beta < a.beta or b.gamma < a.gamma for a, b in pairwise(self.freqs)):
            raise ValueError("beta and gamma must not decrease as GHz decreases")
        if not (self.mu1 >= 1.0):
            raise ValueError("mu1 must be >= 1")
        if not (0 < self.mu2 <= 1.0):
            raise ValueError("mu2 must be in (0, 1]")

    @property
    def f_max(self) -> FrequencyLevel:
        return self.freqs[0]

    @property
    def f_min(self) -> FrequencyLevel:
        return self.freqs[-1]


@dataclass(frozen=True)
class PhaseEstimate:
    """One surviving node's intervention interval: ``window`` seconds from the
    failure to the reference block release, split into a compute phase
    (``t_comp_fmax`` of pure compute at the maximum frequency plus ``n_ckpt``
    checkpoints of ``t_ckpt``, both scaled by the running frequency's
    slowdowns) and a waiting phase that fills the rest."""

    node: int
    t_comp_fmax: float
    window: float
    n_ckpt: int = 0
    t_ckpt: float = 0.0

    def compute_time(self, f: FrequencyLevel) -> float:
        """The pure compute of the phase at frequency f."""
        return self.t_comp_fmax * f.beta

    def ckpt_time(self, f: FrequencyLevel) -> float:
        """The checkpoints of the phase at frequency f."""
        return self.n_ckpt * f.checkpoint_time(self.t_ckpt)

    def phase(self, f: FrequencyLevel) -> float:
        """Compute-phase duration at frequency f: slowed compute plus checkpoints."""
        return self.compute_time(f) + self.ckpt_time(f)

    def wait(self, f: FrequencyLevel) -> float:
        """Wait left in the window after the compute phase at frequency f."""
        return max(0.0, self.window - self.phase(f))


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


def compute_phase_energy(f: FrequencyLevel, est: PhaseEstimate) -> float:
    """Compute-phase energy: slowed compute plus any checkpoints in the phase."""
    return est.compute_time(f) * f.p_comp + est.ckpt_time(f) * f.p_ckpt


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


def sleep_feasible(t_wait: float, mode: WaitMode, profile: SystemProfile) -> bool:
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
    if sleep_feasible(t_wait, mode, profile):
        options.append((sleep_wait_energy(t_wait, profile), WaitAction.SLEEP))
    return options


def node_best_plan(
    est: PhaseEstimate,
    profile: SystemProfile,
    mode: WaitMode,
    allowed: set[FrequencyLevel],
) -> NodePlan:
    """Minimum-energy plan for one node that never delays the block release.

    Every frequency whose slowed compute phase still fits inside the
    intervention window is a candidate; for each, the waiting phase may stay
    untouched, poll at the minimum frequency (active waits only), or sleep
    when feasible. Ties prefer higher frequency, then less intervention.
    ``allowed`` holds the admissible levels of ``profile.freqs``; the
    maximum frequency is admissible whether it is there or not.
    """
    fmax = profile.f_max
    eni = compute_phase_energy(fmax, est) + awake_wait_energy(fmax, est.wait(fmax), mode, profile)

    best_key: tuple[float, float, int] | None = None
    best: tuple[float, float, WaitAction, FrequencyLevel, float] | None = None
    for f in profile.freqs:
        phase = est.phase(f)
        if f is not fmax and (phase > est.window or f not in allowed):
            continue
        t_wait = est.wait(f)
        for wait_energy, action in _wait_options(f, t_wait, mode, profile):
            ei = compute_phase_energy(f, est) + wait_energy
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
