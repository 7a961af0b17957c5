import pytest

from ftsim.cascade import DepthConfig
from ftsim.fault import CheckpointPolicy, FailureSpec, should_anticipate
from ftsim.pattern import CommOp, CommPattern, Direction, OpMode
from ftsim.scenario import Scenario
from ftsim.simulate import _Engine, _programs

from test_energy import PROFILE


def policy(**kw):
    defaults = dict(interval=1296.0, duration=120.0)
    defaults.update(kw)
    return CheckpointPolicy(**defaults)


def node0_marks(ckpt, horizon, failure=None):
    """State marks of node 0, which computes through the whole horizon (its
    one message lies beyond it), from one engine pass; the failure is
    injected when given."""
    far = 10.0 * horizon
    pattern = CommPattern(
        processes=[
            [CommOp(0, 0, 1, Direction.SEND, OpMode.BLOCKING, far, far)],
            [CommOp(0, 1, 0, Direction.RECV, OpMode.BLOCKING, far, far)],
        ]
    )
    s = Scenario(
        name="node0",
        nodes=2,
        profile=PROFILE,
        pattern=pattern,
        ckpt=ckpt,
        failure=failure or FailureSpec(node=0, time=horizon / 2, restart_duration=0.0),
        depth=DepthConfig(1),
        horizon=horizon,
    )
    s.validate()
    engine = _Engine(s, _programs(pattern), inject_failure=failure is not None)
    engine.run()
    return engine.procs[0].segments


def checkpoint_times(p, horizon):
    """Wall times at which node 0 begins a checkpoint up to the horizon."""
    return [t for t, label in node0_marks(p, horizon) if label == "CKPT"]


def recovery_end(spec, ckpt_end, interval=10000.0):
    """When the failed node 0 computes again: it restarts, then re-executes
    the work done since its one checkpoint, which ends at ``ckpt_end``."""
    duration = 10.0 if ckpt_end > 10.0 else ckpt_end / 2
    p = policy(interval=interval, duration=duration, phase_offsets={0: ckpt_end - duration, 1: 1e9})
    marks = node0_marks(p, spec.time * 10.0, failure=spec)
    return next(t for t, label in marks if label == "COMPUTE" and t >= spec.time)


def test_checkpoint_times_progression():
    # the trigger at t = 0 never fires: a run starts from its initial state
    assert checkpoint_times(policy(), 4000.0) == [1296.0, 2592.0, 3888.0]


def test_checkpoint_times_empty_before_offset():
    p = policy(phase_offsets={0: 500.0})
    assert checkpoint_times(p, 400.0) == []


def test_checkpoint_times_single():
    p = policy(interval=100.0, duration=10.0, phase_offsets={0: 10.0})
    assert checkpoint_times(p, 100.0) == [10.0]


def test_policy_invariants():
    with pytest.raises(ValueError):
        CheckpointPolicy(interval=100.0, duration=100.0)
    with pytest.raises(ValueError):
        CheckpointPolicy(interval=100.0, duration=10.0, anticipation_fraction=0.0)


def test_should_anticipate_threshold():
    p = policy(anticipation_enabled=True, anticipation_fraction=0.5)
    assert should_anticipate(p, block_time=900.0, last_ckpt=0.0) is True
    assert should_anticipate(p, block_time=640.0, last_ckpt=0.0) is False


def test_should_anticipate_disabled():
    p = policy(anticipation_enabled=False)
    assert should_anticipate(p, block_time=1e9, last_ckpt=0.0) is False


def test_should_anticipate_zero_elapsed():
    p = policy(anticipation_enabled=True)
    assert should_anticipate(p, block_time=500.0, last_ckpt=500.0) is False


def test_recovery_end_immediately_after_checkpoint():
    # a checkpoint ending at the very instant of the failure is taken, so
    # nothing is re-executed; half a second earlier only that half second is
    spec = FailureSpec(node=0, time=100.0, restart_duration=30.0)
    assert recovery_end(spec, ckpt_end=100.0) == 130.0
    assert recovery_end(spec, ckpt_end=99.5) == 130.5


def test_recovery_end_long_reexecution():
    spec = FailureSpec(node=0, time=3456.0, restart_duration=30.0)
    assert recovery_end(spec, ckpt_end=96.0) == 6846.0


def test_recovery_end_zero_restart():
    spec = FailureSpec(node=0, time=50.0, restart_duration=0.0)
    assert recovery_end(spec, ckpt_end=40.0) == 60.0


def test_recovery_end_monotone_in_lost_work():
    spec = FailureSpec(node=0, time=1000.0, restart_duration=25.0)
    ends = [recovery_end(spec, ckpt_end=c) for c in (990.0, 800.0, 400.0, 1.0)]
    assert ends == sorted(ends) == [1035.0, 1225.0, 1625.0, 2024.0]


def test_failure_spec_invariants():
    with pytest.raises(ValueError):
        FailureSpec(node=0, time=0.0, restart_duration=1.0)
    with pytest.raises(ValueError):
        FailureSpec(node=0, time=10.0, restart_duration=-1.0)


@pytest.mark.parametrize(
    "p, horizon",
    [
        (policy(), 4000.0),
        (policy(phase_offsets={0: 500.0}), 400.0),
        (policy(interval=100.0, duration=10.0, phase_offsets={0: 10.0}), 100.0),
        # a running sum: 0.3 + 0.1 is 0.4, but 0.7 + 0.1 is 0.7999999999999999
        (policy(interval=0.1, duration=0.05, phase_offsets={0: 0.3}), 2.0),
    ],
)
def test_the_engine_checkpoints_at_the_policy_triggers(p, horizon):
    fired = list(p.triggers(0, horizon))
    assert checkpoint_times(p, horizon) == fired
    assert len(fired) <= p.trigger_steps(0, horizon) < len(fired) + 2
