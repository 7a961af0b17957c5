"""Per-call correctness checks on the outputs of ``ftsim run``."""

from __future__ import annotations


def never_extends(makespan: float, reference_makespan: float) -> list[str]:
    """The paper's promise: applying the strategies never delays the run."""
    if makespan > reference_makespan:
        return [f"makespan {makespan:.3f} s exceeds the reference {reference_makespan:.3f} s"]
    return []


def states_tile(trace_text: str, nodes: int, end: float) -> list[str]:
    """Each node's ``S`` records must tile ``[0, end]`` with no gap or overlap.

    Times are compared as the trace prints them (three decimals), so a
    record must start exactly where the previous one ended; a state shorter
    than a millisecond prints with equal ends and still tiles.
    """
    records: dict[int, list[tuple[float, float, str, str]]] = {node: [] for node in range(nodes)}
    for line in trace_text.splitlines()[1:]:
        if line.startswith("S "):
            _, node, t0, t1, _state = line.split()
            records.setdefault(int(node), []).append((float(t0), float(t1), t0, t1))
    want_end = f"{end:.3f}"
    problems = []
    for node, spans in sorted(records.items()):
        spans.sort()
        at = "0.000"
        for _, _, t0, t1 in spans:
            if t0 != at:
                problems.append(f"node {node}: states jump from {at} to {t0}")
                break
            at = t1
        else:
            if at != want_end:
                problems.append(f"node {node}: states end at {at}, not {want_end}")
    return problems
