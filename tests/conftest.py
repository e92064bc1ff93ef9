import numpy as np
import pytest

from spinbond.forward import SpinBondState
from spinbond.graphs import builtin_graph, uniform_kernel


@pytest.fixture(scope="session")
def p3():
    g = builtin_graph("path", 3)
    return g, uniform_kernel(g)


@pytest.fixture(scope="session")
def k2():
    g = builtin_graph("complete", 2)
    return g, uniform_kernel(g)


@pytest.fixture(scope="session")
def c6():
    g = builtin_graph("cycle", 6)
    return g, uniform_kernel(g)


@pytest.fixture(scope="session")
def grid22():
    g = builtin_graph("grid_torus", 2, 2)
    return g, uniform_kernel(g)


def striped_state(g) -> SpinBondState:
    """Mixed deterministic configuration: signs alternate with the index."""
    sites = np.array([1 if x % 2 == 0 else -1 for x in range(g.vertex_count)], dtype=np.int8)
    edges = np.array([1 if e % 2 == 0 else -1 for e in range(g.edge_count)], dtype=np.int8)
    return SpinBondState(sites, edges)


def merge_breaks(record, pos, sgn) -> int:
    """Replicas whose met walkers later part, or change their product of signs.

    ``pos`` and ``sgn`` are a dual block's ``(size, k)`` starting walkers and
    ``record`` its ``DualEvents``, one per step; each replica has at most one
    event per step.
    """
    together = pos[:, :, None] == pos[:, None, :]
    relation = sgn[:, :, None] * sgn[:, None, :]
    bad = np.zeros(len(pos), dtype=bool)
    for step in record:
        i = step.replica
        now = step.positions[:, :, None] == step.positions[:, None, :]
        product = step.signs[:, :, None] * step.signs[:, None, :]
        was = together[i]
        bad[i] |= (was & (~now | (product != relation[i]))).any(axis=(1, 2))
        relation[i] = np.where(was, relation[i], product)
        together[i] = was | now
    return int(np.count_nonzero(bad))


def replay_statuses(record, start, end):
    """Replay ``record`` on a copy of the ``start`` statuses and check it against ``end``.

    Returns ``(cleared, renewed, bad)``: the entries the end resolution
    cleared, the moves that revealed an already revealed edge afresh (it was
    forgotten since last seen), and the recorded moves or end entries that
    break the status rules. A move across an unrevealed edge must reveal it;
    a move across a revealed edge keeps its status or reveals it afresh with
    a sign; the end resolution may only clear entries.
    """
    status = start.copy()
    renewed = bad = 0
    for step in record:
        before, after = status[step.replica, step.edge], step.edge_status
        ok = np.where(step.revealed, after != 0, (before != 0) & (after == before))
        bad += int(np.count_nonzero(~ok))
        renewed += int(np.count_nonzero(step.revealed & (before != 0)))
        status[step.replica, step.edge] = after
    kept = end == status
    cleared = ~kept & (end == 0)
    bad += int(np.count_nonzero(~kept & ~cleared))
    return int(np.count_nonzero(cleared)), renewed, bad
