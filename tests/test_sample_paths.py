"""Sample paths pinned as literals for fixed seeds.

The law, replay and record tests in test_forward.py, test_dual.py and
test_estimators.py hold for any draws, so none of them sees a change in
which numbers get drawn, or in what order. These literals can: any change
to the draws of ``simulate_forward``, a one-replica ``simulate_dual``
block, whole 300-replica ``simulate_dual`` blocks and their records
(hashed, so a change that permutes rows fails too), the batched
birth-death block ``simulate_birth_death``, the batched
forward estimator behind ``estimate_cylinder_probabilities`` or the
``simulate_dual`` blocks behind ``estimate_dual_side``,
``estimate_revealed_weight`` and ``estimate_mu_dyn`` fails here. A change
that alters sample paths on purpose updates them, and says so.
"""

import hashlib
import math

import numpy as np
import pytest

from spinbond.cylinders import CylinderEvent
from spinbond.dual import DualState, simulate_dual
from spinbond.estimators import (
    ProductInitial,
    estimate_cylinder_probabilities,
    estimate_dual_side,
    estimate_mu_dyn,
    estimate_revealed_weight,
    simulate_birth_death,
)
from spinbond.forward import EventTable, ModelParams, simulate_forward
from spinbond.graphs import builtin_graph, uniform_kernel
from spinbond.rng import RngStream

from conftest import striped_state

PARAMS = ModelParams(p=0.3, v=0.7)


def _signs(values) -> str:
    return "".join("+" if s > 0 else "-" for s in values)


def _forward_path(kind, sizes, seed):
    g = builtin_graph(kind, *sizes)
    obs = [CylinderEvent.of(sites={0: 1}), CylinderEvent.of(sites={1: -1}, edges={0: 1})]
    traj = simulate_forward(
        EventTable(g, uniform_kernel(g), PARAMS), striped_state(g), 3.0,
        RngStream(seed).generator(), checkpoint_times=[0.0, 1.0, 2.5, 3.0], observables=obs,
    )
    return {
        "events": traj.event_count,
        "sites": _signs(traj.final_state.site_signs),
        "edges": _signs(traj.final_state.edge_signs),
        "rows": "".join(map(str, traj.checkpoint_hits.tolist())),
    }


def _batched_hits(kind, sizes, seed, product):
    """Hit counts of the batched estimator over two blocks, times outermost."""
    g = builtin_graph(kind, *sizes)
    obs = [CylinderEvent.of(sites={0: 1}), CylinderEvent.of(sites={1: -1}, edges={0: 1})]
    initial = ProductInitial(0.5, 0.3) if product else striped_state(g)
    out = estimate_cylinder_probabilities(
        EventTable(g, uniform_kernel(g), PARAMS), initial, [0.0, 1.0, 2.5], obs, 5000,
        RngStream(seed),
    )
    return [round(res.estimate * res.replicas) for res in out.values()]


def _dual_path(kind, sizes, seed, mode, stop, t_max):
    """One run of ``simulate_dual``: a one-replica block, stopped at full coalescence or not."""
    g = builtin_graph(kind, *sizes)
    initial = DualState.of([0, 2, 4], [1, -1, 1], revealed_positive=[1], revealed_negative=[3])
    traj = simulate_dual(
        RngStream(seed).generator(), 1, EventTable(g, uniform_kernel(g), PARAMS), initial, t_max,
        mode=mode, target=1 if stop else None,
    )
    status = traj.status[0]
    return {
        "positions": traj.positions[0].tolist(),
        "signs": traj.signs[0].tolist(),
        "revealed": (np.flatnonzero(status == 1).tolist(), np.flatnonzero(status == -1).tolist()),
        "events": traj.event_count,
        "reveals": traj.reveal_count,
        "time": float(traj.time[0]),
        "stopped": bool(traj.stopped[0]),
    }


def _dual_estimates(kind, sizes):
    """Batched dual estimates over two blocks: dual side in both rules, the
    revealed weight at theta = ln 2 (the mean of 2^size), and mu-dyn with
    its censored count and first two coalescence times."""
    g = builtin_graph(kind, *sizes)
    kern = uniform_kernel(g)
    initial = DualState.of([0, 2, 4], [1, -1, 1], revealed_positive=[1], revealed_negative=[3])
    table = EventTable(g, kern, PARAMS)
    out = {
        mode: estimate_dual_side(
            table, striped_state(g), initial, 2.0, 5000, RngStream(1), mode=mode
        ).estimate
        for mode in ("coalescing", "independent")
    }
    out["revealed_weight"] = estimate_revealed_weight(
        table, initial, math.log(2.0), 2.0, 5000, RngStream(2)
    ).estimate
    mu = estimate_mu_dyn(table, [0, 3], [1, 1], 5000, RngStream(3), report_limit=2)
    out.update(mu_dyn=mu.result.estimate, censored=mu.censored_count)
    out.update((f"time{i}", rep.time) for i, rep in enumerate(mu.reports))
    return out


def _digest(arrays) -> str:
    """sha256 of the arrays' dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _dual_block(case):
    """A 300-replica ``simulate_dual`` block on cycle:8 with its record.

    ``target`` runs the coalescing rule to one class; ``t_max`` runs it to
    t = 3, past walkers meeting, so the thinning rejects rings of non-lead
    slots; ``independent`` runs the independent rule to t = 3; ``continued``
    goes on to one class by t = 4 from a block stopped at two classes or
    t = 1.5, so its replicas start from different clocks.
    """
    g = builtin_graph("cycle", 8)
    initial = DualState.of([0, 2, 5], [1, -1, 1], revealed_positive=[1], revealed_negative=[3])
    table = EventTable(g, uniform_kernel(g), PARAMS)
    gen = RngStream(11).generator()
    record = []
    run = dict(target=1, record=record)
    if case == "target":
        traj = simulate_dual(gen, 300, table, initial, 1e4, **run)
    elif case == "t_max":
        traj = simulate_dual(gen, 300, table, initial, 3.0, record=record)
    elif case == "independent":
        traj = simulate_dual(gen, 300, table, initial, 3.0, "independent", record=record)
    else:
        first = simulate_dual(gen, 300, table, initial, 1.5, target=2)
        traj = simulate_dual(gen, 300, table, first, 4.0, **run)
    names = ("positions", "signs", "status", "time", "stopped")
    return traj, {
        "block": _digest(getattr(traj, name) for name in names),
        "events": traj.event_count,
        "reveals": traj.reveal_count,
        "record": _digest(column for step in record for column in step),
        "steps": len(record),
    }


FORWARD_PINS = {
    ("cycle", (6,), 1): dict(
        events=29, sites="++++++", edges="+---+-", rows="11111110",
    ),
    ("cycle", (6,), 2): dict(
        events=33, sites="--+---", edges="---+--", rows="11110100",
    ),
    ("grid_torus", (3, 3), 1): dict(
        events=68, sites="+----+++-", edges="+-+--++---------++", rows="11111111",
    ),
    ("grid_torus", (3, 3), 2): dict(
        events=59, sites="+++--+-+-", edges="-----+-----++-+++-", rows="11001010",
    ),
    # 434 columns: most column indices lie above CPython's small ints.
    ("grid_torus", (12, 12), 1): dict(
        events=1061,
        sites="+++++-+---+++++----+--+-+--+++++++-++-++----+-+--++++-+++----+-+----++-++-+-++++--"
        "+-+++--++-++++-+---+-+-++--+-+-+-+----+--+-+--++++-+-++---++++",
        edges="+++-+-+-----+++--+-+---++--+--+---+-+-+--+-----+--+++-++++-+--+-------+--------+-+"
        "----++------+----+----+++-+-++-+--+-+-+-------+--++++----+--+----+------+-+-+-------+"
        "---+-----+-----+----+---------------+++-+------------+-+-++------+----+----++---+---+"
        "-------+--+-++---++--++-+--+---+-+--",
        rows="11000010",
    ),
}

BATCHED_PINS = {
    ("cycle", (6,), 1, False): [5000, 5000, 3606, 2167, 3061, 1210],
    ("cycle", (6,), 2, True): [2503, 713, 2497, 743, 2513, 707],
    ("grid_torus", (3, 3), 1, False): [5000, 5000, 3535, 1970, 2787, 1187],
    ("grid_torus", (3, 3), 2, True): [2446, 753, 2495, 776, 2549, 753],
}

DUAL_PINS = {
    ("cycle", (6,), 1, "coalescing", False, 4.0): dict(
        positions=[5, 2, 5], signs=[-1, -1, -1], revealed=([], [4]), events=10,
        reveals=4, time=4.0, stopped=False,
    ),
    ("cycle", (6,), 1, "coalescing", True, 10000.0): dict(
        positions=[4, 4, 4], signs=[1, -1, 1], revealed=([3, 4], [5]), events=33,
        reveals=18, time=17.02192623257505, stopped=True,
    ),
    ("cycle", (6,), 1, "independent", False, 4.0): dict(
        positions=[5, 2, 0], signs=[-1, -1, 1], revealed=([], [4, 5]), events=11,
        reveals=4, time=4.0, stopped=False,
    ),
    ("cycle", (6,), 2, "coalescing", False, 4.0): dict(
        positions=[0, 0, 0], signs=[1, -1, -1], revealed=([], [4]), events=9,
        reveals=5, time=4.0, stopped=False,
    ),
    ("cycle", (6,), 2, "coalescing", True, 10000.0): dict(
        positions=[0, 0, 0], signs=[1, -1, -1], revealed=([2, 5], [3, 4]), events=9,
        reveals=5, time=3.4295975621264443, stopped=True,
    ),
    ("cycle", (6,), 2, "independent", False, 4.0): dict(
        positions=[0, 0, 0], signs=[1, -1, -1], revealed=([0, 2], [4]), events=12,
        reveals=8, time=4.0, stopped=False,
    ),
    ("grid_torus", (3, 3), 1, "coalescing", False, 4.0): dict(
        positions=[7, 7, 7], signs=[1, 1, 1], revealed=([], []), events=6,
        reveals=4, time=4.0, stopped=False,
    ),
    ("grid_torus", (3, 3), 1, "coalescing", True, 10000.0): dict(
        positions=[4, 4, 4], signs=[1, 1, 1], revealed=([2, 6], [3]), events=5,
        reveals=3, time=1.3862150878077126, stopped=True,
    ),
    ("grid_torus", (3, 3), 1, "independent", False, 4.0): dict(
        positions=[7, 6, 4], signs=[1, 1, 1], revealed=([9], [3]), events=11,
        reveals=8, time=4.0, stopped=False,
    ),
    ("grid_torus", (3, 3), 2, "coalescing", False, 4.0): dict(
        positions=[1, 1, 1], signs=[1, 1, -1], revealed=([15], []), events=5,
        reveals=4, time=4.0, stopped=False,
    ),
    ("grid_torus", (3, 3), 2, "coalescing", True, 10000.0): dict(
        positions=[1, 1, 1], signs=[1, 1, -1], revealed=([15], [4]), events=5,
        reveals=4, time=2.3272355123726536, stopped=True,
    ),
    ("grid_torus", (3, 3), 2, "independent", False, 4.0): dict(
        positions=[1, 3, 0], signs=[1, 1, 1], revealed=([4, 7, 15], [0]), events=12,
        reveals=10, time=4.0, stopped=False,
    ),
}

# Populations of one 12-replica birth-death block, keyed (r0, v, t_max).
BIRTH_DEATH_PINS = {
    (0, 1.0, 2.0): [1, 1, 0, 0, 0, 2, 0, 0, 1, 1, 0, 0],
    (3, 0.5, 4.0): [2, 2, 2, 3, 3, 7, 0, 2, 2, 2, 1, 1],
    (10, 2.5, 1.0): [1, 2, 3, 1, 0, 2, 1, 3, 0, 2, 1, 1],
}

DUAL_ESTIMATE_PINS = {
    ("cycle", (6,)): {
        "coalescing": 0.02721553741496598,
        "independent": 0.029836911564625847,
        "revealed_weight": 5.8478,
        "mu_dyn": 0.2408,
        "censored": 0,
        "time0": 5.554582965904749,
        "time1": 6.036723073890355,
    },
    ("grid_torus", (3, 3)): {
        "coalescing": 0.021077484936831876,
        "independent": 0.018627817298347914,
        "revealed_weight": 10.8146,
        "mu_dyn": 0.2204,
        "censored": 0,
        "time0": 2.3371124244351984,
        "time1": 1.365320277802381,
    },
}


DUAL_BLOCK_PINS = {
    "continued": dict(
        block="03e9e12fc35ca80a3af703ae73d4e39956a67dbe5398f6501732291c488f855f",
        events=1791, reveals=1114, steps=20,
        record="77bfcaaf5c6f943361cf08efe1b9565e432dc8591b3fadf0f1bd3a7343def226",
    ),
    "independent": dict(
        block="65f923e7b02e3ce2b54c2885d31615f6e5c732c6abd71a477c997caee2657265",
        events=2741, reveals=1729, steps=22,
        record="31f5257c0f0339499600fe7184577a3abf418f804e48a9d371a9f58144d00bb1",
    ),
    "t_max": dict(
        block="e5fd122c4422263fed86cd14c80e2041f191d2cb4e35386f4882d4fb1c5df46d",
        events=2337, reveals=1598, steps=22,
        record="c20ddddc936074cb1564dce928128f4260da7a65b351cc2350feb1f72e884e14",
    ),
    "target": dict(
        block="c112203c97d6f559d116c0342916707b0f23de49d532c615741ff4381e2a43a5",
        events=6402, reveals=4288, steps=154,
        record="c873fed0b906e568a6c4dfa905ff37eb799e01a075dd31b474e671413b960a13",
    ),
}


@pytest.mark.parametrize("case", sorted(FORWARD_PINS))
def test_forward_sample_path_is_pinned(case):
    assert _forward_path(*case) == FORWARD_PINS[case]


@pytest.mark.parametrize("case", sorted(BATCHED_PINS))
def test_batched_forward_hits_are_pinned(case):
    assert _batched_hits(*case) == BATCHED_PINS[case]


@pytest.mark.parametrize("case", sorted(DUAL_PINS))
def test_dual_sample_path_is_pinned(case):
    assert _dual_path(*case) == DUAL_PINS[case]


def test_birth_death_values_are_pinned():
    for (r0, v, t_max), expected in BIRTH_DEATH_PINS.items():
        assert simulate_birth_death(RngStream(7).generator(), 12, r0, v, [t_max])[0].tolist() == expected


@pytest.mark.parametrize("case", sorted(DUAL_ESTIMATE_PINS))
def test_batched_dual_estimates_are_pinned(case):
    # Means of floats: equal to the last few ulps, not bit for bit.
    assert _dual_estimates(*case) == pytest.approx(DUAL_ESTIMATE_PINS[case], rel=1e-12)


@pytest.mark.parametrize("case", sorted(DUAL_BLOCK_PINS))
def test_whole_dual_block_is_pinned(case):
    traj, pins = _dual_block(case)
    assert pins == DUAL_BLOCK_PINS[case]
    if case == "t_max":  # walkers met and kept ringing, so the thinning rejected rings
        ordered = np.sort(traj.positions, axis=1)
        assert (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).sum() > 100
