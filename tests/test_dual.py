import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import merge_breaks, replay_statuses
from hypothesis import given, settings, strategies as st

from spinbond.dual import DualState, coupled_run, duality_weight, simulate_dual
from spinbond.errors import CensoringError
from spinbond.estimators import estimate_mu_dyn
from spinbond.forward import EventTable, ModelParams, SpinBondState
from spinbond.graphs import build_graph, builtin_graph, closed_classes, uniform_kernel
from spinbond.rng import RngStream


def test_dual_state_validation(p3):
    g, kern = p3
    DualState.of([0, 2], [1, -1], revealed_positive=[0], revealed_negative=[1]).validate(g)
    with pytest.raises(ValueError, match="both signs"):
        DualState.of([0], [1], revealed_positive=[0], revealed_negative=[0]).validate(g)
    with pytest.raises(ValueError, match="position"):
        DualState.of([5], [1]).validate(g)
    with pytest.raises(ValueError, match="signs must be"):
        DualState.of([0], [2]).validate(g)
    with pytest.raises(ValueError, match="positions but"):
        DualState.of([0, 1], [1]).validate(g)
    with pytest.raises(ValueError, match="revealed edge"):
        DualState.of([0], [1], revealed_positive=[7]).validate(g)
    with pytest.raises(ValueError, match="at least one walker"):
        DualState.of([], []).validate(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning before the error
        with pytest.raises(ValueError, match="at least one walker"):
            simulate_dual(
                RngStream(0).generator(), 4, EventTable(g, kern, ModelParams(0.5, 1.0)),
                DualState.of([], []), 1.0,
            )


@pytest.mark.parametrize("t_max", [-1.0, math.inf, math.nan])
def test_dual_rejects_a_horizon_that_is_not_a_finite_time(c6, t_max):
    # An infinite horizon never ended the loop; a NaN one gave NaN times.
    g, kern = c6
    with pytest.raises(ValueError, match="t_max must be finite and >= 0"):
        simulate_dual(
            RngStream(0).generator(), 2, EventTable(g, kern, ModelParams(0.5, 1.0)),
            DualState.of([0], [1]), t_max,
        )


def test_block_start_is_checked_against_the_graph():
    g = builtin_graph("cycle", 6)
    params = ModelParams(0.5, 1.0)
    table = EventTable(g, uniform_kernel(g), params)
    gen = RngStream(1).generator()
    block = simulate_dual(gen, 50, table, DualState.of([0, 3], [1, -1]), 1.0)
    for other in (builtin_graph("path", 6), builtin_graph("cycle", 4)):
        with pytest.raises(ValueError, match="status"):
            simulate_dual(gen, 50, EventTable(other, uniform_kernel(other), params), block, 2.0)
    for name, value, match in (
        ("positions", 6, "positions"),
        ("positions", -1, "positions"),
        ("signs", 0, "signs"),
        ("status", 2, "statuses"),
    ):
        bad = replace(block, **{name: getattr(block, name).copy()})
        getattr(bad, name)[7, 1] = value
        with pytest.raises(ValueError, match=match):
            simulate_dual(gen, 50, table, bad, 2.0)
    narrow = replace(block, signs=block.signs[:, :1])
    with pytest.raises(ValueError, match="signs"):
        simulate_dual(gen, 50, table, narrow, 2.0)


def test_classes_group_by_position():
    d = DualState.of([2, 0, 2, 1], [1, 1, -1, 1])
    assert d.classes() == [(0, 2), (1,), (3,)]


def test_duality_weight_values(p3):
    g, _ = p3
    state = SpinBondState(
        site_signs=np.array([1, -1, 1], dtype=np.int8),
        edge_signs=np.array([1, -1], dtype=np.int8),
    )
    p = 0.25
    assert duality_weight(state.site_signs, state.edge_signs, DualState.of([0], [1]), p) == 1.0
    assert duality_weight(state.site_signs, state.edge_signs, DualState.of([0], [-1]), p) == 0.0
    w = duality_weight(
        state.site_signs,
        state.edge_signs,
        DualState.of([1], [-1], revealed_positive=[0], revealed_negative=[1]),
        p,
    )
    assert w == pytest.approx(1.0 / p * 1.0 / (1.0 - p))
    # revealed sign clashing with the configuration zeroes the weight
    assert (
        duality_weight(
            state.site_signs, state.edge_signs, DualState.of([1], [-1], revealed_negative=[0]), p
        )
        == 0.0
    )


def _block(g, kern, params, initial, t_max, seed, size, **kwargs):
    """One block of ``size`` dual runs with its record, and its starting arrays."""
    record = []
    table = EventTable(g, kern, params)
    traj = simulate_dual(
        RngStream(seed).generator(), size, table, initial, t_max, record=record, **kwargs
    )
    start = simulate_dual(RngStream(seed).generator(), size, table, initial, 0.0)
    return traj, record, start


def _same(a, b) -> bool:
    """Two blocks agree in every array and count."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def test_revealed_sets_stay_disjoint_and_valid(p3):
    # One status per edge keeps the revealed sets disjoint; the record must
    # replay to the final statuses up to the end resolution's clearing, with
    # every walker on a site and of sign +-1.
    g, kern = p3
    traj, record, start = _block(
        g, kern, ModelParams(0.5, 3.0), DualState.of([0, 2], [1, 1]), 6.0, 0, 200
    )
    assert len(record) > 1
    assert replay_statuses(record, start.status, traj.status)[2] == 0
    for step in record:
        assert ((step.positions >= 0) & (step.positions < g.vertex_count)).all()
        assert (np.abs(step.signs) == 1).all()
        assert np.isin(step.edge_status, (-1, 0, 1)).all()


def test_coalescence_and_sign_sync_permanence(p3):
    g, kern = p3
    traj, record, start = _block(
        g, kern, ModelParams(0.4, 1.0), DualState.of([0, 1, 2], [1, -1, 1]), 10.0, 1, 300
    )
    assert merge_breaks(record, start.positions, start.signs) == 0
    # the check has something to see: most replicas end fully merged
    assert np.count_nonzero((traj.positions == traj.positions[:, :1]).all(axis=1)) > 150


def test_known_negative_edge_flips_without_revealing(k2):
    g, kern = k2
    initial = DualState.of([0], [1], revealed_negative=[0])
    traj, record, _ = _block(g, kern, ModelParams(0.5, 0.0), initial, 5.0, 3, 100)
    moves = np.bincount(np.concatenate([step.replica for step in record]), minlength=100)
    assert moves.max() > 1 and traj.reveal_count == 0
    assert not any(step.revealed.any() for step in record)
    assert (traj.status == -1).all()
    assert (traj.signs[:, 0] == (-1) ** moves).all()
    assert (traj.positions[:, 0] == moves % 2).all()


def test_unknown_edge_reveals_atomically(p3):
    # Every move multiplies the movers' signs by the status its edge has
    # after the move, so a reveal acts in the same event as the move that
    # makes it; walkers that stay put keep their signs.
    g, kern = p3
    initial = DualState.of([0, 2], [1, -1])
    traj, record, start = _block(g, kern, ModelParams(0.3, 1.0), initial, 4.0, 4, 300)
    pos, sgn = start.positions.copy(), start.signs.copy()
    for step in record:
        i = step.replica
        walked = step.positions != pos[i]
        assert walked.any(axis=1).all()
        want = np.where(walked, sgn[i] * step.edge_status[:, None], sgn[i])
        assert (step.signs == want).all()
        pos[i], sgn[i] = step.positions, step.signs
    assert (pos == traj.positions).all() and (sgn == traj.signs).all()
    assert traj.reveal_count > 0


def test_end_resolution_clears_only_revealed_edges(p3):
    # Forgetting shows only at a move across a revealed edge or at the end:
    # the end resolution clears some revealed edges when v > 0, none at v = 0,
    # and never touches an unrevealed one.
    g, kern = p3
    initial = DualState.of([1], [1], revealed_positive=[0])
    for v in (4.0, 0.0):
        traj, record, start = _block(g, kern, ModelParams(0.5, v), initial, 6.0, 5, 200)
        cleared, renewed, bad = replay_statuses(record, start.status, traj.status)
        assert bad == 0 and (cleared > 0) == (renewed > 0) == (v > 0)


def test_event_counts_match_the_record(p3, c6):
    # event_count is the recorded moves, reveal_count the recorded fresh
    # reveals, whatever the rule, v or stopping target; a revealed edge is
    # revealed afresh or cleared at the end only when v > 0.
    for (g, kern), mode, v, target in (
        (p3, "coalescing", 1.0, None),
        (p3, "independent", 2.0, 1),
        (c6, "coalescing", 0.0, 1),
        (c6, "independent", 0.5, None),
    ):
        traj, record, start = _block(
            g, kern, ModelParams(0.4, v), DualState.of([0, 2], [1, -1], [1]), 3.0, 6, 150,
            mode=mode, target=target,
        )
        cleared, renewed, bad = replay_statuses(record, start.status, traj.status)
        assert bad == 0 and (cleared + renewed > 0) == (v > 0)
        assert traj.event_count == sum(step.replica.size for step in record) > 0
        assert traj.reveal_count == sum(np.count_nonzero(step.revealed) for step in record) > 0


def test_stop_on_full_coalescence(p3):
    g, kern = p3
    table = EventTable(g, kern, ModelParams(0.5, 1.0))
    gen = RngStream(5).generator()
    single = simulate_dual(gen, 50, table, DualState.of([1], [1]), 50.0, target=1)
    assert single.stopped.all() and (single.time == 0.0).all()
    assert single.event_count == 0

    pair = simulate_dual(gen, 200, table, DualState.of([0, 2], [1, 1]), 500.0, target=1)
    assert pair.stopped.all() and (pair.time < 500.0).all()
    assert (pair.positions[:, 0] == pair.positions[:, 1]).all()

    capped = simulate_dual(gen, 50, table, DualState.of([0, 2], [1, 1]), 1e-9, target=1)
    assert not capped.stopped.any() and (capped.time == 1e-9).all()


def test_full_coalescence_counts_components():
    g = build_graph([(0, 1), (2, 3)], 4)
    traj = simulate_dual(
        RngStream(8).generator(), 20, EventTable(g, uniform_kernel(g), ModelParams(0.5, 1.0)),
        DualState.of([0, 2], [1, 1]), 50.0, target=2,
    )
    # one walker per component is already fully coalesced
    assert traj.stopped.all() and (traj.time == 0.0).all()


def test_run_to_full_coalescence_reports(k2):
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    table = EventTable(g, kern, params)
    single = estimate_mu_dyn(table, [1], [1], 10, RngStream(9)).reports[0]
    assert single.partition == ((0,),)
    assert single.sync == (True,)
    assert single.time == 0.0 and not single.censored

    two = build_graph([(0, 1), (2, 3)], 4)
    split = estimate_mu_dyn(
        EventTable(two, uniform_kernel(two), params), [0, 2], [1, 1], 10, RngStream(10)
    )
    assert {rep.partition for rep in split.reports} == {((0,), (1,))}
    assert {rep.sync for rep in split.reports} == {(True, True)}

    with pytest.raises(CensoringError, match="10 of 10 replicas"):
        estimate_mu_dyn(table, [0, 1], [1, 1], 10, RngStream(11), t_cap=1e-9)


def test_pair_on_single_edge_syncs_with_probability_p(k2):
    g, kern = k2
    p = 0.3
    # Nothing is revealed at the start, so the first event is one walker
    # crossing the lone edge; the merge syncs exactly when that reveal is +.
    replicas = 4000
    traj = simulate_dual(
        RngStream(12).generator(), replicas, EventTable(g, kern, ModelParams(p, 1.0)),
        DualState.of([0, 1], [1, 1]), 500.0, target=1,
    )
    assert traj.stopped.all() and (traj.positions[:, 0] == traj.positions[:, 1]).all()
    hits = np.count_nonzero(traj.signs[:, 0] == traj.signs[:, 1])
    sigma = math.sqrt(p * (1 - p) / replicas)
    assert abs(hits / replicas - p) <= 3 * sigma


def test_independent_mode_separates_cohabitants(k2):
    g, kern = k2
    table = EventTable(g, kern, ModelParams(1.0, 0.0))
    gen = RngStream(0).generator()
    traj = simulate_dual(gen, 50, table, DualState.of([0, 0], [1, 1]), 3.0, mode="independent")
    assert (traj.positions[:, 0] != traj.positions[:, 1]).any()
    with pytest.raises(ValueError, match="first collision"):
        simulate_dual(
            gen, 5, table, DualState.of([0, 1], [1, 1]), 1.0, mode="independent", target=0
        )
    with pytest.raises(ValueError, match="mode"):
        simulate_dual(gen, 5, table, DualState.of([0], [1]), 1.0, mode="x")


def test_coalesced_walkers_share_every_later_move(p3):
    g, kern = p3
    traj = simulate_dual(
        RngStream(11).generator(), 200, EventTable(g, kern, ModelParams(0.3, 1.0)),
        DualState.of([0, 2], [1, -1]), 200.0,
    )
    # by this horizon every pair must have met, and met walkers stay together
    assert (traj.positions[:, 0] == traj.positions[:, 1]).all()


def test_determinism_same_seed(p3):
    g, kern = p3
    runs = [
        _block(g, kern, ModelParams(0.4, 1.5), DualState.of([0, 2], [1, -1]), 7.0, 19, 100)
        for _ in range(2)
    ]
    (a, record_a, _), (b, record_b, _) = runs
    assert _same(a, b) and len(record_a) == len(record_b)
    for step_a, step_b in zip(record_a, record_b):
        assert all((x == y).all() for x, y in zip(step_a, step_b))


def test_coupled_run_requires_distinct_starts(p3):
    g, kern = p3
    with pytest.raises(ValueError, match="distinct"):
        coupled_run(
            RngStream(0).generator(), 5, EventTable(g, kern, ModelParams(0.5, 1.0)),
            DualState.of([1, 1], [1, 1]), 1.0,
        )


def test_coupled_run_shares_history_before_collision(p3):
    # Both legs go on from the head: a replica that never collides ends
    # both legs where the head ended, and a collided one starts both legs
    # from two walkers on one site, which the coalescing leg keeps together.
    g, kern = p3
    head, coal, ind = coupled_run(
        RngStream(3).generator(), 400, EventTable(g, kern, ModelParams(0.4, 1.0)),
        DualState.of([0, 2], [1, -1]), 3.0,
    )
    met = head.stopped
    assert met.any() and not met.all()
    assert (head.time[~met] == 3.0).all() and (head.time[met] < 3.0).all()
    assert (head.positions[met, 0] == head.positions[met, 1]).all()
    for leg in (coal, ind):
        assert not leg.stopped.any() and (leg.time == 3.0).all()
        for name in ("positions", "signs", "status"):
            assert (getattr(leg, name)[~met] == getattr(head, name)[~met]).all()
    assert (coal.positions[met, 0] == coal.positions[met, 1]).all()
    assert (ind.positions[met, 0] != ind.positions[met, 1]).any()


def test_coupled_run_determinism(p3):
    g, kern = p3
    table = EventTable(g, kern, ModelParams(0.4, 1.0))
    initial = DualState.of([0, 2], [1, 1])
    a, b = (coupled_run(RngStream(23).generator(), 100, table, initial, 4.0) for _ in range(2))
    assert all(_same(x, y) for x, y in zip(a, b))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.floats(0.05, 0.95), v=st.floats(0.0, 4.0))
def test_random_runs_keep_invariants(seed, p, v):
    g = builtin_graph("cycle", 4)
    traj, record, start = _block(
        g, uniform_kernel(g), ModelParams(p, v), DualState.of([0, 2], [1, -1]), 4.0, seed, 20
    )
    assert replay_statuses(record, start.status, traj.status)[2] == 0
    assert merge_breaks(record, start.positions, start.signs) == 0
    assert ((traj.positions >= 0) & (traj.positions < 4)).all() and (np.abs(traj.signs) == 1).all()


_GRAPHS = {
    "path:3": lambda: builtin_graph("path", 3),
    "cycle:6": lambda: builtin_graph("cycle", 6),
    "complete:4": lambda: builtin_graph("complete", 4),
    "grid_torus:3,3": lambda: builtin_graph("grid_torus", 3, 3),
    "two components": lambda: build_graph([(0, 1), (1, 2), (3, 4)], 5),
}

_RULES = [
    ("coalescing", {}),
    ("coalescing", {"stop": "full coalescence"}),
    ("coalescing", {"stop": "collision"}),
    ("independent", {}),
    ("independent", {"stop": "collision"}),
]


def _starts(g):
    last_site, last_edge = g.vertex_count - 1, g.edge_count - 1
    return [
        # distinct sites, nothing revealed
        DualState.of([0, last_site], [1, -1]),
        # two walkers on one site, edges revealed with both signs
        DualState.of([0, last_site, 0], [1, -1, -1], [0], [last_edge]),
        # three walkers, two of them adjacent: not coalesced on any graph here
        DualState.of([0, 1, last_site], [1, 1, -1]),
        # one shared site: fully coalesced at time 0 on a connected graph
        DualState.of([1, 1], [1, -1], revealed_negative=[0]),
    ]


def _class_counts(positions):
    ordered = np.sort(positions, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


@pytest.mark.parametrize("mode, flags", _RULES)
@pytest.mark.parametrize("graph", sorted(_GRAPHS))
def test_dual_runs_keep_their_invariants(graph, mode, flags):
    # Over graphs, rules, stopping targets and starts: the record replays to
    # the block's end, merges are permanent under the coalescing rule, and a
    # replica stops exactly at its first move that reaches the target. v = 0
    # forgets nothing, and an int horizon works as a float one.
    g = _GRAPHS[graph]()
    kern = uniform_kernel(g)
    for params, t_max in ((ModelParams(0.4, 1.5), 6.0), (ModelParams(0.7, 0.0), 4)):
        for seed, initial in enumerate(_starts(g)):
            target = None
            if flags.get("stop") == "collision":
                target = initial.walker_count - 1
            elif flags.get("stop") == "full coalescence":
                target = len({closed_classes(kern)[z] for z in initial.positions})
            traj, record, start = _block(
                g, kern, params, initial, t_max, seed, 60, mode=mode, target=target
            )
            cleared, renewed, bad = replay_statuses(record, start.status, traj.status)
            assert bad == 0
            if mode == "coalescing":
                assert merge_breaks(record, start.positions, start.signs) == 0
            assert traj.event_count == sum(step.replica.size for step in record)
            assert traj.reveal_count == sum(np.count_nonzero(step.revealed) for step in record)
            if params.v == 0.0:
                assert cleared == renewed == 0
            pos, sgn, clock = start.positions.copy(), start.signs.copy(), np.zeros(60)
            reached = np.full(60, np.inf)
            if target is not None:
                reached[_class_counts(pos) <= target] = 0.0
            for step in record:
                i = step.replica
                assert (step.time > clock[i]).all() and (step.time <= t_max).all()
                assert np.isinf(reached[i]).all()  # nothing runs on after its target
                pos[i], sgn[i], clock[i] = step.positions, step.signs, step.time
                if target is not None:
                    hit = _class_counts(step.positions) <= target
                    reached[i[hit]] = step.time[hit]
            assert (pos == traj.positions).all() and (sgn == traj.signs).all()
            assert (traj.stopped == np.isfinite(reached)).all()
            assert (traj.time == np.where(traj.stopped, reached, t_max)).all()
