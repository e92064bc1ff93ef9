import heapq
import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbond.dual import (
    CoupledResult,
    DualState,
    DualTrajectory,
    coupled_run,
    duality_weight,
    run_to_full_coalescence,
    simulate_dual,
)
from spinbond.forward import ModelParams, NeighborSampler, SpinBondState
from spinbond.graphs import AdoptionKernel, Graph, build_graph, builtin_graph, uniform_kernel
from spinbond.rng import RngStream, as_generator


def test_dual_state_validation(p3):
    g, _ = p3
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


def _run_with_path(g, kern, params, initial, t, seed, **kwargs):
    path = []
    events = []
    traj = simulate_dual(
        g, kern, params, initial, t, RngStream(seed),
        record_events=events, path=path, **kwargs
    )
    return traj, path, events


def test_revealed_sets_stay_disjoint_and_valid(p3):
    g, kern = p3
    params = ModelParams(0.5, 3.0)
    for seed in range(20):
        _, path, _ = _run_with_path(
            g, kern, params, DualState.of([0, 2], [1, 1]), 6.0, seed
        )
        assert len(path) > 1
        for _, (positions, signs, pos_edges, neg_edges) in path:
            assert not pos_edges & neg_edges
            assert all(s in (-1, 1) for s in signs)
            assert all(0 <= z < g.vertex_count for z in positions)


def test_coalescence_and_sign_sync_permanence(p3):
    g, kern = p3
    params = ModelParams(0.4, 1.0)
    k = 3
    for seed in range(25):
        _, path, _ = _run_with_path(
            g, kern, params, DualState.of([0, 1, 2], [1, -1, 1]), 10.0, seed
        )
        merged_at: dict[tuple[int, int], int] = {}
        for step, (_, (positions, signs, _, _)) in enumerate(path):
            for a, b in itertools.combinations(range(k), 2):
                if positions[a] == positions[b] and (a, b) not in merged_at:
                    merged_at[(a, b)] = step
        for (a, b), step in merged_at.items():
            for _, (positions, signs, _, _) in path[step:]:
                assert positions[a] == positions[b]
            product0 = path[step][1][1][a] * path[step][1][1][b]
            for _, (_, signs, _, _) in path[step:]:
                assert signs[a] * signs[b] == product0


def test_known_negative_edge_flips_without_revealing(k2):
    g, kern = k2
    params = ModelParams(0.5, 0.0)
    initial = DualState.of([0], [1], revealed_negative=[0])
    traj, path, events = _run_with_path(g, kern, params, initial, 5.0, 3)
    moves = sum(1 for ev in events if ev[0] == "move")
    assert moves > 0
    assert all(ev[0] == "move" for ev in events)
    assert traj.final_state.revealed_negative == {0}
    assert traj.final_state.revealed_positive == set()
    assert traj.final_state.signs[0] == (-1) ** moves
    assert traj.final_state.positions[0] == moves % 2


def test_unknown_edge_reveals_atomically(k2):
    g, kern = k2
    # p = 1 with frozen environment: the single edge reveals positive on the
    # first crossing and the sign never flips afterwards
    traj, _, events = _run_with_path(
        g, kern, ModelParams(1.0, 0.0), DualState.of([0], [1]), 5.0, 4
    )
    reveals = [ev for ev in events if ev[0] == "reveal"]
    assert len(reveals) == 1 and reveals[0][3] == "+1"
    assert traj.final_state.revealed_positive == {0}
    assert traj.final_state.signs[0] == 1
    # the reveal happens in the same event as the first move
    first_move = next(ev for ev in events if ev[0] == "move")
    assert reveals[0][1] == first_move[1]


def test_refresh_only_strikes_revealed_edges(p3):
    g, kern = p3
    params = ModelParams(0.5, 4.0)
    for seed in range(10):
        traj, path, events = _run_with_path(
            g, kern, params, DualState.of([1], [1], revealed_positive=[0]), 6.0, seed
        )
        revealed = {0}
        for ev in events:
            kind = ev[0]
            if kind == "reveal":
                e = int(ev[2][4:])
                assert e not in revealed
                revealed.add(e)
            elif kind == "refresh":
                e = int(ev[2][4:])
                assert e in revealed
                revealed.remove(e)
        final = traj.final_state
        assert final.revealed_positive | final.revealed_negative == revealed
        assert traj.refresh_count > 0


def test_stop_on_full_coalescence(p3):
    g, kern = p3
    params = ModelParams(0.5, 1.0)
    single = simulate_dual(
        g, kern, params, DualState.of([1], [1]), 50.0, RngStream(5),
        stop_on_full_coalescence=True,
    )
    assert single.coalescence_time == 0.0 and single.elapsed == 0.0
    assert single.event_count == 0 and not single.censored

    pair = simulate_dual(
        g, kern, params, DualState.of([0, 2], [1, 1]), 500.0, RngStream(6),
        stop_on_full_coalescence=True,
    )
    assert not pair.censored and pair.coalescence_time is not None
    assert len(set(pair.final_state.positions)) == 1
    assert pair.elapsed == pair.coalescence_time

    capped = simulate_dual(
        g, kern, params, DualState.of([0, 2], [1, 1]), 1e-9, RngStream(7),
        stop_on_full_coalescence=True,
    )
    assert capped.censored and capped.coalescence_time is None


def test_full_coalescence_counts_components():
    g = build_graph([(0, 1), (2, 3)], 4)
    kern = uniform_kernel(g)
    traj = simulate_dual(
        g, kern, ModelParams(0.5, 1.0), DualState.of([0, 2], [1, 1]), 50.0, RngStream(8),
        stop_on_full_coalescence=True,
    )
    # one walker per component is already fully coalesced
    assert traj.coalescence_time == 0.0


def test_run_to_full_coalescence_reports(k2):
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    single = run_to_full_coalescence(
        g, kern, params, DualState.of([1], [1]), 50.0, RngStream(9)
    )
    assert single.partition == ((0,),)
    assert single.sync == (True,)
    assert single.time == 0.0 and not single.censored

    two = build_graph([(0, 1), (2, 3)], 4)
    split = run_to_full_coalescence(
        two, uniform_kernel(two), params, DualState.of([0, 2], [1, 1]), 50.0, RngStream(10)
    )
    assert split.partition == ((0,), (1,))
    assert split.sync == (True, True)

    capped = run_to_full_coalescence(
        g, kern, params, DualState.of([0, 1], [1, 1]), 1e-9, RngStream(11)
    )
    assert capped.censored


def test_pair_on_single_edge_syncs_with_probability_p(k2):
    g, kern = k2
    p = 0.3
    params = ModelParams(p, 1.0)
    # Nothing is revealed at the start, so the first event is one walker
    # crossing the lone edge; the merge syncs exactly when that reveal is +.
    stream = RngStream(12)
    replicas = 4000
    hits = 0
    for i in range(replicas):
        rep = run_to_full_coalescence(
            g, kern, params, DualState.of([0, 1], [1, 1]), 500.0, stream.substream(i)
        )
        assert not rep.censored and len(rep.partition) == 1
        hits += all(rep.sync)
    sigma = math.sqrt(p * (1 - p) / replicas)
    assert abs(hits / replicas - p) <= 3 * sigma


def test_independent_mode_separates_cohabitants(k2):
    g, kern = k2
    params = ModelParams(1.0, 0.0)
    for seed in range(10):
        traj = simulate_dual(
            g, kern, params, DualState.of([0, 0], [1, 1]), 3.0, RngStream(seed),
            mode="independent",
        )
        if len(set(traj.final_state.positions)) == 2:
            break
    else:
        pytest.fail("independent walkers never separated")
    with pytest.raises(ValueError, match="full coalescence"):
        simulate_dual(
            g, kern, params, DualState.of([0], [1]), 1.0, RngStream(0),
            mode="independent", stop_on_full_coalescence=True,
        )
    with pytest.raises(ValueError, match="mode"):
        simulate_dual(g, kern, params, DualState.of([0], [1]), 1.0, RngStream(0), mode="x")


def test_coalesced_walkers_share_every_later_move(p3):
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    traj = simulate_dual(
        g, kern, params, DualState.of([0, 2], [1, -1]), 200.0, RngStream(11),
    )
    # by this horizon the pair must have met, and met walkers stay together
    assert len(set(traj.final_state.positions)) == 1


def test_determinism_same_seed(p3):
    g, kern = p3
    params = ModelParams(0.4, 1.5)
    outs = []
    for _ in range(2):
        events = []
        traj = simulate_dual(
            g, kern, params, DualState.of([0, 2], [1, -1]), 7.0, RngStream(19),
            record_events=events,
        )
        outs.append((traj.final_state.snapshot(), events, traj.event_count))
    assert outs[0] == outs[1]


def test_coupled_run_requires_distinct_starts(p3):
    g, kern = p3
    with pytest.raises(ValueError, match="distinct"):
        coupled_run(g, kern, ModelParams(0.5, 1.0), DualState.of([1, 1], [1, 1]), 1.0, RngStream(0))


def test_coupled_run_shares_history_before_collision(p3):
    g, kern = p3
    params = ModelParams(0.4, 1.0)
    saw_collision = saw_no_collision = False
    for seed in range(40):
        res = coupled_run(
            g, kern, params, DualState.of([0, 2], [1, -1]), 3.0, RngStream(seed)
        )
        tau = res.collision_time
        if tau is None:
            saw_no_collision = True
            assert res.independent_path == res.coalescing_path
            assert res.coalescing.final_state.snapshot() == res.independent.final_state.snapshot()
        else:
            saw_collision = True
            head_ind = [(t, s) for t, s in res.independent_path if t <= tau]
            head_coal = [(t, s) for t, s in res.coalescing_path if t <= tau]
            assert head_ind == head_coal
            # the collision snapshot has the walkers together
            assert head_ind[-1][0] == tau
            positions = head_ind[-1][1][0]
            assert len(set(positions)) == 1
        if saw_collision and saw_no_collision:
            break
    assert saw_collision and saw_no_collision


def test_coupled_run_determinism(p3):
    g, kern = p3
    params = ModelParams(0.4, 1.0)
    a = coupled_run(g, kern, params, DualState.of([0, 2], [1, 1]), 4.0, RngStream(23))
    b = coupled_run(g, kern, params, DualState.of([0, 2], [1, 1]), 4.0, RngStream(23))
    assert a.collision_time == b.collision_time
    assert a.coalescing_path == b.coalescing_path
    assert a.independent_path == b.independent_path


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.floats(0.05, 0.95), v=st.floats(0.0, 4.0))
def test_random_runs_keep_invariants(seed, p, v):
    g = builtin_graph("cycle", 4)
    kern = uniform_kernel(g)
    path = []
    traj = simulate_dual(
        g, kern, ModelParams(p, v), DualState.of([0, 2], [1, -1]), 4.0,
        RngStream(seed), path=path,
    )
    traj.final_state.validate(g)
    for _, (_, _, pos_edges, neg_edges) in path:
        assert not pos_edges & neg_edges


def _reference_dual(
    g: Graph,
    kernel: AdoptionKernel | NeighborSampler,
    params: ModelParams,
    initial: DualState,
    t_max: float,
    rng,
    mode: str = "coalescing",
    stop_on_full_coalescence: bool = False,
    stop_on_collision: bool = False,
    record_events: list | None = None,
    path: list | None = None,
) -> DualTrajectory:
    """The stamped heap loop that ``simulate_dual`` replaced: entries carry
    a stamp and are dropped when their site was vacated or their edge was
    refreshed or re-revealed. Kept as the reference it must reproduce."""
    if mode not in ("coalescing", "independent"):
        raise ValueError(f"mode must be 'coalescing' or 'independent', got {mode!r}")
    coalescing = mode == "coalescing"
    if stop_on_full_coalescence and not coalescing:
        raise ValueError("full coalescence is only meaningful for the coalescing rule")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")

    gen = as_generator(rng)
    random, exponential = gen.random, gen.exponential
    sampler = kernel if isinstance(kernel, NeighborSampler) else NeighborSampler(g, kernel)
    rows = sampler.rows
    st = initial.copy()
    st.validate(g)
    p, v = params.p, params.v

    occupants: dict[int, list[int]] = {}
    for idx, z in enumerate(st.positions):
        occupants.setdefault(z, []).append(idx)
    target_classes = len({g.component_ids[z] for z in st.positions})

    heap: list[tuple[float, int, int, int]] = []
    site_stamp: dict[int, int] = {}
    edge_stamp: dict[int, int] = {}
    if coalescing:
        for z in occupants:
            site_stamp[z] = 0
            heap.append((exponential(1.0), 0, z, 0))
    else:
        for idx in range(st.walker_count):
            heap.append((exponential(1.0), 0, idx, 0))
    if v > 0.0:
        for e in sorted(st.revealed_positive | st.revealed_negative):
            edge_stamp[e] = 0
            heap.append((exponential(1.0 / v), 1, e, 0))
    heapq.heapify(heap)

    if path is not None:
        path.append((0.0, st.snapshot()))

    events = reveals = refreshes = 0
    coalescence_time: float | None = None
    collision_time: float | None = None
    if coalescing and len(occupants) == target_classes:
        coalescence_time = 0.0
    stop = stop_on_full_coalescence and coalescence_time is not None
    elapsed = 0.0 if stop else t_max
    if stop:
        heap.clear()

    def cross_edge(t: float, e: int, movers: list[int]) -> None:
        """Apply the sign effect of edge e to movers, revealing it if needed."""
        nonlocal reveals
        if e in st.revealed_positive:
            flip = False
        elif e in st.revealed_negative:
            flip = True
        else:
            positive = random() < p
            if positive:
                st.revealed_positive.add(e)
                flip = False
            else:
                st.revealed_negative.add(e)
                flip = True
            stamp = edge_stamp.get(e, 0) + 1
            edge_stamp[e] = stamp
            if v > 0.0:
                heapq.heappush(heap, (t + exponential(1.0 / v), 1, e, stamp))
            reveals += 1
            if record_events is not None:
                record_events.append(("reveal", t, f"edge{e}", "+1" if positive else "-1"))
        if flip:
            for idx in movers:
                st.signs[idx] = -st.signs[idx]

    while heap:
        t_event, channel, obj, stamp = heap[0]
        if t_event > t_max:
            break
        heapq.heappop(heap)
        if channel == 1:
            e = obj
            if edge_stamp.get(e, -1) != stamp:
                continue
            if e not in st.revealed_positive and e not in st.revealed_negative:
                continue
            st.revealed_positive.discard(e)
            st.revealed_negative.discard(e)
            edge_stamp[e] = stamp + 1
            events += 1
            refreshes += 1
            if record_events is not None:
                record_events.append(("refresh", t_event, f"edge{e}", ""))
            if path is not None:
                path.append((t_event, st.snapshot()))
            continue

        if coalescing:
            z = obj
            if site_stamp.get(z, -1) != stamp or z not in occupants:
                continue
            movers = occupants.pop(z)
            site_stamp[z] = stamp + 1
        else:
            movers = [obj]
            z = st.positions[obj]
        cumulative, total, last, neighbors, edge_ids = rows[z]
        i = min(bisect_right(cumulative, random() * total), last)
        y, e = neighbors[i], edge_ids[i]
        events += 1
        cross_edge(t_event, e, movers)
        for idx in movers:
            st.positions[idx] = y
        merged = False
        if coalescing:
            if y in occupants:
                occupants[y].extend(movers)
                merged = True
            else:
                occupants[y] = movers
                stamp_y = site_stamp.get(y, 0) + 1
                site_stamp[y] = stamp_y
                heapq.heappush(heap, (t_event + exponential(1.0), 0, y, stamp_y))
        else:
            heapq.heappush(heap, (t_event + exponential(1.0), 0, obj, 0))
            merged = any(
                st.positions[other] == y for other in range(st.walker_count) if other != obj
            )
        if record_events is not None:
            detail = f"site{z}->site{y};walkers={','.join(map(str, movers))}"
            record_events.append(("move", t_event, f"site{z}", detail))
            if coalescing and merged:
                record_events.append(
                    ("merge", t_event, f"site{y}", ",".join(map(str, sorted(occupants[y]))))
                )
        if path is not None:
            path.append((t_event, st.snapshot()))
        if merged and collision_time is None:
            collision_time = t_event
        if coalescing and coalescence_time is None and len(occupants) == target_classes:
            coalescence_time = t_event
        if stop_on_full_coalescence and coalescence_time is not None:
            elapsed = t_event
            stop = True
            break
        if stop_on_collision and collision_time is not None:
            elapsed = t_event
            stop = True
            break

    censored = stop_on_full_coalescence and coalescence_time is None
    if not stop:
        elapsed = t_max
    return DualTrajectory(
        final_state=st,
        elapsed=elapsed,
        event_count=events,
        reveal_count=reveals,
        refresh_count=refreshes,
        coalescence_time=coalescence_time,
        collision_time=collision_time,
        censored=censored,
    )


def _shift_path(path, offset: float, skip_first: bool):
    out = []
    for i, (t, snap) in enumerate(path):
        if skip_first and i == 0:
            continue
        out.append((t + offset, snap))
    return out


def _reference_coupled(
    g: Graph,
    kernel: AdoptionKernel | NeighborSampler,
    params: ModelParams,
    initial: DualState,
    t_max: float,
    rng,
) -> CoupledResult:
    """The ``coupled_run`` that built its legs field by field; kept as the
    reference for the ``dataclasses.replace`` version."""
    if len(set(initial.positions)) != len(initial.positions):
        raise ValueError("coupled_run requires pairwise distinct starting sites")
    gen = as_generator(rng)
    sampler = kernel if isinstance(kernel, NeighborSampler) else NeighborSampler(g, kernel)

    head_path: list[tuple[float, tuple]] = []
    head = _reference_dual(
        g,
        sampler,
        params,
        initial,
        t_max,
        gen,
        mode="independent",
        stop_on_collision=True,
        path=head_path,
    )
    tau = head.collision_time
    coal_target = len({g.component_ids[z] for z in initial.positions})

    if tau is None:
        # No meeting before the horizon: the two rules coincide throughout.
        ind_final = head.final_state
        coal_final = ind_final.copy()
        coalescence_time = 0.0 if len(set(initial.positions)) == coal_target else None
        coal = DualTrajectory(
            final_state=coal_final,
            elapsed=t_max,
            event_count=head.event_count,
            reveal_count=head.reveal_count,
            refresh_count=head.refresh_count,
            coalescence_time=coalescence_time,
            collision_time=None,
            censored=False,
        )
        return CoupledResult(
            independent=head,
            coalescing=coal,
            collision_time=None,
            independent_path=list(head_path),
            coalescing_path=list(head_path),
        )

    remaining = t_max - tau
    coal_gen = gen.spawn(1)[0]

    coal_tail_path: list[tuple[float, tuple]] = []
    coal_tail = _reference_dual(
        g,
        sampler,
        params,
        head.final_state,
        remaining,
        coal_gen,
        mode="coalescing",
        path=coal_tail_path,
    )
    ind_tail_path: list[tuple[float, tuple]] = []
    ind_tail = _reference_dual(
        g,
        sampler,
        params,
        head.final_state,
        remaining,
        gen,
        mode="independent",
        path=ind_tail_path,
    )

    independent = DualTrajectory(
        final_state=ind_tail.final_state,
        elapsed=t_max,
        event_count=head.event_count + ind_tail.event_count,
        reveal_count=head.reveal_count + ind_tail.reveal_count,
        refresh_count=head.refresh_count + ind_tail.refresh_count,
        coalescence_time=None,
        collision_time=tau,
        censored=False,
    )
    coal_coal_time = None
    if coal_tail.coalescence_time is not None:
        coal_coal_time = tau + coal_tail.coalescence_time
    coalescing = DualTrajectory(
        final_state=coal_tail.final_state,
        elapsed=t_max,
        event_count=head.event_count + coal_tail.event_count,
        reveal_count=head.reveal_count + coal_tail.reveal_count,
        refresh_count=head.refresh_count + coal_tail.refresh_count,
        coalescence_time=coal_coal_time,
        collision_time=tau,
        censored=False,
    )
    return CoupledResult(
        independent=independent,
        coalescing=coalescing,
        collision_time=tau,
        independent_path=list(head_path) + _shift_path(ind_tail_path, tau, skip_first=True),
        coalescing_path=list(head_path) + _shift_path(coal_tail_path, tau, skip_first=True),
    )


_REFERENCE_GRAPHS = {
    "path:3": lambda: builtin_graph("path", 3),
    "cycle:6": lambda: builtin_graph("cycle", 6),
    "complete:4": lambda: builtin_graph("complete", 4),
    "grid_torus:3,3": lambda: builtin_graph("grid_torus", 3, 3),
    "two components": lambda: build_graph([(0, 1), (1, 2), (3, 4)], 5),
}

_REFERENCE_RULES = [
    ("coalescing", {}),
    ("coalescing", {"stop_on_full_coalescence": True}),
    ("coalescing", {"stop_on_collision": True}),
    ("independent", {}),
    ("independent", {"stop_on_collision": True}),
]


def _reference_starts(g):
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


@pytest.mark.parametrize("mode, flags", _REFERENCE_RULES)
@pytest.mark.parametrize("graph", sorted(_REFERENCE_GRAPHS))
def test_dual_loop_matches_reference_loop(graph, mode, flags):
    g = _REFERENCE_GRAPHS[graph]()
    kern = uniform_kernel(g)
    # v = 0 runs no forget clocks; an int horizon must come back as elapsed unchanged
    for params, t_max in ((ModelParams(0.4, 1.5), 6.0), (ModelParams(0.7, 0.0), 4)):
        for initial in _reference_starts(g):
            for seed in range(6):
                got, want = ([], []), ([], [])
                traj = simulate_dual(
                    g, kern, params, initial, t_max, RngStream(seed), mode=mode,
                    record_events=got[0], path=got[1], **flags,
                )
                ref = _reference_dual(
                    g, kern, params, initial, t_max, RngStream(seed), mode=mode,
                    record_events=want[0], path=want[1], **flags,
                )
                assert repr(traj) == repr(ref)
                assert got == want


@pytest.mark.parametrize("graph, starts", [("path:3", [0, 2]), ("cycle:6", [0, 3])])
def test_coupled_run_matches_reference(graph, starts):
    g = _REFERENCE_GRAPHS[graph]()
    kern = uniform_kernel(g)
    params = ModelParams(0.4, 1.0)
    initial = DualState.of(starts, [1, -1], revealed_positive=[1])
    collided = []
    for seed in range(24):
        got = coupled_run(g, kern, params, initial, 2.0, RngStream(seed))
        want = _reference_coupled(g, kern, params, initial, 2.0, RngStream(seed))
        assert repr(got) == repr(want)
        assert got.independent_path == want.independent_path
        assert got.coalescing_path == want.coalescing_path
        collided.append(got.collision_time is not None)
    assert any(collided) and not all(collided)
