import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinbond
from spinbond import forward, oracle
from spinbond.cylinders import CylinderEvent, single_constraint_events
from spinbond.estimators import ProductInitial, _cylinder_hits, _forward_cylinder_replica
from spinbond.forward import (
    EventTable,
    ModelParams,
    SpinBondState,
    edge_flip_rate,
    read_state_file,
    sample_product_state,
    simulate_forward,
    write_state_file,
)
from spinbond.graphs import build_graph, builtin_graph, kernel_from_rates, uniform_kernel
from spinbond.rng import RngStream

from conftest import (
    forward_delta, reference_columns, reference_forward, reference_rings, striped_state,
    transient_law,
)


def test_model_params_validation():
    ModelParams(p=0.0, v=0.0)
    ModelParams(p=1.0, v=3.5)
    with pytest.raises(ValueError, match="p must lie"):
        ModelParams(p=1.2, v=1.0)
    with pytest.raises(ValueError, match="v must be"):
        ModelParams(p=0.5, v=-0.1)


def test_edge_flip_rate_values():
    params = ModelParams(p=0.25, v=2.0)
    assert edge_flip_rate(-1, params) == pytest.approx(0.5)  # v * p
    assert edge_flip_rate(1, params) == pytest.approx(1.5)  # v * (1 - p)
    static = ModelParams(p=0.25, v=0.0)
    assert edge_flip_rate(-1, static) == 0.0
    assert edge_flip_rate(1, static) == 0.0
    with pytest.raises(ValueError):
        edge_flip_rate(0, params)


def test_state_validation(p3):
    g, _ = p3
    good = SpinBondState.constant(g)
    good.validate(g)
    with pytest.raises(ValueError, match="site_signs has shape"):
        SpinBondState(np.ones(2, dtype=np.int8), np.ones(2, dtype=np.int8)).validate(g)
    bad = SpinBondState.constant(g)
    bad.edge_signs[1] = 0
    with pytest.raises(ValueError, match="edge signs must be"):
        bad.validate(g)


def test_simulate_does_not_mutate_initial(p3):
    g, kern = p3
    initial = striped_state(g)
    before = (initial.site_signs.copy(), initial.edge_signs.copy())
    table = EventTable(g, kern, ModelParams(0.4, 1.0))
    simulate_forward(table, initial, 5.0, RngStream(3).generator())
    assert np.array_equal(initial.site_signs, before[0])
    assert np.array_equal(initial.edge_signs, before[1])


@pytest.mark.parametrize(
    "sites, edges, message",
    [
        (np.ones(2, dtype=np.int8), np.ones(2, dtype=np.int8),
         "site_signs has shape (2,), graph has 3 vertices"),
        (np.ones(3, dtype=np.int8), np.ones((2, 1), dtype=np.int8),
         "edge_signs has shape (2, 1), graph has 2 edges"),
        (np.array([1, -1, 2], dtype=np.int8), np.ones(2, dtype=np.int8),
         "site signs must be +-1, found 2 at index 2"),
        (np.ones(3, dtype=np.int8), np.array([1, 0], dtype=np.int8),
         "edge signs must be +-1, found 0 at index 1"),
        (np.array([1.0, -1.0, 0.5]), np.ones(2), "site signs must be +-1, found 0.5 at index 2"),
        (np.array([1, -1, 1]), np.array([1, -3]), "edge signs must be +-1, found -3 at index 1"),
    ],
)
def test_simulate_rejects_bad_initial_states_unchanged(p3, sites, edges, message):
    # The same texts as SpinBondState.validate, and the input is untouched.
    g, kern = p3
    initial = SpinBondState(sites, edges)
    before = (sites.copy(), edges.copy())
    for check in (
        lambda: initial.validate(g),
        lambda: simulate_forward(
            EventTable(g, kern, ModelParams(0.4, 1.0)), initial, 5.0, RngStream(3).generator()
        ),
    ):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == message
    assert np.array_equal(initial.site_signs, before[0])
    assert np.array_equal(initial.edge_signs, before[1])


def test_simulate_keeps_the_initial_dtype(p3):
    g, kern = p3
    initial = SpinBondState(np.array([1.0, -1.0, 1.0]), np.array([-1, 1], dtype=np.int64))
    traj = simulate_forward(
        EventTable(g, kern, ModelParams(0.4, 1.0)), initial, 5.0, RngStream(3).generator()
    )
    assert traj.final_state.site_signs.dtype == np.float64
    assert traj.final_state.edge_signs.dtype == np.int64
    assert traj.final_state.site_signs is not initial.site_signs
    assert np.array_equal(initial.site_signs, [1.0, -1.0, 1.0])


def test_determinism_same_seed(p3):
    g, kern = p3
    table = EventTable(g, kern, ModelParams(0.4, 1.0))
    times = np.linspace(0.0, 8.0, 81).tolist()
    obs = single_constraint_events(g)

    def run(seed):
        traj = simulate_forward(
            table, striped_state(g), 8.0, RngStream(seed).generator(),
            checkpoint_times=times, observables=obs,
        )
        final = traj.final_state
        return (
            traj.checkpoint_hits.tobytes(), final.site_signs.tobytes(), final.edge_signs.tobytes(),
            traj.event_count,
        )

    assert run(17) == run(17)
    assert run(18) != run(17)


def test_edge_marginal_transient_closed_form(p3):
    # from sign -1 an edge is +1 at time t with probability p(1 - e^{-vt})
    g, kern = p3
    p, v, t = 0.3, 1.2, 0.7
    target = p * (1.0 - math.exp(-v * t))
    n = 20000
    stream = RngStream(31)
    hits = 0
    table = EventTable(g, kern, ModelParams(p, v))  # built and checked once, not per run
    initial = SpinBondState.constant(g, 1, -1)
    for i in range(n):
        traj = simulate_forward(table, initial, t, stream.substream(i))
        hits += traj.final_state.edge_signs[0] == 1
    se = math.sqrt(target * (1 - target) / n)
    assert abs(hits / n - target) < 3 * se


def test_consensus_absorbs_when_edges_always_refresh_positive(p3):
    g, kern = p3
    table = EventTable(g, kern, ModelParams(p=1.0, v=1.0))
    for seed in range(30):
        traj = simulate_forward(
            table, SpinBondState.constant(g, -1, -1), 60.0, RngStream(seed).generator()
        )
        final = traj.final_state
        assert np.all(final.edge_signs == 1)
        assert len(set(final.site_signs.tolist())) == 1


def test_checkpoint_hits(p3):
    g, kern = p3
    obs = [CylinderEvent.of(sites={0: 1}), CylinderEvent.of(edges={1: -1})]
    table = EventTable(g, kern, ModelParams(0.5, 1.0))

    def run(times):
        return simulate_forward(
            table, striped_state(g), 2.0, RngStream(7).generator(),
            checkpoint_times=times, observables=obs,
        ).checkpoint_hits

    hits = run([0.0, 1.0, 2.0])
    assert hits.dtype == np.int64 and hits.shape == (6,)
    # Times outermost, in sorted order: the striped start meets both events.
    assert hits[:2].tolist() == [1, 1]
    assert set(hits.tolist()) <= {0, 1}
    assert np.array_equal(run([2.0, 0.0, 1.0]), hits)
    with pytest.raises(ValueError, match="beyond t_max"):
        simulate_forward(
            table, striped_state(g), 1.0, RngStream(7).generator(), checkpoint_times=[2.0]
        )


def test_checkpoint_before_time_zero_is_rejected(p3):
    g, kern = p3
    with pytest.raises(ValueError, match="checkpoint -0.5 lies before time 0"):
        spinbond.simulate_forward(
            spinbond.EventTable(g, kern, ModelParams(0.5, 1.0)), striped_state(g), 1.0,
            RngStream(7).generator(), checkpoint_times=[1.0, -0.5],
            observables=[CylinderEvent.of(sites={0: 1})],
        )


@pytest.mark.parametrize("t_max", [-1.0, math.inf, math.nan])
def test_simulate_rejects_a_horizon_that_is_not_a_finite_time(p3, t_max):
    g, kern = p3
    state = striped_state(g)
    with pytest.raises(ValueError, match="t_max must be finite and >= 0"):
        simulate_forward(
            EventTable(g, kern, ModelParams(0.5, 1.0)), state, t_max, RngStream(0).generator()
        )


def test_frozen_edges_when_refresh_rate_zero(p3):
    g, kern = p3
    initial = striped_state(g)
    table = EventTable(g, kern, ModelParams(0.3, 0.0))
    traj = simulate_forward(table, initial, 10.0, RngStream(9).generator())
    assert np.array_equal(traj.final_state.edge_signs, initial.edge_signs)


def test_state_file_roundtrip(tmp_path, p3):
    g, _ = p3
    state = striped_state(g)
    path = tmp_path / "state.txt"
    write_state_file(state, path)
    assert path.read_text() == "+-+\n+-\n"
    back = read_state_file(g, path)
    assert np.array_equal(back.site_signs, state.site_signs)
    assert np.array_equal(back.edge_signs, state.edge_signs)
    path.write_text("# comment\n+-+\n+-\n")
    read_state_file(g, path)
    path.write_text("+-+\n+\n")
    with pytest.raises(ValueError, match="edge line has 1 signs"):
        read_state_file(g, path)
    path.write_text("+-x\n+-\n")
    with pytest.raises(ValueError, match="'x'"):
        read_state_file(g, path)
    path.write_text("+-+\n")
    with pytest.raises(ValueError, match="two sign lines"):
        read_state_file(g, path)


def test_sample_product_state_statistics(c6):
    g, _ = c6
    gen = RngStream(13).generator()
    site_hits = edge_hits = 0
    n = 4000
    for _ in range(n):
        st_ = sample_product_state(g, gen, site_plus_prob=0.5, edge_plus_prob=0.2)
        site_hits += int(np.sum(st_.site_signs == 1))
        edge_hits += int(np.sum(st_.edge_signs == 1))
    assert abs(site_hits / (n * 6) - 0.5) < 0.01
    assert abs(edge_hits / (n * 6) - 0.2) < 0.01


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.floats(0.0, 1.0), v=st.floats(0.0, 3.0))
def test_signs_stay_plus_minus_one(seed, p, v):
    g = builtin_graph("path", 4)
    kern = uniform_kernel(g)
    traj = simulate_forward(
        EventTable(g, kern, ModelParams(p, v)), striped_state(g), 3.0, RngStream(seed).generator()
    )
    traj.final_state.validate(g)


_FORWARD_CASES = [
    ("path", (3,), None, ModelParams(0.3, 1.0)),
    ("cycle", (6,), None, ModelParams(0.7, 0.4)),
    ("grid_torus", (2, 3), None, ModelParams(0.5, 2.0)),
    # asymmetric, with rate 0 towards the neighbor 1 of vertex 2
    ("cycle", (4,), {0: {1: 0.8, 3: 0.2}, 1: {0: 0.3, 2: 0.7}, 2: {1: 0.0, 3: 1.0}, 3: {0: 0.1, 2: 0.9}},
     ModelParams(0.3, 1.5)),
    ("cycle", (6,), None, ModelParams(0.3, 0.0)),  # v = 0: edges never ring
    # rate 0 towards a non-neighbor: valid, and never drawn
    ("path", (3,), {0: {1: 1.0, 2: 0.0}, 1: {0: 0.5, 2: 0.5}, 2: {1: 1.0}}, ModelParams(0.6, 1.0)),
]
_LAW_CASES = _FORWARD_CASES + [
    ("cycle", (4,), None, ModelParams(0.0, 1.5)),
    ("cycle", (4,), None, ModelParams(1.0, 1.5)),
]
_T_MAX = 6.0
# Checkpoints at 0.0, at a repeated time, at t_max and between rings.
_TIMES = [0.0, 1.0, 2.5, 2.5, 4.0, _T_MAX]


def _case(kind, sizes, rates):
    g = builtin_graph(kind, *sizes)
    return g, kernel_from_rates(rates, g.vertex_count) if rates else uniform_kernel(g)


def _observables(g):
    return single_constraint_events(g) + [
        CylinderEvent.of(sites={0: 1}, edges={0: -1}),
        CylinderEvent.of(sites={0: 1, 1: 1}),
    ]


@pytest.mark.parametrize("case", range(len(_LAW_CASES)))
def test_forward_follows_the_exact_transient_law(case):
    # Every (time, cylinder) frequency over 2,000 runs against
    # oracle.transient_distribution. Stated false-failure rate: the eight
    # cases hold 308 two-sided gates at 4 binomial sigma, family-wise
    # <= 308 * 0.0063% = 2.0% under the normal approximation. Where the exact
    # value is 0 or 1 (t = 0, frozen edges at v = 0, edges at p = 0 or 1)
    # every run must show it.
    kind, sizes, rates, params = _LAW_CASES[case]
    g, kern = _case(kind, sizes, rates)
    initial = striped_state(g)
    obs = _observables(g)
    table = EventTable(g, kern, params)
    stream = RngStream(83, (case,))
    replicas = 2000
    hits = np.zeros(len(_TIMES) * len(obs))
    for i in range(replicas):
        traj = simulate_forward(
            table, initial, _T_MAX, stream.substream(i), checkpoint_times=_TIMES, observables=obs
        )
        hits += traj.checkpoint_hits
    freq = dict(zip(product(_TIMES, [cyl.label() for cyl in obs]), hits / replicas))
    failures = []
    for t in sorted(set(_TIMES)):
        law = transient_law(g, kern, params, forward_delta(g, initial), t)
        for cyl in obs:
            want = oracle.cylinder_probability(g, law, cyl)
            sigma = math.sqrt(max(want * (1.0 - want), 0.0) / replicas)
            if abs(freq[(t, cyl.label())] - want) > 4.0 * sigma + 1e-12:
                failures.append(f"t={t} {cyl.label()}: {freq[(t, cyl.label())]} vs {want}")
    assert not failures


def test_event_table_rings(k2):
    # On K2 a site ring takes the neighbour's sign times the edge's, whatever
    # its own sign: the product of its two columns for all four sign pairs.
    g, kern = k2
    k, src, via = EventTable(g, kern, ModelParams(0.5, 1.0)).rings(
        np.array([0.0, 0.4]), np.array([0.5, 0.5])
    )
    assert k.tolist() == [0, 1]
    for y_sign, e_sign, own in product((1, -1), repeat=3):
        row = np.array([own, y_sign, e_sign, 1, -1])
        assert row[src[0]] * row[via[0]] == y_sign * e_sign
        row[:2] = y_sign, own
        assert row[src[1]] * row[via[1]] == y_sign * e_sign

    # For many uniform pairs (u, w), every ring must pick a site and a
    # positive-rate kernel neighbour y with via column n + edge_id(x, y), or
    # an edge and the +1 or -1 column with via the +1 column. Objects come in
    # proportion to their rates (1 per site, v per edge), neighbours in
    # proportion to the kernel rates, and +1 with probability p. Stated
    # false-failure rate: the six cases hold 145 binomial gates, 132 of them
    # random, two-sided at 4 sigma, family-wise <= 132 * 0.0063% = 0.84%
    # under the normal approximation; the 13 whose probability is 0 or 1
    # are exact.
    gates = []  # (hits, trials, probability)
    for case, (kind, sizes, rates, params) in enumerate(_FORWARD_CASES):
        g, kern = _case(kind, sizes, rates)
        table = EventTable(g, kern, params)
        n, m = g.vertex_count, g.edge_count
        plus, minus = n + m, n + m + 1
        k, src, via = table.rings(*RngStream(97, (case,)).generator().random((2, 50_000)))
        ringing = np.bincount(k, minlength=n + m)
        assert ringing.size == n + m
        gates += [(ringing[x], k.size, (1.0 if x < n else params.v) / table.rate)
                  for x in range(n + m)]
        for x, row in enumerate(kern.rows):
            mine = k == x
            total = sum(q for _, q in row)
            positive = {y for y, q in row if q > 0.0}
            assert set(src[mine].tolist()) <= positive
            for y in positive:
                assert (via[mine & (src == y)] == n + g.edge_id(x, y)).all()
            gates += [(np.count_nonzero(src[mine] == y), ringing[x], q / total) for y, q in row]
        for e in range(m):
            mine = k == n + e
            assert np.isin(src[mine], (plus, minus)).all() and (via[mine] == plus).all()
            gates.append((np.count_nonzero(src[mine] == plus), ringing[n + e], params.p))
    assert sum(0.0 < q < 1.0 for _, _, q in gates) == 132
    failures = [
        (hits, trials, q)
        for hits, trials, q in gates
        if abs(hits - trials * q) > 4.0 * math.sqrt(trials * q * (1.0 - q)) + 1e-9
    ]
    assert not failures


@st.composite
def _event_tables(draw):
    """A random valid table: a connected spanning tree, so that degree-1 sites are common,
    plus a few random edges; kernels with rate-0 entries; p and v at and near their ends."""
    n = draw(st.integers(2, 6))
    pairs = [(x, draw(st.integers(0, x - 1))) for x in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    g = build_graph([(a, b) for a, b in pairs if a != b], n)
    rates = {}
    for x in range(n):
        degree = g.degree(x)
        weights = draw(st.lists(st.integers(0, 4), min_size=degree, max_size=degree).filter(any))
        rates[x] = {y: q / sum(weights) for (y, _), q in zip(g.adjacency[x], weights)}
    ends = [0.0, 1e-12, np.nextafter(0.0, 1.0), 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0]
    p = draw(st.sampled_from(ends) | st.floats(0.0, 1.0))
    v = draw(st.sampled_from([0.0, 1e-9, 1.0, 1e3]) | st.floats(0.0, 10.0))
    return EventTable(g, kernel_from_rates(rates, n), ModelParams(p, v))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_ring_sampler_matches_the_first_entry_above_each_draw(data):
    # rings and columns count the leading entries of a row at most w; the
    # reference rule takes the first entry above w by argmin. They must pick
    # the same object and entries, bit for bit, on draws that sit exactly on
    # a cumulative entry, at 0.0 and at the largest double below 1, and on
    # object draws that land exactly on an object's edge of the rate scale.
    # The move table that simulate_forward reads must hold each entry's
    # object and columns.
    table = data.draw(_event_tables())
    on_rows = np.unique(table.cum[table.cum < 1.0]).tolist()
    on_objects = [j / table.rate for j in range(table.objects) if j / table.rate < 1.0]
    ends = [0.0, float(np.nextafter(1.0, 0.0))]
    size = data.draw(st.integers(1, 40))

    def draws(values):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

    unit = st.floats(0.0, 1.0, exclude_max=True)
    w = draws(unit | st.sampled_from(ends + on_rows))
    u = draws(unit | st.sampled_from(ends + on_objects))
    k = draws(st.integers(0, table.objects - 1))
    for got, want in ((table.columns(k, w), reference_columns(table, k, w)),
                      (table.rings(u, w), reference_rings(table, u, w))):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
    width = table.cum.shape[1]
    assert table.moves.tolist() == [
        (entry // width, a, b)
        for entry, (a, b) in enumerate(zip(table.src.tolist(), table.via.tolist()))
    ]


def test_the_move_table_holds_one_int_object_per_index():
    # grid_torus:12,12 has 434 columns, most of them above CPython's small ints.
    g = builtin_graph("grid_torus", 12, 12)
    table = EventTable(g, uniform_kernel(g), ModelParams(0.3, 0.7))
    indices = [index for move in table.moves.tolist() for index in move]
    assert len(indices) == 3 * table.src.size
    assert len({id(index) for index in indices}) == g.vertex_count + g.edge_count + 2


def test_the_move_table_shares_one_tuple_per_row_for_its_padding():
    # complete:100 pads each of its 4,950 two-entry edge rows to the sites'
    # width of 99: 499,950 entries, of which 19,800 can be drawn.
    g = builtin_graph("complete", 100)
    table = EventTable(g, uniform_kernel(g), ModelParams(0.3, 0.7))
    drawable = int(np.count_nonzero(table.cum <= 1.0))
    assert (table.src.size, drawable) == (499_950, 19_800)
    assert len({id(move) for move in table.moves}) <= drawable + table.cum.shape[0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_forward_runs_match_the_loop_over_the_ring_lists(data):
    # simulate_forward must give the final state, checkpoint hits and ring
    # count of its first loop, which read each ring from the three lists of
    # rings, on the tables of the sampler test above, with checkpoints at 0
    # and at t_max and chunks of one ring up to CHUNK_CAP.
    table = data.draw(_event_tables())
    g = table.g
    signs = st.sampled_from([1, -1])
    initial = SpinBondState(
        *(np.array(data.draw(st.lists(signs, min_size=size, max_size=size)), dtype=np.int8)
          for size in (g.vertex_count, g.edge_count))
    )
    t_max = data.draw(st.floats(0.0, 1.0)) * 500.0 / table.rate  # 500 rings at most, on average
    times = [0.0, *data.draw(st.lists(st.floats(0.0, t_max), max_size=3)), t_max]
    obs = single_constraint_events(g)
    seed = data.draw(st.integers(0, 2**32 - 1))
    with mock.patch.object(forward, "CHUNK_CAP", data.draw(st.sampled_from([1, 3, 4096]))):
        traj = simulate_forward(table, initial, t_max, RngStream(seed).generator(), times, obs)
        sites, edges, hits, events = reference_forward(
            table, initial, t_max, RngStream(seed).generator(), times, obs
        )
    assert traj.final_state.site_signs.dtype == traj.final_state.edge_signs.dtype == np.int8
    assert traj.final_state.site_signs.tolist() == sites
    assert traj.final_state.edge_signs.tolist() == edges
    assert traj.checkpoint_hits.dtype == np.int64
    assert np.array_equal(traj.checkpoint_hits, hits)
    assert traj.event_count == events


# (kind, sizes, params, product start, chunk cap)
_BLOCK_CASES = [
    ("path", (3,), ModelParams(0.3, 1.0), False, None),
    ("path", (3,), ModelParams(0.3, 1.0), True, None),
    ("cycle", (6,), ModelParams(0.3, 0.0), True, None),  # v = 0
    ("grid_torus", (3, 3), ModelParams(0.5, 2.0), True, 3),  # many chunks per interval
    ("cycle", (5,), ModelParams(0.7, 0.4), False, 3),
]


@pytest.mark.parametrize("case", _BLOCK_CASES)
def test_forward_rows_are_the_hits_of_a_one_replica_block(monkeypatch, case):
    # simulate_forward makes exactly the draws of _cylinder_hits with one
    # replica, so its checkpoint hits are that block's, bit for bit.
    # Checkpoints at 0.0, repeated, and at t_max (or short of it).
    kind, sizes, params, product_start, cap = case
    if cap is not None:
        monkeypatch.setattr(forward, "CHUNK_CAP", cap)
    g = builtin_graph(kind, *sizes)
    table = EventTable(g, uniform_kernel(g), params)
    obs = _observables(g)
    times = [0.0, 0.4, 0.4, 1.3, 3.0]
    initial = ProductInitial(0.5, 0.3) if product_start else striped_state(g)
    stream = RngStream(5)
    for i in range(100):
        t_max = 3.0 if i % 2 else 3.5
        path_hits, _ = _forward_cylinder_replica(
            stream.substream(i), 1, table, initial, t_max, times, obs
        )
        hits = _cylinder_hits(stream.substream(i), 1, table, initial, times, obs)
        assert path_hits.dtype == hits.dtype and np.array_equal(path_hits, hits)


def test_recorded_ring_times_are_poisson_and_uniform(p3):
    # The ring count over [0, t_max] must have mean and variance rate * t_max,
    # however the checkpoints split it into intervals. Stated false-failure
    # rate: two normal gates at 4 sigma, family-wise <= 2 * 0.0063% = 0.013%.
    g, kern = p3
    table = EventTable(g, kern, ModelParams(0.4, 1.0))
    t_max, replicas = 2.0, 4000
    stream = RngStream(61)
    counts = np.array([
        simulate_forward(
            table, striped_state(g), t_max, stream.substream(i), checkpoint_times=[0.5, 1.2]
        ).event_count
        for i in range(replicas)
    ])
    lam = table.rate * t_max
    assert abs(counts.mean() - lam) < 4.0 * math.sqrt(lam / replicas)
    # The sample variance of Poisson(lam) counts has variance about (lam + 2 lam^2) / N.
    var_sd = math.sqrt((lam + 2.0 * lam**2) / replicas)
    assert abs(counts.var(ddof=1) - lam) < 4.0 * var_sd


def test_invalid_kernel_is_rejected_everywhere(p3):
    # Rows summing to 0.7 and 0.4: no simulator may quietly rescale them, and
    # the exact builders may not take their rates as given. Every simulator
    # and estimator takes an EventTable, so building one is the Monte Carlo
    # side's one entry point.
    g, _ = p3
    bad = kernel_from_rates({0: {1: 1.0}, 1: {0: 0.7, 2: 0.0}, 2: {1: 0.4}}, g.vertex_count)
    params = ModelParams(0.5, 1.0)
    for run in (
        lambda: EventTable(g, bad, params),
        lambda: oracle.build_forward_generator(g, bad, params),
        lambda: oracle.build_dual_generator(g, bad, params, 2),
    ):
        with pytest.raises(ValueError, match=r"invalid kernel: row sum at vertex 1 is 0\.7"):
            run()
