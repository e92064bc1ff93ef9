import math
from itertools import product

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
from spinbond.graphs import builtin_graph, kernel_from_rates, uniform_kernel
from spinbond.rng import RngStream

from conftest import striped_state


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
            traj.checkpoint_rows, final.site_signs.tobytes(), final.edge_signs.tobytes(),
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


def test_checkpoint_rows(p3):
    g, kern = p3
    obs = [CylinderEvent.of(sites={0: 1}), CylinderEvent.of(edges={1: -1})]
    table = EventTable(g, kern, ModelParams(0.5, 1.0))
    traj = simulate_forward(
        table, striped_state(g), 2.0, RngStream(7).generator(),
        checkpoint_times=[0.0, 1.0, 2.0], observables=obs,
    )
    assert len(traj.checkpoint_rows) == 6
    assert [row[0] for row in traj.checkpoint_rows] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
    assert traj.checkpoint_rows[0] == (0.0, "site0=+1", 1.0)
    assert traj.checkpoint_rows[1] == (0.0, "edge1=-1", 1.0)
    assert all(row[2] in (0.0, 1.0) for row in traj.checkpoint_rows)
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
        hits += [value for _, _, value in traj.checkpoint_rows]
    freq = dict(zip(product(_TIMES, [cyl.label() for cyl in obs]), hits / replicas))
    L = oracle.build_forward_generator(g, kern, params)
    failures = []
    for t in sorted(set(_TIMES)):
        law = oracle.transient_distribution(L, oracle.forward_delta(g, initial), t)
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
    # replica, so its checkpoint rows are that block's hits, bit for bit.
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
        rows, _ = _forward_cylinder_replica(
            stream.substream(i), 1, table, initial, t_max, times, obs
        )
        hits = _cylinder_hits(stream.substream(i), 1, table, initial, times, obs)
        assert [value for _, _, value in rows] == hits.tolist()


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
