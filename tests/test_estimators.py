"""Monte Carlo estimators: determinism, parallel equivalence, known targets."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import (
    _dual_generator_by_state, coupled_run, decode_forward_state, encode_dual_state, striped_state,
)
from scipy import stats
from scipy.linalg import expm

from spinbond import estimators as est
from spinbond import oracle
from spinbond.cylinders import CylinderEvent, single_constraint_events
from spinbond.dual import DualState, simulate_dual
from spinbond.errors import CensoringError
from spinbond.forward import EventTable, ModelParams, SpinBondState, simulate_forward
from spinbond.graphs import build_graph, builtin_graph, kernel_from_rates, uniform_kernel
from spinbond.rng import RngStream


def test_deviation_sigmas_edge_cases():
    zero = est.EstimateResult("x", 0.5, 0.0, 10)
    assert est.deviation_sigmas(zero, 0.5) == 0.0
    assert est.deviation_sigmas(zero, 0.6) == math.inf
    noisy = est.EstimateResult("x", 0.5, 0.01, 10)
    assert est.deviation_sigmas(noisy, 0.53) == pytest.approx(3.0)


def test_default_time_cap_scales_with_graph(k2, c6):
    assert est.default_time_cap(k2[0]) == pytest.approx(1e4 * 4)
    assert est.default_time_cap(c6[0]) == pytest.approx(1e4 * 36)


def test_cylinder_estimates_shape_and_determinism(p3):
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    cyls = [CylinderEvent.of(sites={0: 1}), CylinderEvent.of(edges={0: -1})]
    kwargs = dict(
        table=EventTable(g, kern, params),
        initial=est.ProductInitial(),
        times=[0.5, 1.5],
        cylinders=cyls,
        replicas=64,
    )
    first = est.estimate_cylinder_probabilities(stream=RngStream(7), **kwargs)
    again = est.estimate_cylinder_probabilities(stream=RngStream(7), **kwargs)
    other = est.estimate_cylinder_probabilities(stream=RngStream(8), **kwargs)
    assert set(first) == {(t, c.label()) for t in (0.5, 1.5) for c in cyls}
    for key, res in first.items():
        assert res.replicas == 64
        assert 0.0 <= res.estimate <= 1.0
        assert res.estimate == again[key].estimate
        assert res.std_error == again[key].std_error
    assert any(first[k].estimate != other[k].estimate for k in first)


def test_parallel_workers_reproduce_sequential(p3):
    # Block b draws from substream b however the blocks are shared out, so
    # the worker count must not change a single bit of the output. Three
    # blocks, the last one short, split unevenly over two and three workers.
    g, kern = p3
    params = ModelParams(0.4, 1.0)
    cyls = [CylinderEvent.of(sites={1: -1}), CylinderEvent.of(sites={0: 1}, edges={1: 1})]
    kwargs = dict(
        table=EventTable(g, kern, params),
        initial=est.ProductInitial(),
        times=[0.5, 1.0],
        cylinders=cyls,
        replicas=2 * est.REPLICA_BLOCK + 100,
    )
    seq = est.estimate_cylinder_probabilities(stream=RngStream(11), workers=1, **kwargs)
    for workers in (2, 3):
        par = est.estimate_cylinder_probabilities(stream=RngStream(11), workers=workers, **kwargs)
        assert par == seq


def _block_estimates(name, workers):
    """One block estimator over three blocks, the last one short."""
    replicas, stream = 2 * est.REPLICA_BLOCK + 100, RngStream(19, (4,))
    g = builtin_graph("path", 3)
    table = EventTable(g, uniform_kernel(g), ModelParams(0.3, 1.0))
    if name == "dual_side":
        return est.estimate_dual_side(
            table, striped_state(g), DualState.of([0, 2], [1, -1], [1]), 0.8,
            replicas, stream, workers, mode="independent",
        )
    if name == "revealed_weight":
        return est.estimate_revealed_weight(
            table, DualState.of([1], [1]), 0.7, 2.0, replicas, stream, workers
        )
    if name == "mu_dyn":
        return est.estimate_mu_dyn(
            table, [0, 2], [1, 1], replicas, stream, workers=workers, report_limit=replicas
        )
    return est.estimate_mgf([0.5], [1.5], 0.5, 3, replicas, stream, workers)


@pytest.mark.parametrize("name", ["dual_side", "revealed_weight", "mu_dyn", "mgf"])
def test_block_estimators_reproduce_sequential(name):
    # As for the forward estimator: whole results, mu-dyn's coalescence
    # reports of every replica included, must not depend on the workers.
    # The dual steps blocks 0 and 1 as a pair with one or two workers, and
    # each block alone with three.
    seq = _block_estimates(name, 1)
    for workers in (2, 3):
        assert _block_estimates(name, workers) == seq


def test_dual_runs_hand_the_dual_two_blocks_a_call(monkeypatch):
    calls = []

    def spy(gen, size, **run):
        calls.append(size)
        return simulate_dual(gen, size, **run)

    monkeypatch.setattr(est, "simulate_dual", spy)
    _block_estimates("revealed_weight", 1)
    assert calls == [[est.REPLICA_BLOCK] * 2, [100]]


def _first_draws(gen, size):
    return gen.random(), gen.exponential(), size


@pytest.mark.parametrize("workers", [1, 2])
def test_collect_matches_per_replica_generators(workers):
    # Blocks of one replica are replicas on their own substreams, as
    # raw-simulate runs them. With two workers, 2,500 replicas cross the
    # pool's chunk split at 1,250.
    stream = RngStream(2024, (3, 1))
    expected = [_first_draws(stream.child(i).generator(), 1) for i in range(2500)]
    assert est._collect(_first_draws, 2500, stream, workers, block=1) == expected


def _block_draw(gen, size):
    return gen.random(), size


@pytest.mark.parametrize("workers", [1, 2])
def test_collect_hands_out_whole_blocks(workers):
    stream = RngStream(2024, (3, 1))
    expected = [(stream.child(b).generator().random(), size) for b, size in enumerate([4, 4, 2])]
    assert est._collect(_block_draw, 10, stream, workers, block=4) == expected


def _group_draw(gens, sizes):
    return [gen.random() for gen in gens], sizes


@pytest.mark.parametrize(
    "workers, calls", [(1, [[0, 1], [2]]), (2, [[0, 1], [2]]), (3, [[0], [1], [2]])]
)
def test_collect_groups_blocks_within_a_workers_run(workers, calls):
    # Groups of two consecutive blocks, never across two workers' runs.
    stream = RngStream(2024, (3, 1))
    sizes = [4, 4, 2]
    expected = [
        ([stream.child(b).generator().random() for b in call], [sizes[b] for b in call])
        for call in calls
    ]
    assert est._collect(_group_draw, 10, stream, workers, block=4, group=2) == expected


# Asymmetric kernel on C4 (edges 0-1, 1-2, 2-3, 0-3) with a rate-0 entry
# towards the non-neighbour 2 of vertex 0.
_C4_SKEWED = {0: {1: 0.8, 2: 0.0, 3: 0.2}, 1: {0: 0.3, 2: 0.7}, 2: {1: 0.5, 3: 0.5}, 3: {0: 0.1, 2: 0.9}}


def _product_law(g, initial):
    """Exact law of a ProductInitial over the oracle's packed states."""
    n, m = g.vertex_count, g.edge_count
    idx = np.arange(oracle.forward_state_count(g))
    law = np.ones(idx.size)
    for bit in range(n + m):
        q = initial.site_plus_prob if bit < n else initial.edge_plus_prob
        law *= np.where((idx >> bit) & 1, q, 1.0 - q)
    return law


# (graph, skewed kernel, p, v, initial): a fixed state or a ProductInitial.
_LAW_CASES = {
    "P3 striped": ("path:3", False, 0.3, 1.0, None),
    "C4 skewed product": ("cycle:4", True, 0.6, 0.8, est.ProductInitial(0.7, 0.4)),
    "C4 skewed striped v=0": ("cycle:4", True, 0.6, 0.0, None),
    "P3 product v=0": ("path:3", False, 0.3, 0.0, est.ProductInitial(0.5, 0.3)),
    "C4 striped p=0": ("cycle:4", False, 0.0, 1.5, None),
    "C4 product p=1": ("cycle:4", False, 1.0, 1.5, est.ProductInitial(0.5, 0.5)),
}


@pytest.mark.parametrize("case", sorted(_LAW_CASES))
def test_batched_estimator_follows_the_exact_transient_law(case):
    # Every (time, cylinder) frequency against oracle.transient_distribution,
    # at t = 0 and with a repeated checkpoint. Stated false-failure rate: the
    # six cases hold 162 two-sided gates at 4 binomial sigma, family-wise
    # <= 162 * 0.0063% = 1.0% under the normal approximation. Where the exact
    # value is 0 or 1 (a fixed start at t = 0, frozen edges at v = 0) the
    # estimate must equal it.
    spec, skewed, p, v, initial = _LAW_CASES[case]
    kind, size = spec.split(":")
    g = builtin_graph(kind, int(size))
    kern = kernel_from_rates(_C4_SKEWED, 4) if skewed else uniform_kernel(g)
    params = ModelParams(p, v)
    if initial is None:
        initial = striped_state(g)
        law0 = oracle.forward_delta(g, initial)
    else:
        law0 = _product_law(g, initial)
    cyls = single_constraint_events(g) + [
        CylinderEvent.of(sites={0: 1}, edges={0: -1}),
        CylinderEvent.of(sites={0: 1, 1: 1}),
    ]
    times = [0.0, 0.4, 0.4, 1.5]
    replicas = 20_000
    got = est.estimate_cylinder_probabilities(
        EventTable(g, kern, params), initial, times, cyls, replicas, RngStream(71, (len(case),))
    )
    L = oracle.build_forward_generator(g, kern, params)
    failures = []
    for t in sorted(set(times)):
        law = oracle.transient_distribution(L.copy(), law0, t)
        for cyl in cyls:
            want = oracle.cylinder_probability(g, law, cyl)
            res = got[(t, cyl.label())]
            sigma = math.sqrt(max(want * (1.0 - want), 0.0) / replicas)
            if abs(res.estimate - want) > 4.0 * sigma + 1e-12:
                failures.append(f"t={t} {cyl.label()}: {res.estimate} vs {want}")
    assert len(got) == 3 * len(cyls)
    assert not failures


def _dual_events(g, pos, sgn, status):
    """Indicator columns of the dual events the law test gates.

    Each walker's (site, sign), each edge revealed +1 and -1, each revealed
    count, and for two walkers: co-located, and co-located with one sign.
    """
    n, m, k = g.vertex_count, g.edge_count, pos.shape[1]
    cols = [(pos[:, j] == x) & (sgn[:, j] == s) for j in range(k) for x in range(n) for s in (1, -1)]
    cols += [status[:, e] == s for e in range(m) for s in (1, -1)]
    revealed = np.count_nonzero(status, axis=1)
    cols += [revealed == c for c in range(m + 1)]
    if k == 2:
        together = pos[:, 0] == pos[:, 1]
        cols += [together, together & (sgn[:, 0] == sgn[:, 1])]
    return np.stack(cols, axis=1)


def _decoded_dual_states(g, k):
    """Positions, signs and edge statuses of every oracle dual state, in index order."""
    n, m = g.vertex_count, g.edge_count
    idx = np.arange(oracle.dual_state_count(g, k))
    pos = np.stack([(idx // n**j) % n for j in range(k)], axis=1)
    bits = (idx // n**k) % 2**k
    sgn = np.stack([np.where((bits >> j) & 1, 1, -1) for j in range(k)], axis=1)
    env = idx // (n**k * 2**k)
    digit = np.stack([(env // 3**e) % 3 for e in range(m)], axis=1)
    return pos, sgn, np.select([digit == 1, digit == 2], [1, -1], 0)


# (graph, skewed kernel, p, v, t, mode, start): k = 1 and 2, both rules,
# v = 0, the skewed C4 kernel with its rate-0 entry, and revealed starts,
# one of them an edge that the walker seldom reaches before it is forgotten.
_DUAL_LAW_CASES = {
    "P3 k=1": ("path:3", False, 0.3, 1.0, 1.0, "coalescing", DualState.of([1], [1])),
    "P3 k=2 independent revealed": (
        "path:3", False, 0.3, 1.5, 0.8, "independent", DualState.of([0, 2], [1, -1], [0]),
    ),
    "C4 k=2 coalescing revealed": (
        "cycle:4", False, 0.6, 0.8, 1.2, "coalescing", DualState.of([0, 2], [1, 1], [1], [3]),
    ),
    "C4 skewed k=2 coalescing v=0": (
        "cycle:4", True, 0.6, 0.0, 1.0, "coalescing", DualState.of([0, 1], [1, -1]),
    ),
    "C4 skewed k=2 independent co-located": (
        "cycle:4", True, 0.4, 1.0, 1.0, "independent", DualState.of([0, 0], [1, -1], (), [2]),
    ),
    "C4 k=1 independent two revealed": (
        "cycle:4", False, 0.5, 2.0, 0.5, "independent", DualState.of([3], [-1], [0, 2]),
    ),
    "P5 k=1 v=4 far revealed edge": (
        "path:5", False, 0.3, 4.0, 0.6, "coalescing", DualState.of([0], [1], [3]),
    ),
}


def _law_misses(g, kern, params, initial, t, mode, runs):
    """Event frequencies of the block ``runs`` more than 4 binomial sigma off
    oracle.transient_distribution at t on the labelled dual chain of the
    reference builder, or off an exact 0 or 1 at all. The events name
    walkers, so they need the labelled chain, not the oracle's orbits."""
    k = initial.walker_count
    law0 = np.zeros(oracle.dual_state_count(g, k))
    law0[encode_dual_state(g, initial)] = 1.0
    law = oracle.transient_distribution(_dual_generator_by_state(g, kern, params, k, mode), law0, t)
    want = law @ _dual_events(g, *_decoded_dual_states(g, k))
    got = _dual_events(g, runs.positions, runs.signs, runs.status).mean(axis=0)
    sigma = np.sqrt(np.clip(want * (1.0 - want), 0.0, None) / runs.time.size)
    bad = np.flatnonzero(np.abs(got - want) > 4.0 * sigma + 1e-12)
    return [(int(i), got[i], want[i]) for i in bad]


@pytest.mark.parametrize("case", sorted(_DUAL_LAW_CASES))
def test_batched_dual_follows_the_exact_transient_law(case):
    # Event frequencies of the batched dual runner against
    # oracle.transient_distribution on the labelled reference chain. Stated
    # false-failure rate: the seven cases hold 171 two-sided gates at 4
    # binomial sigma, family-wise <= 171 * 0.0063% = 1.1% under the normal
    # approximation. Where the exact value is 0 or 1 the frequency must
    # equal it.
    spec, skewed, p, v, t, mode, initial = _DUAL_LAW_CASES[case]
    kind, size = spec.split(":")
    g = builtin_graph(kind, int(size))
    kern = kernel_from_rates(_C4_SKEWED, 4) if skewed else uniform_kernel(g)
    params = ModelParams(p, v)
    runs = est._dual_runs(
        EventTable(g, kern, params), 20_000, RngStream(83, (len(case),)), 1,
        initial=initial, t_max=t, mode=mode,
    )
    assert not _law_misses(g, kern, params, initial, t, mode, runs)


def test_continued_dual_block_follows_the_exact_transient_law():
    # A block run to t1 and continued from its DualTrajectory to t2 against
    # the oracle at t2: the continuation must take each revealed edge as
    # last seen at t1. Stated false-failure rate: 31 two-sided gates at 4
    # binomial sigma, family-wise <= 31 * 0.0063% = 0.20% under the normal
    # approximation.
    g = builtin_graph("cycle", 4)
    kern = uniform_kernel(g)
    params = ModelParams(0.6, 1.0)
    initial = DualState.of([0, 2], [1, 1], [1], [3])
    gen, replicas = RngStream(86).generator(), 20_000
    table = EventTable(g, kern, params)
    first = simulate_dual(gen, replicas, table, initial, 0.6)
    runs = simulate_dual(gen, replicas, table, first, 1.2)
    assert (first.time == 0.6).all() and (runs.time == 1.2).all()
    assert not _law_misses(g, kern, params, initial, 1.2, "coalescing", runs)


def test_coupled_legs_follow_the_exact_transient_law():
    # Each leg of coupled_run on P3, two walkers from distinct sites, against
    # oracle.transient_distribution on its own rule's labelled reference
    # chain. Stated false-failure rate: 2 legs of 21 two-sided gates at 4
    # binomial sigma, family-wise <= 42 * 0.0063% = 0.27% under the normal
    # approximation. Where the exact value is 0 or 1 the frequency must
    # equal it.
    g = builtin_graph("path", 3)
    kern = uniform_kernel(g)
    params = ModelParams(0.3, 1.0)
    initial = DualState.of([0, 2], [1, -1])
    t, replicas = 1.5, 20_000
    head, coalescing, independent = coupled_run(
        RngStream(84).generator(), replicas, EventTable(g, kern, params), initial, t
    )
    assert 0.2 < np.count_nonzero(head.stopped) / replicas < 0.95
    law0 = np.zeros(oracle.dual_state_count(g, 2))
    law0[encode_dual_state(g, initial)] = 1.0
    for mode, leg in (("coalescing", coalescing), ("independent", independent)):
        L = _dual_generator_by_state(g, kern, params, 2, mode)
        want = oracle.transient_distribution(L, law0, t) @ _dual_events(g, *_decoded_dual_states(g, 2))
        got = _dual_events(g, leg.positions, leg.signs, leg.status).mean(axis=0)
        sigma = np.sqrt(np.clip(want * (1.0 - want), 0.0, None) / replicas)
        bad = np.flatnonzero(np.abs(got - want) > 4.0 * sigma + 1e-12)
        assert want.size == 21
        assert not [(mode, int(i), got[i], want[i]) for i in bad]


def test_mu_dyn_single_walker_is_exact(k2):
    # One walker is coalesced from the start: every replica returns 1/2
    # with zero variance, and a revealed edge only rescales by p or 1-p.
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    table = EventTable(g, kern, params)
    plain = est.estimate_mu_dyn(table, sites=[0], signs=[1], replicas=100, stream=RngStream(3))
    assert plain.result.estimate == 0.5
    assert plain.result.std_error == 0.0
    assert plain.censored_count == 0
    constrained = est.estimate_mu_dyn(
        table,
        sites=[0],
        signs=[1],
        replicas=100,
        stream=RngStream(3),
        revealed_positive=[0],
    )
    assert constrained.result.estimate == pytest.approx(0.5 * params.p)
    assert constrained.result.std_error == 0.0


def test_mu_dyn_reports_describe_replicas(k2):
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    out = est.estimate_mu_dyn(
        EventTable(g, kern, params),
        sites=[0, 1],
        signs=[1, 1],
        replicas=40,
        stream=RngStream(5),
        report_limit=10,
    )
    assert len(out.reports) == 10
    for rep in out.reports:
        assert rep.partition == ((0, 1),)  # two walkers on K2 must merge
        assert len(rep.sync) == 1
        assert rep.time >= 0.0
        assert not rep.censored
        js = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert js["partition"] == [[0, 1]]


def test_mu_dyn_censoring_raises(k2, monkeypatch):
    g, kern = k2
    table = EventTable(g, kern, ModelParams(0.3, 1.0))
    with pytest.raises(CensoringError):
        est.estimate_mu_dyn(
            table,
            sites=[0, 1],
            signs=[1, 1],
            replicas=50,
            stream=RngStream(9),
            t_cap=1e-6,
        )
    # within tolerance, censored runs are dropped from the mean, not averaged in
    monkeypatch.setattr(est, "CENSOR_TOLERANCE", 1.0)
    partial = est.estimate_mu_dyn(
        table,
        sites=[0, 1],
        signs=[1, 1],
        replicas=60,
        stream=RngStream(9),
        t_cap=0.35,
    )
    assert 0 < partial.censored_count < 60
    assert partial.result.replicas == 60 - partial.censored_count
    with pytest.raises(CensoringError):  # nothing completed, nothing to average
        est.estimate_mu_dyn(
            table,
            sites=[0, 1],
            signs=[1, 1],
            replicas=10,
            stream=RngStream(9),
            t_cap=1e-9,
        )


def test_mu_dyn_two_walker_estimate_matches_exact(k2):
    # On two sites the stationary mass of {eta(0)=eta(1)=+1} is p/2: the
    # agreement indicator follows the edge sign, whose stationary plus
    # probability is p, and the common value is a fair coin.
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    out = est.estimate_mu_dyn(
        EventTable(g, kern, params), sites=[0, 1], signs=[1, 1], replicas=4000,
        stream=RngStream(21),
    )
    assert est.deviation_sigmas(out.result, params.p / 2.0) < 3.0


def test_mu_dyn_rejects_non_plus_site_signs(k2):
    g, kern = k2
    with pytest.raises(ValueError, match="all-\\+1"):
        est.estimate_mu_dyn(
            EventTable(g, kern, ModelParams(0.3, 1.0)), sites=[0], signs=[-1], replicas=10,
            stream=RngStream(1),
        )


def test_mu_dyn_separate_components_never_merge():
    # Walkers in different components stay distinct classes forever, so the
    # replica value is (1/2)^2 with certainty; the exact solve agrees.
    g = build_graph([(0, 1), (2, 3)], 4)
    kern = uniform_kernel(g)
    params = ModelParams(0.4, 1.0)
    out = est.estimate_mu_dyn(
        EventTable(g, kern, params), sites=[0, 2], signs=[1, 1], replicas=200,
        stream=RngStream(31),
    )
    assert out.result.estimate == 0.25
    assert out.result.std_error == 0.0
    for rep in out.reports:
        assert rep.partition == ((0,), (1,))
    L = oracle.build_forward_generator(g, kern, params)
    pi = oracle.stationary_distribution(L, g, params)
    exact = oracle.cylinder_probability(g, pi, CylinderEvent.of(sites={0: 1, 2: 1}))
    assert exact == pytest.approx(0.25, abs=1e-10)


def test_mu_dyn_stops_at_the_closed_classes_of_a_reducible_kernel():
    # cycle:6 with rate 0 across the edges {2, 3} and {5, 0}: one graph
    # component, but the kernel's walk has the closed classes {0, 1, 2} and
    # {3, 4, 5}, asymmetric inside. Walkers from 0 and 2 coalesce and the
    # one from 4 stays alone, so every replica stops at two classes. Against
    # the exact stationary mass; stated false-failure rate: one two-sided
    # gate at 3 sigma, family-wise <= 0.27% under the normal approximation.
    g = builtin_graph("cycle", 6)
    rates = {
        0: {1: 1.0, 5: 0.0}, 1: {0: 0.7, 2: 0.3}, 2: {1: 1.0, 3: 0.0},
        3: {2: 0.0, 4: 1.0}, 4: {3: 0.2, 5: 0.8}, 5: {0: 0.0, 4: 1.0},
    }
    kern, params = kernel_from_rates(rates, 6), ModelParams(0.3, 1.0)
    out = est.estimate_mu_dyn(
        EventTable(g, kern, params), [0, 2, 4], [1, 1, 1], 4000, RngStream(97), t_cap=1e3
    )
    assert out.censored_count == 0
    assert {len(rep.partition) for rep in out.reports} == {2}
    pi = oracle.stationary_distribution(
        oracle.build_forward_generator(g, kern, params), g, params
    )
    exact = oracle.cylinder_probability(g, pi, CylinderEvent.of(sites={0: 1, 2: 1, 4: 1}))
    assert est.deviation_sigmas(out.result, exact) <= 3.0


def test_mu_dyn_rejects_a_transient_start_site():
    g = builtin_graph("path", 3)
    leak = kernel_from_rates({0: {1: 1.0}, 1: {2: 1.0}, 2: {1: 1.0}}, 3)
    with pytest.raises(ValueError, match="start site 0 is transient"):
        est.estimate_mu_dyn(
            EventTable(g, leak, ModelParams(0.3, 1.0)), [1, 0], [1, 1], 10, RngStream(1)
        )


def test_two_site_mass_is_quarter_in_symmetric_environment(p3):
    # At p = 1/2 the sign carried to a merge is a fair coin, so the two-site
    # all-plus mass is exactly 2^-2 -- checked by estimator and exact solve.
    g, kern = p3
    params = ModelParams(0.5, 1.0)
    out = est.estimate_mu_dyn(
        EventTable(g, kern, params), sites=[0, 2], signs=[1, 1], replicas=4000,
        stream=RngStream(37),
    )
    assert est.deviation_sigmas(out.result, 0.25) < 3.0
    L = oracle.build_forward_generator(g, kern, params)
    pi = oracle.stationary_distribution(L, g, params)
    exact = oracle.cylinder_probability(g, pi, CylinderEvent.of(sites={0: 1, 2: 1}))
    assert exact == pytest.approx(0.25, abs=1e-10)


def test_mu_dyn_is_stationary(k2):
    # Forward runs started from the exact stationary law keep the two-site
    # all-plus mass at the mu_dyn value at every later time.
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    L = oracle.build_forward_generator(g, kern, params)
    pi = oracle.stationary_distribution(L, g, params)
    table = EventTable(g, kern, params)
    mu = est.estimate_mu_dyn(
        table, sites=[0, 1], signs=[1, 1], replicas=4000, stream=RngStream(59)
    )
    cyl = CylinderEvent.of(sites={0: 1, 1: 1})
    stream = RngStream(61)
    for call, t in enumerate((1.0, 5.0)):
        values = []
        for i in range(4000):
            gen = stream.child(call).substream(i)
            start = decode_forward_state(g, int(gen.choice(pi.size, p=pi)))
            traj = simulate_forward(table, start, t, gen, checkpoint_times=[t], observables=[cyl])
            values.append(traj.checkpoint_hits[0])
        arr = np.asarray(values, dtype=np.float64)
        se = float(arr.std(ddof=1) / math.sqrt(arr.size))
        pooled = math.hypot(se, mu.result.std_error)
        assert abs(float(arr.mean()) - mu.result.estimate) <= 3.0 * pooled


# --------------------------------------------------------- dual-side values


def test_dual_side_at_time_zero_is_the_event_indicator(p3):
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    fwd = SpinBondState(
        np.array([1, -1, 1], dtype=np.int8), np.array([1, -1], dtype=np.int8)
    )
    matching = DualState.of([0], [1], [0], [1])
    table = EventTable(g, kern, params)
    res = est.estimate_dual_side(table, fwd, matching, 0.0, 20, RngStream(41))
    assert res.estimate == 1.0
    assert res.std_error == 0.0
    mismatched = DualState.of([1], [1])  # site 1 carries -1 in fwd
    res2 = est.estimate_dual_side(table, fwd, mismatched, 0.0, 20, RngStream(41))
    assert res2.estimate == 0.0


def test_dual_side_cross_checks_forward_and_oracle(p3):
    # The same transient event probability three ways: dual-side MC,
    # forward MC, and uniformization.
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    fwd = striped_state(g)
    t = 1.0
    cases = [
        (DualState.of([1], [1]), CylinderEvent.of(sites={1: 1})),
        (DualState.of([1], [1], [0], ()), CylinderEvent.of(sites={1: 1}, edges={0: 1})),
    ]
    L = oracle.build_forward_generator(g, kern, params)
    dist = oracle.transient_distribution(L, oracle.forward_delta(g, fwd), t)
    table = EventTable(g, kern, params)
    for call, (dual, cyl) in enumerate(cases):
        dual_res = est.estimate_dual_side(table, fwd, dual, t, 4000, RngStream(43, (call,)))
        fwd_res = est.estimate_cylinder_probabilities(
            table, fwd, [t], [cyl], 4000, RngStream(44, (call,))
        )[(t, cyl.label())]
        pooled = math.hypot(dual_res.std_error, fwd_res.std_error)
        assert abs(dual_res.estimate - fwd_res.estimate) <= 3.0 * pooled
        exact = oracle.cylinder_probability(g, dist, cyl)
        assert est.deviation_sigmas(dual_res, exact) < 3.0
        assert est.deviation_sigmas(fwd_res, exact) < 3.0


# ------------------------------------------------------------------ TV decay


def test_tv_decay_identical_initials_stay_near_zero(p3):
    g, kern = p3
    params = ModelParams(0.5, 1.0)
    state = SpinBondState.constant(g, site_sign=1, edge_sign=-1)
    points = est.estimate_tv_decay(
        EventTable(g, kern, params), state, state, [0.5, 1.5],
        single_constraint_events(g), 600, RngStream(47),
    )
    for pt in points:
        assert pt.bound <= 3.0 * pt.std_error


def test_tv_decay_separates_then_decays(p3):
    g, kern = p3
    params = ModelParams(0.5, 1.0)
    plus = SpinBondState.constant(g, site_sign=1, edge_sign=1)
    minus = SpinBondState.constant(g, site_sign=-1, edge_sign=-1)
    points = est.estimate_tv_decay(
        EventTable(g, kern, params), plus, minus, [0.0, 1.0, 12.0],
        single_constraint_events(g), 1500, RngStream(49),
    )
    assert points[0].bound == 1.0  # deterministic opposite starts
    assert points[0].time == 0.0
    assert points[2].bound <= 0.01 + 3.0 * points[2].std_error


def test_single_site_frequency_relaxes_to_half_on_cycle(c6):
    # From the all-plus start the single-site law flattens to a fair coin.
    g, kern = c6
    params = ModelParams(0.5, 1.0)
    res = est.estimate_cylinder_probabilities(
        EventTable(g, kern, params), SpinBondState.constant(g, site_sign=1, edge_sign=1),
        [30.0], [CylinderEvent.of(sites={0: 1})], 10000, RngStream(53),
    )[(30.0, "site0=+1")]
    assert abs(res.estimate - 0.5) <= 0.02


def test_spin_flip_symmetry_of_site_marginals(p3):
    # With a density-1/2 site initial the one-site marginals stay fair at
    # every checkpoint no matter how biased the edge initial is.
    g, kern = p3
    params = ModelParams(0.3, 2.0)
    cyls = [CylinderEvent.of(sites={x: s}) for x in range(3) for s in (1, -1)]
    out = est.estimate_cylinder_probabilities(
        EventTable(g, kern, params), est.ProductInitial(site_plus_prob=0.5, edge_plus_prob=0.2),
        [0.5, 1.5], cyls, 4000, RngStream(67),
    )
    for x in range(3):
        for t in (0.5, 1.5):
            plus = out[(t, f"site{x}=+1")]
            minus = out[(t, f"site{x}=-1")]
            # the two frequencies share replicas and sum to 1, so the std
            # error of their difference is the sum, not the hypotenuse
            assert abs(plus.estimate - minus.estimate) <= 3.0 * (
                plus.std_error + minus.std_error
            )


def test_birth_death_mgf_against_truncated_generator():
    # Independent oracle: truncate the birth-death generator at a large cap
    # and exponentiate densely.
    v, cap = 1.5, 80
    Q = np.zeros((cap + 1, cap + 1))
    for k in range(cap + 1):
        if k < cap:
            Q[k, k + 1] = 1.0
        if k > 0:
            Q[k, k - 1] = v * k
    np.fill_diagonal(Q, -Q.sum(axis=1))
    for r0 in (0, 1, 3):
        for t in (0.4, 2.0):
            P = expm(Q * t)
            for theta in (-1.0, -0.2, 0.5):
                weights = np.exp(theta * np.arange(cap + 1))
                reference = float(P[r0] @ weights)
                assert est.birth_death_mgf(theta, t, v, r0) == pytest.approx(
                    reference, abs=1e-12
                )


def test_birth_death_mgf_identities():
    assert est.birth_death_mgf(0.0, 3.0, 2.0, 5) == pytest.approx(1.0)
    # theta -> -inf limit is P(population 0); for r0=0 that is
    # exp(-(1-e^{-vt})/v).
    v, t = 2.0, 1.3
    expected = math.exp(-(1.0 - math.exp(-v * t)) / v)
    assert est.birth_death_mgf(-40.0, t, v, 0) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        est.birth_death_mgf(0.1, 1.0, 0.0, 0)


@pytest.mark.parametrize("r0", [0, 3])
@pytest.mark.parametrize("t", [1.0, 5.0])
@pytest.mark.parametrize("v", [0.5, 4.0])
def test_batched_birth_death_follows_the_closed_form_law(r0, t, v):
    # K_t is Binomial(r0, e^{-vt}) survivors plus Poisson((1 - e^{-vt}) / v)
    # arrivals. Stated false-failure rate: the eight cases hold 104
    # two-sided gates (P(K = j) for j < 12 and P(K >= 12)) at 4 binomial
    # sigma, family-wise <= 104 * 0.0063% = 0.66% under the normal
    # approximation.
    replicas = 20_000
    gen = RngStream(89, (r0, int(t), int(v))).generator()
    sizes = est.simulate_birth_death(gen, replicas, r0, v, [t])[0]
    survive = math.exp(-v * t)
    arrivals = stats.poisson.pmf(np.arange(12), (1.0 - survive) / v)
    law = np.convolve(stats.binom.pmf(np.arange(r0 + 1), r0, survive), arrivals)[:12]
    want = np.append(law, 1.0 - law.sum())
    got = np.append(np.bincount(np.minimum(sizes, 12), minlength=13)[:12], np.count_nonzero(sizes >= 12))
    got = got / replicas
    sigma = np.sqrt(np.clip(want * (1.0 - want), 0.0, None) / replicas)
    assert np.all(np.abs(got - want) <= 4.0 * sigma + 1e-12), (got, want)


@pytest.mark.parametrize("t_max", [-1.0, math.inf, math.nan])
def test_birth_death_rejects_a_horizon_that_is_not_a_finite_time(t_max):
    # An infinite horizon never ended the loop; a NaN one returned the start.
    with pytest.raises(ValueError, match="t_max must be finite and >= 0"):
        est.simulate_birth_death(RngStream(0).generator(), 4, 2, 1.0, [t_max])


def test_mgf_monte_carlo_within_three_sigma():
    v, theta, t, r0 = 1.5, -0.7, 1.2, 2
    out = est.estimate_mgf([theta], [t], v, r0, replicas=20000, stream=RngStream(13))
    res = out.estimates[(theta, t)]
    assert est.deviation_sigmas(res, est.birth_death_mgf(theta, t, v, r0)) < 3.0
    # One theta and one time draw what the one-point estimator drew.
    assert out.replicas == res.replicas == 20000
    assert (res.estimate, res.std_error) == (0.6334161216217647, 0.0022451019046145007)


def test_birth_death_rows_are_checkpoints_of_one_run():
    # Earlier times only read the runs: the last row is a run to 5.0 alone.
    rows = est.simulate_birth_death(RngStream(23).generator(), 500, 2, 1.0, [0.5, 1.0, 5.0])
    alone = est.simulate_birth_death(RngStream(23).generator(), 500, 2, 1.0, [5.0])
    assert rows.shape == (3, 500) and rows.dtype == alone.dtype
    assert np.array_equal(rows[-1], alone[0])
    assert not np.array_equal(rows[0], rows[-1])
    with pytest.raises(ValueError, match="sorted"):
        est.simulate_birth_death(RngStream(23).generator(), 4, 2, 1.0, [5.0, 1.0])


@pytest.mark.parametrize("r0", [0, 3])
@pytest.mark.parametrize("v", [0.5, 2.0])
def test_birth_death_checkpoints_follow_the_law_at_their_time(r0, v):
    # Each row against its own time's closed forms: the mean
    # r0 e^{-vt} + (1 - e^{-vt}) / v and the MGF at theta = -1 and 0.5.
    # Stated false-failure rate: the four cases hold 36 two-sided gates
    # (three times, three moments) at 4 sigma, family-wise
    # <= 36 * 0.0063% = 0.23% under the normal approximation.
    replicas, times = 20_000, [0.5, 1.0, 5.0]
    gen = RngStream(97, (r0, int(2 * v))).generator()
    rows = est.simulate_birth_death(gen, replicas, r0, v, times)
    for t, row in zip(times, rows):
        decay = math.exp(-v * t)
        targets = [
            (row, r0 * decay + (1.0 - decay) / v),
            (np.exp(-1.0 * row), est.birth_death_mgf(-1.0, t, v, r0)),
            (np.exp(0.5 * row), est.birth_death_mgf(0.5, t, v, r0)),
        ]
        for values, target in targets:
            std_error = values.std(ddof=1) / math.sqrt(replicas)
            assert abs(values.mean() - target) <= 4.0 * std_error, (t, values.mean(), target)


def test_revealed_weight_estimator_basics(k2):
    g, kern = k2
    table = EventTable(g, kern, ModelParams(0.3, 1.0))
    initial = DualState.of([0], [1])
    res = est.estimate_revealed_weight(
        table, initial, theta=-0.5, t=1.0, replicas=500, stream=RngStream(17)
    )
    # exp(theta * size) with theta < 0 and size >= 0 lies in (0, 1].
    assert 0.0 < res.estimate <= 1.0
    repeat = est.estimate_revealed_weight(
        table, initial, theta=-0.5, t=1.0, replicas=500, stream=RngStream(17)
    )
    assert res.estimate == repeat.estimate
