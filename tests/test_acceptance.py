"""Acceptance suite: one test per release criterion, one verdict line each.

Every test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` and in failure reports) and asserts the stated tolerance.
Statistical gates run at fixed seeds; allowances for multiple testing are
stated inline where a criterion grants one.
"""

import itertools
import math

import numpy as np
import pytest

from spinbond.cylinders import CylinderEvent, single_constraint_events
from spinbond.dual import DualState, coupled_run, simulate_dual
from spinbond.forward import (
    EventTable,
    ModelParams,
    SpinBondState,
    simulate_forward,
)
from spinbond.graphs import builtin_graph, uniform_kernel
from spinbond.rng import RngStream
from spinbond import estimators as est
from spinbond import oracle

from conftest import merge_breaks, replay_statuses, striped_state


def _report(criterion: int, description: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {verdict} {description}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _binomial_sigma(q: float, n: int) -> float:
    return math.sqrt(q * (1.0 - q) / n)


def _env_cylinders(edges, max_size=2):
    """All (positive set, negative set) assignments over ``edges`` up to a size."""
    out = []
    for size in range(max_size + 1):
        for subset in itertools.combinations(edges, size):
            for signs in itertools.product((1, -1), repeat=size):
                out.append(dict(zip(subset, signs)))
    return out


# --------------------------------------------------------------- criterion 1


def test_criterion_1_exact_duality_identity(k2, p3):
    # Forward expectation of the duality weight equals the dual expectation,
    # for every dual initial tuple, across a parameter grid, to 1e-8.
    cases = [(k2, 1), (k2, 2), (p3, 1), (p3, 2)]
    worst = 0.0
    gates = 0
    for (g, kern), k in cases:
        fwd = striped_state(g)
        for p in (0.3, 0.5):
            for v in (0.5, 2.0):
                params = ModelParams(p, v)
                for t in (0.5, 1.0, 2.0):
                    table = oracle.duality_gap_table(g, kern, params, fwd, k, t)
                    assert len(table) == oracle.dual_state_count(g, k)
                    for _, lhs, rhs in table:
                        worst = max(worst, abs(lhs - rhs))
                        gates += 1
    _report(
        1,
        "exact duality identity on K2 and P3, k in {1,2}",
        worst < 1e-8,
        f"worst |lhs-rhs| = {worst:.3e} over {gates} dual initial states "
        f"(tolerance 1e-8)",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_single_site_stationary_law(p3, c6):
    # Exact part: stationary P(site +1, chosen edges revealed to fixed signs)
    # equals (1/2) p^{#positive} (1-p)^{#negative} on P3 and C6 for every
    # single-site cylinder with at most two constrained edges.
    p, v = 0.3, 1.0
    worst = 0.0
    exact_gates = 0
    for g, kern in (p3, c6):
        L = oracle.build_forward_generator(g, kern, ModelParams(p, v))
        pi = oracle.stationary_distribution(L)
        for x in range(g.vertex_count):
            for env in _env_cylinders(range(g.edge_count)):
                cyl = CylinderEvent.of(sites={x: 1}, edges=env)
                n_plus = sum(1 for s in env.values() if s > 0)
                n_minus = len(env) - n_plus
                want = 0.5 * p**n_plus * (1.0 - p) ** n_minus
                worst = max(worst, abs(oracle.cylinder_probability(g, pi, cyl) - want))
                exact_gates += 1
    exact_ok = worst < 1e-10

    # MC part: forward runs from a product initial with edges already at the
    # stationary plus-probability, burned in to t=20 where the exact
    # transient law is within 7e-5 of stationary in total variation --
    # negligible against the 3-sigma gates below. Stated false-failure rate:
    # 18 two-sided gates at 3 sigma, family-wise <= 4.9% under the normal
    # approximation (union bound, 18 * 0.27%), whatever their correlation.
    t_burn = 20.0
    replicas = 100_000
    failures = []
    mc_gates = 0
    plans = [
        (p3, [CylinderEvent.of(sites={0: 1}, edges=env)
              for env in _env_cylinders(range(2))]),
        (c6, [CylinderEvent.of(sites={0: 1}, edges=env)
              for env in _env_cylinders((0, 1))]),
    ]
    for (g, kern), cylinders in plans:
        results = est.estimate_cylinder_probabilities(
            EventTable(g, kern, ModelParams(p, v)),
            est.ProductInitial(site_plus_prob=0.5, edge_plus_prob=p),
            times=[t_burn],
            cylinders=cylinders,
            replicas=replicas,
            stream=RngStream(202),
            workers=2,
        )
        for cyl in cylinders:
            n_plus = sum(s > 0 for _, s in cyl.edge_constraints)
            n_minus = len(cyl.edge_constraints) - n_plus
            want = 0.5 * p**n_plus * (1.0 - p) ** n_minus
            got = results[(t_burn, cyl.label())].estimate
            sigma = _binomial_sigma(want, replicas)
            mc_gates += 1
            if abs(got - want) > 3.0 * sigma:
                failures.append(f"{cyl.label()}: {got:.5f} vs {want:.5f}")
    mc_ok = not failures
    _report(
        2,
        "single-site stationary product law, exact and Monte Carlo",
        exact_ok and mc_ok,
        f"exact worst error {worst:.3e} over {exact_gates} cylinders "
        f"(tolerance 1e-10); MC {mc_gates - len(failures)}/{mc_gates} gates "
        f"within 3 binomial sigma at {replicas} replicas (family-wise <= 4.9%)"
        + (f"; failed {failures}" if failures else ""),
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_mu_dyn_consistency(k2, p3):
    # The dual estimator of stationary cylinder masses agrees with the exact
    # solve for one and two walkers, and on two sites P(sync) = p. Stated
    # false-failure rate: 5 gates at 3 sigma, but the one-walker gates are
    # exact (every replica returns 1/2) and the P(sync) gate repeats the
    # two-site K2 gate's deviation, so 2 random two-sided gates, family-wise
    # <= 2 * 0.27% = 0.54% under the normal approximation (union bound),
    # whatever their correlation. The exact anchor is deterministic.
    p, v = 0.3, 1.0
    params = ModelParams(p, v)
    replicas = 100_000
    details = []
    ok = True

    # exact anchor: the full 8-state solve puts mass p on site agreement
    g2, kern2 = k2
    pi2 = oracle.stationary_distribution(oracle.build_forward_generator(g2, kern2, params))
    agree = sum(
        float(pi2[i])
        for i in range(8)
        if (st := oracle.decode_forward_state(g2, i)).site_signs[0]
        == st.site_signs[1]
    )
    anchor_ok = abs(agree - p) < 1e-10
    ok &= anchor_ok
    details.append(f"exact P(agreement)={agree:.12f} vs p (err {abs(agree - p):.1e})")

    g3, kern3 = p3
    pi3 = oracle.stationary_distribution(oracle.build_forward_generator(g3, kern3, params))
    configs = [
        (g2, kern2, [0], 0.5, 310),
        (g2, kern2, [0, 1], p / 2.0, 311),
        (g3, kern3, [1], 0.5, 312),
        (
            g3,
            kern3,
            [0, 2],
            oracle.cylinder_probability(
                g3, pi3, CylinderEvent.of(sites={0: 1, 2: 1})
            ),
            313,
        ),
    ]
    sync_sigmas = None
    for g, kern, sites, target, seed in configs:
        out = est.estimate_mu_dyn(
            EventTable(g, kern, params),
            sites=sites,
            signs=[1] * len(sites),
            replicas=replicas,
            stream=RngStream(seed),
            workers=2,
        )
        dev = est.deviation_sigmas(out.result, target)
        ok &= dev < 3.0
        details.append(
            f"k={len(sites)} sites={sites} on n={g.vertex_count}: "
            f"{out.result.estimate:.5f} vs {target:.5f} ({dev:.2f} sigma)"
        )
        if g is g2 and len(sites) == 2:
            # two walkers on two sites always merge into one class, so the
            # estimate is P(sync)/2: the sync probability gate is p.
            sync = est.EstimateResult(
                "sync", 2.0 * out.result.estimate, 2.0 * out.result.std_error,
                out.result.replicas,
            )
            sync_sigmas = est.deviation_sigmas(sync, p)
            ok &= sync_sigmas < 3.0
    details.append(f"P(sync) vs p: {sync_sigmas:.2f} sigma")
    details.append("2 random gates at 3 sigma, family-wise <= 0.54%")
    _report(3, "dual mu_dyn estimator vs exact stationary solve", ok, "; ".join(details))


# --------------------------------------------------------------- criterion 4


def test_criterion_4_ergodic_contraction(p3):
    # Total variation between the laws started from all-plus and all-minus
    # never increases along the grid and is below 0.01 by t=20.
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.3, 1.0))
    step = 0.5
    mu_plus = oracle.forward_delta(g, SpinBondState.constant(g, 1, 1))
    mu_minus = oracle.forward_delta(g, SpinBondState.constant(g, -1, -1))
    curve = [oracle.total_variation(mu_plus, mu_minus)]
    for _ in range(40):
        mu_plus = oracle.transient_distribution(L, mu_plus, step)
        mu_minus = oracle.transient_distribution(L, mu_minus, step)
        curve.append(oracle.total_variation(mu_plus, mu_minus))
    monotone = all(b <= a + 1e-10 for a, b in zip(curve, curve[1:]))
    final_ok = curve[-1] < 0.01
    _report(
        4,
        "TV contraction between opposite initial laws on P3",
        monotone and final_ok,
        f"TV(0)={curve[0]:.3f}, TV(20)={curve[-1]:.3e}, "
        f"non-increasing={monotone}, final<0.01={final_ok}",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_transient_mc_vs_oracle(p3):
    # All single-site and single-edge cylinder probabilities at two times,
    # Monte Carlo vs uniformization. 20 gates at 3 binomial sigma each: up
    # to 2 boundary failures are tolerated as a multiple-testing allowance.
    # Stated false-failure rate: the +1 and -1 cylinders of a coordinate are
    # complements and fail together, so 3 failures means 2 of the 10 pairs.
    # Under the normal approximation a pair fails with probability 0.27%, so
    # by Markov's inequality on the pair count the family fails with
    # probability <= 10 * 0.27% / 2 = 1.4%, however the pairs are correlated.
    g, kern = p3
    p, v = 0.5, 1.0
    params = ModelParams(p, v)
    initial = striped_state(g)
    times = [0.5, 1.0]
    replicas = 100_000

    cylinders = [CylinderEvent.of(sites={x: s}) for x in range(3) for s in (1, -1)]
    cylinders += [CylinderEvent.of(edges={e: s}) for e in range(2) for s in (1, -1)]

    L = oracle.build_forward_generator(g, kern, params)
    mu0 = oracle.forward_delta(g, initial)
    exact = {}
    for t in times:
        mu_t = oracle.transient_distribution(L, mu0, t)
        for cyl in cylinders:
            exact[(t, cyl.label())] = oracle.cylinder_probability(g, mu_t, cyl)

    results = est.estimate_cylinder_probabilities(
        EventTable(g, kern, params), initial, times, cylinders, replicas,
        stream=RngStream(505), workers=2,
    )
    failures = []
    for key, want in exact.items():
        got = results[key].estimate
        sigma = _binomial_sigma(want, replicas)
        if abs(got - want) > 3.0 * sigma:
            failures.append(f"{key}: {got:.5f} vs {want:.5f}")
    _report(
        5,
        "transient MC vs uniformization, 20-gate family",
        len(failures) <= 2,
        f"{20 - len(failures)}/20 gates within 3 binomial sigma at "
        f"{replicas} replicas (<=2 failures allowed, family-wise <= 1.4%)"
        + (f"; failed {failures}" if failures else ""),
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_birth_death_mgf_and_domination(p3):
    # Gillespie MGF vs the closed form on a 16-point grid, then the
    # revealed-set size of a one-walker dual is dominated by the unit-birth,
    # rate-v-death count at the exponential scale theta = -2 ln min(p, 1-p).
    # Stated false-failure rate: 16 two-sided grid gates at 3 sigma (0.27%
    # each) and one one-sided domination gate at 3 sigma (0.13%), family-wise
    # <= 16 * 0.27% + 0.13% = 4.5% under the normal approximation (union
    # bound), whatever their correlation.
    replicas = 50_000
    failures = []
    call = 0
    for theta in (-1.0, 0.5):
        for v in (0.5, 2.0):
            for t in (1.0, 5.0):
                for r0 in (0, 3):
                    res = est.estimate_mgf(
                        theta, t, v, r0, replicas, RngStream(606, key=(call,))
                    )
                    call += 1
                    target = est.birth_death_mgf(theta, t, v, r0)
                    if est.deviation_sigmas(res, target) > 3.0:
                        failures.append(
                            f"theta={theta},v={v},t={t},r0={r0}: "
                            f"{res.estimate:.4f} vs {target:.4f}"
                        )
    grid_ok = not failures

    g, kern = p3
    p, v, t = 0.3, 1.0, 2.0
    theta = -2.0 * math.log(min(p, 1.0 - p))
    res = est.estimate_revealed_weight(
        EventTable(g, kern, ModelParams(p, v)), DualState.of([1], [1]), theta, t,
        replicas, RngStream(607),
    )
    bound = est.birth_death_mgf(theta, t, v, 0)
    dominated = res.estimate <= bound + 3.0 * res.std_error
    grid_note = (
        "16/16 grid gates within 3 sigma" if grid_ok else f"failed {failures}"
    )
    _report(
        6,
        "birth-death MGF closed form and revealed-set domination",
        grid_ok and dominated,
        f"{grid_note}; revealed-set E[exp(theta |A+B|)] = {res.estimate:.4f} "
        f"<= {bound:.4f} + 3 sigma: {dominated}; 17 gates, family-wise <= 4.5%",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_coupling_fidelity(p3):
    # The coupled pair of dual runs shares its path up to the first
    # collision, and the coalescing leg has the same law as a direct run.
    # Both legs go on from one head block, so the shared history holds by
    # construction; the pathwise check is that a replica with no collision
    # ends both legs where the head ended, and that every collision leaves
    # two walkers on one site. Stated false-failure rate: 4 two-sided
    # two-sample gates at 3 sigma, family-wise <= 4 * 0.27% = 1.1% under the
    # normal approximation (union bound), whatever their correlation.
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    initial = DualState.of([0, 2], [1, -1])
    t_max = 1.5
    replicas = 10_000

    table = EventTable(g, kern, params)
    head, coalescing, independent = coupled_run(
        RngStream(707).generator(), replicas, table, initial, t_max
    )
    met = head.stopped
    violations = np.count_nonzero(head.positions[met, 0] != head.positions[met, 1])
    for leg in (coalescing, independent):
        for part in ("positions", "signs", "status"):
            mismatch = getattr(leg, part)[~met] != getattr(head, part)[~met]
            violations += np.count_nonzero(mismatch.any(axis=1))
    direct = simulate_dual(RngStream(708).generator(), replicas, table, initial, t_max)

    def stats(traj):
        return np.stack(
            [
                traj.positions[:, 0] == traj.positions[:, 1],
                traj.signs[:, 0] == traj.signs[:, 1],
                np.count_nonzero(traj.status, axis=1),
                traj.positions[:, 0],
            ],
            axis=1,
        ).astype(np.float64)

    coupled_arr, direct_arr = stats(coalescing), stats(direct)
    names = ("P(coalesced)", "P(signs equal)", "mean revealed", "mean position0")
    worst_z = 0.0
    for col, name in enumerate(names):
        a, b = coupled_arr[:, col], direct_arr[:, col]
        se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        z = abs(a.mean() - b.mean()) / se if se > 0 else 0.0
        worst_z = max(worst_z, z)
    _report(
        7,
        "coupled dual runs: shared history and matching statistics",
        violations == 0 and worst_z < 3.0,
        f"{violations} pathwise mismatches over {replicas} runs "
        f"({np.count_nonzero(met)} collided); worst two-sample |z| = {worst_z:.2f} over "
        f"{len(names)} statistics at 3 sigma (family-wise <= 1.1%)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_structural_properties(k2, p3, c6):
    # Invariant bundle with zero tolerated violations.
    g6, kern6 = c6
    g3, kern3 = p3
    g2, kern2 = k2
    details = []

    # (a) revealed statuses replay from the recorded moves (a move reveals an
    # unrevealed edge, and keeps a revealed one or reveals it afresh; the end
    # resolution only clears) and merges are permanent, checked at every move
    # of one block of 300 three-walker runs.
    params = ModelParams(0.3, 1.0)
    initial = DualState.of([0, 2, 4], [1, 1, -1])
    record: list = []
    table6 = EventTable(g6, kern6, params)
    traj = simulate_dual(RngStream(808).generator(), 300, table6, initial, 8.0, record=record)
    start = simulate_dual(RngStream(808).generator(), 300, table6, initial, 0.0)
    replay_bad = replay_statuses(record, start.status, traj.status)[2]
    permanence_bad = merge_breaks(record, start.positions, start.signs)
    details.append(
        f"status replay violations {replay_bad}, permanence violations "
        f"{permanence_bad} over 300 runs"
    )

    # (b) byte-level determinism of both simulators under a fixed stream.
    # The forward run is compared through dense checkpoint rows.
    fwd_logs = []
    dual_logs = []
    for _ in range(2):
        traj = simulate_forward(
            EventTable(g3, kern3, ModelParams(0.3, 1.0)), striped_state(g3), 5.0,
            RngStream(809).generator(), checkpoint_times=np.linspace(0.0, 5.0, 101).tolist(),
            observables=single_constraint_events(g3),
        )
        fwd_logs.append((traj.checkpoint_rows, traj.final_state.site_signs.tobytes(),
                         traj.final_state.edge_signs.tobytes(), traj.event_count))
        record = []
        dtraj = simulate_dual(
            RngStream(810).generator(), 100, EventTable(g3, kern3, ModelParams(0.3, 1.0)),
            DualState.of([0, 2], [1, 1]), 5.0, record=record,
        )
        arrays = [dtraj.positions, dtraj.signs, dtraj.status, dtraj.time, dtraj.stopped]
        arrays += [column for step in record for column in step]
        dual_logs.append((b"".join(a.tobytes() for a in arrays), dtraj.event_count))
    deterministic = fwd_logs[0] == fwd_logs[1] and dual_logs[0] == dual_logs[1]
    details.append(f"identical reruns: {deterministic}")

    # (c) p=1 is absorbing at consensus: all sites align, all edges positive,
    # and the absorbed state never moves again.
    absorbed = True
    absorbing = EventTable(g3, kern3, ModelParams(1.0, 1.0))
    for seed in range(20):
        traj = simulate_forward(
            absorbing, striped_state(g3), 60.0, RngStream(811, key=(seed,)).generator()
        )
        s = traj.final_state
        consensus = len(set(s.site_signs.tolist())) == 1 and all(
            e == 1 for e in s.edge_signs.tolist()
        )
        stay = simulate_forward(
            absorbing, s, 10.0, RngStream(812, key=(seed,)).generator()
        ).final_state
        unchanged = (stay.site_signs == s.site_signs).all() and (
            stay.edge_signs == s.edge_signs
        ).all()
        absorbed &= consensus and unchanged
    details.append(f"p=1 consensus absorption: {absorbed}")

    # (d) every generator's rows sum to zero.
    row_worst = 0.0
    gens = [
        oracle.build_forward_generator(g2, kern2, ModelParams(0.3, 1.0)),
        oracle.build_forward_generator(g3, kern3, ModelParams(0.5, 2.0)),
        oracle.build_forward_generator(g6, kern6, ModelParams(0.3, 1.0)),
        oracle.build_dual_generator(g2, kern2, ModelParams(0.3, 1.0), 2),
        oracle.build_dual_generator(g3, kern3, ModelParams(0.5, 2.0), 1),
    ]
    for L in gens:
        row_worst = max(row_worst, float(np.abs(np.asarray(L.sum(axis=1))).max()))
    details.append(f"max |row sum| = {row_worst:.1e}")

    # (e) semigroup composition of the uniformized transients.
    semi_worst = 0.0
    for L in (gens[1], gens[4]):
        mu0 = np.zeros(L.shape[0])
        mu0[1] = 1.0
        stepped = oracle.transient_distribution(L, mu0, 0.7)
        stepped = oracle.transient_distribution(L, stepped, 1.8)
        direct = oracle.transient_distribution(L, mu0, 2.5)
        semi_worst = max(semi_worst, float(np.abs(stepped - direct).max()))
    details.append(f"semigroup gap {semi_worst:.1e}")

    ok = (
        replay_bad == 0
        and permanence_bad == 0
        and deterministic
        and absorbed
        and row_worst < 1e-12
        and semi_worst < 1e-9
    )
    _report(8, "structural invariant bundle", ok, "; ".join(details))
