"""Monte Carlo estimators over independent replicas.

Forward cylinder probabilities run replicas in blocks of ``REPLICA_BLOCK``,
stepped in lockstep as numpy arrays; block b consumes the generator derived
from the stream's spawn key extended by b. Every other estimator runs one
replica at a time, and replica i consumes the generator of the key extended
by i. Either way results do not depend on the worker count, and reruns with
the same seed reproduce byte-identical output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .dual import (
    CoalescenceReport,
    DualState,
    duality_weight,
    run_to_full_coalescence,
    simulate_dual,
)
from .errors import CensoringError
from .forward import (
    ModelParams,
    NeighborSampler,
    SpinBondState,
    sample_product_state,
    simulate_forward,
)
from .graphs import AdoptionKernel, Graph
from .rng import RngStream

DEFAULT_CENSOR_TOLERANCE = 1e-3

# Replicas per block of the batched forward estimator: a fixed constant, so
# that estimates do not depend on how many workers share the blocks.
REPLICA_BLOCK = 4096


def default_time_cap(g: Graph) -> float:
    return 1e4 * g.vertex_count**2


@dataclass(frozen=True)
class ProductInitial:
    """Product initial law: each site and edge drawn independently."""

    site_plus_prob: float = 0.5
    edge_plus_prob: float = 0.5


@dataclass(frozen=True)
class EstimateResult:
    observable: str
    estimate: float
    std_error: float
    replicas: int


def deviation_sigmas(result: EstimateResult, target: float) -> float:
    """|estimate - target| in units of the standard error; 0/0 counts as 0."""
    gap = abs(result.estimate - target)
    if result.std_error == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / result.std_error


def _summarize(label: str, values: np.ndarray) -> EstimateResult:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    mean = float(values.mean()) if n else math.nan
    if n > 1:
        std_error = float(values.std(ddof=1) / math.sqrt(n))
    else:
        std_error = math.nan
    return EstimateResult(observable=label, estimate=mean, std_error=std_error, replicas=n)


def _run_range(job):
    fn, stream, start, stop, replicas, block = job
    if block == 1:
        return [fn(stream.substream(i)) for i in range(start, stop)]
    return [fn(stream.substream(b), min(block, replicas - b * block)) for b in range(start, stop)]


def _collect(fn, replicas: int, stream: RngStream, workers: int = 1, block: int = 1) -> list:
    """Evaluate fn on one substream per replica, in replica order.

    With ``block`` > 1 the replicas go in blocks of that many, the last one
    possibly short, and block b calls ``fn(stream.substream(b), size)``
    once. Workers get contiguous runs of whole blocks.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    units = -(-replicas // block)
    if workers <= 1 or units == 1:
        return _run_range((fn, stream, 0, units, replicas, block))
    chunk = -(-units // workers)
    jobs = [
        (fn, stream, start, min(start + chunk, units), replicas, block)
        for start in range(0, units, chunk)
    ]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_run_range, jobs):
            out.extend(part)
    return out


def _replica_mean(label, replicas, stream, workers, replica, prefactor=1.0, **fixed):
    """Summary of ``prefactor * replica(gen, **fixed)`` over one generator per replica."""
    values = np.array(_collect(partial(replica, **fixed), replicas, stream, workers))
    return _summarize(label, prefactor * values)


def _forward_cylinder_replica(gen, g, sampler, params, initial, t_max, times, cylinders):
    """One forward run on [0, t_max]: its checkpoint rows and final state."""
    if isinstance(initial, ProductInitial):
        state = sample_product_state(
            g, gen, initial.site_plus_prob, initial.edge_plus_prob
        )
    else:
        state = initial
    traj = simulate_forward(
        g,
        sampler,
        params,
        state,
        t_max,
        gen,
        checkpoint_times=times,
        observables=cylinders,
    )
    return traj.checkpoint_rows, traj.final_state


def _event_table(g: Graph, sampler: NeighborSampler, p: float):
    """What one uniformized event does to a batched state row.

    A row holds the n site signs, the m edge signs, then a constant +1 and a
    constant -1 column. Object k (site k, or edge k - n) draws position j of
    its row of cumulative probabilities, the first one above a uniform
    draw, and takes the product of columns ``src[k, j]`` and ``via[k, j]``.
    A site's positions are its kernel neighbours, rate-0 entries left out as
    in ``NeighborSampler``: the neighbour's sign times the joining edge's. An
    edge's are +1 with probability p and -1 otherwise, times the +1 column.
    Rows end on exactly 1.0 (a total divided by itself) and are padded with
    2.0, so the first position above a draw in [0, 1) is always a real one.
    Returns the cumulative table and the flattened ``src`` and ``via``.
    """
    n, m = g.vertex_count, g.edge_count
    plus, minus = n + m, n + m + 1
    rows = [
        (np.array(cumulative) / total, neighbors, [n + e for e in edge_ids])
        for cumulative, total, _, neighbors, edge_ids in sampler.rows
    ]
    refresh = [(q, col) for q, col in ((p, plus), (1.0 - p, minus)) if q != 0.0]
    cumulative = np.cumsum([q for q, _ in refresh])
    rows += [(cumulative / cumulative[-1], [col for _, col in refresh], [plus] * len(refresh))] * m
    width = max(len(cum) for cum, _, _ in rows)
    cum = np.full((n + m, width), 2.0)
    src = np.full((n + m, width), plus, dtype=np.intp)
    via = src.copy()
    for k, (row, sources, vias) in enumerate(rows):
        cum[k, : len(row)] = row
        src[k, : len(sources)] = sources
        via[k, : len(vias)] = vias
    return cum, src.ravel(), via.ravel()


def _cylinder_hits(gen, size, g, table, v, initial, times, cylinders) -> np.ndarray:
    """How many of ``size`` forward runs hit each (time, cylinder), times outermost.

    Uniformization (Jensen 1953): the site clocks (rate 1) and edge clocks
    (rate v) together ring as one Poisson process of rate n + v m, and each
    ring picks its object in proportion to its rate. Per checkpoint interval
    every run draws its ring count; the runs are sorted by count, so that
    the ones with a ring left are a prefix, and that prefix steps at once.
    """
    n, m = g.vertex_count, g.edge_count
    cum, src, via = table
    width = cum.shape[1]
    objects = n + m if v > 0.0 else n  # with v = 0 no edge ever rings
    rate = n + v * m
    # Start rows: a ProductInitial drawn in one call per sign array, or a fixed state tiled.
    state = np.empty((size, n + m + 2), dtype=np.int8)
    if isinstance(initial, ProductInitial):
        state[:, :n] = np.where(gen.random((size, n)) < initial.site_plus_prob, 1, -1)
        state[:, n:-2] = np.where(gen.random((size, m)) < initial.edge_plus_prob, 1, -1)
    else:
        state[:, :n] = initial.site_signs
        state[:, n:-2] = initial.edge_signs
    state[:, -2:] = (1, -1)
    offsets = np.arange(size) * state.shape[1]
    hits = []
    elapsed = 0.0
    for t in times:
        counts = gen.poisson(rate * (t - elapsed), size)
        elapsed = t
        order = np.argsort(-counts, kind="stable")
        state = state[order]
        flat = state.reshape(-1)
        # live[s]: runs with more than s rings in this interval.
        for live in size - np.cumsum(np.bincount(counts))[:-1]:
            draws = gen.random(2 * live)
            u = draws[:live] * rate
            if objects > n:
                u = np.where(u < n, u, n + (u - n) / v)
            k = np.minimum(u.astype(np.intp), objects - 1)  # against rounding up to the top
            j = (np.take(cum, k, axis=0) <= draws[live:, None]).argmin(axis=1)
            entry = k * width + j
            at = offsets[:live]
            flat[at + k] = flat[at + src.take(entry)] * flat[at + via.take(entry)]
        for cyl in cylinders:
            hit = np.ones(size, dtype=bool)
            for x, s in cyl.site_constraints:
                hit &= state[:, x] == s
            for e, s in cyl.edge_constraints:
                hit &= state[:, n + e] == s
            hits.append(np.count_nonzero(hit))
    return np.array(hits, dtype=np.int64)


def estimate_cylinder_probabilities(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    initial: SpinBondState | ProductInitial,
    times,
    cylinders,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> dict[tuple[float, str], EstimateResult]:
    """Forward-simulation estimates of cylinder probabilities.

    One trajectory per replica serves every requested time and cylinder;
    keys of the result are (time, cylinder label). Replicas run in blocks
    of ``REPLICA_BLOCK`` on the uniformized chain (``_cylinder_hits``).
    """
    times = sorted(times)
    cylinders = list(cylinders)
    if not times or times[0] < 0:
        raise ValueError(f"checkpoint times must be given and >= 0, got {times}")
    if not isinstance(initial, ProductInitial):
        initial.validate(g)
    fn = partial(
        _cylinder_hits,
        g=g,
        table=_event_table(g, NeighborSampler(g, kernel), params.p),
        v=params.v,
        initial=initial,
        times=times,
        cylinders=cylinders,
    )
    hits = np.sum(_collect(fn, replicas, stream, workers, block=REPLICA_BLOCK), axis=0)
    out: dict[tuple[float, str], EstimateResult] = {}
    for (t, cyl), count in zip(product(times, cylinders), hits.tolist()):
        # The sample mean and standard error of count ones among 0/1 values.
        mean = count / replicas
        std_error = math.sqrt(mean * (1.0 - mean) / (replicas - 1)) if replicas > 1 else math.nan
        out[(t, cyl.label())] = EstimateResult(f"t={t:g}:{cyl.label()}", mean, std_error, replicas)
    return out


def _dual_side_replica(gen, g, sampler, params, forward_state, initial, t, mode):
    traj = simulate_dual(g, sampler, params, initial, t, gen, mode=mode)
    return duality_weight(
        forward_state.site_signs, forward_state.edge_signs, traj.final_state, params.p
    )


def estimate_dual_side(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    forward_state: SpinBondState,
    initial: DualState,
    t: float,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
    mode: str = "coalescing",
) -> EstimateResult:
    """Dual-side Monte Carlo value of the duality identity.

    Holds the spin-bond configuration fixed, evolves the dual for time t in
    each replica, and averages the duality weight of the evolved dual
    against that configuration, scaled by p^|positive| (1-p)^|negative| of
    the *initial* revealed sets. The mean equals the forward-run
    probability of the cylinder event the dual initial condition encodes,
    so at t=0 the value is exactly that event's indicator.
    """
    initial.validate(g)
    forward_state.validate(g)
    if not 0.0 < params.p < 1.0:
        raise ValueError(f"duality weights need p in (0,1), got {params.p}")
    prefactor = params.p ** len(initial.revealed_positive) * (1.0 - params.p) ** len(
        initial.revealed_negative
    )
    parts = [
        f"site{x}={'+' if s > 0 else '-'}1"
        for x, s in zip(initial.positions, initial.signs)
    ]
    parts += [f"edge{e}=+1" for e in sorted(initial.revealed_positive)]
    parts += [f"edge{e}=-1" for e in sorted(initial.revealed_negative)]
    return _replica_mean(
        f"dual_side:t={t:g}:{'&'.join(parts)}", replicas, stream, workers,
        _dual_side_replica, prefactor, g=g, sampler=NeighborSampler(g, kernel), params=params,
        forward_state=forward_state, initial=initial, t=t, mode=mode,
    )


@dataclass(frozen=True)
class TvDecayPoint:
    """Largest frequency gap over an event family at one checkpoint."""

    time: float
    bound: float
    event: str
    std_error: float


def estimate_tv_decay(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    initial_a: SpinBondState | ProductInitial,
    initial_b: SpinBondState | ProductInitial,
    times,
    cylinders,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> list[TvDecayPoint]:
    """Monte Carlo lower bounds on total variation between two initial laws.

    Each initial condition gets its own independent replica batch; per
    checkpoint the report is the largest |frequency gap| over the event
    family, which lower-bounds the total variation distance at that time,
    plus the maximizing event and its pooled standard error.
    """
    cylinders = list(cylinders)
    est_a = estimate_cylinder_probabilities(
        g, kernel, params, initial_a, times, cylinders, replicas, stream.child(0), workers
    )
    est_b = estimate_cylinder_probabilities(
        g, kernel, params, initial_b, times, cylinders, replicas, stream.child(1), workers
    )
    points: list[TvDecayPoint] = []
    for t in sorted(times):
        best: TvDecayPoint | None = None
        for cyl in cylinders:
            a = est_a[(t, cyl.label())]
            b = est_b[(t, cyl.label())]
            gap = abs(a.estimate - b.estimate)
            if best is None or gap > best.bound:
                best = TvDecayPoint(
                    time=t,
                    bound=gap,
                    event=cyl.label(),
                    std_error=math.hypot(a.std_error, b.std_error),
                )
        assert best is not None
        points.append(best)
    return points


@dataclass(frozen=True)
class MuDynResult:
    result: EstimateResult
    censored_count: int
    reports: tuple[CoalescenceReport, ...]


def _mu_dyn_replica(gen, g, sampler, params, initial, t_cap):
    report = run_to_full_coalescence(g, sampler, params, initial, t_cap, gen)
    value = 0.5 ** len(report.partition) if all(report.sync) else 0.0
    return value, report


def estimate_mu_dyn(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    sites,
    signs,
    replicas: int,
    stream: RngStream,
    revealed_positive=(),
    revealed_negative=(),
    t_cap: float | None = None,
    workers: int = 1,
    censor_tolerance: float = DEFAULT_CENSOR_TOLERANCE,
    report_limit: int = 100,
) -> MuDynResult:
    """Stationary cylinder mass estimated through the coalescing dual.

    Each replica runs walkers started on the constrained sites until they
    form one class per occupied component; the replica value is 2^-(number
    of classes) when every class carries a single sign and 0 otherwise. The
    revealed-edge constraint only rescales the estimate by its exact factor
    p^|positive| (1-p)^|negative|.

    Replicas still uncoalesced at the time cap are censored: they are left
    out of the mean and only counted, and more than ``censor_tolerance`` of
    them is an error.
    """
    signs = list(signs)
    if any(s != 1 for s in signs):
        raise ValueError(
            "the coalescence identity behind this estimator only covers "
            f"all-+1 site constraints, got signs {signs}"
        )
    initial = DualState.of(sites, signs, revealed_positive, revealed_negative)
    initial.validate(g)
    if t_cap is None:
        t_cap = default_time_cap(g)
    sampler = NeighborSampler(g, kernel)
    fn = partial(
        _mu_dyn_replica, g=g, sampler=sampler, params=params, initial=initial, t_cap=t_cap
    )
    outcomes = _collect(fn, replicas, stream, workers)
    reports = tuple(rep for _, rep in outcomes[:report_limit])
    censored = sum(1 for _, rep in outcomes if rep.censored)
    if censored > censor_tolerance * replicas or censored == replicas:
        raise CensoringError(
            f"{censored} of {replicas} replicas hit the time cap {t_cap:g} "
            f"before coalescing (tolerance {censor_tolerance:.1%})"
        )
    values = np.array([v for v, rep in outcomes if not rep.censored])
    prefactor = params.p ** len(initial.revealed_positive) * (1.0 - params.p) ** len(
        initial.revealed_negative
    )
    site_part = "&".join(
        f"site{x}={'+' if s > 0 else '-'}1" for x, s in zip(sites, signs)
    )
    raw = _summarize(f"mu_dyn:{site_part}", values)
    scaled = EstimateResult(
        observable=raw.observable,
        estimate=prefactor * raw.estimate,
        std_error=prefactor * raw.std_error,
        replicas=raw.replicas,
    )
    return MuDynResult(result=scaled, censored_count=censored, reports=reports)


def birth_death_mgf(theta: float, t: float, v: float, r0: int) -> float:
    """Moment generating function of the birth rate 1, death rate v*k count.

    Closed form: the survivors of the initial r0 individuals contribute a
    binomial factor and the arrivals a Poisson factor.
    """
    if v <= 0.0:
        raise ValueError(f"v must be > 0, got {v}")
    decay = math.exp(-v * t)
    survivor = 1.0 - decay + decay * math.exp(theta)
    arrivals = math.expm1(theta) * (1.0 - decay) / v
    return survivor**r0 * math.exp(arrivals)


def simulate_birth_death(r0: int, v: float, t_max: float, gen) -> int:
    """Population at t_max for unit birth rate and per-head death rate v."""
    random, standard_exponential = gen.random, gen.standard_exponential
    k = r0
    t = 0.0
    while True:
        rate = 1.0 + v * k
        t += (1.0 / rate) * standard_exponential()  # the draw of exponential(1.0 / rate)
        if t > t_max:
            return k
        if random() * rate < 1.0:
            k += 1
        else:
            k -= 1


def _mgf_replica(gen, theta, t, v, r0):
    return math.exp(theta * simulate_birth_death(r0, v, t, gen))


def estimate_mgf(
    theta: float,
    t: float,
    v: float,
    r0: int,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> EstimateResult:
    return _replica_mean(
        f"mgf:theta={theta:g},t={t:g},v={v:g},r0={r0}", replicas, stream, workers,
        _mgf_replica, theta=theta, t=t, v=v, r0=r0,
    )


def _revealed_weight_replica(gen, g, sampler, params, initial, theta, t):
    traj = simulate_dual(g, sampler, params, initial, t, gen, mode="coalescing")
    st = traj.final_state
    size = len(st.revealed_positive) + len(st.revealed_negative)
    return math.exp(theta * size)


def estimate_revealed_weight(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    initial: DualState,
    theta: float,
    t: float,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> EstimateResult:
    """Sample mean of exp(theta * revealed-set size) at time t."""
    return _replica_mean(
        f"revealed_weight:theta={theta:g},t={t:g}", replicas, stream, workers,
        _revealed_weight_replica, g=g, sampler=NeighborSampler(g, kernel), params=params,
        initial=initial, theta=theta, t=t,
    )
