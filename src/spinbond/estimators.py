"""Monte Carlo estimators over independent replicas.

Every estimator runs its replicas in blocks of ``REPLICA_BLOCK``, stepped in
lockstep as numpy arrays; block b consumes the generator derived from the
stream's spawn key extended by b, and workers get whole blocks, so results
do not depend on the worker count and reruns with the same seed reproduce
byte-identical output. Forward runs use the uniformized chain of all site
and edge clocks (``_cylinder_hits``); dual runs draw each replica's next
move at the walkers' rate and sample edge forgetting lazily
(``dual.simulate_dual``), two consecutive blocks of a worker's run to a
call, each on its own generator, so that their straggler tails share one
loop; birth-death runs are batched Gillespie (``simulate_birth_death``).
Forward and birth-death runs take one block a call, and a run to the last
requested time is read at every earlier one on the way. Forward,
birth-death and target-free dual runs check their expected events against
a budget per call and one per run before any draw (``_check_work``);
``mu-dyn``'s dual runs stop at a random time, so each block checks its
moves and steps as it goes (``estimate_mu_dyn``). ``raw-simulate`` outputs
paths, so it runs ``simulate_forward`` in blocks of one replica, on the
replica's own substream; that run makes exactly the draws of a one-replica
``_cylinder_hits`` block, so replica i of ``raw-simulate`` is such a block
on substream i.

The model is one argument: the ``EventTable`` that holds the graph, the
kernel and (p, v). The estimators hand it as it is to every block, in this
process or a worker's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from .dual import CoalescenceReport, DualState, DualTrajectory, simulate_dual
from .errors import CensoringError, StateSpaceCapError
from .forward import EventTable, SpinBondState, check_t_max, sample_product_state, simulate_forward
from .graphs import Graph, closed_classes
from .rng import RngStream

# Largest share of mu-dyn replicas that may hit the time cap uncoalesced.
CENSOR_TOLERANCE = 1e-3

# Replicas per block of the batched estimators: a fixed constant, so that
# estimates do not depend on how many workers share the blocks.
REPLICA_BLOCK = 4096

# Dual blocks stepped together in one simulate_dual call. A pair cuts the
# steps a lone straggler tail pays for; peak memory, measured over the
# benchmark's Monte Carlo configs, holds at two and grows from three.
DUAL_BLOCKS_PER_CALL = 2

# Expected events of one Monte Carlo call, at most, per runner. Each is a few
# minutes or less at the rate a full block runs on a 2-core x86 machine:
# 3.8-5.4 million forward rings/s, about 10^7 dual rings/s and 3.3-3.7 x 10^7
# birth-death events/s.
FORWARD_RING_BUDGET = 10**9
DUAL_RING_BUDGET = 10**9
BIRTH_DEATH_EVENT_BUDGET = 10**9

# Expected events of one run, at most. A block steps once per event of its
# longest run, and a step of a few runs costs about 12 us forward, 9 us
# birth-death and 40-45 us dual on that machine, so a run at the cap takes
# 10-45 s; a forward block's ring counts then bin into 8 MB.
RUN_EVENT_BUDGET = 10**6


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
    fn, stream, start, stop, replicas, block, group = job
    out = []
    for first in range(start, stop, group):
        blocks = range(first, min(first + group, stop))
        gens = [stream.substream(b) for b in blocks]
        sizes = [min(block, replicas - b * block) for b in blocks]
        out.append(fn(gens[0], sizes[0]) if group == 1 else fn(gens, sizes))
    return out


def _collect(fn, replicas: int, stream: RngStream, workers: int, block: int, group=1) -> list:
    """Evaluate fn on blocks of ``block`` replicas, in block order.

    The last block is possibly short, and block b draws from
    ``stream.substream(b)``. Workers get contiguous runs of whole blocks.
    With ``group`` 1 each block is one call ``fn(generator, size)``; with a
    larger ``group`` a call takes up to that many consecutive blocks of one
    worker's run as ``fn(generators, sizes)``, lists in block order.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    units = -(-replicas // block)
    if workers <= 1 or units == 1:
        return _run_range((fn, stream, 0, units, replicas, block, group))
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-units // workers)
    jobs = [
        (fn, stream, start, min(start + chunk, units), replicas, block, group)
        for start in range(0, units, chunk)
    ]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_run_range, jobs):
            out.extend(part)
    return out


def _check_work(label: str, replicas: int, per_run: float, budget: int) -> None:
    """Raise ``StateSpaceCapError`` when ``replicas`` runs expect too many events.

    ``per_run`` is one run's mean event count: the total, ``replicas`` times
    it, may not pass ``budget``, nor one run ``RUN_EVENT_BUDGET``. The error
    comes before any draw.
    """
    for required, cap, what in (
        (replicas * per_run, budget, label),
        (per_run, RUN_EVENT_BUDGET, f"{label} per run"),
    ):
        if required > cap:
            count = math.ceil(required) if math.isfinite(required) else required
            raise StateSpaceCapError(count, cap, f"expected {what}")


def check_forward_rings(table: EventTable, replicas: int, horizon: float) -> None:
    """Raise ``StateSpaceCapError`` when forward runs expect more rings than the budgets.

    Every site and edge clock rings within the total rate n + v m, so a run
    to ``horizon`` rings (n + v m) * horizon times on average, the exact
    mean of its Poisson ring count; ``FORWARD_RING_BUDGET`` bounds the
    ``replicas`` runs together, ``RUN_EVENT_BUDGET`` each one.
    """
    _check_work("forward rings", replicas, table.rate * horizon, FORWARD_RING_BUDGET)


def check_dual_rings(replicas: int, walkers: int, t: float) -> None:
    """Raise ``StateSpaceCapError`` when dual runs to ``t`` expect more rings than the budgets.

    A run of k walkers draws its rings at the constant rate k until t, or
    until it reaches a target, so one without a target rings k t times on
    average; ``DUAL_RING_BUDGET`` bounds the ``replicas`` runs together,
    ``RUN_EVENT_BUDGET`` each one.
    """
    _check_work("dual rings", replicas, walkers * t, DUAL_RING_BUDGET)


def check_birth_death_events(replicas: int, r0: int, v: float, t: float) -> None:
    """Raise ``StateSpaceCapError`` when birth-death runs expect more events than the budgets.

    A run's mean population is E[N_s] = r0 e^{-vs} + (1 - e^{-vs}) / v, so
    its mean event count on [0, t], the integral of the total rate 1 + v
    E[N_s], is 2t + (r0 - 1/v)(1 - e^{-vt}); ``BIRTH_DEATH_EVENT_BUDGET``
    bounds the ``replicas`` runs together, ``RUN_EVENT_BUDGET`` each one.
    """
    gone = -math.expm1(-v * t)  # 1 - e^{-vt}
    per_run = 2.0 * t + r0 * gone - gone / v
    _check_work("birth-death events", replicas, per_run, BIRTH_DEATH_EVENT_BUDGET)


def _forward_cylinder_replica(gen, size, table, initial, t_max, times, cylinders):
    """A block of one forward run on [0, t_max]: its checkpoint hits and final state.

    ``size`` is 1: a path needs a substream of its own.
    """
    if isinstance(initial, ProductInitial):
        initial = sample_product_state(table.g, gen, initial.site_plus_prob, initial.edge_plus_prob)
    traj = simulate_forward(table, initial, t_max, gen, times, cylinders)
    return traj.checkpoint_hits, traj.final_state


def _cylinder_hits(gen, size, table, initial, times, cylinders) -> np.ndarray:
    """How many of ``size`` forward runs hit each (time, cylinder), times outermost.

    Per checkpoint interval every run draws its count of rings of the
    uniformized chain (``EventTable``); the runs are sorted by count, so that
    the ones with a ring left are a prefix, and that prefix steps at once.
    """
    n, m = table.g.vertex_count, table.g.edge_count
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
    start = 0.0
    for t in times:
        counts = gen.poisson(table.rate * (t - start), size)
        start = t
        order = np.argsort(-counts, kind="stable")
        state = state[order]
        flat = state.reshape(-1)
        # live[s]: runs with more than s rings in this interval.
        for live in size - np.cumsum(np.bincount(counts))[:-1]:
            draws = gen.random(2 * live)
            k, src, via = table.rings(draws[:live], draws[live:])
            at = offsets[:live]
            flat[at + k] = flat[at + src] * flat[at + via]
        for cyl in cylinders:
            hit = np.ones(size, dtype=bool)
            for x, s in cyl.site_constraints:
                hit &= state[:, x] == s
            for e, s in cyl.edge_constraints:
                hit &= state[:, n + e] == s
            hits.append(np.count_nonzero(hit))
    return np.array(hits, dtype=np.int64)


def estimate_cylinder_probabilities(
    table: EventTable,
    initial: SpinBondState | ProductInitial,
    times,
    cylinders,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> dict[tuple[float, str], EstimateResult]:
    """Forward-simulation estimates of cylinder probabilities under the model ``table``.

    One trajectory per replica serves every requested time and cylinder;
    keys of the result are (time, cylinder label). Replicas run in blocks
    of ``REPLICA_BLOCK`` on the uniformized chain (``_cylinder_hits``),
    within the ring budgets (``check_forward_rings``).
    """
    times = sorted(times)
    cylinders = list(cylinders)
    if not times or times[0] < 0:
        raise ValueError(f"checkpoint times must be given and >= 0, got {times}")
    if not isinstance(initial, ProductInitial):
        initial.validate(table.g)
    check_forward_rings(table, replicas, times[-1])
    fn = partial(_cylinder_hits, table=table, initial=initial, times=times, cylinders=cylinders)
    hits = np.sum(_collect(fn, replicas, stream, workers, block=REPLICA_BLOCK), axis=0)
    out: dict[tuple[float, str], EstimateResult] = {}
    for (t, cyl), count in zip(product(times, cylinders), hits.tolist()):
        # The sample mean and standard error of count ones among 0/1 values.
        mean = count / replicas
        std_error = math.sqrt(mean * (1.0 - mean) / (replicas - 1)) if replicas > 1 else math.nan
        out[(t, cyl.label())] = EstimateResult(f"t={t:g}:{cyl.label()}", mean, std_error, replicas)
    return out


def _dual_runs(table, replicas, stream, workers, **run):
    """``simulate_dual(..., **run)`` over ``replicas`` runs in blocks, joined in replica order.

    Each call steps up to ``DUAL_BLOCKS_PER_CALL`` blocks of a worker's run in one
    lockstep loop, so that their straggler tails share its steps.
    """
    fn = partial(simulate_dual, table=table, **run)
    parts = _collect(fn, replicas, stream, workers, REPLICA_BLOCK, group=DUAL_BLOCKS_PER_CALL)
    return DualTrajectory.join(parts)


def estimate_dual_side(
    table: EventTable,
    forward_state: SpinBondState,
    initial: DualState,
    t: float,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> EstimateResult:
    """Dual-side Monte Carlo value of the duality identity under the model ``table``.

    Holds the spin-bond configuration fixed, evolves the coalescing dual
    for time t in each replica, and averages the duality weight of the
    evolved dual against that configuration, scaled by p^|positive|
    (1-p)^|negative| of the *initial* revealed sets. The mean equals the
    forward-run probability of the cylinder event the dual initial
    condition encodes, so at t=0 the value is exactly that event's
    indicator. The runs stay within the ring budgets (``check_dual_rings``).
    """
    p = table.params.p
    forward_state.validate(table.g)
    if not 0.0 < p < 1.0:
        raise ValueError(f"duality weights need p in (0,1), got {p}")
    prefactor = p ** len(initial.revealed_positive) * (1.0 - p) ** len(initial.revealed_negative)
    check_dual_rings(replicas, initial.walker_count, t)
    runs = _dual_runs(table, replicas, stream, workers, initial=initial, t_max=t)
    pos, sgn, status = runs.positions, runs.signs, runs.status
    # The duality weight per replica, for forward state eta and dual state xi
    # with walkers (z_j, s_j) and revealed edge sets R+ and R-:
    #   H(eta, xi) = 1{eta(z_j) = s_j for all j, eta(e) = +1 on R+, -1 on R-}
    #                * p^-|R+| (1 - p)^-|R-|.
    match = (forward_state.site_signs[pos] == sgn).all(axis=1)
    match &= ((status == 0) | (status == forward_state.edge_signs)).all(axis=1)
    plus, minus = (status == 1).sum(axis=1), (status == -1).sum(axis=1)
    weight = np.where(match, p**-plus * (1.0 - p) ** -minus, 0.0)
    return _summarize("dual_side", prefactor * weight)


@dataclass(frozen=True)
class TvDecayPoint:
    """Largest frequency gap over an event family at one checkpoint."""

    time: float
    bound: float
    event: str
    std_error: float


def estimate_tv_decay(
    table: EventTable,
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
        table, initial_a, times, cylinders, replicas, stream.child(0), workers
    )
    est_b = estimate_cylinder_probabilities(
        table, initial_b, times, cylinders, replicas, stream.child(1), workers
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


def estimate_mu_dyn(
    table: EventTable,
    sites,
    replicas: int,
    stream: RngStream,
    revealed_positive=(),
    revealed_negative=(),
    t_cap: float | None = None,
    workers: int = 1,
    report_limit: int = 100,
) -> MuDynResult:
    """Stationary cylinder mass under the model ``table``, through the coalescing dual.

    The cylinder puts +1 on every site of ``sites``: the coalescence
    identity covers only all-+1 site constraints. Each replica runs walkers
    started on those sites until they form one class per closed class of
    the kernel's walk that they occupy (``closed_classes``): walkers in two
    closed classes never meet. The replica value is 2^-(number of classes)
    when every class carries a single sign and 0 otherwise. Each closed
    class runs as a chain of its own, so the stationary law is a product
    over them, and each one's ancestor sign is a fair coin. A start site
    outside every closed class raises ``ValueError``: the walk leaves it
    for good, so its final class count is random. The revealed-edge
    constraint only rescales the estimate by its exact factor
    p^|positive| (1-p)^|negative|.

    Replicas still uncoalesced at the time cap are censored: they are left
    out of the mean and only counted, and more than ``CENSOR_TOLERANCE`` of
    them is an error.

    A run stops at a random time, so its work cannot be checked before any
    draw. Each block gets its share of ``DUAL_RING_BUDGET``, its size over
    ``replicas``, in moves, and ``RUN_EVENT_BUDGET`` in steps, since a block
    steps once per move of its longest run: ``simulate_dual`` raises
    ``StateSpaceCapError`` once a block passes either.
    """
    initial = DualState.of(sites, [1] * len(sites), revealed_positive, revealed_negative)
    classes = closed_classes(table.kernel)
    for z in initial.positions:
        if classes[z] is None:
            raise ValueError(f"start site {z} is transient: the kernel's walk leaves it for good")
    if t_cap is None:
        t_cap = default_time_cap(table.g)
    target = len({classes[z] for z in initial.positions})  # occupied closed classes
    budget = (DUAL_RING_BUDGET / replicas, RUN_EVENT_BUDGET)
    runs = _dual_runs(
        table, replicas, stream, workers, initial=initial, t_max=t_cap, target=target, budget=budget
    )
    pos, sgn, time, coalesced = runs.positions, runs.signs, runs.time, runs.stopped
    reports = tuple(
        CoalescenceReport.of(at.tolist(), sg.tolist(), float(t), not done)
        for at, sg, t, done in zip(pos[:report_limit], sgn[:report_limit], time, coalesced)
    )
    censored = replicas - int(np.count_nonzero(coalesced))
    if censored > CENSOR_TOLERANCE * replicas or censored == replicas:
        raise CensoringError(
            f"{censored} of {replicas} replicas hit the time cap {t_cap:g} "
            f"before coalescing (tolerance {CENSOR_TOLERANCE:.1%})"
        )
    # A coalesced replica has ``target`` classes; its value is 2^-target
    # when no class holds walkers of both signs, and 0 otherwise.
    together = pos[coalesced, :, None] == pos[coalesced, None, :]
    clash = together & (sgn[coalesced, :, None] != sgn[coalesced, None, :])
    values = np.where(clash.any(axis=(1, 2)), 0.0, 0.5**target)
    p = table.params.p
    prefactor = p ** len(initial.revealed_positive) * (1.0 - p) ** len(initial.revealed_negative)
    raw = _summarize("mu_dyn:" + "&".join(f"site{x}=+1" for x in sites), values)
    scaled = replace(raw, estimate=prefactor * raw.estimate, std_error=prefactor * raw.std_error)
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


def simulate_birth_death(gen, size: int, r0: int, v: float, times) -> np.ndarray:
    """Populations at sorted ``times`` of ``size`` runs, unit birth rate, per-head death rate v.

    Row j holds each run's population at ``times[j]``: the one just before
    its first event past that time. Batched Gillespie (1977): each round,
    every run still short of the last time draws one exponential waiting
    time at its total rate 1 + v k and one uniform that picks a birth with
    probability 1 / (1 + v k). The earlier times only read the runs, so the
    draws are those of a run to the last time alone.
    """
    times = list(times)
    if not times or times != sorted(times):
        raise ValueError(f"checkpoint times must be given and sorted, got {times}")
    check_t_max(times[0])
    check_t_max(times[-1])
    rows = np.empty((len(times), size), dtype=np.int64)
    k = np.full(size, r0, dtype=np.int64)
    clock = np.zeros(size)
    live = np.arange(size)
    while live.size:
        now, start = k[live], clock[live]
        rate = 1.0 + v * now
        t = start + gen.standard_exponential(live.size) / rate
        birth = gen.random(live.size) * rate < 1.0
        for row, checkpoint in zip(rows[:-1], times):
            passed = (t > checkpoint) & (start <= checkpoint)
            row[live[passed]] = now[passed]
        on = t <= times[-1]
        live = live[on]
        clock[live] = t[on]
        k[live] += np.where(birth[on], 1, -1)
    rows[-1] = k
    return rows


@dataclass(frozen=True)
class MgfResult:
    """Estimates of E[exp(theta N_t)] keyed by (theta, t), all on one replica set."""

    estimates: dict[tuple[float, float], EstimateResult]
    replicas: int


def estimate_mgf(
    thetas,
    times,
    v: float,
    r0: int,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> MgfResult:
    """Monte Carlo MGF of the birth-death count from ``r0`` at every theta and time.

    The count's law depends on (t, r0) alone and theta only reweights it, so
    one blocked sample (``simulate_birth_death``), run to the largest time
    within the event budgets (``check_birth_death_events``), serves every
    (theta, t) estimate.
    """
    times = sorted(times)
    check_birth_death_events(replicas, r0, v, times[-1])
    fn = partial(simulate_birth_death, r0=r0, v=v, times=times)
    sizes = np.concatenate(_collect(fn, replicas, stream, workers, block=REPLICA_BLOCK), axis=1)
    estimates = {
        (theta, t): _summarize(f"mgf:theta={theta:g},t={t:g},v={v:g},r0={r0}", np.exp(theta * row))
        for theta in thetas
        for t, row in zip(times, sizes)
    }
    return MgfResult(estimates, replicas)


def estimate_revealed_weight(
    table: EventTable,
    initial: DualState,
    theta: float,
    t: float,
    replicas: int,
    stream: RngStream,
    workers: int = 1,
) -> EstimateResult:
    """Sample mean of exp(theta * revealed-set size) at time t under the model ``table``.

    The dual runs stay within the ring budgets (``check_dual_rings``).
    """
    check_dual_rings(replicas, initial.walker_count, t)
    runs = _dual_runs(table, replicas, stream, workers, initial=initial, t_max=t)
    size = np.count_nonzero(runs.status, axis=1)
    return _summarize(f"revealed_weight:theta={theta:g},t={t:g}", np.exp(theta * size))
