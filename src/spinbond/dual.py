"""Dual dynamics: signed walkers that reveal and forget edge signs.

Walkers sit on vertices and carry +-1 signs. A walker stepping across an
edge whose sign is unrevealed reveals it in the same event: positive with
probability ``p`` (sign kept) or negative with probability ``1 - p`` (sign
flipped). Stepping across an already revealed edge keeps or flips the sign
deterministically. Each revealed edge forgets its sign at rate ``v``.

Two move rules are supported. In the coalescing rule one clock runs per
occupied site and every walker there moves together, so walkers that meet
stay together for good. In the independent rule each walker has its own
clock and moves alone. The revealed-edge bookkeeping is shared, and both
rules keep one heap entry per running clock, keyed by (time, channel,
index), and draw neighbors by an inlined bisection of the per-site
cumulative rates in ``NeighborSampler``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from .forward import ModelParams, NeighborSampler
from .graphs import AdoptionKernel, Graph
from .rng import as_generator


@dataclass
class DualState:
    """Walker positions and signs plus the revealed edge sets.

    ``revealed_positive`` and ``revealed_negative`` are disjoint sets of
    edge indices; every other edge is unrevealed.
    """

    positions: list[int]
    signs: list[int]
    revealed_positive: set[int]
    revealed_negative: set[int]

    @staticmethod
    def of(positions, signs, revealed_positive=(), revealed_negative=()) -> "DualState":
        return DualState(
            positions=list(positions),
            signs=list(signs),
            revealed_positive=set(revealed_positive),
            revealed_negative=set(revealed_negative),
        )

    @property
    def walker_count(self) -> int:
        return len(self.positions)

    def copy(self) -> "DualState":
        return DualState(
            positions=list(self.positions),
            signs=list(self.signs),
            revealed_positive=set(self.revealed_positive),
            revealed_negative=set(self.revealed_negative),
        )

    def validate(self, g: Graph) -> None:
        if len(self.signs) != len(self.positions):
            raise ValueError(
                f"{len(self.positions)} positions but {len(self.signs)} signs"
            )
        for z in self.positions:
            if not 0 <= z < g.vertex_count:
                raise ValueError(f"walker position {z} outside 0..{g.vertex_count - 1}")
        for s in self.signs:
            if s not in (-1, 1):
                raise ValueError(f"walker signs must be +-1, got {s}")
        for e in self.revealed_positive | self.revealed_negative:
            if not 0 <= e < g.edge_count:
                raise ValueError(f"revealed edge {e} outside 0..{g.edge_count - 1}")
        overlap = self.revealed_positive & self.revealed_negative
        if overlap:
            raise ValueError(f"edges {sorted(overlap)} revealed with both signs")

    def classes(self) -> list[tuple[int, ...]]:
        """Walker indices grouped by shared position, sorted by first member."""
        by_site: dict[int, list[int]] = {}
        for idx, z in enumerate(self.positions):
            by_site.setdefault(z, []).append(idx)
        return sorted((tuple(v) for v in by_site.values()), key=lambda c: c[0])

    def snapshot(self) -> tuple:
        return (
            tuple(self.positions),
            tuple(self.signs),
            frozenset(self.revealed_positive),
            frozenset(self.revealed_negative),
        )


def duality_weight(site_signs, edge_signs, dual: DualState, p: float) -> float:
    """Weight pairing a forward configuration with a dual configuration.

    Zero unless every walker sits on a site of its own sign and every
    revealed edge shows its revealed sign; otherwise the product of 1/p per
    positively revealed edge and 1/(1-p) per negatively revealed edge.
    """
    for z, s in zip(dual.positions, dual.signs):
        if site_signs[z] != s:
            return 0.0
    for e in dual.revealed_positive:
        if edge_signs[e] != 1:
            return 0.0
    for e in dual.revealed_negative:
        if edge_signs[e] != -1:
            return 0.0
    return p ** (-len(dual.revealed_positive)) * (1.0 - p) ** (-len(dual.revealed_negative))


@dataclass
class DualTrajectory:
    final_state: DualState
    elapsed: float
    event_count: int
    reveal_count: int
    refresh_count: int
    coalescence_time: float | None
    collision_time: float | None
    censored: bool


def _occupied_component_count(g: Graph, positions) -> int:
    return len({g.component_ids[z] for z in positions})


def simulate_dual(
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
    """Run the dual process on [0, t_max] from a copy of ``initial``.

    ``mode`` selects the coalescing or independent move rule. With
    ``stop_on_full_coalescence`` the run ends once the walkers form one
    class per occupied graph component (coalescing rule only); with
    ``stop_on_collision`` it ends the first time two walkers share a site.
    ``record_events`` collects (kind, time, target, detail) tuples; ``path``
    collects (time, state snapshot) pairs, starting with the initial state.

    Clock entries are ordered by (time, channel, index) for reproducibility.
    Every occupied site (coalescing rule) or walker (independent rule) and,
    when v > 0, every revealed edge holds exactly one entry: a site is
    vacated only when its own clock fires, and an edge is unrevealed only
    when its own forget clock fires, so no entry is ever stale.
    """
    if mode not in ("coalescing", "independent"):
        raise ValueError(f"mode must be 'coalescing' or 'independent', got {mode!r}")
    coalescing = mode == "coalescing"
    if stop_on_full_coalescence and not coalescing:
        raise ValueError("full coalescence is only meaningful for the coalescing rule")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")

    gen = as_generator(rng)
    random, standard_exponential = gen.random, gen.standard_exponential
    heappush, heappop = heapq.heappush, heapq.heappop
    sampler = kernel if isinstance(kernel, NeighborSampler) else NeighborSampler(g, kernel)
    tables = sampler.rows
    st = initial.copy()
    st.validate(g)
    p, v = params.p, params.v
    positions, signs = st.positions, st.signs
    revealed_positive, revealed_negative = st.revealed_positive, st.revealed_negative

    occupants: dict[int, list[int]] = {}
    for idx, z in enumerate(positions):
        occupants.setdefault(z, []).append(idx)
    target_classes = _occupied_component_count(g, positions)

    # Clock times are scale * standard_exponential(), the product that
    # exponential(scale) computes. A dual starts with few clocks (k walkers,
    # rarely a revealed edge), too few for an array draw to pay.
    clocks = occupants if coalescing else range(st.walker_count)
    heap = [(standard_exponential(), 0, obj) for obj in clocks]
    if v > 0.0:
        scale = 1.0 / v
        revealed = sorted(revealed_positive | revealed_negative)
        heap += [(scale * standard_exponential(), 1, e) for e in revealed]
    heapq.heapify(heap)

    if path is not None:
        path.append((0.0, st.snapshot()))

    events = reveals = refreshes = 0
    coalescence_time = 0.0 if coalescing and len(occupants) == target_classes else None
    collision_time: float | None = None

    # Only a move can set a stop flag, so only moves test them.
    done = stop_on_full_coalescence and coalescence_time is not None
    t_event = 0.0  # ends as the elapsed time: the stopping event's, else t_max
    while not done:
        if not heap or heap[0][0] > t_max:
            t_event = t_max
            break
        t_event, channel, obj = heappop(heap)
        events += 1
        if channel == 1:
            revealed_positive.discard(obj)
            revealed_negative.discard(obj)
            refreshes += 1
            if record_events is not None:
                record_events.append(("refresh", t_event, f"edge{obj}", ""))
            if path is not None:
                path.append((t_event, st.snapshot()))
            continue

        if coalescing:
            z = obj
            movers = occupants.pop(z)
        else:
            movers = [obj]
            z = positions[obj]
        cumulative, total, last, neighbors, edge_ids = tables[z]
        i = bisect_right(cumulative, random() * total)
        if i > last:
            i = last
        y, e = neighbors[i], edge_ids[i]
        if e in revealed_positive:
            flip = False
        elif e in revealed_negative:
            flip = True
        else:
            flip = random() >= p
            (revealed_negative if flip else revealed_positive).add(e)
            if v > 0.0:
                heappush(heap, (t_event + scale * standard_exponential(), 1, e))
            reveals += 1
            if record_events is not None:
                record_events.append(("reveal", t_event, f"edge{e}", "-1" if flip else "+1"))
        for idx in movers:
            positions[idx] = y
            if flip:
                signs[idx] = -signs[idx]
        if coalescing:
            merged = y in occupants
            if merged:
                occupants[y].extend(movers)
            else:
                occupants[y] = movers
                heappush(heap, (t_event + standard_exponential(), 0, y))
        else:
            heappush(heap, (t_event + standard_exponential(), 0, obj))
            merged = positions.count(y) > 1
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
            done = stop_on_collision
        if coalescing and coalescence_time is None and len(occupants) == target_classes:
            coalescence_time = t_event
            done = done or stop_on_full_coalescence

    return DualTrajectory(
        final_state=st,
        elapsed=t_event,
        event_count=events,
        reveal_count=reveals,
        refresh_count=refreshes,
        coalescence_time=coalescence_time,
        collision_time=collision_time,
        censored=stop_on_full_coalescence and coalescence_time is None,
    )


@dataclass(frozen=True)
class CoalescenceReport:
    """Outcome of one dual replica run to coalescence."""

    partition: tuple[tuple[int, ...], ...]
    sync: tuple[bool, ...]
    time: float
    censored: bool

    @staticmethod
    def of(st: DualState, time: float, censored: bool) -> "CoalescenceReport":
        """Report on a final state: its classes and whether each shares one sign."""
        partition = tuple(st.classes())
        sync = tuple(all(st.signs[j] == st.signs[cls[0]] for j in cls) for cls in partition)
        return CoalescenceReport(partition=partition, sync=sync, time=time, censored=censored)

    def to_json(self) -> dict:
        return {
            "partition": [list(c) for c in self.partition],
            "sync": list(self.sync),
            "time": self.time,
            "censored": self.censored,
        }


def run_to_full_coalescence(
    g: Graph,
    kernel: AdoptionKernel | NeighborSampler,
    params: ModelParams,
    initial: DualState,
    t_max: float,
    rng,
) -> CoalescenceReport:
    """Coalescing run until the walkers form one class per occupied component.

    Sign agreement inside a class is settled the moment the class forms, so
    the sync flags are final even when the run is censored at ``t_max``.
    """
    traj = simulate_dual(
        g,
        kernel,
        params,
        initial,
        t_max,
        rng,
        mode="coalescing",
        stop_on_full_coalescence=True,
    )
    time = traj.coalescence_time if traj.coalescence_time is not None else traj.elapsed
    return CoalescenceReport.of(traj.final_state, time, traj.censored)


@dataclass
class CoupledResult:
    """Paired independent and coalescing runs sharing one history up to the
    first collision."""

    independent: DualTrajectory
    coalescing: DualTrajectory
    collision_time: float | None
    independent_path: list[tuple[float, tuple]] = field(repr=False, default_factory=list)
    coalescing_path: list[tuple[float, tuple]] = field(repr=False, default_factory=list)


def coupled_run(
    g: Graph,
    kernel: AdoptionKernel | NeighborSampler,
    params: ModelParams,
    initial: DualState,
    t_max: float,
    rng,
) -> CoupledResult:
    """Couple the independent and coalescing rules on one noise history.

    Both runs follow the identical trajectory until the first collision;
    afterwards the independent walkers keep the primary generator and the
    coalescing continuation consumes a child generator spawned at the
    collision, so each leg keeps its own law. Walkers must start at
    pairwise distinct sites.
    """
    if len(set(initial.positions)) != len(initial.positions):
        raise ValueError("coupled_run requires pairwise distinct starting sites")
    gen = as_generator(rng)
    sampler = kernel if isinstance(kernel, NeighborSampler) else NeighborSampler(g, kernel)

    head_path: list[tuple[float, tuple]] = []
    head = simulate_dual(
        g, sampler, params, initial, t_max, gen,
        mode="independent", stop_on_collision=True, path=head_path,
    )
    tau = head.collision_time
    if tau is None:
        # No meeting before the horizon: the two rules coincide throughout.
        coal_target = _occupied_component_count(g, initial.positions)
        coal = replace(
            head,
            final_state=head.final_state.copy(),
            coalescence_time=0.0 if len(initial.positions) == coal_target else None,
        )
        return CoupledResult(head, coal, None, list(head_path), list(head_path))

    # Each leg continues from the collision state; the coalescing leg runs
    # first, on a child generator spawned before either leg draws.
    legs = []
    for mode, leg_gen in (("coalescing", gen.spawn(1)[0]), ("independent", gen)):
        tail_path: list[tuple[float, tuple]] = []
        tail = simulate_dual(
            g, sampler, params, head.final_state, t_max - tau, leg_gen,
            mode=mode, path=tail_path,
        )
        leg = replace(
            tail,
            elapsed=t_max,
            event_count=head.event_count + tail.event_count,
            reveal_count=head.reveal_count + tail.reveal_count,
            refresh_count=head.refresh_count + tail.refresh_count,
            coalescence_time=None if tail.coalescence_time is None else tau + tail.coalescence_time,
            collision_time=tau,
        )
        legs.append((leg, head_path + [(t + tau, snap) for t, snap in tail_path[1:]]))
    (coal, coal_path), (ind, ind_path) = legs
    return CoupledResult(ind, coal, tau, ind_path, coal_path)
