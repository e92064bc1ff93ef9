"""Dual dynamics: signed walkers that reveal and forget edge signs.

Walkers sit on vertices and carry +-1 signs. A walker stepping across an
edge whose sign is unrevealed reveals it in the same event: positive with
probability ``p`` (sign kept) or negative with probability ``1 - p`` (sign
flipped). Stepping across an already revealed edge keeps or flips the sign
deterministically. Each revealed edge forgets its sign at rate ``v``.

Two move rules are supported. In the coalescing rule one clock runs per
occupied site and every walker there moves together, so walkers that meet
stay together for good. In the independent rule each walker has its own
clock and moves alone. The revealed-edge bookkeeping is shared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

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
    Entries carry a stamp and are dropped when the site they belong to was
    vacated or the revealed edge they time was refreshed or re-revealed.
    """
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
    draw_index, neighbors, edge_ids = sampler.draw_index, sampler.neighbors, sampler.edge_ids
    st = initial.copy()
    st.validate(g)
    p, v = params.p, params.v

    occupants: dict[int, list[int]] = {}
    for idx, z in enumerate(st.positions):
        occupants.setdefault(z, []).append(idx)
    target_classes = _occupied_component_count(g, st.positions)

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
        i = draw_index(z, random)
        y, e = neighbors[z][i], edge_ids[z][i]
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


@dataclass(frozen=True)
class CoalescenceReport:
    """Outcome of one dual replica run to coalescence."""

    partition: tuple[tuple[int, ...], ...]
    sync: tuple[bool, ...]
    time: float
    censored: bool

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
    st = traj.final_state
    partition = tuple(st.classes())
    sync = tuple(
        all(st.signs[j] == st.signs[cls[0]] for j in cls) for cls in partition
    )
    time = traj.coalescence_time if traj.coalescence_time is not None else traj.elapsed
    return CoalescenceReport(
        partition=partition, sync=sync, time=time, censored=traj.censored
    )


@dataclass
class CoupledResult:
    """Paired independent and coalescing runs sharing one history up to the
    first collision."""

    independent: DualTrajectory
    coalescing: DualTrajectory
    collision_time: float | None
    independent_path: list[tuple[float, tuple]] = field(repr=False, default_factory=list)
    coalescing_path: list[tuple[float, tuple]] = field(repr=False, default_factory=list)


def _shift_path(path, offset: float, skip_first: bool):
    out = []
    for i, (t, snap) in enumerate(path):
        if skip_first and i == 0:
            continue
        out.append((t + offset, snap))
    return out


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
    coal_target = _occupied_component_count(g, initial.positions)

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
    coal_tail = simulate_dual(
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
    ind_tail = simulate_dual(
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
