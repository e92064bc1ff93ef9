"""Forward dynamics: spins copy neighbors through signed, refreshing edges.

Each site carries a sign and wakes at rate 1; on waking it picks a neighbor
from the adoption kernel and adopts that neighbor's sign multiplied by the
sign of the connecting edge. Each edge independently resamples its sign at
rate ``v``, choosing +1 with probability ``p``. The joint process is
simulated event by event with one exponential clock per site and per edge.

The event loop keeps the signs in Python lists, checked once and turned into
new arrays of the initial state's dtype at the end; indexing a Python list
costs a fraction of indexing an int8 array. It draws a neighbor by
bisecting the firing site's cumulative rates in the sampler's per-site
tuple, inlined rather than called, and draws the start clocks as two
arrays; every draw is the one scalar calls would make, in the same order.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .graphs import AdoptionKernel, Graph
from .rng import as_generator

_SIGNS = frozenset((1, -1))


@dataclass(frozen=True)
class ModelParams:
    """Edge dynamics parameters.

    Parameters
    ----------
    p : float
        Probability that a refreshed edge takes sign +1. Values 0 and 1 are
        legal for the dynamics but make the chain non-ergodic.
    v : float
        Refresh rate per edge; 0 freezes the edge configuration.
    """

    p: float
    v: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.v < 0.0:
            raise ValueError(f"v must be >= 0, got {self.v}")


@dataclass
class SpinBondState:
    """Joint configuration: one sign per site and one per edge, all +-1."""

    site_signs: np.ndarray
    edge_signs: np.ndarray

    def copy(self) -> "SpinBondState":
        return SpinBondState(self.site_signs.copy(), self.edge_signs.copy())

    def validate(self, g: Graph) -> None:
        self.check_shapes(g)
        _check_sign_values(self.site_signs.tolist(), self.edge_signs.tolist())

    def check_shapes(self, g: Graph) -> None:
        if self.site_signs.shape != (g.vertex_count,):
            raise ValueError(
                f"site_signs has shape {self.site_signs.shape}, graph has {g.vertex_count} vertices"
            )
        if self.edge_signs.shape != (g.edge_count,):
            raise ValueError(
                f"edge_signs has shape {self.edge_signs.shape}, graph has {g.edge_count} edges"
            )

    @staticmethod
    def constant(g: Graph, site_sign: int = 1, edge_sign: int = 1) -> "SpinBondState":
        return SpinBondState(
            site_signs=np.full(g.vertex_count, site_sign, dtype=np.int8),
            edge_signs=np.full(g.edge_count, edge_sign, dtype=np.int8),
        )


def _check_sign_values(sites: list, edges: list) -> None:
    # One set test per list; the scan runs only to name the first bad sign.
    for signs, label in ((sites, "site"), (edges, "edge")):
        if not _SIGNS.issuperset(signs):
            for i, s in enumerate(signs):
                if abs(s) != 1:
                    raise ValueError(f"{label} signs must be +-1, found {s} at index {i}")


def sample_product_state(
    g: Graph,
    rng,
    site_plus_prob: float = 0.5,
    edge_plus_prob: float = 0.5,
) -> SpinBondState:
    """Draw sites and edges independently, +1 with the given probabilities."""
    gen = as_generator(rng)
    sites = np.where(gen.random(g.vertex_count) < site_plus_prob, 1, -1).astype(np.int8)
    edges = np.where(gen.random(g.edge_count) < edge_plus_prob, 1, -1).astype(np.int8)
    return SpinBondState(sites, edges)


def adoption_update(state: SpinBondState, x: int, y: int, g: Graph) -> None:
    """Site x adopts the sign of neighbor y times the sign of edge {x, y}."""
    e = g.edge_id(x, y)
    state.site_signs[x] = state.site_signs[y] * state.edge_signs[e]


def edge_flip_rate(edge_sign: int, params: ModelParams) -> float:
    """Rate at which an edge with the given sign changes to the other sign.

    The simulator redraws each edge at rate v, landing on +1 with
    probability p, so actual sign changes occur at rate v*p from -1 and
    v*(1-p) from +1.
    """
    if edge_sign not in (-1, 1):
        raise ValueError(f"edge sign must be +-1, got {edge_sign}")
    return params.v * params.p if edge_sign == -1 else params.v * (1.0 - params.p)


class NeighborSampler:
    """Cached cumulative-weight tables for drawing neighbors from a kernel.

    ``rows[x]`` is x's ``(cumulative, total, last, neighbors, edge_ids)``:
    the running sums of its kernel rates, their total, the last position in
    the row, its neighbors, and the graph edge joining x to each of them.
    ``neighbors[x]`` and ``edge_ids[x]`` are the last two. One ``random()``
    draw picks position ``bisect_right(cumulative, random() * total)``,
    clamped to ``last`` against rounding at the top: the first position
    whose running sum exceeds the draw. The event loops inline that rule,
    since a call on every event costs more than the bisection. Zero-rate
    entries are left out: they can never be drawn, and a valid kernel may
    name a non-neighbor with rate 0.
    """

    def __init__(self, g: Graph, kernel: AdoptionKernel) -> None:
        self.rows: list[tuple[tuple[float, ...], float, int, tuple[int, ...], tuple[int, ...]]] = []
        for x in range(g.vertex_count):
            row = [(y, q) for y, q in kernel.rows[x] if q != 0]
            total = 0.0
            cumulative = []
            for _, q in row:
                total += q
                cumulative.append(total)
            neighbors = tuple(y for y, _ in row)
            edge_ids = tuple(g.edge_id(x, y) for y in neighbors)
            self.rows.append((tuple(cumulative), total, len(row) - 1, neighbors, edge_ids))
        self.neighbors = [row[3] for row in self.rows]
        self.edge_ids = [row[4] for row in self.rows]

    def draw_index(self, x: int, random) -> int:
        """Position in x's row of the neighbor picked by one ``random()`` draw."""
        cumulative, total, last, _, _ = self.rows[x]
        return min(bisect_right(cumulative, random() * total), last)


@dataclass
class ForwardTrajectory:
    final_state: SpinBondState
    elapsed: float
    event_count: int
    edge_flip_counts: np.ndarray
    checkpoint_rows: list[tuple[float, str, float]]


def simulate_forward(
    g: Graph,
    kernel: AdoptionKernel | NeighborSampler,
    params: ModelParams,
    initial: SpinBondState,
    t_max: float,
    rng,
    checkpoint_times=(),
    observables=(),
    record_events: list | None = None,
) -> ForwardTrajectory:
    """Run the joint spin-bond process on [0, t_max] from ``initial``, left unchanged.

    ``observables`` are cylinder events evaluated at each checkpoint time;
    rows come back as (time, observable label, 0.0 or 1.0). ``record_events``
    collects ("site", t, x, y, old, new) and ("edge", t, e, old, new) tuples
    when a list is supplied.

    Clocks are per-object exponentials kept in a priority queue; entries are
    ordered by (time, channel, index) so simultaneous floats resolve by
    object index and reruns with the same generator state are reproducible.
    """
    gen = as_generator(rng)
    random, standard_exponential = gen.random, gen.standard_exponential
    heapreplace = heapq.heapreplace
    sampler = kernel if isinstance(kernel, NeighborSampler) else NeighborSampler(g, kernel)
    tables = sampler.rows
    initial.check_shapes(g)
    sites = initial.site_signs.tolist()
    edges = initial.edge_signs.tolist()
    _check_sign_values(sites, edges)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")

    checkpoints = sorted(checkpoint_times)
    if checkpoints and checkpoints[-1] > t_max:
        raise ValueError(f"checkpoint {checkpoints[-1]} lies beyond t_max={t_max}")
    checkpoints.append(math.inf)
    rows: list[tuple[float, str, float]] = []
    next_cp = 0

    def flush_checkpoints(up_to: float) -> float:
        """Record every checkpoint at or before ``up_to``; return the next one."""
        nonlocal next_cp
        while checkpoints[next_cp] <= up_to:
            tc = checkpoints[next_cp]
            for obs in observables:
                hit = obs.matches(sites, edges)
                rows.append((tc, obs.label(), 1.0 if hit else 0.0))
            next_cp += 1
        return checkpoints[next_cp]

    # Start clocks drawn as arrays take the same draws, in the same order, as
    # one scalar call per object; numpy's exponential(scale) is
    # scale * standard_exponential(), so renewals take the same products.
    n, m = g.vertex_count, g.edge_count
    heap = list(zip(gen.exponential(1.0, n).tolist(), repeat(0), range(n)))
    p = params.p
    if params.v > 0.0:
        scale = 1.0 / params.v
        heap += zip(gen.exponential(scale, m).tolist(), repeat(1), range(m))
    heapq.heapify(heap)

    # Each object holds exactly one heap entry, so (time, channel, index) keys
    # are distinct and replacing the root pops in the same order as pop + push.
    flip_counts = [0] * m
    events = 0
    next_tc = checkpoints[0]
    while heap:
        t_event, channel, idx = heap[0]
        if t_event > t_max:
            break
        if t_event >= next_tc:
            next_tc = flush_checkpoints(t_event)
        events += 1
        if channel == 0:
            cumulative, total, last, neighbors, edge_ids = tables[idx]
            i = bisect_right(cumulative, random() * total)
            if i > last:
                i = last
            y = neighbors[i]
            old = sites[idx]
            sites[idx] = new = sites[y] * edges[edge_ids[i]]
            if record_events is not None:
                record_events.append(("site", t_event, idx, y, old, new))
            heapreplace(heap, (t_event + standard_exponential(), 0, idx))
        else:
            old = edges[idx]
            new = 1 if random() < p else -1
            edges[idx] = new
            if new != old:
                flip_counts[idx] += 1
            if record_events is not None:
                record_events.append(("edge", t_event, idx, old, new))
            heapreplace(heap, (t_event + scale * standard_exponential(), 1, idx))

    flush_checkpoints(t_max)
    return ForwardTrajectory(
        final_state=SpinBondState(
            np.array(sites, dtype=initial.site_signs.dtype),
            np.array(edges, dtype=initial.edge_signs.dtype),
        ),
        elapsed=t_max,
        event_count=events,
        edge_flip_counts=np.array(flip_counts, dtype=np.int64),
        checkpoint_rows=rows,
    )


def _signs_to_text(arr: np.ndarray) -> str:
    return "".join("+" if s > 0 else "-" for s in arr)


def _signs_from_text(text: str, count: int, label: str) -> np.ndarray:
    if len(text) != count:
        raise ValueError(f"{label} line has {len(text)} signs, expected {count}")
    out = np.empty(count, dtype=np.int8)
    for i, ch in enumerate(text):
        if ch == "+":
            out[i] = 1
        elif ch == "-":
            out[i] = -1
        else:
            raise ValueError(f"{label} line contains {ch!r}, expected '+' or '-'")
    return out


def write_state_file(state: SpinBondState, path) -> None:
    """Two-line text format: site signs then edge signs, as '+'/'-' strings."""
    Path(path).write_text(
        _signs_to_text(state.site_signs) + "\n" + _signs_to_text(state.edge_signs) + "\n"
    )


def read_state_file(g: Graph, path) -> SpinBondState:
    lines = [
        ln.strip()
        for ln in Path(path).read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if len(lines) != 2:
        raise ValueError(f"state file {path} must hold exactly two sign lines, found {len(lines)}")
    return SpinBondState(
        site_signs=_signs_from_text(lines[0], g.vertex_count, "site"),
        edge_signs=_signs_from_text(lines[1], g.edge_count, "edge"),
    )
