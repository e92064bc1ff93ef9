"""Forward dynamics: spins copy neighbors through signed, refreshing edges.

Each site carries a sign and wakes at rate 1; on waking it picks a neighbor
from the adoption kernel and adopts that neighbor's sign multiplied by the
sign of the connecting edge. Each edge independently resamples its sign at
rate ``v``, choosing +1 with probability ``p``.

All site and edge clocks together ring as one Poisson clock of constant
rate n + v m, and each ring picks its object in proportion to its rate
(uniformization, Jensen 1953; every ring is a real event). ``EventTable`` is
the compiled model, graph, kernel and parameters, and says what a ring
does: the ringing object takes the product of two columns of a state row.
Every simulator and estimator takes the table as its one model argument.
``simulate_forward`` draws a Poisson ring count per checkpoint interval,
then two uniforms per ring, a chunk at a time; it maps them through the
table in numpy, and its one Python loop sets each ringing object of a list
of signs to that product. It returns what the laws are read from: the
cylinder rows at the checkpoints, the final state and the ring count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import AdoptionKernel, Graph, require_valid_kernel

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
    gen: np.random.Generator,
    site_plus_prob: float = 0.5,
    edge_plus_prob: float = 0.5,
) -> SpinBondState:
    """Draw sites and edges independently, +1 with the given probabilities."""
    sites = np.where(gen.random(g.vertex_count) < site_plus_prob, 1, -1).astype(np.int8)
    edges = np.where(gen.random(g.edge_count) < edge_plus_prob, 1, -1).astype(np.int8)
    return SpinBondState(sites, edges)


def edge_flip_rate(edge_sign: int, params: ModelParams) -> float:
    """Rate at which an edge with the given sign changes to the other sign.

    The simulator redraws each edge at rate v, landing on +1 with
    probability p, so actual sign changes occur at rate v*p from -1 and
    v*(1-p) from +1.
    """
    if edge_sign not in (-1, 1):
        raise ValueError(f"edge sign must be +-1, got {edge_sign}")
    return params.v * params.p if edge_sign == -1 else params.v * (1.0 - params.p)


class EventTable:
    """What one ring of the uniformized chain does to a state row.

    A row holds the n site signs, the m edge signs, then a constant +1 and a
    constant -1 column. Ringing object k (site k, or edge k - n) takes the
    first position j of its row of cumulative probabilities ``cum`` above a
    uniform draw, and the product of columns ``src[k, j]`` and ``via[k, j]``
    (both kept flattened): for a site, a neighbour's sign times the joining
    edge's; for an edge, +1 with probability p, else -1, times the +1
    column. Rate-0 kernel entries are left out: they can never be drawn, and
    a valid kernel may name a non-neighbour with rate 0. An invalid kernel
    (see ``validate_kernel``) raises ``ValueError``. Rows end on exactly 1.0
    and are padded with 2.0, so a draw in [0, 1) always finds a real
    position. ``rate`` is the total ring rate n + v m; ``objects`` counts the
    objects that can ring: every site, and every edge when v > 0. The table
    keeps ``g``, ``kernel`` and ``params``: it is the whole model.
    """

    def __init__(self, g: Graph, kernel: AdoptionKernel, params: ModelParams):
        require_valid_kernel(g, kernel)
        n, m = g.vertex_count, g.edge_count
        plus, minus = n + m, n + m + 1
        rows = []
        for x, row in enumerate(kernel.rows):
            ys = [y for y, q in row if q != 0]
            cumulative = np.cumsum([q for _, q in row if q != 0])
            rows.append((cumulative / cumulative[-1], ys, [n + g.edge_id(x, y) for y in ys]))
        refresh = [(q, col) for q, col in ((params.p, plus), (1.0 - params.p, minus)) if q != 0.0]
        cumulative = np.cumsum([q for q, _ in refresh])
        rows += [(cumulative / cumulative[-1], [col for _, col in refresh], [plus] * len(refresh))] * m
        width = max(len(cum) for cum, _, _ in rows)
        self.cum = np.full((n + m, width), 2.0)
        src = np.full((n + m, width), plus, dtype=np.intp)
        via = src.copy()
        for k, (row, sources, vias) in enumerate(rows):
            self.cum[k, : len(row)] = row
            src[k, : len(sources)] = sources
            via[k, : len(vias)] = vias
        self.src, self.via = src.ravel(), via.ravel()
        self.g, self.kernel, self.params, self.n = g, kernel, params, n
        self.rate = n + params.v * m
        self.objects = n + m if params.v > 0.0 else n

    def rings(self, u: np.ndarray, w: np.ndarray):
        """The object, source column and via column of each ring.

        ``u * rate`` picks the object: below n it is site ⌊u·rate⌋, above it
        edge ⌊(u·rate − n)/v⌋, clamped against rounding up to the top. ``w``
        picks the position in that object's row.
        """
        n, v = self.n, self.params.v
        u = u * self.rate
        if self.objects > n:
            u = np.minimum(u, n) + np.maximum(u - n, 0.0) / v
        k = np.minimum(u.astype(np.intp), self.objects - 1)
        return (k, *self.columns(k, w))

    def columns(self, k: np.ndarray, w: np.ndarray):
        """Source and via columns of the row positions that uniforms ``w`` pick for objects ``k``."""
        entry = k * self.cum.shape[1] + (np.take(self.cum, k, axis=0) <= w[:, None]).argmin(axis=1)
        return self.src.take(entry), self.via.take(entry)


@dataclass
class ForwardTrajectory:
    final_state: SpinBondState
    event_count: int
    checkpoint_rows: list[tuple[float, str, float]]


def check_t_max(t_max: float) -> None:
    """Raise unless ``t_max`` is a finite time >= 0: an infinite horizon never ends a run."""
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")


# Rings drawn per chunk at most, so that memory stays bounded however long
# the run.
CHUNK_CAP = 1 << 12


def simulate_forward(
    table: EventTable,
    initial: SpinBondState,
    t_max: float,
    gen: np.random.Generator,
    checkpoint_times=(),
    observables=(),
) -> ForwardTrajectory:
    """Run the process of the model ``table`` on [0, t_max] from ``initial``, left unchanged.

    ``observables`` are cylinder events evaluated at each checkpoint time,
    on the state the rings before it leave; rows come back as (time,
    observable label, 0.0 or 1.0). The final state keeps the initial
    arrays' dtypes, and ``event_count`` is the number of rings. Many runs
    may share one table.

    Each interval between checkpoints, the last one ending at t_max, draws
    its Poisson(rate * length) ring count, then its rings in chunks of at
    most ``CHUNK_CAP``: two uniforms per ring for ``EventTable.rings``. These
    are the draws of a one-replica block of the batched forward estimator,
    so the checkpoint rows are its hits.
    """
    g = table.g
    initial.check_shapes(g)
    sites = initial.site_signs.tolist()
    edges = initial.edge_signs.tolist()
    _check_sign_values(sites, edges)
    check_t_max(t_max)

    checkpoints = sorted(checkpoint_times)
    if checkpoints and checkpoints[0] < 0:
        raise ValueError(f"checkpoint {checkpoints[0]} lies before time 0")
    if checkpoints and checkpoints[-1] > t_max:
        raise ValueError(f"checkpoint {checkpoints[-1]} lies beyond t_max={t_max}")
    rows: list[tuple[float, str, float]] = []

    n, m = g.vertex_count, g.edge_count
    state = sites + edges + [1, -1]
    events = 0
    start = 0.0
    # The last interval, up to t_max, ends on no checkpoint.
    for end, checked in [(t, observables) for t in checkpoints] + [(t_max, ())]:
        count = int(gen.poisson(table.rate * (end - start)))
        for first in range(0, count, CHUNK_CAP):
            draws = gen.random(2 * min(CHUNK_CAP, count - first))
            k, src, via = table.rings(draws[0::2], draws[1::2])
            for x, a, b in zip(k.tolist(), src.tolist(), via.tolist()):
                state[x] = state[a] * state[b]
        events += count
        start = end
        now, edges_now = state[:n], state[n : n + m]
        rows += [
            (end, obs.label(), 1.0 if obs.matches(now, edges_now) else 0.0) for obs in checked
        ]

    return ForwardTrajectory(
        final_state=SpinBondState(
            np.array(state[:n], dtype=initial.site_signs.dtype),
            np.array(state[n : n + m], dtype=initial.edge_signs.dtype),
        ),
        event_count=events,
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
