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
then two uniforms per ring, a chunk at a time; it maps them to the table's
flat entries in numpy, and its one Python loop reads each ring's object and
two columns from the table's move table of shared Python ints and sets that
object of a list of signs to the product. It returns what the laws are read
from: the cylinder hits at the checkpoints, the final state and the ring
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    A row is non-decreasing, so its first position above a draw w is the
    number of its entries at most w. The last column holds 1.0 or the 2.0
    padding, above every draw in [0, 1), so it never counts: ``entries``
    counts over the leading columns alone, each kept as a contiguous array
    over the objects (``leads``). ``rings`` and ``columns`` read ``src`` and
    ``via`` at those entries, ``simulate_forward`` reads ``moves``.
    """

    def __init__(self, g: Graph, kernel: AdoptionKernel, params: ModelParams):
        require_valid_kernel(g, kernel)
        n, m = g.vertex_count, g.edge_count
        plus, minus = n + m, n + m + 1
        # Each row's (rate, source, via) entries, then one cumsum over the padded rates.
        rows = [
            [(q, y, n + g.edge_id(x, y)) for y, q in row if q != 0]
            for x, row in enumerate(kernel.rows)
        ]
        refresh = [(params.p, plus, plus), (1.0 - params.p, minus, plus)]
        rows += [[entry for entry in refresh if entry[0] != 0.0]] * m
        lengths = np.array([len(row) for row in rows])
        real = np.arange(lengths.max()) < lengths[:, None]
        rates = np.zeros(real.shape)
        src = np.full(real.shape, plus, dtype=np.intp)
        via = src.copy()
        rates[real], src[real], via[real] = zip(*(entry for row in rows for entry in row))
        self.cum = np.cumsum(rates, axis=1)
        self.cum /= self.cum[np.arange(n + m), lengths - 1, None]
        self.cum[~real] = 2.0
        self.src, self.via = src.ravel(), via.ravel()
        self.leads = [np.ascontiguousarray(self.cum[:, j]) for j in range(real.shape[1] - 1)]
        self.g, self.kernel, self.params, self.n = g, kernel, params, n
        self.rate = n + params.v * m
        self.objects = n + m if params.v > 0.0 else n

    @cached_property
    def moves(self) -> np.ndarray:
        """Each flat entry's (object, source column, via column), in an object array.

        Built on first use. Each index is one shared Python int, so the
        per-ring loop makes no int of its own, even above CPython's cached
        small ints. A row's padding, never drawn, shares one tuple.
        """
        ints = list(range(self.cum.shape[0] + 2))  # every object and column index
        width, plus = self.cum.shape[1], ints[-2]
        moves = np.fromiter(((x, plus, plus) for x in ints[:-2]), dtype=object).repeat(width)
        drawable = np.flatnonzero(self.cum.ravel() <= 1.0)
        columns = (drawable // width, self.src[drawable], self.via[drawable])
        moves[drawable] = np.fromiter(zip(*(map(ints.__getitem__, c.tolist()) for c in columns)), object)
        return moves

    def pick(self, u: np.ndarray) -> np.ndarray:
        """The ringing object of each uniform ``u``.

        ``u * rate`` picks the object: below n it is site ⌊u·rate⌋, above it
        edge ⌊(u·rate − n)/v⌋, clamped against rounding up to the top.
        """
        n, v = self.n, self.params.v
        x = u * self.rate
        if self.objects > n:  # min(x, n) + max(x - n, 0) / v, in place
            edge = x - n
            np.maximum(edge, 0.0, out=edge)
            edge /= v
            np.minimum(x, n, out=x)
            x += edge
        k = x.astype(np.intp)
        np.minimum(k, self.objects - 1, out=k)
        return k

    def entries(self, k: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The flat entry that uniforms ``w`` pick in the rows of objects ``k``."""
        entry = k * self.cum.shape[1]
        for lead in self.leads:  # the row position: how many leading entries are <= w
            entry += lead.take(k) <= w
        return entry

    def rings(self, u: np.ndarray, w: np.ndarray):
        """The object (``pick`` of ``u``), source column and via column of each ring."""
        k = self.pick(u)
        return (k, *self.columns(k, w))

    def columns(self, k: np.ndarray, w: np.ndarray):
        """Source and via columns of the row positions that uniforms ``w`` pick for objects ``k``."""
        entry = self.entries(k, w)
        return self.src.take(entry), self.via.take(entry)


@dataclass
class ForwardTrajectory:
    final_state: SpinBondState
    event_count: int
    checkpoint_hits: np.ndarray


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
    on the state the rings before it leave; ``checkpoint_hits`` holds 1
    where one holds and 0 where not, as int64, times (sorted) outermost.
    The final state keeps the initial arrays' dtypes, and ``event_count``
    is the number of rings. Many runs may share one table.

    Each interval between checkpoints, the last one ending at t_max, draws
    its Poisson(rate * length) ring count, then its rings in chunks of at
    most ``CHUNK_CAP``: two uniforms per ring, which pick its object and its
    row entry as in ``EventTable.rings``. These are the draws of a
    one-replica block of the batched forward estimator, so the checkpoint
    hits are that block's. The loop unpacks each ring's tuple of shared ints
    from the table's ``moves``, built on the table's first path.
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
    hits: list[bool] = []

    n, m = g.vertex_count, g.edge_count
    state = sites + edges + [1, -1]
    moves = table.moves
    events = 0
    start = 0.0
    # The last interval, up to t_max, ends on no checkpoint.
    for end, checked in [(t, observables) for t in checkpoints] + [(t_max, ())]:
        count = int(gen.poisson(table.rate * (end - start)))
        for first in range(0, count, CHUNK_CAP):
            draws = gen.random(2 * min(CHUNK_CAP, count - first))
            entry = table.entries(table.pick(draws[0::2]), draws[1::2])
            for x, a, b in moves.take(entry).tolist():
                state[x] = state[a] * state[b]
        events += count
        start = end
        now, edges_now = state[:n], state[n : n + m]
        hits += [obs.matches(now, edges_now) for obs in checked]

    return ForwardTrajectory(
        final_state=SpinBondState(
            np.array(state[:n], dtype=initial.site_signs.dtype),
            np.array(state[n : n + m], dtype=initial.edge_signs.dtype),
        ),
        event_count=events,
        checkpoint_hits=np.array(hits, dtype=np.int64),
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
