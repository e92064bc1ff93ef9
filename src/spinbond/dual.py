"""Dual dynamics: signed walkers that reveal and forget edge signs.

Walkers sit on vertices and carry +-1 signs. A walker stepping across an
edge whose sign is unrevealed reveals it in the same event: positive with
probability ``p`` (sign kept) or negative with probability ``1 - p`` (sign
flipped). Stepping across an already revealed edge keeps or flips the sign
deterministically. Each revealed edge forgets its sign at rate ``v``,
independently of everything else, so a simulation need only ask whether an
edge is still revealed when a walker crosses it or when the run stops.

Two move rules are supported. In the coalescing rule one clock runs per
occupied site and every walker there moves together, so walkers that meet
stay together for good. In the independent rule each walker has its own
clock and moves alone.

``simulate_dual`` runs a block of replicas of one model, an ``EventTable``
that holds the graph, the kernel and (p, v), in lockstep as numpy arrays,
by exact Gillespie on the walkers' rings with forgetting sampled lazily. Its
loop steps compact arrays of the live replicas' walkers, clocks and class
counts, and writes a replica back to the block arrays when it stops. One
loop may step two blocks, each drawing on its own generator exactly as it
would alone. A block may start from where a previous block stopped, so
runs can go on under another rule from a shared history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import StateSpaceCapError
from .forward import EventTable, check_t_max
from .graphs import Graph


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

    def validate(self, g: Graph) -> None:
        if not self.positions:
            raise ValueError("a dual state needs at least one walker")
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


@dataclass
class DualTrajectory:
    """Where a block of dual runs stopped, one row per replica.

    ``positions`` and ``signs`` are ``(size, k)``; ``status`` is ``(size, m)``,
    0 for an unrevealed edge, else its revealed sign. ``time`` is when each
    replica stopped: t_max, unless it reached the target class count, which
    ``stopped`` marks. ``event_count`` counts the block's moves,
    ``reveal_count`` its fresh reveals.
    """

    positions: np.ndarray
    signs: np.ndarray
    status: np.ndarray
    time: np.ndarray
    stopped: np.ndarray
    event_count: int
    reveal_count: int

    @staticmethod
    def join(parts) -> "DualTrajectory":
        """Blocks in order as one: arrays concatenated, counts summed."""
        names = ("positions", "signs", "status", "time", "stopped")
        return DualTrajectory(
            *(np.concatenate([getattr(part, name) for part in parts]) for name in names),
            event_count=sum(part.event_count for part in parts),
            reveal_count=sum(part.reveal_count for part in parts),
        )

    def validate(self, g: Graph) -> None:
        size, m = self.time.size, g.edge_count
        if self.positions.shape != self.signs.shape or self.positions.shape[0] != size:
            raise ValueError(
                f"positions {self.positions.shape} and signs {self.signs.shape} "
                f"do not fit {size} replicas"
            )
        if self.status.shape != (size, m):
            raise ValueError(f"status {self.status.shape} is not {size} replicas by {m} edges")
        if ((self.positions < 0) | (self.positions >= g.vertex_count)).any():
            raise ValueError(f"walker positions outside 0..{g.vertex_count - 1}")
        if not np.isin(self.signs, (-1, 1)).all():
            raise ValueError("walker signs must be +-1")
        if not np.isin(self.status, (-1, 0, 1)).all():
            raise ValueError("edge statuses must be -1, 0 or 1")


class DualEvents(NamedTuple):
    """The moves of one lockstep step of ``simulate_dual``.

    Entry j is a move of replica ``replica[j]`` at ``time[j]`` across edge
    ``edge[j]``; ``edge_status[j]`` is the edge's status after the move and
    ``revealed[j]`` marks a fresh reveal, of an unrevealed edge or of one
    forgotten since it was last seen. ``positions[j]`` and ``signs[j]`` are
    the replica's walkers after the move.
    """

    replica: np.ndarray
    time: np.ndarray
    edge: np.ndarray
    edge_status: np.ndarray
    revealed: np.ndarray
    positions: np.ndarray
    signs: np.ndarray


_PLUS, _MINUS = np.int8(1), np.int8(-1)
_RESOLVE_ROWS = 512


def simulate_dual(
    gen: np.random.Generator | Sequence[np.random.Generator],
    size: int | Sequence[int],
    table: EventTable,
    initial: DualState | DualTrajectory,
    t_max: float,
    mode: str = "coalescing",
    target: int | None = None,
    record: list | None = None,
    budget: tuple[float, int] | None = None,
) -> DualTrajectory:
    """``size`` dual runs of the model ``table`` in lockstep, to t_max or ``target`` classes.

    One block is a generator ``gen`` and its ``size`` runs. A sequence of
    one or two generators with as many sizes steps that many consecutive
    blocks in one loop, so that their straggler tails share its steps; the
    result is the blocks joined in order (``DualTrajectory.join``), bit for
    bit, since each block keeps its draws on its own generator: per step,
    ``standard_exponential(w)`` then ``random((3, w))`` for its ``w`` live
    runs, none once it has none, and at the end its own resolution. The
    step's draws go straight into its rows with ``out=``: three ``random(w)``
    calls fill the three uniform rows with exactly the values of one
    ``random((3, w))``. A pair holds both blocks' arrays at once.

    ``initial`` is one ``DualState`` for every replica, or a block of the
    same total size, whose replicas go on from their stop times and states.

    Each running replica draws its next ring at the constant rate k, with k
    walkers, so this is exact Gillespie. The ring belongs to a uniformly
    drawn walker slot. Under the coalescing rule it moves every walker on
    that slot's site, but only when the slot is the lowest-indexed walker
    there: each occupied site rings at rate 1 after this thinning. Under the
    independent rule it moves that walker alone. The neighbour and joining
    edge come from the site rows of ``table``.

    Forgetting is sampled lazily. ``seen`` holds, per replica and edge, the
    last time the edge's status was known. An edge revealed then is still
    revealed at the move's time t with probability a = exp(-v (t - seen)),
    and an unrevealed one with a = 0. The move's uniform q keeps the sign if
    q < a, else reveals it afresh: +1 iff q - a < p (1 - a). When a replica
    stops, each of its revealed edges is kept with probability
    exp(-v (time - seen)) against one more uniform, else cleared.

    With ``target`` a replica also stops once its walkers form at most that
    many classes. Under the independent rule the only target is k - 1: from
    pairwise distinct sites, the first collision. ``record`` collects one
    ``DualEvents`` per step.

    ``budget``, a pair (moves per replica, steps), bounds the work of runs
    that stop at a random time: a block may move at most its size times the
    first, and the loop may step at most the second times. Past either the
    call raises ``StateSpaceCapError``. Each block's moves are its own, and
    a pair steps as often as its longer block alone, so whether a call
    raises does not depend on which blocks share it.

    The loop holds only the live replicas, one column each: their walkers'
    positions and signs, one row per walker slot, their clocks and their
    class counts. A replica's column goes back to the block arrays when it
    stops, at the target or at a ring past t_max, and only then are the
    columns compacted. ``status`` and ``seen`` stay block-sized and are read
    and written at the flat cell index replica * m + edge, never copied.
    t_max must be finite and >= 0.
    """
    if mode not in ("coalescing", "independent"):
        raise ValueError(f"mode must be 'coalescing' or 'independent', got {mode!r}")
    check_t_max(t_max)
    gens, sizes = ([gen], [size]) if isinstance(gen, np.random.Generator) else (gen, size)
    if not 1 <= len(gens) == len(sizes) <= 2:
        raise ValueError(f"one or two blocks a call: {len(gens)} generators, {len(sizes)} sizes")
    bounds = np.cumsum([0, *sizes])  # block b holds rows bounds[b]:bounds[b + 1]
    size = int(bounds[-1])
    g = table.g
    initial.validate(g)
    if isinstance(initial, DualTrajectory):
        if initial.time.shape != (size,):
            raise ValueError(f"a block of {initial.time.size} replicas cannot start {size}")
        pos, sgn, status = initial.positions.copy(), initial.signs.copy(), initial.status.copy()
        clock = initial.time.copy()
    else:
        pos = np.tile(np.array(initial.positions, dtype=np.intp), (size, 1))
        sgn = np.tile(np.array(initial.signs, dtype=np.int8), (size, 1))
        status = np.zeros((size, g.edge_count), dtype=np.int8)
        status[:, sorted(initial.revealed_positive)] = 1
        status[:, sorted(initial.revealed_negative)] = -1
        clock = np.zeros(size)
    seen = np.empty(status.shape)
    seen[:] = clock[:, None]
    n, m, k, p, v = g.vertex_count, g.edge_count, pos.shape[1], table.params.p, table.params.v
    coalescing = mode == "coalescing"
    if target is not None and not coalescing and target != k - 1:
        raise ValueError(f"the independent rule stops only at the first collision, k - 1 = {k - 1}")
    ordered = np.sort(pos, axis=1)
    count = 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)  # classes
    stop = target or 0  # without a target none stops early: classes >= 1
    stopped = np.zeros(size, dtype=bool)
    # One column per live replica, in block order: block index, walkers,
    # clock and class count.
    live, here, signs, now = np.arange(size), pos.T.copy(), sgn.T.copy(), clock.copy()
    on = np.ones(size, dtype=bool)  # not past t_max
    cells_status, cells_seen = status.reshape(-1), seen.reshape(-1)
    below = np.arange(k)[:, None]
    events = reveals = steps = 0
    if budget is not None:
        shares = [math.floor(budget[0] * part) for part in sizes]
        moved = [0] * len(sizes)
    while True:
        leave = ~on | (count <= stop)
        if leave.any():
            out, keep = live[leave], ~leave
            stopped[out], clock[out] = count[leave] <= stop, now[leave]
            pos[out], sgn[out] = here.compress(leave, axis=1).T, signs.compress(leave, axis=1).T
            live, now, count = live[keep], now[keep], count[keep]
            here, signs = here.compress(keep, axis=1), signs.compress(keep, axis=1)
        if not live.size:
            break
        width = live.size
        wait, u, w, q = np.empty((4, width))
        # Each block's live columns are a run of ``live``, in block order; a
        # block with any fills its run of each row on its own generator.
        runs = live.searchsorted(bounds).tolist()
        for rng, lo, hi in zip(gens, runs[:-1], runs[1:]):
            if lo < hi:
                rng.standard_exponential(out=wait[lo:hi])
                for row in (u, w, q):
                    rng.random(out=row[lo:hi])
        now = now + wait / k
        on = now <= t_max  # a column past t_max does not move, and leaves
        slot = np.minimum((u * k).astype(np.intp), k - 1)
        z = here.reshape(-1).take(slot * width + np.arange(width))
        if coalescing:  # only the lowest-indexed walker on a site moves it
            movers = here == z
            move = on & ~(movers & (below < slot)).any(axis=0)
        else:
            movers, move = below == slot, on
        y, e = table.columns(z, w)
        j = slice(None)  # the columns that move
        if not move.all():
            j = np.flatnonzero(move)
            movers &= move
        r, t, e, q = live[j], now[j], e[j] - n, q[j]
        cell = r * m + e
        s = cells_status[cell]
        a = (s != 0) * np.exp(-v * (t - cells_seen[cell]))
        fresh = q >= a
        s = np.where(fresh, np.where(q - a < p * (1.0 - a), _PLUS, _MINUS), s)
        cells_status[cell] = s
        cells_seen[cell] = t
        if target is not None:  # a move onto an occupied site merges two classes
            count -= (here == y).any(axis=0) & move
        flip = np.ones(width, dtype=np.int8)
        flip[j] = s
        here = np.where(movers, y, here)
        signs = signs * np.where(movers, flip, _PLUS)
        events += r.size
        reveals += int(np.count_nonzero(fresh))
        if record is not None:
            record.append(DualEvents(r, t, e, s, fresh, here[:, j].T, signs[:, j].T))
        if budget is not None:
            steps += 1
            if steps > budget[1]:
                raise StateSpaceCapError(steps, budget[1], "dual steps of a block")
            # Moves before each block's first column: its columns are a run of ``live``.
            cuts = runs if isinstance(j, slice) else j.searchsorted(runs).tolist()
            for b, share in enumerate(shares):
                moved[b] += cuts[b + 1] - cuts[b]
                if moved[b] > share:
                    raise StateSpaceCapError(moved[b], share, "dual moves of a block")
    time = np.where(stopped, clock, t_max)
    seen -= time[:, None]  # minus each entry's time since it was last seen
    for rng, first, last in zip(gens, bounds[:-1].tolist(), bounds[1:].tolist()):
        for lo in range(first, last, _RESOLVE_ROWS):  # row chunks bound the per-entry temporaries
            hi = min(lo + _RESOLVE_ROWS, last)
            part = status[lo:hi]
            known = np.flatnonzero(part)
            kept = np.exp(v * seen[lo:hi].take(known))
            part.flat[known[rng.random(known.size) >= kept]] = 0
    return DualTrajectory(pos, sgn, status, time, stopped, events, reveals)


@dataclass(frozen=True)
class CoalescenceReport:
    """Outcome of one dual replica run to coalescence."""

    partition: tuple[tuple[int, ...], ...]
    sync: tuple[bool, ...]
    time: float
    censored: bool

    @staticmethod
    def of(positions: list, signs: list, time: float, censored: bool) -> "CoalescenceReport":
        """Report on one replica's final walkers: their classes and whether each shares one sign.

        A class is the walker indices at one position; classes come in the
        order of their first members.
        """
        by_site: dict[int, list[int]] = {}
        for idx, z in enumerate(positions):
            by_site.setdefault(z, []).append(idx)
        partition = tuple(map(tuple, by_site.values()))
        sync = tuple(all(signs[j] == signs[cls[0]] for j in cls) for cls in partition)
        return CoalescenceReport(partition=partition, sync=sync, time=time, censored=censored)
