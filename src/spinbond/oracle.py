"""Exact distributions for small systems via explicit generator matrices.

Forward configurations are packed into integers with one bit per site and
per edge (set bit means +1), dual configurations into mixed-radix integers
(positions base |V|, signs base 2, one base-3 digit per edge: 0 unrevealed,
1 revealed positive, 2 revealed negative). A builder fills a table of
`targets` and `rates` with a fixed number of slots per state, in blocks of
at most _ROW_BLOCK states, with array arithmetic on those digits; rate 0
means no transition, and the last slot holds the diagonal. Each block is
sorted by target into arrays sized for the whole table.

The forward chain's quotient Q on spin-flip orbits is the one forward
generator built, stored by columns with every slot kept, so Q.T, which
every forward-law product multiplies, is a CSR view with one row width. A
full vector is e + o on each orbit's representative and e - o on its
flip: e steps on Q, o on Q less twice its site-0 slot. The flip-invariant
stationary law is solved on Q and certified on the full chain from Q's
columns, so a mirror pair of closed classes stays two. The dual generator
has one row per walker-exchange orbit (56,862 for 104,976 labelled states
on cycle:6 with k = 2), stored by rows with its zero slots dropped;
DUAL_STATE_CAP and the duality gap table's rows count labelled states.

Each chain is held once: _uniformize turns a transient solver's generator,
or its transpose, into its jump matrix in place, and transient_steps steps
vectors with its product; stationary_distribution steps pi + (Q^T pi)/lam
on the view Q.T and keeps Q as it is, since callers read its residual from
Q. The series (uniformization) and the stationary loop (power iteration
from the edges' own law) share one work budget in stored entries read,
ORACLE_WORK_BUDGET, counted before the first product. The gap table's left
side takes one pass over the forward law per walker position/sign block.
scipy is imported only where a generator is assembled (``scipy.sparse``),
so importing this module, or running any Monte Carlo path, loads none of it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from .cylinders import CylinderEvent
from .errors import StateSpaceCapError
from .forward import ModelParams, SpinBondState, edge_flip_rate
from .graphs import AdoptionKernel, Graph, require_valid_kernel

if TYPE_CHECKING:
    import scipy.sparse as sp

FORWARD_STATE_CAP = 2**20
DUAL_STATE_CAP = 2_000_000
UNIFORMIZATION_TAIL = 1e-12
_MAX_UNIFORM_EXPONENT = 500.0
# Times on one uniformization series before it restarts from its last result.
_SEGMENT_TIMES = 8
# The stationary iteration stops at max|L^T pi| <= STATIONARY_RESIDUAL_TOL * lam.
# It and the transient series raise past ORACLE_WORK_BUDGET stored entries
# read. A step or a product reads the operator's entries plus _STEP_OVERHEAD,
# its fixed cost (8.7 us a step on path:3 over 2.3 ns an entry on C9, 2-core
# x86): 12,800 steps of 21 slots a state on 2^20 states, 10 minutes, which
# is 25,600 stationary steps of the quotient at the cap. A series is counted
# at the products it takes, _tail_terms a segment.
STATIONARY_RESIDUAL_TOL = 1e-14
_STEP_OVERHEAD = 3_800
ORACLE_WORK_BUDGET = 12_800 * (21 * FORWARD_STATE_CAP + _STEP_OVERHEAD)
# Rows per block of a pass over a generator's entries, so that its
# temporaries stay small beside the generator itself.
_ROW_BLOCK = 1024


def forward_state_count(g: Graph) -> int:
    bits = g.vertex_count + g.edge_count
    size = 1 << bits
    if size > FORWARD_STATE_CAP:
        raise StateSpaceCapError(required=size, cap=FORWARD_STATE_CAP, label="forward states")
    return size


def encode_forward_state(g: Graph, state: SpinBondState) -> int:
    index = 0
    for x in range(g.vertex_count):
        if state.site_signs[x] > 0:
            index |= 1 << x
    for e in range(g.edge_count):
        if state.edge_signs[e] > 0:
            index |= 1 << (g.vertex_count + e)
    return index


def build_forward_generator(g: Graph, kernel: AdoptionKernel, params: ModelParams) -> sp.csc_matrix:
    """Generator Q of the joint spin-bond chain on spin-flip orbits, stored by columns.

    In the full chain L every transition flips one bit: site x has one
    slot, whose rate sums, in kernel-row order, q(x, y) over the positive
    kernel entries whose adopted sign differs from x's, and each edge has
    one. Flipping every spin, F(s) = s ^ (2^n - 1), commutes with L, so L
    lumps exactly onto the orbits {2j, F(2j)} (Kemeny and Snell 1960).
    Column j of Q is L's column 2j, all n + m + 1 slots kept in ascending
    source order, each source s folded to its orbit (s ^ F(0) if s is odd
    else s) >> 1. Only the site-0 source 2j + 1 is odd: it folds to
    j ^ (2^(n-1) - 1), in the slot after the diagonal (_site0_slots), and
    for n = 2 shares its row with the site-1 slot; products add the two.
    """
    columns = _forward_columns(g, kernel, params)
    size = forward_state_count(g) // 2
    spins = np.int32((1 << g.vertex_count) - 1)

    def folded(half: np.ndarray):
        values, rows, lengths = columns(half << 1)
        return values, (rows ^ (rows & 1) * spins) >> 1, lengths

    # Q.T's rows; their transpose is Q stored by columns, on the same arrays.
    return _assemble_generator(size, g.vertex_count + g.edge_count + 1, folded).T


def _site0_slots(Q: sp.csc_matrix) -> np.ndarray:
    """Index in Q.data of each column's site-0 slot: column j's slot popcount(j) + 1,
    since L's column 2j has a source 2j ^ 2^b below 2j for each set bit of j."""
    j = np.arange(Q.shape[0], dtype=np.int32)
    return j * np.int32(Q.nnz // Q.shape[0]) + np.bitwise_count(j) + 1


def _orbit_view(g: Graph, x: np.ndarray) -> np.ndarray:
    """A full vector as (2^m, 2^(n-1), 2): [:, :, 0] holds the orbits'
    representatives in orbit order and [:, ::-1, 1] their flips."""
    return x.reshape(1 << g.edge_count, 1 << (g.vertex_count - 1), 2)


def unfold(g: Graph, even: np.ndarray, odd: np.ndarray | float = 0.0) -> np.ndarray:
    """The full vector that is even + odd on each orbit's representative and even - odd
    on its flip: a law on the orbits unfolds to its flip-invariant law as unfold(g, law / 2)."""
    out = np.empty(2 * even.size)
    view = _orbit_view(g, out)
    view[:, :, 0] = (even + odd).reshape(view.shape[:2])
    view[:, ::-1, 1] = (even - odd).reshape(view.shape[:2])
    return out


def _forward_columns(g: Graph, kernel: AdoptionKernel, params: ModelParams):
    """columns(idx): values, ascending rows and lengths of L's columns idx, every slot kept."""
    require_valid_kernel(g, kernel)
    n, m = g.vertex_count, g.edge_count
    bits = np.arange(n + m, dtype=np.int32)
    flips = np.int32(1) << bits  # FORWARD_STATE_CAP < 2^31
    nbr, edge_of, rate_of = _kernel_entries(g, kernel)
    width = len(nbr)
    edge_of += n  # the edge's bit
    up_rate = edge_flip_rate(-1, params)
    down_rate = edge_flip_rate(1, params)

    def columns(idx: np.ndarray):
        # Slot b of row r is the flip of bit b of state idx[r], and the last
        # slot is the diagonal's; `out` holds the rates out of idx[r], `into`
        # those out of the flipped state, that is into idx[r].
        targets = np.empty((idx.size, n + m + 1), dtype=np.int32)
        targets[:, :-1] = idx[:, None] ^ flips
        targets[:, -1] = idx
        bit = ((idx >> bits[:, None]) & 1).astype(bool)  # one row per bit
        out = np.zeros(targets.shape)
        into = np.zeros(targets.shape)
        for d in range(width):  # each site's rates summed in kernel-row order
            # The adopted sign, the product of neighbour and edge signs,
            # differs from the site's: its bit is 1 ^ neighbour ^ edge.
            differs = (bit[nbr[d]] ^ bit[edge_of[d]]) == bit[:n]
            out[:, :n] += np.where(differs, rate_of[d][:, None], 0.0).T
            into[:, :n] += np.where(differs, 0.0, rate_of[d][:, None]).T
        out[:, n:-1] = np.where(bit[n:], down_rate, up_rate).T
        into[:, n:-1] = np.where(bit[n:], up_rate, down_rate).T
        values, cols = _generator_rows(targets, out, into)
        return values.ravel(), cols.ravel(), np.full(idx.size, n + m + 1)

    return columns


def _kernel_entries(g: Graph, kernel: AdoptionKernel):
    """Neighbour, edge id and rate of the d-th positive kernel entry of every site x at [d, x].

    Padded to a common width with the site itself, edge 0 and rate 0. The
    simulators compile their own table (``EventTable``), not this one.
    """
    n = g.vertex_count
    entries = [[(y, g.edge_id(x, y), q) for y, q in kernel.rows[x] if q > 0.0] for x in range(n)]
    width = max(map(len, entries))
    nbr = np.tile(np.arange(n, dtype=np.int32), (width, 1))
    edge_of = np.zeros((width, n), dtype=np.int32)
    rate_of = np.zeros((width, n))
    for x, row in enumerate(entries):
        for d, (y, e, q) in enumerate(row):
            nbr[d, x], edge_of[d, x], rate_of[d, x] = y, e, q
    return nbr, edge_of, rate_of


def _generator_rows(targets: np.ndarray, rates: np.ndarray, into: np.ndarray | None = None):
    """Rows of a generator, or of its transpose, from their block of its slot table.

    Slot j of row r jumps from state targets[r, -1] to targets[r, j] at rate
    rates[r, j]; rate 0 means no transition. No two transitions of a row
    share a target when every kernel row lists a neighbour once; two that
    do stay two entries, which products add. The last slot is the
    diagonal's: its target is the row's own state, and its rate is minus
    the row sum, np.add.reduceat over the row's nonzero transitions in
    target order, as scipy's sum(axis=1) takes it. Given into[r, j], the
    rate of slot j's transition reversed (from targets[r, j] into the row's
    state), the rows returned are those of the transpose. Returns the
    rows' values and columns as (rows, slots) arrays, every slot kept and
    each row's columns in order, so a rate-0 slot is a stored 0 and a state
    with no transitions stores a 0 on its diagonal. targets is overwritten.
    """
    rows, slots = targets.shape
    # Each row sorted by target, with the slot carried along in the key
    # target * slots + slot (< 2^31, see _assemble_generator), in place.
    key = targets
    key *= np.int32(slots)
    key += np.arange(slots, dtype=np.int32)
    key.sort(axis=1)
    columns = key // np.int32(slots)
    key -= columns * np.int32(slots)  # now the slot of each entry
    on_diag = key == slots - 1
    key += np.arange(0, targets.size, slots, dtype=np.int32)[:, None]
    out = rates.take(key)
    off = np.flatnonzero((out != 0.0) & ~on_diag)
    counts = np.bincount(off // slots, minlength=rows)
    row_sum = np.zeros(rows)
    row_sum[counts > 0] = np.add.reduceat(out.take(off), (np.cumsum(counts) - counts)[counts > 0])
    if into is not None:
        out = into.take(key)
    out[on_diag] = -row_sum
    return out, columns


def _block_rows(size: int) -> int:
    """Rows per block of a pass over a chain: a 24th of a small one, at least 128,
    as a block's temporaries are a few times its share of the generator."""
    return min(_ROW_BLOCK, max(size // 24, 128))


def _assemble_generator(size: int, slots: int, rows_of) -> sp.csr_matrix:
    """A CSR matrix from its slot table, filled one block of rows at a time.

    rows_of(idx) returns the values, columns and lengths of the rows of the
    states idx, at most `slots` entries each. They are copied one block
    after another into arrays sized for the whole table, which are then cut
    to the entries stored (a no-op when every row fills its slots); the
    pages past them are never written, so the result holds no unused slot
    and no moment holds two generator-sized arrays. Indices are int32,
    since size * slots < 2^31
    under both state caps: 2^20 * 21 forward, and under 2 * 10^6 * 300 dual,
    as every positive kernel entry needs an edge and 3^|E| stays below the
    dual cap.
    """
    import scipy.sparse as sp

    data = np.empty(size * slots)
    indices = np.empty(size * slots, dtype=np.int32)
    indptr = np.zeros(size + 1, dtype=np.int32)
    nnz = 0
    rows = _block_rows(size)
    for start in range(0, size, rows):
        idx = np.arange(start, min(start + rows, size), dtype=np.int32)
        values, columns, lengths = rows_of(idx)
        data[nnz:nnz + values.size] = values
        indices[nnz:nnz + values.size] = columns
        indptr[start + 1:start + idx.size + 1] = nnz + np.cumsum(lengths)
        nnz += values.size
    # No view of either array exists yet, so they shrink in place.
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def _uniformize(G: sp.csr_matrix) -> float:
    """Turn a generator, or its transpose, into I + G/lam in place; return lam.

    lam is the largest exit rate, so every entry is a probability; a
    generator with no transitions gets lam = 0 and becomes the identity.
    Entries are G_ij * (1/lam) off the diagonal and 1 + G_ii * (1/lam) on
    it, and a state with no transitions gets a 1 there. G keeps its
    pattern: a stored 0 stays stored, as does an entry that reaches 0, and
    a row that stores its diagonal, as every forward row does, has it
    written in place, so G's arrays are not reallocated.
    """
    diag = G.diagonal()
    lam = float(np.max(-diag, initial=0.0))
    scale = 1.0 / lam if lam > 0.0 else 0.0
    G.data *= scale
    G.setdiag(1.0 + diag * scale)
    return lam


def _max_terms(lam_t: float) -> int:
    """The most products one series over a span with lam * span = lam_t may take."""
    return int(lam_t + 50.0 * np.sqrt(lam_t + 1.0) + 200.0)


def _tail_terms(lam_t: float) -> int:
    """The products one series over a span with lam * span = lam_t takes: the Poisson
    tail at UNIFORMIZATION_TAIL, about 7 standard deviations and a skew term. From
    lam_t = 0 to _MAX_UNIFORM_EXPONENT it is never below _series' count, nor 6 above."""
    return int(lam_t + 7.0 * np.sqrt(lam_t + 1.0) + 9.0)


def _series(
    product: Callable[[np.ndarray], np.ndarray], lam: float, vec: np.ndarray, spans: list[float]
) -> list[tuple[np.ndarray, float]]:
    """e^{s lam (P - I)} @ vec for each span s, from one sequence of products w -> P @ w.

    Each span has its own Poisson weights, starting from e^{-lam s}, and
    stops taking terms once they hold all but UNIFORMIZATION_TAIL of its
    mass; the sequence runs as long as the longest span needs. Returns each
    span's sum with the Poisson mass it took.
    """
    lam_ts = [lam * s for s in spans]
    max_terms = [_max_terms(x) for x in lam_ts]
    coeffs = [float(np.exp(-x)) for x in lam_ts]
    accs = [c * vec for c in coeffs]
    cums = list(coeffs)
    live = [k for k, cum in enumerate(cums) if 1.0 - cum > UNIFORMIZATION_TAIL]
    w = vec
    n_terms = 0
    while live:
        n_terms += 1
        if n_terms > max_terms[live[0]]:  # spans increase, and so do the limits
            raise RuntimeError("uniformization series failed to reach its tail tolerance")
        w = product(w)
        for k in live:
            coeffs[k] *= lam_ts[k] / n_terms
            accs[k] += coeffs[k] * w
            cums[k] += coeffs[k]
        live = [k for k in live if 1.0 - cums[k] > UNIFORMIZATION_TAIL]
    return list(zip(accs, cums))


def transient_distribution(Q: sp.csc_matrix, g: Graph, initial: np.ndarray, t: float) -> np.ndarray:
    """Full law at time t from a full row distribution, renormalized after truncation.
    Q, g's quotient chain, is taken over as _flip_steps takes it: pass Q.copy() to keep it."""
    law = unfold(g, *next(_flip_steps(Q, g, initial, t, 1)))
    total = law.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise RuntimeError("transient distribution lost its mass")
    return law / total


def _flip_steps(
    Q: sp.csc_matrix, g: Graph, start: np.ndarray, dt: float, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The flip-even and flip-odd parts of start @ e^{i dt L}, i = 1, ..., steps, on the orbits.

    start is a full row vector, such as a law or a difference of laws, and
    Q.T becomes the transposed jump matrix in place. The even part steps by
    Q itself; the odd part is -o on the flips, which only the site-0 slot
    reads, so it steps by Q less twice that slot's term.
    """
    PT = Q.T
    lam = _uniformize(PT)
    # The odd part's site-0 term, -2 P[2j + 1, 2j] o[j ^ (2^(n-1) - 1)]: that
    # index is j reversed within its run of 2^(n-1), the spin bits after site 0.
    site0 = PT.data.take(_site0_slots(Q)).reshape(-1, 1 << (g.vertex_count - 1)) * -2.0

    def odd_product(w: np.ndarray) -> np.ndarray:
        out = PT @ w
        out += (site0 * w.reshape(site0.shape)[:, ::-1]).ravel()
        return out

    view = _orbit_view(g, np.asarray(start, dtype=np.float64))
    even, odd = (view[:, :, 0] + view[:, ::-1, 1]) / 2, (view[:, :, 0] - view[:, ::-1, 1]) / 2
    return zip(
        transient_steps(PT.dot, lam, even.ravel(), dt, steps, PT.nnz),
        transient_steps(odd_product, lam, odd.ravel(), dt, steps, PT.nnz + site0.size),
    )


def transient_steps(
    product: Callable[[np.ndarray], np.ndarray], lam: float, rows: np.ndarray, dt: float,
    steps: int, entries: int,
) -> Iterator[np.ndarray]:
    """rows @ e^{i dt L} for i = 1, ..., steps, not renormalized.

    product(w) is P.T @ w for the jump matrix P = I + L/lam, as
    _uniformize makes it: a CSR matrix's dot, or any operator on vectors
    of that size, which reads `entries` stored entries. rows is one row
    vector, or an (N, c) block with one per column; a signed difference of
    two laws is propagated like a law.

    A step with lam * dt above _MAX_UNIFORM_EXPONENT, where e^{-lam dt}
    could underflow, is cut into 2^d equal steps on the grid first. A
    segment of at most _SEGMENT_TIMES grid points then shares one sequence
    of products from its start's result, and ends before lam times its span
    would pass _MAX_UNIFORM_EXPONENT. The next segment starts from the last
    result divided by the Poisson mass its series summed, which for a law
    is the renormalization of a per-step routine, so truncation does not
    compound over segments. Only the times i dt are yielded.

    Before its first product it counts what the series will read: per
    segment _tail_terms products, each `entries` plus _STEP_OVERHEAD. Once
    that passes ORACLE_WORK_BUDGET it raises StateSpaceCapError with the
    count so far, so a step far too long to take is refused at once.
    """
    base = np.asarray(rows, dtype=np.float64)
    segments, work = [], 0
    for start, points in _segments(lam, dt, steps):
        segments.append((start, points))
        work += _tail_terms(lam * (points[-1][0] - start)) * (entries + _STEP_OVERHEAD)
        if work > ORACLE_WORK_BUDGET:
            raise StateSpaceCapError(
                work, ORACLE_WORK_BUDGET, f"transient work on {base.shape[0]} states"
            )
    for start, points in segments:
        results = _series(product, lam, base, [t - start for t, _ in points])
        for (law, _), (_, wanted) in zip(results, points):
            if not np.all(np.isfinite(law)):
                raise RuntimeError("transient series is not finite")
            if wanted:
                yield law
        base, mass = results[-1]
        del results  # so that the next segment's sums do not sit beside these
        base = base / mass


def _segments(lam: float, dt: float, steps: int) -> Iterator[tuple[float, list]]:
    """transient_steps' segments: each start and its grid points (time, whether it is yielded)."""
    start, points, prev = 0.0, [], 0.0
    for t in [i * dt for i in range(1, steps + 1)]:
        if t < prev:
            raise ValueError(f"time must be >= 0 and must not decrease, got {t} after {prev}")
        pieces = 1
        while lam * ((t - prev) / pieces) > _MAX_UNIFORM_EXPONENT:
            pieces *= 2
        for j in range(1, pieces + 1):
            point = (prev + (t - prev) * j / pieces, False) if j < pieces else (t, True)
            if len(points) == _SEGMENT_TIMES or (
                points and lam * (point[0] - start) > _MAX_UNIFORM_EXPONENT
            ):
                yield start, points
                start, points = points[-1][0], []
            points.append(point)
        prev = t
    yield start, points


def transient_action(L: sp.csr_matrix, vec: np.ndarray, t: float) -> np.ndarray:
    """e^{tL} applied to a column vector of observables (no renormalization).

    L is taken over: vec @ e^{t L^T} is the same vector, so L itself
    becomes the jump matrix I + L/lam in place, whose product steps it.
    """
    lam = _uniformize(L)
    (out,) = transient_steps(L.dot, lam, vec, t, 1, L.nnz)
    return out


def all_states_reach(Q: sp.csc_matrix, g: Graph, r: int) -> bool:
    """Whether every state of the full chain that Q lumps has a positive-rate path into state r.

    A frontier pass over Q's columns, in blocks: the sources of 2j are column
    j's slots' representatives, but the site-0 slot's flip, and those of
    F(2j) their flips. A state joins the frontier once, so a column is read at
    most twice; a rate not above 0 (a stored 0, the diagonal) adds nothing.
    """
    size = Q.shape[0]
    slots = Q.nnz // size
    rows, rates = Q.indices.reshape(size, slots), Q.data.reshape(size, slots)
    site0 = _site0_slots(Q) % slots
    side = r & 1  # found[0] holds the representatives, found[1] their flips
    found = np.zeros((2, size), dtype=bool)
    found[side, (r ^ side * ((1 << g.vertex_count) - 1)) >> 1] = True
    frontier = found.copy()
    while frontier.any():
        grown = np.zeros_like(found)
        for side, orbits in enumerate(map(np.flatnonzero, frontier)):
            for start in range(0, orbits.size, _block_rows(size)):
                j = orbits[start:start + _block_rows(size)]
                live, crossed = rates[j] > 0.0, np.arange(slots) == site0[j, None]
                sources = rows[j]
                grown[side, sources[live & ~crossed]] = True
                grown[1 - side, sources[live & crossed]] = True
        frontier = grown & ~found
        found |= frontier
    return bool(found.all())


def stationary_distribution(Q: sp.csc_matrix, g: Graph, params: ModelParams) -> np.ndarray:
    """Unique stationary law of g's chain at params on the orbits of its quotient Q.

    Entry j is orbit j's mass; the full law, unique and so flip-invariant, is
    unfold(g, pi / 2). Steps pi + (Q^T pi) / lam on Q's own arrays, from the
    edges' stationary law (they alone are dynamical percolation; Haggstrom,
    Peres and Steif 1997) times uniform spins, until the full chain's
    max|L^T pi| <= STATIONARY_RESIDUAL_TOL * lam; raises StateSpaceCapError past
    ORACLE_WORK_BUDGET, or at its rounding floor: once |Q^T pi|_1, from
    step 1,000 on, has made no new minimum in the last half of the steps.

    Then it raises ValueError unless every state of the full chain reaches
    r, the representative of argmax pi: r then lies in every closed class,
    so there is one. No fixed r would do (at p = 0 on cycle:3 the one closed
    class holds no all-plus state), nor would Q's own classes: a mirror
    pair, such as the two consensus states at p = 1, lumps onto one.
    """
    pi = np.full(1 << (g.vertex_count - 1), 0.5 ** (g.vertex_count - 1))
    for _ in range(g.edge_count):  # edge e is orbit bit n - 1 + e, above the earlier bits
        pi = np.kron((1.0 - params.p, params.p), pi)
    # A state whose exit rate is below lam keeps a self-loop in I + Q/lam,
    # so the iteration is aperiodic unless every exit rate is equal.
    lam = float(np.max(-Q.diagonal(), initial=0.0))
    bound = 2 * STATIONARY_RESIDUAL_TOL * lam  # Q^T pi is twice L^T pi of the unfolded law
    QT = Q.T
    steps = ORACLE_WORK_BUDGET // (Q.nnz + _STEP_OVERHEAD) + 1  # one residual at least
    least, at = np.inf, 0
    for step in range(steps):
        flow = QT @ pi
        sizes = np.abs(flow)
        residual = sizes.max()
        if residual <= bound:
            break
        # Each step maps Q^T pi by the stochastic P: its 1-norm never grows, its max may.
        if (total := sizes.sum()) < least:
            least, at = total, step
        elif step >= 1_000 and step > 2 * at:
            break
        pi += flow / lam
    if not residual <= bound:  # a NaN residual too
        raise StateSpaceCapError(
            steps * (Q.nnz + _STEP_OVERHEAD), ORACLE_WORK_BUDGET, f"stationary work on "
            f"{2 * pi.size} states (least residual sum {least:.2e} at step {at} of {step + 1}, "
            f"max above {bound:.2e})",
        )
    del flow  # so that the certificate's vectors do not sit beside it
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    if not all_states_reach(Q, g, 2 * int(np.argmax(pi))):
        raise ValueError("chain has several closed classes, stationary distribution is not unique")
    return pi


def cylinder_probability(g: Graph, dist: np.ndarray, cylinder: CylinderEvent) -> float:
    """Mass of ``cylinder`` under the forward law ``dist``.

    Bit i of a state index is axis bits - 1 - i of ``dist`` viewed as
    (2,) * bits, so the cylinder's states are one basic index of that view,
    visited in index order as a boolean mask would visit them: the sum is
    the same bit for bit, and no state-sized mask is built.
    """
    n, bits = g.vertex_count, g.vertex_count + g.edge_count
    index = [slice(None)] * bits
    for i, s in [*cylinder.site_constraints, *((n + e, s) for e, s in cylinder.edge_constraints)]:
        index[bits - 1 - i] = 1 if s > 0 else 0
    return float(np.ascontiguousarray(dist.reshape((2,) * bits)[tuple(index)]).sum())


def total_variation_curve(
    g: Graph, kernel: AdoptionKernel, params: ModelParams,
    state_a: SpinBondState, state_b: SpinBondState, dt: float, steps: int,
) -> list[float]:
    """TV between the laws started from state_a and state_b at 0, dt, ..., steps * dt.

    TV(t) = |(delta_a - delta_b) e^{tL}|_1 / 2 by linearity, so one signed
    vector is propagated instead of both laws, as its flip-even and
    flip-odd parts e and o: it is e + o on a representative and e - o on
    its flip.
    """
    Q = build_forward_generator(g, kernel, params)
    start = np.zeros(2 * Q.shape[0])
    start[encode_forward_state(g, state_a)] += 1.0
    start[encode_forward_state(g, state_b)] -= 1.0

    halves = _flip_steps(Q, g, start, dt, steps)
    return [0.5 * float(np.abs(start).sum())] + [
        0.5 * float(np.abs(e + o).sum() + np.abs(e - o).sum()) for e, o in halves
    ]


def dual_state_count(g: Graph, k: int) -> int:
    if k < 1:
        raise ValueError(f"walker count must be >= 1, got {k}")
    size = g.vertex_count**k * 2**k * 3**g.edge_count
    if size > DUAL_STATE_CAP:
        raise StateSpaceCapError(required=size, cap=DUAL_STATE_CAP, label="dual states")
    return size


def build_dual_generator(
    g: Graph, kernel: AdoptionKernel, params: ModelParams, k: int
) -> sp.csr_matrix:
    """Generator of the k-walker coalescing dual and its revealed environment, on label orbits.

    Every walker on the firing site moves in the same event, so co-located
    walkers never separate. The rates ignore the walkers' labels, so the
    chain lumps exactly onto their orbits (Kemeny and Snell 1960), index
    rank + R * environment for the R ranks of _walker_orbits: row i is its
    representative's labelled row with each target folded to its orbit.
    Every move changes the walkers' (position, sign) multiset or the
    environment, so no transition folds onto its own row.
    """
    require_valid_kernel(g, kernel)
    dual_state_count(g, k)  # the cap, on labelled states
    n, m = g.vertex_count, g.edge_count
    p, v = params.p, params.v
    block = n**k * 2**k  # index stride of the first environment digit
    reps, fold = _walker_orbits(n, k)
    orbits = np.int32(reps.size)
    nbr, edge_of, rate_of = _kernel_entries(g, kernel)
    width = len(nbr)
    stride_of = block * 3**edge_of  # the edge's environment digit
    edge_strides = block * 3 ** np.arange(m, dtype=np.int32)[:, None]
    # Two slots per walker and kernel entry, one per edge, and the diagonal's.
    slots = 2 * k * width + m + 1

    def rows(orbit: np.ndarray):
        # State-sized integers are int32, since DUAL_STATE_CAP < 2^31. The
        # small tables above are int32 as well and every scalar is a Python
        # int or an np.int32, so that no product widens to int64.
        idx = reps.take(orbit % orbits) + block * (orbit // orbits)  # labelled representatives
        positions = [(idx // n**j) % n for j in range(k)]
        sign_bits = idx // n**k
        targets = np.empty((idx.size, slots), dtype=np.int32)
        rates = np.empty(targets.shape)
        for j in range(k):
            z = positions[j]
            # Walker j fires for its site only when no lower-indexed walker
            # shares it, and then it carries them all.
            fires = np.ones(idx.size, dtype=bool)
            for i in range(j):
                fires &= positions[i] != z
            movers = range(j, k)
            # Per state: sum of n**i over the walkers i that move, and the
            # index change that flips all their signs.
            place = sum((positions[i] == z) * np.int32(n**i) for i in movers)
            flip = sum(
                (positions[i] == z) * (1 - 2 * ((sign_bits >> i) & 1)) * (n**k << i) for i in movers
            )
            # One row per kernel entry of the walker's site.
            q = rate_of.take(z, axis=1) * fires
            stride = stride_of.take(z, axis=1)
            digit = idx // stride % 3
            fresh = digit == 0
            live = q > 0.0
            step = np.where(live, (nbr.take(z, axis=1) - z) * place + fresh * stride, 0)
            keep = slice(2 * j * width, 2 * (j + 1) * width, 2)  # keeps the sign
            flips = slice(2 * j * width + 1, 2 * (j + 1) * width, 2)  # flips it
            # Keep: the edge is revealed positive, or is fresh and gets
            # revealed positive with probability p.
            targets[:, keep] = (idx + step).T
            rates[:, keep] = (q * np.where(fresh, p, digit == 1)).T
            # Flip: revealed negative, or fresh and revealed negative with
            # probability 1 - p.
            targets[:, flips] = (idx + np.where(live, step + flip + fresh * stride, 0)).T
            rates[:, flips] = (q * np.where(fresh, 1.0 - p, digit == 2)).T

        # Forgetting: one slot per edge.
        digit = idx // edge_strides % 3
        targets[:, 2 * k * width:-1] = (idx - digit * edge_strides).T
        rates[:, 2 * k * width:-1] = np.where(digit != 0, v, 0.0).T
        targets[:, -1] = idx
        targets = fold.take(targets % block) + orbits * (targets // block)
        values, cols = _generator_rows(targets, rates)
        keep = np.flatnonzero(values)  # so a state with no transitions stores nothing
        return values.take(keep), cols.take(keep), np.bincount(keep // slots, minlength=idx.size)

    return _assemble_generator(int(orbits) * 3**m, slots, rows)


def _walker_orbits(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Label orbits of the n^k 2^k walker blocks (positions base n, then sign bits).

    Returns reps, the ascending blocks whose walkers are sorted by
    (position, sign), one per orbit, and fold, each block's orbit rank: the
    rank in reps of the block with its walkers sorted.
    """
    blocks = np.arange(n**k * 2**k, dtype=np.int32)
    keys = np.stack([2 * ((blocks // n**j) % n) + ((blocks // n**k >> j) & 1) for j in range(k)])
    keys.sort(axis=0)
    rep = sum((keys[j] >> 1) * np.int32(n**j) + (keys[j] & 1) * np.int32(n**k << j)
              for j in range(k))
    reps = np.flatnonzero(rep == blocks).astype(np.int32)
    return reps, np.searchsorted(reps, rep).astype(np.int32)


def duality_gap_table(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    forward_initial: SpinBondState,
    k: int,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Duality gaps for every dual initial configuration at once.

    Returns the columns (lhs, rhs), entry s for labelled state s of the
    coalescing dual. The right side for all initial conditions is a single
    semigroup action on the weight vector, made on the dual generator
    itself; that vector is the left side's masses at t = 0, where the law
    is the point mass on the forward initial state. The weight depends on
    the walkers through their (position, sign) multiset alone, so it is
    read on the orbits' representatives, and the action, a function of the
    orbit, is expanded back to every labelled state.
    """
    envs = 3**g.edge_count
    reps, fold = _walker_orbits(g.vertex_count, k)
    delta = np.zeros(forward_state_count(g))
    delta[encode_forward_state(g, forward_initial)] = 1.0
    # The dual generator is built first, while no dual-sized vector is held.
    rhs = transient_action(
        build_dual_generator(g, kernel, params, k),
        _weighted_cylinder_masses(g, delta, k, params.p).reshape(envs, -1)[:, reps].ravel(),
        t,
    )
    rhs = rhs.reshape(envs, reps.size).take(fold, axis=1).ravel()
    mu_t = transient_distribution(build_forward_generator(g, kernel, params), g, delta, t)
    lhs = _weighted_cylinder_masses(g, mu_t, k, params.p)
    return lhs, rhs


def _weighted_cylinder_masses(g: Graph, dist: np.ndarray, k: int, p: float) -> np.ndarray:
    """sum_eta dist(eta) H(eta, s) for every dual state s.

    H(eta, s) is the duality weight: 1{eta(x) = sign for every walker of s
    at x, and eta(e) = the revealed sign of every revealed edge e of s},
    times p^{-#revealed +} (1 - p)^{-#revealed -}. Each of the n^k 2^k position/sign blocks constrains some sites; the mass
    dist puts on those sites, split by edge configuration, is expanded one
    edge at a time into its three reveal digits (free, +, -), each carrying
    its duality weight (1, 1/p, 1/(1-p)). Walkers on one site with opposite
    signs match nothing and get 0.
    """
    n, m = g.vertex_count, g.edge_count
    blocks = np.arange(n**k * 2**k, dtype=np.int64)
    site_configs = np.arange(2**n, dtype=np.int64)
    matches = np.ones((blocks.size, site_configs.size), dtype=bool)
    for j in range(k):
        pos_j = (blocks // n**j) % n
        bit_j = ((blocks // n**k) >> j) & 1
        matches &= ((site_configs[None, :] >> pos_j[:, None]) & 1) == bit_j[:, None]
    # Forward index = site bits + 2^n * edge bits, so rows of this view are
    # edge configurations; edge e is bit e of the row, axis m - e below.
    by_edges = np.asarray(dist, dtype=np.float64).reshape(2**m, 2**n)
    mass = (matches @ by_edges.T).reshape((blocks.size,) + (2,) * m)
    for axis in range(1, m + 1):
        minus, plus = np.take(mass, 0, axis=axis), np.take(mass, 1, axis=axis)
        mass = np.stack([minus + plus, plus / p, minus / (1.0 - p)], axis=axis)
    # Dual index = block + n^k 2^k * environment, environment digit e at axis m - e.
    return mass.reshape(blocks.size, -1).T.ravel()
