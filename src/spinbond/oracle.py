"""Exact distributions for small systems via explicit generator matrices.

Forward configurations are packed into integers with one bit per site and
per edge (set bit means +1), dual configurations into mixed-radix integers
(positions base |V|, signs base 2, one base-3 digit per edge: 0 unrevealed,
1 revealed positive, 2 revealed negative). A builder fills a table of
`targets` and `rates` with a fixed number of slots per state, one slot
column at a time with array arithmetic on those digits; rate 0 means no
transition, slots with one target add their rates, and the last slot
holds the diagonal, so the table read in place as CSR is the generator.
Each chain is then held at most twice: the uniformized jump matrix
I + L/lam is made from L itself where the caller gives L up (the dual side
of the duality gap table), else from one copy of L's transpose. Transient
laws come from uniformization, one series of products per segment of at
most _SEGMENT_TIMES times on a grid; stationary laws from power iteration
on the same jump matrix. The duality gap table's left side takes one pass
over the forward law per walker position/sign block, not one per dual
state, so it does not scale as |dual| * |forward|. scipy is imported only
where a generator is assembled (``scipy.sparse``) and where closed classes
are counted (``scipy.sparse.csgraph``), so importing this module, or
running any Monte Carlo path, loads none of it.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from .cylinders import CylinderEvent
from .dual import DualState
from .errors import StateSpaceCapError
from .forward import ModelParams, SpinBondState, edge_flip_rate
from .graphs import AdoptionKernel, Graph, require_valid_kernel

if TYPE_CHECKING:
    import scipy.sparse as sp

FORWARD_STATE_CAP = 2**20
DUAL_STATE_CAP = 2_000_000
UNIFORMIZATION_TAIL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-12
_MAX_UNIFORM_EXPONENT = 500.0
# Times on one uniformization series before it restarts from its last result.
_SEGMENT_TIMES = 8
# The stationary iteration checks its residual once per sweep of
# _STEPS_PER_SWEEP uniformized steps and gives up after the budget. Chains
# that converge need 5-7 sweeps at p = 0.3, v = 1 (C6 to C9) and 114 on C6
# at p = 0.05, v = 0.02. A sweep costs about 2.3 ns per generator nonzero
# (0.65 s on C9, 2^18 states, 2-core x86), so at the 2^20-state cap (about
# 2e7 nonzeros) 200 sweeps end in about 10 minutes instead of hanging.
STATIONARY_SWEEP_BUDGET = 200
_STEPS_PER_SWEEP = 64
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


def decode_forward_state(g: Graph, index: int) -> SpinBondState:
    n, m = g.vertex_count, g.edge_count
    sites = np.array([1 if (index >> x) & 1 else -1 for x in range(n)], dtype=np.int8)
    edges = np.array([1 if (index >> (n + e)) & 1 else -1 for e in range(m)], dtype=np.int8)
    return SpinBondState(sites, edges)


def build_forward_generator(g: Graph, kernel: AdoptionKernel, params: ModelParams) -> sp.csr_matrix:
    """Generator of the joint spin-bond chain as a sparse rate matrix.

    Row s holds the rates out of configuration s; the diagonal is minus the
    row sum. Every transition flips one bit: site x has one slot, whose rate
    sums, in kernel-row order, q(x, y) over the positive kernel entries
    whose adopted sign differs from x's, and each edge has one slot.
    """
    require_valid_kernel(g, kernel)
    n, m = g.vertex_count, g.edge_count
    size = forward_state_count(g)
    idx = np.arange(size, dtype=np.int64)
    # One slot per site, one per edge, and the diagonal's (see _assemble_generator).
    targets = np.empty((size, n + m + 1), dtype=np.int32)  # FORWARD_STATE_CAP < 2^31
    rates = np.zeros(targets.shape)

    for x in range(n):
        targets[:, x] = idx ^ (1 << x)
        bit_x = (idx >> x) & 1
        for y, q in kernel.rows[x]:
            if q > 0.0:
                # adopted sign is the product of neighbor and edge signs
                new_bit = 1 ^ ((idx >> y) & 1) ^ ((idx >> (n + g.edge_id(x, y))) & 1)
                rates[:, x] += np.where(new_bit != bit_x, q, 0.0)

    up_rate = edge_flip_rate(-1, params)
    down_rate = edge_flip_rate(1, params)
    for e in range(m):
        targets[:, n + e] = idx ^ (1 << (n + e))
        rates[:, n + e] = np.where((idx >> (n + e)) & 1, down_rate, up_rate)

    return _assemble_generator(targets, rates)


def _assemble_generator(targets: np.ndarray, rates: np.ndarray) -> sp.csr_matrix:
    """Generator from a table of transitions with one row per state.

    Slot j of row s jumps from s to targets[s, j] at rate rates[s, j]; rate 0
    means no transition, and slots of one row with one target add their
    rates. The last slot is the diagonal's, filled here. The tables are read
    in place as CSR (and overwritten), so the result is the one
    generator-sized matrix made; it stores no zeros and has minus the row
    sum on its diagonal. The row sum is np.add.reduceat over the row's
    off-diagonal entries in column order, as scipy's sum(axis=1) takes it,
    computed _ROW_BLOCK rows at a time.
    """
    import scipy.sparse as sp

    size, slots = targets.shape
    targets[:, -1] = np.arange(size)
    rates[:, -1] = -1.0  # not 0, so that the diagonal keeps its place
    L = sp.csr_matrix(
        (rates.ravel(), targets.ravel(), np.arange(size + 1) * slots), shape=(size, size)
    )
    L.sum_duplicates()
    L.eliminate_zeros()
    for start in range(0, size, _ROW_BLOCK):
        ptr = L.indptr[start:start + _ROW_BLOCK + 1]
        lengths = np.diff(ptr)
        rows = np.arange(start, start + lengths.size, dtype=L.indices.dtype)
        on_diag = L.indices[ptr[0]:ptr[-1]] == np.repeat(rows, lengths)
        data = L.data[ptr[0]:ptr[-1]]
        off = lengths - 1  # off-diagonal entries per row
        row_sum = np.zeros(lengths.size)
        row_sum[off > 0] = np.add.reduceat(data[~on_diag], (np.cumsum(off) - off)[off > 0])
        data[on_diag] = -row_sum
    L.eliminate_zeros()  # the diagonal of a state with no transitions
    return L


def _uniformize(G: sp.csr_matrix) -> float:
    """Turn a generator, or its transpose, into I + G/lam in place; return lam.

    lam is the largest exit rate, so every entry is a probability; a
    generator with no transitions gets lam = 0 and becomes the identity.
    Entries are G_ij * (1/lam) off the diagonal and 1 + G_ii * (1/lam) on
    it, a state with no transitions gets a 1 there, and entries that reach
    0 are dropped, so G holds what the sum of I and G.multiply(1/lam) holds.
    """
    diag = G.diagonal()
    lam = float(np.max(-diag, initial=0.0))
    scale = 1.0 / lam if lam > 0.0 else 0.0
    G.data *= scale
    G.setdiag(1.0 + diag * scale)
    G.eliminate_zeros()
    return lam


def _uniformized(
    op: sp.csr_matrix, lam: float, vec: np.ndarray, times: list[float]
) -> Iterator[np.ndarray]:
    """Poisson-weighted power series for e^{t lam (op - I)} @ vec at each time.

    op is I + L/lam for e^{tL} @ vec, or its transpose for vec @ e^{tL};
    vec may hold one vector per column, and times must not decrease. A
    segment of at most _SEGMENT_TIMES times shares one sequence of products
    op^n @ base from its start's result. It ends before lam times its span
    would pass _MAX_UNIFORM_EXPONENT, so that e^{-lam t} cannot underflow; a
    time that far from the previous one alone is reached in 2^d equal
    pieces. The next segment starts from the last result divided by the
    Poisson mass its series summed, which for a law is the renormalization
    of a per-step routine, so truncation does not compound over segments.
    """
    base = np.asarray(vec, dtype=np.float64)
    for prev, t in zip([0.0, *times], times):
        if t < prev:
            raise ValueError(f"time must be >= 0 and must not decrease, got {t} after {prev}")
    start, i = 0.0, 0
    while i < len(times):
        span = times[i] - start
        pieces = 1
        while lam * (span / pieces) > _MAX_UNIFORM_EXPONENT:
            pieces *= 2
        end = i + 1
        if pieces > 1:
            mass = 1.0
            for _ in range(pieces):
                ((base, cum),) = _series(op, lam, base, [span / pieces])
                mass *= cum
            yield base
        else:
            while (
                end - i < _SEGMENT_TIMES
                and end < len(times)
                and lam * (times[end] - start) <= _MAX_UNIFORM_EXPONENT
            ):
                end += 1
            results = _series(op, lam, base, [t - start for t in times[i:end]])
            yield from (acc for acc, _ in results)
            base, mass = results[-1]
            del results  # so that the next segment's sums do not sit beside these
        base = base / mass
        start = times[end - 1]
        i = end


def _series(
    op: sp.csr_matrix, lam: float, vec: np.ndarray, spans: list[float]
) -> list[tuple[np.ndarray, float]]:
    """e^{s lam (op - I)} @ vec for each span s, from one sequence of products.

    Each span has its own Poisson weights, starting from e^{-lam s}, and
    stops taking terms once they hold all but UNIFORMIZATION_TAIL of its
    mass; the sequence runs as long as the longest span needs. Returns each
    span's sum with the Poisson mass it took.
    """
    lam_ts = [lam * s for s in spans]
    max_terms = [int(x + 50.0 * np.sqrt(x + 1.0) + 200.0) for x in lam_ts]
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
        w = op @ w
        for k in live:
            coeffs[k] *= lam_ts[k] / n_terms
            accs[k] += coeffs[k] * w
            cums[k] += coeffs[k]
        live = [k for k in live if 1.0 - cums[k] > UNIFORMIZATION_TAIL]
    return list(zip(accs, cums))


def transient_distribution(L: sp.csr_matrix, initial: np.ndarray, t: float) -> np.ndarray:
    """Law at time t from a row distribution, renormalized after truncation."""
    (law,) = transient_steps(L, initial, t, 1)
    total = law.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise RuntimeError("transient distribution lost its mass")
    return law / total


def transient_steps(L: sp.csr_matrix, rows: np.ndarray, dt: float, steps: int) -> Iterator[np.ndarray]:
    """rows @ e^{i dt L} for i = 1, ..., steps, not renormalized.

    rows is one row vector, or an (N, c) block with one per column; a
    signed difference of two laws is propagated like a law. The transposed
    jump matrix is made once, from a copy of L's transpose, and one series
    serves each segment of the grid.
    """
    PT = L.T.tocsr()
    lam = _uniformize(PT)
    for law in _uniformized(PT, lam, rows, [i * dt for i in range(1, steps + 1)]):
        if not np.all(np.isfinite(law)):
            raise RuntimeError("transient series is not finite")
        yield law


def transient_action(L: sp.csr_matrix, vec: np.ndarray, t: float) -> np.ndarray:
    """e^{tL} applied to a column vector of observables (no renormalization).

    L is overwritten: it becomes the jump matrix I + L/lam, so no copy of
    it is made.
    """
    lam = _uniformize(L)
    (out,) = _uniformized(L, lam, vec, [t])
    return out


def count_closed_classes(L: sp.csr_matrix) -> int:
    """Number of strongly connected classes with no outgoing rate.

    L's stored entries are its positive rates plus diagonal self-loops, which
    change no class, so its own sparsity is the transition graph. A class is
    open when an entry leads out of it; the entries are read _ROW_BLOCK
    rows at a time.
    """
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(L, directed=True, connection="strong")
    is_open = np.zeros(n_comp, dtype=bool)
    for start in range(0, L.shape[0], _ROW_BLOCK):
        ptr = L.indptr[start:start + _ROW_BLOCK + 1]
        src = np.repeat(labels[start:start + ptr.size - 1], np.diff(ptr))
        dst = labels[L.indices[ptr[0]:ptr[-1]]]
        is_open[src[src != dst]] = True
    return n_comp - int(np.count_nonzero(is_open))


def stationary_distribution(L: sp.csr_matrix) -> np.ndarray:
    """Unique stationary row vector of the generator.

    Raises ValueError when the chain has several closed classes (the
    stationary law is not unique then). Iterates the uniformized kernel
    from the uniform law until max|L^T pi| < STATIONARY_RESIDUAL_TOL, and
    raises StateSpaceCapError when STATIONARY_SWEEP_BUDGET sweeps do not get
    there.
    """
    closed = count_closed_classes(L)
    if closed != 1:
        raise ValueError(
            f"chain has {closed} closed classes, stationary distribution is not unique"
        )
    size = L.shape[0]
    # A state whose exit rate is below lam keeps a self-loop in I + L/lam,
    # so the iteration is aperiodic unless every exit rate is equal.
    PT = L.T.tocsr()
    _uniformize(PT)
    pi = np.full(size, 1.0 / size)
    for _ in range(STATIONARY_SWEEP_BUDGET):
        for _ in range(_STEPS_PER_SWEEP):
            pi = PT @ pi
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        residual = float(np.max(np.abs(L.T @ pi)))
        if residual < STATIONARY_RESIDUAL_TOL:
            return pi
    raise StateSpaceCapError(
        required=STATIONARY_SWEEP_BUDGET + 1,
        cap=STATIONARY_SWEEP_BUDGET,
        label=f"stationary sweeps on {size} states "
        f"(residual {residual:.2e} above {STATIONARY_RESIDUAL_TOL:g})",
    )


def _forward_sign_mask(g: Graph, pairs) -> np.ndarray:
    """Forward states whose bit i is set exactly when s > 0, for each (i, s).

    Pairs, not a dict: two walkers on one site may carry opposite signs.
    """
    size = forward_state_count(g)
    bits = g.vertex_count + g.edge_count
    # Bit i of the index is axis bits - 1 - i of this view, so each pair
    # clears one half of it in place, with no index-sized temporaries.
    mask = np.ones((2,) * bits, dtype=bool)
    for i, s in pairs:
        mask[(slice(None),) * (bits - 1 - i) + (0 if s > 0 else 1,)] = False
    return mask.reshape(size)


def forward_cylinder_mask(g: Graph, cylinder: CylinderEvent) -> np.ndarray:
    n = g.vertex_count
    return _forward_sign_mask(
        g, [*cylinder.site_constraints, *((n + e, s) for e, s in cylinder.edge_constraints)]
    )


def cylinder_probability(g: Graph, dist: np.ndarray, cylinder: CylinderEvent) -> float:
    return float(dist[forward_cylinder_mask(g, cylinder)].sum())


def total_variation(dist_a: np.ndarray, dist_b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(dist_a) - np.asarray(dist_b)).sum())


def total_variation_curve(
    L: sp.csr_matrix, law_a: np.ndarray, law_b: np.ndarray, dt: float, steps: int
) -> list[float]:
    """TV between the laws started from law_a and law_b at 0, dt, ..., steps * dt.

    TV(t) = |(law_a - law_b) e^{tL}|_1 / 2 by linearity, so one signed
    vector is propagated instead of both laws.
    """
    diff = np.asarray(law_a, dtype=np.float64) - law_b
    curve = [0.5 * float(np.abs(diff).sum())]
    for diff in transient_steps(L, diff, dt, steps):
        curve.append(0.5 * float(np.abs(diff).sum()))
    return curve


def forward_delta(g: Graph, state: SpinBondState) -> np.ndarray:
    out = np.zeros(forward_state_count(g))
    out[encode_forward_state(g, state)] = 1.0
    return out


def dual_state_count(g: Graph, k: int) -> int:
    if k < 1:
        raise ValueError(f"walker count must be >= 1, got {k}")
    size = g.vertex_count**k * 2**k * 3**g.edge_count
    if size > DUAL_STATE_CAP:
        raise StateSpaceCapError(required=size, cap=DUAL_STATE_CAP, label="dual states")
    return size


def encode_dual_state(g: Graph, dual: DualState) -> int:
    n = g.vertex_count
    k = dual.walker_count
    index = 0
    for j in range(k - 1, -1, -1):
        index = index * n + dual.positions[j]
    bits = 0
    for j, s in enumerate(dual.signs):
        if s > 0:
            bits |= 1 << j
    index += n**k * bits
    env = 0
    for e in range(g.edge_count - 1, -1, -1):
        digit = 1 if e in dual.revealed_positive else 2 if e in dual.revealed_negative else 0
        env = env * 3 + digit
    return index + n**k * 2**k * env


def build_dual_generator(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    k: int,
    mode: str = "coalescing",
) -> sp.csr_matrix:
    """Generator of the k-walker dual chain with its revealed environment.

    Under the coalescing rule every walker on the firing site moves in the
    same event, so co-located walkers never separate; under the independent
    rule each walker fires alone.
    """
    require_valid_kernel(g, kernel)
    if mode not in ("coalescing", "independent"):
        raise ValueError(f"mode must be 'coalescing' or 'independent', got {mode!r}")
    size = dual_state_count(g, k)
    n, m = g.vertex_count, g.edge_count
    p, v = params.p, params.v
    block = n**k * 2**k  # index stride of the first environment digit
    # State-sized integers are int32, since DUAL_STATE_CAP < 2^31. The small
    # tables below are int32 as well and every scalar is a Python int or an
    # np.int32, so that no product widens to int64.
    idx = np.arange(size, dtype=np.int32)
    positions = [(idx // n**j) % n for j in range(k)]
    sign_bits = idx // n**k
    # Neighbour, rate and edge stride of the d-th positive kernel entry of
    # every site z at [d][z], padded to a common width with y = z at rate 0.
    # A rate-0 entry may point at a non-neighbour, which has no edge id.
    entries = [[(y, q) for y, q in row if q > 0.0] for row in kernel.rows]
    width = max(map(len, entries))
    nbr = np.repeat(np.arange(n, dtype=np.int32)[None, :], width, axis=0)
    rate_of = np.zeros((width, n))
    stride_of = np.full((width, n), block, dtype=np.int32)
    for z, row in enumerate(entries):
        for d, (y, q) in enumerate(row):
            nbr[d, z], rate_of[d, z], stride_of[d, z] = y, q, block * 3 ** g.edge_id(z, y)
    # Two slots per walker and kernel entry, one per edge, and the diagonal's.
    targets = np.empty((size, 2 * k * width + m + 1), dtype=np.int32)  # DUAL_STATE_CAP < 2^31
    rates = np.empty(targets.shape)

    for j in range(k):
        z = positions[j]
        # Walker j fires for its site: under the coalescing rule only when
        # no lower-indexed walker shares it, and then it carries them all.
        fires = np.ones(size, dtype=bool)
        if mode == "coalescing":
            for i in range(j):
                fires &= positions[i] != z
        movers = [j] if mode == "independent" else range(j, k)
        # Per state: sum of n**i over the walkers i that move, and the index
        # change that flips all their signs.
        place = sum((positions[i] == z) * np.int32(n**i) for i in movers)
        flip = sum((positions[i] == z) * (1 - 2 * ((sign_bits >> i) & 1)) * (n**k << i) for i in movers)
        for d in range(width):
            q = rate_of[d][z] * fires
            stride = stride_of[d][z]
            digit = idx // stride % 3
            fresh = digit == 0
            live = q > 0.0
            step = np.where(live, (nbr[d][z] - z) * place + fresh * stride, 0)
            keep = 2 * (j * width + d)  # this slot keeps the sign, the next flips it
            # Keep: the edge is revealed positive, or is fresh and gets
            # revealed positive with probability p.
            targets[:, keep] = idx + step
            rates[:, keep] = q * np.where(fresh, p, digit == 1)
            # Flip: revealed negative, or fresh and revealed negative with
            # probability 1 - p.
            targets[:, keep + 1] = idx + np.where(live, step + flip + fresh * stride, 0)
            rates[:, keep + 1] = q * np.where(fresh, 1.0 - p, digit == 2)

    for slot, e in enumerate(range(m), start=2 * k * width):
        stride = block * 3**e
        digit = (idx // stride) % 3
        targets[:, slot] = idx - digit * stride
        rates[:, slot] = np.where(digit != 0, v, 0.0)

    return _assemble_generator(targets, rates)


def forward_weight_vector(g: Graph, dual: DualState, p: float) -> np.ndarray:
    """Duality weight of every forward configuration against a fixed dual one."""
    n = g.vertex_count
    mask = _forward_sign_mask(g, [
        *zip(dual.positions, dual.signs),
        *((n + e, 1) for e in dual.revealed_positive),
        *((n + e, -1) for e in dual.revealed_negative),
    ])
    weight = p ** (-len(dual.revealed_positive)) * (1.0 - p) ** (-len(dual.revealed_negative))
    return weight * mask.astype(np.float64)


def duality_gap_table(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    forward_initial: SpinBondState,
    k: int,
    t: float,
    mode: str = "coalescing",
) -> np.recarray:
    """Duality gaps for every dual initial configuration at once.

    Returns one record (dual_state, lhs, rhs) per dual state, in index
    order. The right side for all initial conditions is a single semigroup
    action on the weight vector, made on the dual generator itself; that
    vector is the left side's masses at t = 0, where the law is the point
    mass on the forward initial state.
    """
    delta = forward_delta(g, forward_initial)
    mu_t = transient_distribution(build_forward_generator(g, kernel, params), delta, t)
    lhs = _weighted_cylinder_masses(g, mu_t, k, params.p)
    rhs = transient_action(
        build_dual_generator(g, kernel, params, k, mode=mode),
        _weighted_cylinder_masses(g, delta, k, params.p),
        t,
    )
    return np.rec.fromarrays([np.arange(lhs.size), lhs, rhs], names=["dual_state", "lhs", "rhs"])


def _weighted_cylinder_masses(g: Graph, dist: np.ndarray, k: int, p: float) -> np.ndarray:
    """dist @ forward_weight_vector(dual state s) for every dual state s.

    Each of the n^k 2^k position/sign blocks constrains some sites; the mass
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
