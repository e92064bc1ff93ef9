import numpy as np
import pytest
import scipy.sparse as sp

from spinbond import forward, oracle
from spinbond.cylinders import CylinderEvent
from spinbond.dual import DualState, DualTrajectory, simulate_dual
from spinbond.forward import EventTable, SpinBondState
from spinbond.graphs import Graph, builtin_graph, uniform_kernel


@pytest.fixture(scope="session")
def p3():
    g = builtin_graph("path", 3)
    return g, uniform_kernel(g)


@pytest.fixture(scope="session")
def k2():
    g = builtin_graph("complete", 2)
    return g, uniform_kernel(g)


@pytest.fixture(scope="session")
def c6():
    g = builtin_graph("cycle", 6)
    return g, uniform_kernel(g)


@pytest.fixture(scope="session")
def grid22():
    g = builtin_graph("grid_torus", 2, 2)
    return g, uniform_kernel(g)


def striped_state(g) -> SpinBondState:
    """Mixed deterministic configuration: signs alternate with the index."""
    sites = np.array([1 if x % 2 == 0 else -1 for x in range(g.vertex_count)], dtype=np.int8)
    edges = np.array([1 if e % 2 == 0 else -1 for e in range(g.edge_count)], dtype=np.int8)
    return SpinBondState(sites, edges)


def reference_columns(table: EventTable, k: np.ndarray, w: np.ndarray):
    """What ``EventTable.columns`` must return: the first entry of row k of ``cum`` above w.

    The rule as first written, ``(cum[k] <= w).argmin()``: the first False
    of the row's comparisons, which exists since every row ends on 1.0 or
    its 2.0 padding.
    """
    entry = k * table.cum.shape[1] + (table.cum[k] <= w[:, None]).argmin(axis=1)
    return table.src[entry], table.via[entry]


def reference_rings(table: EventTable, u: np.ndarray, w: np.ndarray):
    """What ``EventTable.rings`` must return: the object ⌊u·rate⌋ on the site-then-edge
    scale, as first written, and ``reference_columns`` of it."""
    n, v = table.n, table.params.v
    x = u * table.rate
    if table.objects > n:
        x = np.minimum(x, n) + np.maximum(x - n, 0.0) / v
    k = np.minimum(x.astype(np.intp), table.objects - 1)
    return (k, *reference_columns(table, k, w))


def reference_forward(table: EventTable, initial: SpinBondState, t_max, gen, times, observables):
    """What ``simulate_forward`` must return, as (sites, edges, checkpoint hits, ring count).

    Its loop as first written: per checkpoint interval, the last one ending
    at t_max, a Poisson ring count, then chunks of at most ``CHUNK_CAP``
    rings, each ring's sign update read from the three lists of
    ``EventTable.rings``.
    """
    n, m = table.g.vertex_count, table.g.edge_count
    state = initial.site_signs.tolist() + initial.edge_signs.tolist() + [1, -1]
    hits, events, start = [], 0, 0.0
    for end, checked in [(t, observables) for t in sorted(times)] + [(t_max, ())]:
        count = int(gen.poisson(table.rate * (end - start)))
        for first in range(0, count, forward.CHUNK_CAP):
            draws = gen.random(2 * min(forward.CHUNK_CAP, count - first))
            k, src, via = table.rings(draws[0::2], draws[1::2])
            for x, a, b in zip(k.tolist(), src.tolist(), via.tolist()):
                state[x] = state[a] * state[b]
        events += count
        start = end
        sites, edges = state[:n], state[n : n + m]
        hits += [1 if obs.matches(sites, edges) else 0 for obs in checked]
    return state[:n], state[n : n + m], np.array(hits, dtype=np.int64), events


def merge_breaks(record, pos, sgn) -> int:
    """Replicas whose met walkers later part, or change their product of signs.

    ``pos`` and ``sgn`` are a dual block's ``(size, k)`` starting walkers and
    ``record`` its ``DualEvents``, one per step; each replica has at most one
    event per step.
    """
    together = pos[:, :, None] == pos[:, None, :]
    relation = sgn[:, :, None] * sgn[:, None, :]
    bad = np.zeros(len(pos), dtype=bool)
    for step in record:
        i = step.replica
        now = step.positions[:, :, None] == step.positions[:, None, :]
        product = step.signs[:, :, None] * step.signs[:, None, :]
        was = together[i]
        bad[i] |= (was & (~now | (product != relation[i]))).any(axis=(1, 2))
        relation[i] = np.where(was, relation[i], product)
        together[i] = was | now
    return int(np.count_nonzero(bad))


def replay_statuses(record, start, end):
    """Replay ``record`` on a copy of the ``start`` statuses and check it against ``end``.

    Returns ``(cleared, renewed, bad)``: the entries the end resolution
    cleared, the moves that revealed an already revealed edge afresh (it was
    forgotten since last seen), and the recorded moves or end entries that
    break the status rules. A move across an unrevealed edge must reveal it;
    a move across a revealed edge keeps its status or reveals it afresh with
    a sign; the end resolution may only clear entries.
    """
    status = start.copy()
    renewed = bad = 0
    for step in record:
        before, after = status[step.replica, step.edge], step.edge_status
        ok = np.where(step.revealed, after != 0, (before != 0) & (after == before))
        bad += int(np.count_nonzero(~ok))
        renewed += int(np.count_nonzero(step.revealed & (before != 0)))
        status[step.replica, step.edge] = after
    kept = end == status
    cleared = ~kept & (end == 0)
    bad += int(np.count_nonzero(~kept & ~cleared))
    return int(np.count_nonzero(cleared)), renewed, bad


def decode_forward_state(g: Graph, index: int) -> SpinBondState:
    """The forward configuration of oracle index ``index``: bit x is site x, bit n + e edge e."""
    n, m = g.vertex_count, g.edge_count
    sites = np.array([1 if (index >> x) & 1 else -1 for x in range(n)], dtype=np.int8)
    edges = np.array([1 if (index >> (n + e)) & 1 else -1 for e in range(m)], dtype=np.int8)
    return SpinBondState(sites, edges)


def encode_dual_state(g: Graph, dual: DualState) -> int:
    """Oracle index of a dual configuration: positions base |V|, signs base 2, edge digits base 3."""
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


def decode_dual_state(g: Graph, k: int, index: int) -> DualState:
    """The labelled dual configuration of index ``index``, as encode_dual_state packs it."""
    n = g.vertex_count
    rem, positions = index, []
    for _ in range(k):
        positions.append(rem % n)
        rem //= n
    signs = [1 if (rem >> j) & 1 else -1 for j in range(k)]
    rem >>= k
    pos_edges, neg_edges = set(), set()
    for e in range(g.edge_count):
        digit = rem % 3
        rem //= 3
        if digit == 1:
            pos_edges.add(e)
        elif digit == 2:
            neg_edges.add(e)
    return DualState(
        positions=positions, signs=signs, revealed_positive=pos_edges, revealed_negative=neg_edges
    )


def _reference_generator(size, transitions):
    """CSR generator from (source, target, rate) triples with positive rates.

    Built with scipy's own COO -> CSR conversion, which sums duplicate
    entries; the diagonal is minus the row sum.
    """
    rows, cols, vals = zip(*transitions)
    off = sp.coo_matrix((np.array(vals, dtype=np.float64), (rows, cols)), shape=(size, size)).tocsr()
    return (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()


def full_forward_generator(g: Graph, kernel, params):
    """The full forward generator L, stored by columns, on all 2^(n+m) states.

    The oracle's slot table for every state: column s holds the rates into
    s from its sources s ^ 2^b and s, every slot kept, and L.T is a CSR
    view of L's arrays. oracle.build_forward_generator keeps the columns of
    the representatives 2j alone, with their sources folded to orbits.
    """
    bits = g.vertex_count + g.edge_count
    columns = oracle._forward_columns(g, kernel, params)
    return oracle._assemble_generator(1 << bits, bits + 1, columns).T


def lump_forward_generator(L, g: Graph):
    """A full forward generator lumped onto spin-flip orbits: orbit j's
    column is L's column 2j with the rows of each orbit summed."""
    spins = (1 << g.vertex_count) - 1
    cols = L.tocsc()[:, ::2].tocoo()
    rows = (cols.row ^ (cols.row & 1) * spins) >> 1
    return sp.coo_matrix((cols.data, (rows, cols.col)), shape=(L.shape[0] // 2,) * 2).tocsc()


def reference_transient(L, law, t):
    """Law at time t from a row distribution on the generator L, renormalized:
    uniformization on L's transpose, made its jump matrix in place, so L is
    taken over. The oracle stepped every chain so before it stepped the
    forward chain's spin-flip parts."""
    PT = L.T
    (out,) = oracle.transient_steps(PT.dot, oracle._uniformize(PT), law, t, 1, PT.nnz)
    return out / out.sum()


def reference_stationary(L, g: Graph, params):
    """The full chain's stationary law by the oracle's iteration on L itself:
    pi + (L^T pi) / lam from the same product start, until max|L^T pi| is
    within the bound the solve on orbits meets. In exact arithmetic its
    iterates are the orbit solve's unfolded, step for step. The bound is
    read every 16th step, so it stops up to 15 steps later, each moving pi
    by at most 1e-14."""
    pi = np.full(1 << g.vertex_count, 0.5**g.vertex_count)
    for _ in range(g.edge_count):
        pi = np.kron((1.0 - params.p, params.p), pi)
    lam = float(np.max(-L.diagonal()))
    LT = L.T.tocsr()
    while np.abs(LT @ pi).max() > oracle.STATIONARY_RESIDUAL_TOL * lam:
        for _ in range(16):
            pi += (LT @ pi) / lam
    np.clip(pi, 0.0, None, out=pi)
    return pi / pi.sum()


def forward_delta(g: Graph, state: SpinBondState) -> np.ndarray:
    """The point mass on ``state`` over the full chain's oracle indices."""
    out = np.zeros(oracle.forward_state_count(g))
    out[oracle.encode_forward_state(g, state)] = 1.0
    return out


def stationary_law(g: Graph, kernel, params) -> np.ndarray:
    """The full chain's stationary law, unfolded from the oracle's solve on spin-flip orbits."""
    Q = oracle.build_forward_generator(g, kernel, params)
    return oracle.unfold(g, oracle.stationary_distribution(Q, g, params) / 2)


def transient_law(g: Graph, kernel, params, law, t) -> np.ndarray:
    """The oracle's full law at time t from the full row distribution ``law``."""
    Q = oracle.build_forward_generator(g, kernel, params)
    return oracle.transient_distribution(Q, g, law, t)


def _dual_generator_by_state(g, kernel, params, k, mode):
    """Reference builder: decode, move and encode one dual state at a time."""
    size = oracle.dual_state_count(g, k)
    p, v = params.p, params.v
    transitions = []
    for s in range(size):
        d = decode_dual_state(g, k, s)
        if mode == "coalescing":
            groups = {}
            for j, z in enumerate(d.positions):
                groups.setdefault(z, []).append(j)
            firing = list(groups.items())
        else:
            firing = [(d.positions[j], [j]) for j in range(k)]
        for z, movers in firing:
            for y, q in kernel.rows[z]:
                if q <= 0.0:
                    continue
                e = g.edge_id(z, y)
                if e in d.revealed_positive:
                    branches = [(q, False, None)]
                elif e in d.revealed_negative:
                    branches = [(q, True, None)]
                else:
                    branches = [(q * p, False, 1), (q * (1.0 - p), True, -1)]
                for rate, flip, reveal_sign in branches:
                    nxt = DualState.of(d.positions, d.signs, d.revealed_positive, d.revealed_negative)
                    for j in movers:
                        nxt.positions[j] = y
                        if flip:
                            nxt.signs[j] = -nxt.signs[j]
                    if reveal_sign == 1:
                        nxt.revealed_positive.add(e)
                    elif reveal_sign == -1:
                        nxt.revealed_negative.add(e)
                    if rate > 0.0:
                        transitions.append((s, encode_dual_state(g, nxt), rate))
        for e in d.revealed_positive | d.revealed_negative:
            nxt = DualState.of(d.positions, d.signs, d.revealed_positive, d.revealed_negative)
            nxt.revealed_positive.discard(e)
            nxt.revealed_negative.discard(e)
            if v > 0.0:
                transitions.append((s, encode_dual_state(g, nxt), v))
    return _reference_generator(size, transitions)


def dual_orbits(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The dual chain's label orbits, found by sorting decoded walkers.

    Returns reps, the labelled index of each orbit's representative, whose
    walkers are sorted by (position, sign), at orbit index
    rank + R * environment for the R sorted walker blocks in ascending
    order; and orbit, the orbit index of every labelled state.
    """
    block = g.vertex_count**k * 2**k
    ranks, sorted_blocks = {}, []
    for b in range(block):
        d = decode_dual_state(g, k, b)
        walkers = sorted(zip(d.positions, d.signs))
        rep = encode_dual_state(g, DualState.of([z for z, _ in walkers], [s for _, s in walkers]))
        if rep == b:
            ranks[b] = len(ranks)
        sorted_blocks.append(rep)
    envs = np.arange(3**g.edge_count)[:, None]
    reps = np.array(list(ranks)) + block * envs
    orbit = np.array([ranks[rep] for rep in sorted_blocks]) + len(ranks) * envs
    return reps.ravel(), orbit.ravel()


def lump_dual_generator(L, reps: np.ndarray, orbit: np.ndarray):
    """A labelled dual generator lumped onto the label orbits of
    dual_orbits: each orbit's row is its representative's, with the
    columns of one orbit summed."""
    rows = L.tocsr()[reps].tocoo()
    return sp.coo_matrix((rows.data, (rows.row, orbit[rows.col])), shape=(reps.size,) * 2).tocsr()


def forward_sign_mask(g: Graph, pairs) -> np.ndarray:
    """Forward states whose bit i is set exactly when s > 0, for each (i, s).

    Pairs, not a dict: two walkers on one site may carry opposite signs.
    """
    bits = g.vertex_count + g.edge_count
    # Bit i of the index is axis bits - 1 - i of this view, so each pair
    # clears one half of it in place, with no index-sized temporaries.
    mask = np.ones((2,) * bits, dtype=bool)
    for i, s in pairs:
        mask[(slice(None),) * (bits - 1 - i) + (0 if s > 0 else 1,)] = False
    return mask.reshape(oracle.forward_state_count(g))


def forward_cylinder_mask(g: Graph, cylinder: CylinderEvent) -> np.ndarray:
    """The forward states in ``cylinder``, as a boolean mask over oracle indices."""
    n = g.vertex_count
    return forward_sign_mask(
        g, [*cylinder.site_constraints, *((n + e, s) for e, s in cylinder.edge_constraints)]
    )


def forward_weight_vector(g: Graph, dual: DualState, p: float) -> np.ndarray:
    """Duality weight of every forward configuration against a fixed dual one."""
    n = g.vertex_count
    mask = forward_sign_mask(g, [
        *zip(dual.positions, dual.signs),
        *((n + e, 1) for e in dual.revealed_positive),
        *((n + e, -1) for e in dual.revealed_negative),
    ])
    weight = p ** (-len(dual.revealed_positive)) * (1.0 - p) ** (-len(dual.revealed_negative))
    return weight * mask.astype(np.float64)


def total_variation(dist_a: np.ndarray, dist_b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(dist_a) - np.asarray(dist_b)).sum())


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


def coupled_run(
    gen: np.random.Generator,
    size: int,
    table: EventTable,
    initial: DualState,
    t_max: float,
) -> tuple[DualTrajectory, DualTrajectory, DualTrajectory]:
    """Couple the independent and coalescing rules of the model ``table`` on one noise history.

    Returns ``(head, coalescing, independent)`` blocks of ``size`` runs. The
    head runs the independent rule to each replica's first collision, which
    its ``stopped`` and ``time`` give, or to t_max. Both legs go on from the
    head to t_max: the coalescing leg on a child generator spawned before
    either leg draws, the independent leg on ``gen``. Before a collision each
    walker is alone on its site, where the two rules agree, so each leg
    follows its own rule's law. Walkers must start at pairwise distinct sites.
    """
    if len(set(initial.positions)) != len(initial.positions):
        raise ValueError("coupled_run requires pairwise distinct starting sites")
    k = initial.walker_count
    head = simulate_dual(gen, size, table, initial, t_max, "independent", k - 1)
    child = gen.spawn(1)[0]
    coalescing = simulate_dual(child, size, table, head, t_max)
    independent = simulate_dual(gen, size, table, head, t_max, "independent")
    return head, coalescing, independent
