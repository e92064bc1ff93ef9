"""Exact finite-state oracle: encodings, uniformization, stationary solve, duality."""

import json
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from spinbond.cli import main
from spinbond.config import parse_graph_spec, validate_config
from spinbond.cylinders import CylinderEvent
from spinbond.dual import DualState
from spinbond.errors import StateSpaceCapError
from spinbond.experiments import _cylinder, _env_assignments, run_experiment
from spinbond.forward import ModelParams, SpinBondState, edge_flip_rate
from spinbond.graphs import (
    AdoptionKernel, Graph, build_graph, builtin_graph, kernel_from_rates, uniform_kernel,
)
from spinbond import oracle

from conftest import (
    _dual_generator_by_state,
    _reference_generator,
    decode_dual_state,
    decode_forward_state,
    dual_orbits,
    duality_weight,
    encode_dual_state,
    forward_cylinder_mask,
    forward_weight_vector,
    lump_dual_generator,
    striped_state,
    total_variation,
)


# ------------------------------------------------------------- references
# Test-only counterparts of the oracle: both sides of the duality identity
# for a single forward/dual pair, which duality_gap_table computes for every
# dual state at once, on the labelled dual chain of the reference builder.


def dual_delta(g: Graph, dual: DualState) -> np.ndarray:
    out = np.zeros(oracle.dual_state_count(g, dual.walker_count))
    out[encode_dual_state(g, dual)] = 1.0
    return out


@dataclass(frozen=True)
class DualityCheck:
    lhs: float
    rhs: float
    gap: float


def exact_duality_check(
    g: Graph,
    kernel: AdoptionKernel,
    params: ModelParams,
    forward_initial: SpinBondState,
    dual_initial: DualState,
    t: float,
    mode: str = "coalescing",
) -> DualityCheck:
    """Both sides of the duality identity for one forward/dual state pair.

    The left side propagates the forward chain and weighs it against the
    dual initial condition; the right side propagates the dual chain and
    weighs it against the forward initial condition.
    """
    k = dual_initial.walker_count
    L_f = oracle.build_forward_generator(g, kernel, params)
    mu_t = oracle.transient_distribution(L_f, oracle.forward_delta(g, forward_initial), t)
    lhs = float(mu_t @ forward_weight_vector(g, dual_initial, params.p))

    L_d = _dual_generator_by_state(g, kernel, params, k, mode)
    nu_t = oracle.transient_distribution(L_d, dual_delta(g, dual_initial), t)
    weights = oracle._weighted_cylinder_masses(
        g, oracle.forward_delta(g, forward_initial), k, params.p
    )
    rhs = float(nu_t @ weights)
    return DualityCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


# ---------------------------------------------------------------- encodings


def test_forward_state_counts_frozen(p3, c6):
    g3, _ = p3
    g6, _ = c6
    assert oracle.forward_state_count(g3) == 32
    assert oracle.forward_state_count(g6) == 4096


def test_dual_state_counts_frozen(p3, k2):
    g3, _ = p3
    g2, _ = k2
    assert oracle.dual_state_count(g2, 1) == 12
    assert oracle.dual_state_count(g2, 2) == 48
    assert oracle.dual_state_count(g3, 1) == 54
    assert oracle.dual_state_count(g3, 2) == 324


def test_forward_encode_decode_roundtrip(p3):
    g, _ = p3
    for idx in range(oracle.forward_state_count(g)):
        state = decode_forward_state(g, idx)
        assert oracle.encode_forward_state(g, state) == idx
        assert set(np.unique(state.site_signs)) <= {-1, 1}
        assert set(np.unique(state.edge_signs)) <= {-1, 1}


def test_dual_encode_decode_roundtrip(p3):
    g, _ = p3
    total = oracle.dual_state_count(g, 2)
    for idx in range(total):
        dual = decode_dual_state(g, 2, idx)
        dual.validate(g)
        assert encode_dual_state(g, dual) == idx


def test_forward_cap_enforced():
    g = builtin_graph("grid_torus", 4, 4)  # 2^48 joint states
    with pytest.raises(StateSpaceCapError):
        oracle.forward_state_count(g)


def test_dual_cap_enforced(c6):
    g, _ = c6
    with pytest.raises(StateSpaceCapError):
        oracle.dual_state_count(g, 4)  # 6^4 * 2^4 * 3^6 > 2e6


# ---------------------------------------------------------------- generators


def test_forward_generator_rows_sum_to_zero(p3):
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.3, 1.5))
    rows = np.asarray(L.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-12
    off = L.toarray().copy()
    np.fill_diagonal(off, 0.0)
    assert off.min() >= 0.0


def test_dual_generator_rows_sum_to_zero(p3):
    g, kern = p3
    for mode in ("coalescing", "independent"):
        L = oracle.build_dual_generator(g, kern, ModelParams(0.3, 1.5), 2, mode=mode)
        rows = np.asarray(L.sum(axis=1)).ravel()
        assert np.abs(rows).max() < 1e-12


def test_dual_generator_coalesced_pair_moves_together(k2):
    # Once both walkers share a site, no transition may separate them.
    g, kern = k2
    # Orbit indices are decoded through their representatives.
    reps, _ = dual_orbits(g, 2)
    L = oracle.build_dual_generator(g, kern, ModelParams(0.4, 1.0), 2).tocoo()
    for i, j, rate in zip(L.row, L.col, L.data):
        if i == j or rate <= 0.0:
            continue
        src = decode_dual_state(g, 2, int(reps[i]))
        dst = decode_dual_state(g, 2, int(reps[j]))
        if src.positions[0] == src.positions[1]:
            assert dst.positions[0] == dst.positions[1]


def _assert_same_csr(A, B):
    """A holds B's entries and no stored 0: the dual generator's layout."""
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)
    assert (A.data != 0).all()


def _assert_same_arrays(A, B):
    """A and B are stored in the same arrays, bit for bit."""
    assert A.shape == B.shape and A.format == B.format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _forward_columns(size):
    """Row s of a forward generator's fixed-width layout: the columns
    s ^ 2^b for every bit b, and s, in ascending order."""
    states = np.arange(size)
    flips = states[:, None] ^ (1 << np.arange(size.bit_length() - 1))
    return np.sort(np.column_stack([flips, states]), axis=1)


def _assert_fixed_width_csr(A, B):
    """A, the CSR view L.T of a forward generator or of its jump matrix,
    keeps every slot: each row s holds the columns of _forward_columns,
    and indptr is a multiple of arange. Stripped of its stored zeros it is
    B, which holds no zero: every nonzero of A is B's entry bit for bit,
    and A stores a 0 only where B has no entry, a rate-0 slot."""
    columns = _forward_columns(A.shape[0])
    assert A.format == "csr"
    assert np.array_equal(A.indptr, np.arange(A.shape[0] + 1) * columns.shape[1])
    assert np.array_equal(A.indices, columns.ravel())
    stripped = A.copy()
    stripped.eliminate_zeros()
    _assert_same_csr(stripped, B)
    assert stripped.data.tobytes() == B.data.tobytes()


def _forward_generator_by_state(g, kernel, params):
    """Reference builder: decode, change and encode one forward state at a time."""
    size = oracle.forward_state_count(g)
    p, v = params.p, params.v
    transitions = []
    for s in range(size):
        st = decode_forward_state(g, s)
        for x in range(g.vertex_count):
            for y, q in kernel.rows[x]:
                if q <= 0.0:
                    continue
                adopted = st.site_signs[y] * st.edge_signs[g.edge_id(x, y)]
                if adopted != st.site_signs[x]:
                    nxt = st.copy()
                    nxt.site_signs[x] = adopted
                    transitions.append((s, oracle.encode_forward_state(g, nxt), q))
        for e in range(g.edge_count):
            # A -1 edge turns +1 at rate v p, a +1 edge turns -1 at v (1 - p).
            rate = v * p if st.edge_signs[e] < 0 else v * (1.0 - p)
            if rate > 0.0:
                nxt = st.copy()
                nxt.edge_signs[e] = -nxt.edge_signs[e]
                transitions.append((s, oracle.encode_forward_state(g, nxt), rate))
    return _reference_generator(size, transitions)


# Non-uniform valid kernels (unit row sums), each with a zero rate towards a
# neighbour and one towards a non-neighbour (which has no edge id).
_SKEWED_RATES = {
    "path:3": {0: {1: 1.0, 2: 0.0}, 1: {0: 1.0, 2: 0.0}, 2: {1: 1.0}},
    "cycle:4": {
        0: {1: 0.25, 2: 0.0, 3: 0.75}, 1: {0: 1.0, 2: 0.0}, 2: {1: 0.25, 3: 0.75}, 3: {0: 0.15, 2: 0.85},
    },
}


_DUAL_GENERATOR_CASES = [
    (spec, k, skewed, mode)
    for spec, k in [("path:3", 1), ("path:3", 2), ("path:3", 3), ("cycle:4", 1), ("cycle:4", 2)]
    for skewed in (False, True)
    for mode in ("coalescing", "independent")
] + [("cycle:4", 3, False, "coalescing")]


@pytest.mark.parametrize("spec, k, skewed, mode", _DUAL_GENERATOR_CASES)
def test_dual_generator_matches_per_state_builder(spec, k, skewed, mode):
    name, size = spec.split(":")
    g = builtin_graph(name, int(size))
    kern = kernel_from_rates(_SKEWED_RATES[spec], g.vertex_count) if skewed else uniform_kernel(g)
    params = ModelParams(0.3, 1.5)
    A = oracle.build_dual_generator(g, kern, params, k, mode=mode)
    B = lump_dual_generator(_dual_generator_by_state(g, kern, params, k, mode), *dual_orbits(g, k))
    _assert_lumps(A, B, mode)


def _assert_lumps(A, B, mode):
    """A, the dual generator on label orbits, is B, a labelled generator
    lumped: each row stores one diagonal entry, negative, so no transition
    folded onto its own row, and no stored 0. Once A's duplicate entries
    are summed (under the independent rule two co-located walkers of one
    sign fire into one orbit; the coalescing rule makes none), A has B's
    layout and its off-diagonal entries bit for bit, and its diagonals
    within 4 ulp of the largest, since A sums each row in folded order."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    assert (A.data != 0).all()
    assert np.array_equal(np.sort(rows[A.indices == rows]), np.arange(A.shape[0]))
    assert (A.diagonal() < 0).all()
    summed = A.copy()
    summed.sum_duplicates()
    assert mode == "independent" or summed.nnz == A.nnz
    assert summed.shape == B.shape
    assert np.array_equal(summed.indptr, B.indptr) and np.array_equal(summed.indices, B.indices)
    on_diag = summed.indices == np.repeat(np.arange(A.shape[0]), np.diff(summed.indptr))
    assert summed.data[~on_diag].tobytes() == B.data[~on_diag].tobytes()
    ulp = np.spacing(np.abs(B.data[on_diag]).max())
    assert np.abs(summed.data[on_diag] - B.data[on_diag]).max() <= 4 * ulp


_FORWARD_GENERATOR_CASES = [
    (spec, skewed, p, v)
    for spec, skewed in [
        ("path:3", False), ("cycle:4", False), ("cycle:4", True), ("complete:4", False), ("grid_torus:2,2", False),
    ]
    for p, v in [(0.3, 1.5), (0.3, 0.0), (0.0, 1.0), (1.0, 1.0)]
]


@pytest.mark.parametrize("spec, skewed, p, v", _FORWARD_GENERATOR_CASES)
def test_forward_generator_matches_per_state_builder(spec, skewed, p, v):
    name, sizes = spec.split(":")
    g = builtin_graph(name, *map(int, sizes.split(",")))
    kern = kernel_from_rates(_SKEWED_RATES[spec], g.vertex_count) if skewed else uniform_kernel(g)
    params = ModelParams(p, v)
    # The generator is stored by columns: its transpose is a CSR view.
    _assert_fixed_width_csr(
        oracle.build_forward_generator(g, kern, params).T,
        _forward_generator_by_state(g, kern, params).T.tocsr(),
    )


def _out_rate_forward_generator(g, kernel, params):
    """Reference builder: the table of rates out of every state, read in
    place as CSR, the oracle's assembly before it stored L by columns.

    Slot x sums site x's adoption rates in kernel-row order, each edge has a
    slot, and the last slot is the diagonal: minus np.add.reduceat over the
    row's off-diagonal entries in column order.
    """
    n, m = g.vertex_count, g.edge_count
    size = oracle.forward_state_count(g)
    idx = np.arange(size, dtype=np.int64)
    targets = np.empty((size, n + m + 1), dtype=np.int32)
    rates = np.zeros(targets.shape)
    for x in range(n):
        targets[:, x] = idx ^ (1 << x)
        bit_x = (idx >> x) & 1
        for y, q in kernel.rows[x]:
            if q > 0.0:
                new_bit = 1 ^ ((idx >> y) & 1) ^ ((idx >> (n + g.edge_id(x, y))) & 1)
                rates[:, x] += np.where(new_bit != bit_x, q, 0.0)
    for e in range(n, n + m):
        targets[:, e] = idx ^ (1 << e)
        rates[:, e] = np.where((idx >> e) & 1, edge_flip_rate(1, params), edge_flip_rate(-1, params))
    targets[:, -1] = idx
    rates[:, -1] = -1.0
    L = sp.csr_matrix(
        (rates.ravel(), targets.ravel(), np.arange(size + 1) * (n + m + 1)), shape=(size, size)
    )
    L.sum_duplicates()
    L.eliminate_zeros()
    lengths = np.diff(L.indptr)
    on_diag = L.indices == np.repeat(np.arange(size), lengths)
    off = lengths - 1
    row_sum = np.zeros(size)
    row_sum[off > 0] = np.add.reduceat(L.data[~on_diag], (np.cumsum(off) - off)[off > 0])
    L.data[on_diag] = -row_sum
    L.eliminate_zeros()
    return L


@pytest.mark.parametrize(
    "spec, skewed, p, v",
    [
        ("path:3", False, 0.3, 1.0), ("path:3", True, 0.99, 1e-3), ("cycle:4", True, 0.4, 2.0),
        ("cycle:4", False, 1.0, 1.0), ("cycle:6", False, 0.3, 1.0), ("cycle:8", False, 0.3, 1.0),
    ],
)
def test_in_rate_forward_generator_is_the_out_rate_table_by_columns(spec, skewed, p, v):
    # L is filled by columns from the rates into each state, and its
    # transpose, the CSR view that forward-law products multiply, holds the
    # same bits as the out-rate table's transpose at every nonzero:
    # diagonals summed in L's row order, entries in column order, and a
    # stored 0 only at a rate-0 slot
    g = parse_graph_spec(spec)
    kern = kernel_from_rates(_SKEWED_RATES[spec], g.vertex_count) if skewed else uniform_kernel(g)
    L = oracle.build_forward_generator(g, kern, ModelParams(p, v))
    reference = _out_rate_forward_generator(g, kern, ModelParams(p, v))
    assert L.format == "csc" and L.T.format == "csr"
    assert np.shares_memory(L.T.data, L.data) and np.shares_memory(L.T.indices, L.indices)
    _assert_fixed_width_csr(L.T, reference.T.tocsr())


def test_stationary_solve_leaves_its_generator_as_it_is(p3):
    # Its residual max|L^T pi| is read from L, also after the call
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    L = oracle.build_forward_generator(g, kern, params)
    kept = L.copy()
    pi = oracle.stationary_distribution(L, g, params)
    _assert_same_arrays(L, kept)
    _assert_fixed_width_csr(L.T, _forward_generator_by_state(g, kern, params).T.tocsr())
    assert np.abs(L.T @ pi).max() <= oracle.STATIONARY_RESIDUAL_TOL * -L.diagonal().min()


def test_transient_solvers_take_over_the_generator_they_are_handed(p3):
    # Each solver turns the matrix it is handed into its jump matrix in
    # place; handed L.copy(), it leaves L as it is, and the next call on
    # another copy gives the same bits
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.4, 2.0))
    L_d = oracle.build_dual_generator(g, kern, ModelParams(0.4, 2.0), 2)
    law_a = np.zeros(L.shape[0])
    law_a[9] = 1.0
    weights = np.linspace(0.0, 1.0, L_d.shape[0])
    # The forward generator keeps its rate-0 slots, the dual one drops them
    assert L.nnz == L.shape[0] * (g.vertex_count + g.edge_count + 1) and (L.data == 0).any()
    assert (L_d.data != 0).all()
    solvers = [
        (L, lambda M: oracle.transient_distribution(M, law_a, 0.7)),
        (L_d, lambda M: oracle.transient_action(M, weights, 0.7)),
    ]
    for generator, solve in solvers:
        kept = generator.copy()
        handed = generator.copy()
        first = solve(handed)
        _assert_same_arrays(generator, kept)
        assert not np.array_equal(handed.data, kept.data)
        assert solve(generator.copy()).tobytes() == first.tobytes()


# ---------------------------------------------------------------- transients


def _steps(L, rows, dt, steps):
    """transient_steps on the jump matrix made from L's transpose in place,
    as transient_distribution makes it: L is taken over."""
    PT = L.T
    return oracle.transient_steps(PT.dot, oracle._uniformize(PT), rows, dt, steps, PT.nnz)


def test_uniformization_matches_dense_expm(p3):
    # Independent oracle: dense matrix exponential of the same generator.
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.4, 1.0))
    dense = L.toarray()
    mu0 = np.zeros(32)
    mu0[5] = 1.0
    for t in (0.05, 0.3, 1.7, 6.0):
        reference = mu0 @ expm(dense * t)
        ours = oracle.transient_distribution(L.copy(), mu0, t)
        assert np.abs(reference - ours).max() < 1e-10


def test_transient_semigroup_property(p3):
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.4, 2.0))
    mu0 = np.zeros(32)
    mu0[9] = 1.0
    stepped = oracle.transient_distribution(L.copy(), mu0, 0.9)
    stepped = oracle.transient_distribution(L.copy(), stepped, 1.3)
    direct = oracle.transient_distribution(L.copy(), mu0, 2.2)
    assert np.abs(stepped - direct).max() < 1e-9


def test_transient_steps_block_matches_single_laws(p3):
    # A block of rows steps each column exactly as that row steps alone, and
    # every unnormalized step stays within truncation error of repeated
    # renormalized transient_distribution steps.
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.4, 2.0))
    block = np.zeros((32, 2))
    block[9, 0] = block[22, 1] = 1.0
    alone = [list(_steps(L.copy(), block[:, c], 0.5, 20)) for c in range(2)]
    singles = [block[:, 0].copy(), block[:, 1].copy()]
    for i, laws in enumerate(_steps(L.copy(), block, 0.5, 20)):
        singles = [oracle.transient_distribution(L.copy(), law, 0.5) for law in singles]
        for c in range(2):
            assert np.array_equal(laws[:, c], alone[c][i])
            assert np.abs(laws[:, c] - singles[c]).max() < 1e-12


def _uniformized_kernel(L):
    """Jump matrix I + L/lam and its rate lam, built as a new matrix beside L:
    the oracle's routine before it turned a generator into its jump matrix
    in place, kept as the reference."""
    lam = float(np.max(-L.diagonal(), initial=0.0))
    identity = sp.identity(L.shape[0], format="csr")
    if lam <= 0.0:
        return identity, 0.0
    return (identity + L.multiply(1.0 / lam)).tocsr(), lam


@pytest.mark.parametrize(
    "spec, p, v, case",
    [
        ("path:3", 0.4, 2.0, "ergodic"),
        ("cycle:4", 0.3, 1.0, "ergodic"),
        # 256 of 65,536 states absorb (16 of 256 on cycle:4): each stores a
        # 0 on its diagonal, which becomes a 1 in place
        ("cycle:4", 0.3, 0.0, "absorbing states"),
        ("cycle:8", 0.3, 0.0, "absorbing states"),
        ("path:3", 0.4, 2.0, "no transitions"),
    ],
)
def test_uniformize_in_place_matches_the_jump_matrix_beside_it(spec, p, v, case):
    # The jump matrix keeps the generator's pattern, so L's rows (the same
    # pattern as its columns, since every transition flips one bit) and its
    # transpose have the fixed-width layout, with the reference's entries at
    # every nonzero. An empty matrix gets its 1s inserted
    g = parse_graph_spec(spec)
    L = oracle.build_forward_generator(g, uniform_kernel(g), ModelParams(p, v))
    if case == "no transitions":
        L = sp.csr_matrix(L.shape)
    assert (L.diagonal() == 0.0).any() == (case != "ergodic")
    P, lam = _uniformized_kernel(L)
    for G, reference in ((L.tocsr(copy=True), P), (L.T.tocsr(copy=True), P.T.tocsr())):
        assert oracle._uniformize(G) == lam
        if lam > 0.0:
            _assert_fixed_width_csr(G, reference)
        else:
            _assert_same_csr(G, reference)


@pytest.mark.parametrize("spec, p, v", [("cycle:6", 0.3, 1.0), ("cycle:4", 0.3, 0.0), ("path:3", 1.0, 1.0)])
def test_uniformize_and_transient_steps_keep_the_forward_generators_arrays(spec, p, v):
    # Every forward row stores its diagonal and every stored 0 stays, so
    # the jump matrix is written into the generator's own buffers: the
    # transpose's arrays are the same objects after _uniformize, and after
    # transient_distribution L's buffers hold the jump matrix, so the view it
    # made was not moved to new ones
    g = parse_graph_spec(spec)
    L = oracle.build_forward_generator(g, uniform_kernel(g), ModelParams(p, v))
    assert (L.data == 0.0).any()
    reference = L.T.tocsr(copy=True)
    lam = oracle._uniformize(reference)

    G = L.copy().T
    arrays = G.data, G.indices, G.indptr
    assert oracle._uniformize(G) == lam
    assert all(a is b for a, b in zip((G.data, G.indices, G.indptr), arrays))
    _assert_same_arrays(G, reference)

    arrays = L.data, L.indices, L.indptr
    law = np.zeros(L.shape[0])
    law[3] = 1.0
    oracle.transient_distribution(L, law, 1.0)
    assert all(a is b for a, b in zip((L.data, L.indices, L.indptr), arrays))
    _assert_same_arrays(L.T, reference)


def _per_step_uniformized(op, lam, vec, t):
    """One uniformization series for one time step: the oracle's routine
    before one series served a segment of times, kept as the reference."""
    vec = np.asarray(vec, dtype=np.float64)
    if t == 0.0 or lam == 0.0:
        return vec.copy()
    pieces = 1
    while lam * (t / pieces) > oracle._MAX_UNIFORM_EXPONENT:
        pieces *= 2
    lam_t = lam * (t / pieces)
    for _ in range(pieces):
        coeff = float(np.exp(-lam_t))
        acc = coeff * vec
        cum = coeff
        w = vec
        n_terms = 0
        while 1.0 - cum > oracle.UNIFORMIZATION_TAIL:
            n_terms += 1
            w = op @ w
            coeff *= lam_t / n_terms
            acc += coeff * w
            cum += coeff
        vec = acc
    return vec


def _per_step_tv_curve(L, law_a, law_b, dt, steps):
    """TV curve from both laws, each stepped and renormalized one dt at a time."""
    op, lam = _uniformized_kernel(L)
    op = op.T.tocsr()
    laws = np.stack([law_a, law_b], axis=1)
    curve = [total_variation(law_a, law_b)]
    for _ in range(steps):
        laws = _per_step_uniformized(op, lam, laws, dt)
        laws = laws / np.ascontiguousarray(laws.T).sum(axis=-1)
        curve.append(total_variation(laws[:, 0], laws[:, 1]))
    return curve


def _flipped_pair(g):
    a = striped_state(g)
    return a, SpinBondState((-a.site_signs).astype(np.int8), (-a.edge_signs).astype(np.int8))


def _dense_tv_curve(L, law_a, law_b, dt, steps, every=1):
    """0.5 |(law_a - law_b) expm(t L)|_1 at every `every`-th grid point."""
    dense = L.toarray()
    return {
        i: 0.5 * np.abs((law_a - law_b) @ expm(dense * (i * dt))).sum()
        for i in range(0, steps + 1, every)
    }


@pytest.mark.parametrize(
    "spec, p, v, dt, steps, case",
    [
        ("path:3", 0.4, 2.0, 0.5, 20, "restarts"),
        ("cycle:4", 0.3, 1.0, 0.5, 40, "restarts"),
        ("path:3", 0.3, 1.0, 1.5, 80, "long grid"),
        ("cycle:4", 0.2, 0.5, 1.0, 100, "long grid"),
        ("path:3", 0.05, 0.02, 200.0, 2, "long step"),
        ("cycle:4", 0.2, 0.5, 120.0, 2, "long step"),
        ("path:3", 0.4, 0.0, 0.5, 12, "frozen edges"),
        ("cycle:4", 0.3, 0.0, 0.5, 12, "frozen edges"),
        ("path:3", 0.4, 2.0, 2.0, 1, "one step"),
        ("cycle:4", 0.3, 1.0, 2.0, 1, "one step"),
        ("path:3", 0.4, 2.0, 0.5, 10, "no transitions"),
        ("cycle:4", 0.3, 1.0, 0.5, 10, "no transitions"),
    ],
)
def test_tv_curve_matches_per_step_reference_and_dense_expm(spec, p, v, dt, steps, case):
    g = parse_graph_spec(spec)
    L = oracle.build_forward_generator(g, uniform_kernel(g), ModelParams(p, v))
    a, b = _flipped_pair(g)
    law_a, law_b = oracle.forward_delta(g, a), oracle.forward_delta(g, b)
    if case == "no transitions":
        # No model is without transitions, so the loop the curve steps its
        # halves through steps the signed difference on an empty generator
        L = sp.csr_matrix(L.shape)
        stepped = _steps(L.copy(), law_a - law_b, dt, steps)
        curve = [1.0] + [0.5 * float(np.abs(diff).sum()) for diff in stepped]
    else:
        curve = oracle.total_variation_curve(g, uniform_kernel(g), ModelParams(p, v), a, b, dt, steps)
    lam = _uniformized_kernel(L)[1]
    assert {
        "restarts": steps > oracle._SEGMENT_TIMES,
        "long grid": lam * dt * steps > oracle._MAX_UNIFORM_EXPONENT,
        "long step": lam * dt > oracle._MAX_UNIFORM_EXPONENT,
        "frozen edges": v == 0.0,
        "one step": steps == 1,
        "no transitions": lam == 0.0,
    }[case]
    assert len(curve) == steps + 1 and curve[0] == 1.0
    reference = _per_step_tv_curve(L, law_a, law_b, dt, steps)
    assert np.abs(np.subtract(curve, reference)).max() < 1e-12
    for i, exact in _dense_tv_curve(L, law_a, law_b, dt, steps, max(1, steps // 40)).items():
        assert abs(curve[i] - exact) < 1e-10


_QUOTIENT_CASES = [
    # The folded site-0 slot shares its row with the site-1 slot
    ("complete:2", False, 0.3, 1.0, "flipped"),
    ("path:2", False, 0.3, 1.0, "flipped"),
    ("path:3", False, 0.05, 1e-3, "flipped"),
    ("path:3", False, 0.95, 1e3, "spins flipped"),
    ("path:3", False, 0.05, 1e3, "flipped"),
    ("cycle:4", False, 0.95, 1e-3, "flipped"),
    # Unequal rates and rate-0 entries, as a kernel file gives them
    ("cycle:4", True, 0.3, 1.0, "flipped"),
    ("cycle:4", True, 0.3, 1.0, "spins flipped"),
]


@pytest.mark.parametrize("spec, skewed, p, v, pair", _QUOTIENT_CASES)
def test_quotient_tv_curve_matches_per_step_reference_and_dense_expm(spec, skewed, p, v, pair):
    # The curve from the flip quotient stays within 1e-13 of the full
    # chain's signed difference stepped through the same loop, over more
    # than one segment, whether or not the pair is a spin flip apart (its
    # even part is then 0), and with lam * dt above the halving limit at
    # v = 1e3. It stays on the per-step and dense references to their own
    # accuracy: the full chain's curve is up to 1.0e-12 from both here, and
    # they are up to 5.5e-13 apart. The spin flip commutes with L
    # (Freivalds), and the quotient stores every slot of its 2^(n+m-1)
    # columns, which _uniformize turns into the jump matrix in place.
    g = parse_graph_spec(spec)
    n, m = g.vertex_count, g.edge_count
    kern = kernel_from_rates(_SKEWED_RATES[spec], n) if skewed else uniform_kernel(g)
    params = ModelParams(p, v)
    L = oracle.build_forward_generator(g, kern, params)
    flip = np.arange(L.shape[0]) ^ ((1 << n) - 1)
    x = np.random.default_rng(3).random(L.shape[0])
    assert np.abs(L @ x[flip] - (L @ x)[flip]).max() < 1e-13 * np.abs(L @ x).max()

    Q, site0 = oracle.build_forward_quotient(g, kern, params)
    assert Q.shape == (2 ** (n + m - 1),) * 2 and site0.shape == (Q.shape[0],)
    assert Q.nnz == 2 ** (n + m - 1) * (n + m + 1)
    PT = Q.T
    arrays = PT.data, PT.indices, PT.indptr
    assert oracle._uniformize(PT) == _uniformized_kernel(L)[1]
    assert all(a is b for a, b in zip((PT.data, PT.indices, PT.indptr), arrays))

    a, b = _flipped_pair(g)
    if pair == "spins flipped":
        b = SpinBondState((-a.site_signs).astype(np.int8), a.edge_signs)
    law_a, law_b = oracle.forward_delta(g, a), oracle.forward_delta(g, b)
    dt, steps = 0.5, oracle._SEGMENT_TIMES + 2
    curve = oracle.total_variation_curve(g, kern, params, a, b, dt, steps)
    assert len(curve) == steps + 1 and curve[0] == 1.0
    if v > 1.0:
        assert _uniformized_kernel(L)[1] * dt > oracle._MAX_UNIFORM_EXPONENT
    full = [0.5 * float(np.abs(diff).sum()) for diff in _steps(L.copy(), law_a - law_b, dt, steps)]
    assert np.abs(np.subtract(curve, [1.0] + full)).max() < 1e-13
    reference = _per_step_tv_curve(L, law_a, law_b, dt, steps)
    assert np.abs(np.subtract(curve, reference)).max() < 2e-12
    exact = _dense_tv_curve(L, law_a, law_b, dt, steps)
    assert np.abs(np.subtract(curve, list(exact.values()))).max() < 2e-12


def test_tv_curve_stays_on_dense_expm_over_many_segments():
    # A slow chain on 150 segments. Restarting each from its last result
    # divided by its Poisson mass keeps truncation from compounding: the
    # curve stays within 4e-13 of the dense exponential, while the per-step
    # reference, renormalized after each of its 1,200 steps, drifts 3.7e-12
    # from it.
    g = parse_graph_spec("cycle:4")
    kern, params = uniform_kernel(g), ModelParams(0.05, 0.02)
    L = oracle.build_forward_generator(g, kern, params)
    a, b = _flipped_pair(g)
    law_a, law_b = oracle.forward_delta(g, a), oracle.forward_delta(g, b)
    curve = oracle.total_variation_curve(g, kern, params, a, b, 0.5, 1200)
    reference = _per_step_tv_curve(L, law_a, law_b, 0.5, 1200)
    assert np.abs(np.subtract(curve, reference)).max() < 5e-12
    for i, exact in _dense_tv_curve(L, law_a, law_b, 0.5, 1200, 30).items():
        assert abs(curve[i] - exact) < 1e-12


def test_exact_tv_decay_writes_the_oracle_curve(tmp_path):
    g = builtin_graph("cycle", 4)
    cfg = validate_config(dict(
        experiment="tv-decay", seed=1, graph="cycle:4", p=0.3, v=1.0, t_max=6.0,
        t_step=0.5, oracle="on", output_dir=str(tmp_path),
    ))
    run_experiment(cfg)
    rows = (tmp_path / "tv_decay.csv").read_text().splitlines()[1:]
    written = [float(row.split(",")[1]) for row in rows]
    a = SpinBondState.constant(g, site_sign=-1, edge_sign=-1)
    curve = oracle.total_variation_curve(
        g, uniform_kernel(g), ModelParams(0.3, 1.0), a, SpinBondState.constant(g), 0.5, 12
    )
    assert written == curve


def test_exact_tv_decay_shares_products_between_grid_points():
    # cycle:4 on a 40-point grid: one series per segment needs fewer than
    # half the sparse products of one series per step, for each of the
    # curve's two halves (710 calls in all, against 2 * 40 * 23).
    cfg = validate_config(dict(
        experiment="tv-decay", seed=1, graph="cycle:4", p=0.3, v=1.0, t_max=20.0,
        t_step=0.5, oracle="on",
    ))
    g = builtin_graph("cycle", 4)
    L = oracle.build_forward_generator(g, uniform_kernel(g), ModelParams(0.3, 1.0))
    lam = _uniformized_kernel(L)[1]
    coeff = cum = float(np.exp(-lam * 0.5))
    terms = 0
    while 1.0 - cum > oracle.UNIFORMIZATION_TAIL:
        terms += 1
        coeff *= lam * 0.5 / terms
        cum += coeff
    product = sp.csr_matrix.__matmul__
    with mock.patch.object(sp.csr_matrix, "__matmul__", autospec=True, side_effect=product) as spy:
        run_experiment(cfg, write_outputs=False)
    assert 0 < spy.call_count < 2 * 40 * terms / 2


def test_transient_long_horizon_uses_halving(p3):
    # Rate * horizon is ~1620 here, far past the single-step series limit;
    # the distribution must still land on the stationary law.
    g, kern = p3
    params = ModelParams(0.4, 2.0)
    L = oracle.build_forward_generator(g, kern, params)
    mu0 = np.zeros(32)
    mu0[5] = 1.0
    pi = oracle.stationary_distribution(L, g, params)
    far = oracle.transient_distribution(L, mu0, 300.0)
    assert np.abs(far - pi).max() < 1e-10


def test_transient_edge_marginal_closed_form(k2):
    # The lone edge of the two-site complete graph flips as a two-state chain
    # independent of the sites: minus->plus at rate v*p, plus->minus at
    # rate v*(1-p).  Starting plus: P(plus at t) = p + (1-p) exp(-v t).
    # Starting minus: P(plus at t) = p (1 - exp(-v t)).
    g, kern = k2
    p, v = 0.3, 1.7
    L = oracle.build_forward_generator(g, kern, ModelParams(p, v))
    edge_plus = forward_cylinder_mask(g, CylinderEvent.of(edges={0: 1}))
    for start_sign, closed_form in (
        (1, lambda t: p + (1.0 - p) * np.exp(-v * t)),
        (-1, lambda t: p * (1.0 - np.exp(-v * t))),
    ):
        state = SpinBondState(
            np.array([1, -1], dtype=np.int8), np.array([start_sign], dtype=np.int8)
        )
        mu0 = np.zeros(8)
        mu0[oracle.encode_forward_state(g, state)] = 1.0
        for t in (0.2, 1.0, 4.0):
            mu_t = oracle.transient_distribution(L.copy(), mu0, t)
            assert abs(float(mu_t @ edge_plus) - closed_form(t)) < 1e-10


# ---------------------------------------------------------------- stationary


def test_stationary_residual_and_normalization(p3):
    g, kern = p3
    params = ModelParams(0.3, 1.0)
    L = oracle.build_forward_generator(g, kern, params)
    pi = oracle.stationary_distribution(L, g, params)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert pi.min() >= 0.0
    assert np.abs(pi @ L.toarray()).max() < 1e-12


def _closed_class_count(L):
    """Closed classes of the generator L: scipy's strong components of a
    copy without L's stored zeros, less those that a positive rate leaves."""
    from scipy.sparse.csgraph import connected_components

    A = L.tocsr()
    A.eliminate_zeros()
    count, labels = connected_components(A, directed=True, connection="strong")
    rows, cols = A.nonzero()
    return count - np.unique(labels[rows][labels[rows] != labels[cols]]).size


def _reaches_from_nowhere(L):
    """No state is reached from every state, as when L has several closed classes."""
    return not any(oracle.all_states_reach(L, r) for r in range(L.shape[0]))


def test_stationary_rejects_reducible_chains(p3):
    g, kern = p3
    # p = 1: the two all-aligned consensus states are separate traps.
    frozen_env = oracle.build_forward_generator(g, kern, ModelParams(1.0, 1.0))
    assert _closed_class_count(frozen_env) == 2 and _reaches_from_nowhere(frozen_env)
    with pytest.raises(ValueError):
        oracle.stationary_distribution(frozen_env, g, ModelParams(1.0, 1.0))
    # v = 0: every environment assignment is its own closed class.
    frozen_edges = oracle.build_forward_generator(g, kern, ModelParams(0.5, 0.0))
    assert _closed_class_count(frozen_edges) == 8 and _reaches_from_nowhere(frozen_edges)
    with pytest.raises(ValueError):
        oracle.stationary_distribution(frozen_edges, g, ModelParams(0.5, 0.0))


@pytest.mark.parametrize(
    "spec, closed", [("cycle:3", 1), ("cycle:5", 1), ("complete:3", 1), ("cycle:4", 2)]
)
def test_stationary_certifies_one_closed_class_without_the_all_plus_state(spec, closed):
    # p = 0: every edge ends negative. An odd cycle (and complete:3, a
    # triangle) is then frustrated, so its spins never settle and the one
    # closed class holds no all-plus state, which does not reach every
    # state; cycle:4 settles in either of its two alternating states.
    g = parse_graph_spec(spec)
    params = ModelParams(0.0, 1.0)
    L = oracle.build_forward_generator(g, uniform_kernel(g), params)
    assert _closed_class_count(L) == closed
    assert not oracle.all_states_reach(L, L.shape[0] - 1)
    if closed > 1:
        assert _reaches_from_nowhere(L)
        with pytest.raises(ValueError):
            oracle.stationary_distribution(L, g, params)
        return
    pi = oracle.stationary_distribution(L, g, params)
    assert oracle.all_states_reach(L, int(np.argmax(pi)))
    assert pi[-1] == 0.0


@pytest.mark.parametrize("block", [1, 5, 32])
def test_closed_classes_and_generator_over_row_blocks(p3, block, monkeypatch):
    # Blocks of 1 and 5 rows split the 32-state chains into 32 and 7 pieces
    # (the last one short), and 32 rows make one block that ends with the
    # chain; the counts and the generators' bytes do not change.
    g, kern = p3
    for params, closed in ((ModelParams(1.0, 1.0), 2), (ModelParams(0.5, 0.0), 8)):
        whole = oracle.build_forward_generator(g, kern, params)
        monkeypatch.setattr(oracle, "_ROW_BLOCK", block)
        L = oracle.build_forward_generator(g, kern, params)
        assert _closed_class_count(L) == closed and _reaches_from_nowhere(L)
        _assert_same_arrays(L, whole)
        assert L.nnz == 32 * (g.vertex_count + g.edge_count + 1)
        monkeypatch.undo()


@st.composite
def _graphs_and_kernels(draw):
    """A random graph of 2 to 4 sites (a spanning tree plus random edges)
    and a valid kernel on it with rate-0 entries and unequal rates."""
    n = draw(st.integers(2, 4))
    pairs = [(x, draw(st.integers(0, x - 1))) for x in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    g = build_graph([(a, b) for a, b in pairs if a != b], n)
    rates = {}
    for x in range(n):
        weights = draw(st.lists(st.integers(0, 3), min_size=g.degree(x), max_size=g.degree(x)).filter(any))
        rates[x] = {y: w / sum(weights) for (y, _), w in zip(g.adjacency[x], weights)}
    return g, kernel_from_rates(rates, n)


@st.composite
def _reducible_generators(draw):
    """A forward generator of _graphs_and_kernels with p at 0 or 1 and
    v = 0, so that every edge slot and many site slots store a 0."""
    g, kern = draw(_graphs_and_kernels())
    params = ModelParams(draw(st.sampled_from([0.0, 1.0])), 0.0)
    return oracle.build_forward_generator(g, kern, params)


@settings(max_examples=60, deadline=None)
@given(L=_reducible_generators())
def test_closed_classes_read_stored_zeros_as_no_transition(L):
    # From every state r, the certificate on L gives the same answer as on
    # a copy stripped of its zeros, and L's arrays are the same bytes
    # afterwards. No r is reached from every state: v = 0 freezes the edges.
    stripped = L.copy()
    stripped.eliminate_zeros()
    assert stripped.nnz < L.nnz
    kept = L.copy()
    for r in range(L.shape[0]):
        assert oracle.all_states_reach(L, r) == oracle.all_states_reach(stripped, r)
    _assert_same_arrays(L, kept)
    assert _closed_class_count(L) > 1 and _reaches_from_nowhere(L)


@settings(max_examples=20, deadline=None)
@given(
    chain=_graphs_and_kernels(),
    p=st.sampled_from([0.01, 0.3, 0.5, 0.99]),
    v=st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
)
def test_stationary_solve_matches_a_dense_solve_over_the_theorem_class(chain, p, v):
    # Every valid kernel, p in (0, 1) and v > 0 make the chain ergodic: its
    # finite-graph form is one closed class. The solve lies within 1e-10 of
    # a dense solve of the balance equations, at slow and fast edges alike.
    g, kern = chain
    params = ModelParams(p, v)
    L = oracle.build_forward_generator(g, kern, params)
    assert _closed_class_count(L) == 1
    balance = L.toarray().T
    balance[-1] = 1.0  # one balance equation, implied by the others, gives way to the total
    dense = np.linalg.solve(balance, np.eye(L.shape[0])[-1])
    pi = oracle.stationary_distribution(L, g, params)
    assert np.abs(pi - dense).max() < 1e-10
    assert oracle.all_states_reach(L, int(np.argmax(pi)))


@pytest.mark.parametrize("spec", ["path:3", "complete:2", "cycle:5", "cycle:6"])
def test_stationary_solve_of_the_shipped_chains_is_within_1e12_of_a_direct_solve(spec):
    # The v = 1 chains that the shipped configs, the pins and the benchmark
    # solve, against a sparse direct solve of the balance equations, one of
    # which gives way to the total (ordered by minimum degree on A^T + A,
    # 0.7 s on cycle:6 where the default order takes 7 s).
    from scipy.sparse.linalg import spsolve

    g = parse_graph_spec(spec)
    params = ModelParams(0.3, 1.0)
    L = oracle.build_forward_generator(g, uniform_kernel(g), params)
    balance = sp.vstack([L.T.tocsr()[:-1], np.ones((1, L.shape[0]))]).tocsc()
    total = np.zeros(L.shape[0])
    total[-1] = 1.0
    direct = spsolve(balance, total, permc_spec="MMD_AT_PLUS_A")
    assert np.abs(oracle.stationary_distribution(L, g, params) - direct).max() < 1e-12


def test_stationary_matches_lumped_two_site_chain(k2):
    # Independent oracle: on two sites the pair (sites agree?, edge sign) is
    # itself a 4-state Markov chain -- each site copies at rate 1, so
    # agreement jumps to 1{edge plus} at total rate 2, while the edge flips
    # at rates v*p / v*(1-p).  Solve that tiny chain directly with numpy.
    g, kern = k2
    p, v = 0.3, 1.4
    states = [(a, s) for a in (0, 1) for s in (-1, 1)]
    Q = np.zeros((4, 4))
    for i, (a, s) in enumerate(states):
        jump_agree = states.index((1 if s == 1 else 0, s))
        if jump_agree != i:
            Q[i, jump_agree] += 2.0
        flip = states.index((a, -s))
        Q[i, flip] += v * p if s == -1 else v * (1.0 - p)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    A = np.vstack([Q.T[1:], np.ones(4)])
    lumped = np.linalg.lstsq(A, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)[0]

    L = oracle.build_forward_generator(g, kern, ModelParams(p, v))
    pi = oracle.stationary_distribution(L, g, ModelParams(p, v))
    for i, (a, s) in enumerate(states):
        mass = 0.0
        for idx in range(8):
            st = decode_forward_state(g, idx)
            agree = 1 if st.site_signs[0] == st.site_signs[1] else 0
            if agree == a and int(st.edge_signs[0]) == s:
                mass += pi[idx]
        assert abs(mass - lumped[i]) < 1e-10
    # Stationary agreement probability equals p on two sites.
    agree_mass = lumped[states.index((1, -1))] + lumped[states.index((1, 1))]
    assert abs(agree_mass - p) < 1e-10


def test_stationary_single_site_product_form(p3):
    # P(site fixed sign, specific edge signs) = (1/2) p^{#plus} (1-p)^{#minus}.
    g, kern = p3
    p = 0.35
    L = oracle.build_forward_generator(g, kern, ModelParams(p, 0.8))
    pi = oracle.stationary_distribution(L, g, ModelParams(p, 0.8))
    for site in range(3):
        for sign in (-1, 1):
            for e0 in (-1, 1):
                cyl = CylinderEvent.of(sites={site: sign}, edges={0: e0})
                want = 0.5 * (p if e0 == 1 else 1.0 - p)
                assert abs(oracle.cylinder_probability(g, pi, cyl) - want) < 1e-10


def test_cylinder_probability_sums_the_masked_states_bit_for_bit(c6):
    # The bit-axis view visits a cylinder's states in the order of the
    # boolean mask, so both sums agree exactly: on the stationary law for
    # the 876 cylinders stationary-compare reads on cycle:6, and on a random
    # law for cylinders that pin nothing, every site, every edge or the
    # whole state.
    g, kern = c6
    pi = oracle.stationary_distribution(
        oracle.build_forward_generator(g, kern, ModelParams(0.3, 1.0)), g, ModelParams(0.3, 1.0)
    )
    cylinders = [
        _cylinder({x: sign}, pos, neg)
        for x in range(g.vertex_count)
        for sign in (1, -1)
        for pos, neg in _env_assignments(range(g.edge_count), 2)
    ]
    assert len(cylinders) == 876
    noise = np.random.default_rng(31).random(pi.size)
    sites, edges = {x: (-1) ** x for x in range(6)}, {e: 1 - 2 * (e % 3 == 0) for e in range(6)}
    pinned = [CylinderEvent.of(), CylinderEvent.of(sites=sites), CylinderEvent.of(edges=edges)]
    pinned.append(CylinderEvent.of(sites=sites, edges=edges))
    for law, cyls in ((pi, cylinders), (noise / noise.sum(), pinned)):
        for cyl in cyls:
            assert oracle.cylinder_probability(g, law, cyl) == float(
                law[forward_cylinder_mask(g, cyl)].sum()
            )


def test_stationary_reaches_cycle8():
    # 65,536 states: a sparse direct solve of the balance equations stalls
    # on fill-in here, while the uniformized iteration takes about a second.
    g = builtin_graph("cycle", 8)
    p = 0.3
    L = oracle.build_forward_generator(g, uniform_kernel(g), ModelParams(p, 1.0))
    pi = oracle.stationary_distribution(L, g, ModelParams(p, 1.0))
    assert np.abs(L.T @ pi).max() < 1e-12
    for site in range(8):
        for e0 in (-1, 1):
            cyl = CylinderEvent.of(sites={site: 1}, edges={site: e0})
            want = 0.5 * (p if e0 == 1 else 1.0 - p)
            assert abs(oracle.cylinder_probability(g, pi, cyl) - want) < 1e-10


def test_stationary_work_budget_raises_cap_error(p3, monkeypatch, tmp_path, capsys):
    # A budget below one step's work: the solve raises after its first
    # residual instead of stepping.
    g, kern = p3
    params = ModelParams(0.05, 0.1)
    L = oracle.build_forward_generator(g, kern, params)
    monkeypatch.setattr(oracle, "ORACLE_WORK_BUDGET", L.nnz + oracle._STEP_OVERHEAD - 1)
    with pytest.raises(StateSpaceCapError, match="stationary work on 32 states"):
        oracle.stationary_distribution(L, g, params)

    body = dict(experiment="mu-dyn", seed=3, graph="path:3", p=0.05, v=0.1,
                sites=[0, 2], signs=[1, 1], replicas=50)
    on = tmp_path / "on.json"
    on.write_text(json.dumps(dict(body, oracle="on")))
    assert main(["check", str(on)]) == 3
    assert "stationary work" in capsys.readouterr().err
    auto = tmp_path / "auto.json"
    auto.write_text(json.dumps(dict(body, oracle="auto")))
    assert main(["check", str(auto)]) == 0
    assert "no oracle gate" in capsys.readouterr().out


def test_a_wrong_edge_law_fails_the_exact_stationary_gate(monkeypatch, tmp_path, capsys):
    # Edges refreshed to + with probability 1 - p: the solve, started from
    # the product law at p, leaves it for the mutant's own stationary law,
    # so the product-form gate fails; the start masks no wrong edge law.
    def refreshed_at_one_minus_p(edge_sign, params):
        return params.v * (1.0 - params.p) if edge_sign == -1 else params.v * params.p

    monkeypatch.setattr(oracle, "edge_flip_rate", refreshed_at_one_minus_p)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(
        experiment="stationary-compare", seed=2, graph="path:3", p=0.3, replicas=0, oracle="on"
    )))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "exact vs product form: worst |err| = 2.000e-01 (tolerance 1.0e-10): FAIL" in out
    assert out.endswith("stationary-compare: FAIL\n")


def test_transient_site_marginals_fair_from_flip_invariant_initial(p3):
    # Flipping every site sign commutes with the dynamics (adopted signs
    # negate with their source), so a uniform site mixture over any fixed
    # edge configuration keeps one-site marginals at exactly 1/2.
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.3, 1.5))
    n = g.vertex_count
    dist = np.zeros(oracle.forward_state_count(g))
    edge_bits = 0b01  # edge 0 at +1, edge 1 at -1
    for s in range(2**n):
        dist[s | (edge_bits << n)] = 0.5**n
    for t in (0.4, 1.7):
        mu = oracle.transient_distribution(L.copy(), dist, t)
        for x in range(n):
            pr = oracle.cylinder_probability(g, mu, CylinderEvent.of(sites={x: 1}))
            assert pr == pytest.approx(0.5, abs=1e-12)


def test_total_variation_decreases_toward_stationary(p3):
    g, kern = p3
    L = oracle.build_forward_generator(g, kern, ModelParams(0.3, 1.0))
    pi = oracle.stationary_distribution(L, g, ModelParams(0.3, 1.0))
    mu0 = np.zeros(32)
    mu0[0] = 1.0
    tvs = []
    mu = mu0
    for _ in range(10):
        mu = oracle.transient_distribution(L.copy(), mu, 2.0)
        tvs.append(total_variation(mu, pi))
    for earlier, later in zip(tvs, tvs[1:]):
        assert later <= earlier + 1e-12
    assert tvs[-1] < 1e-3


# ------------------------------------------------------------------ duality


def test_exact_duality_single_tuple(k2):
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    fwd = SpinBondState(np.array([1, -1], dtype=np.int8), np.array([1], dtype=np.int8))
    dual = DualState.of([0, 1], [1, -1])
    check = exact_duality_check(g, kern, params, fwd, dual, 1.5)
    assert check.gap < 1e-11
    assert check.lhs == pytest.approx(check.rhs, abs=1e-11)


def test_duality_gap_table_covers_every_dual_state(p3):
    g, kern = p3
    params = ModelParams(0.4, 1.0)
    fwd = SpinBondState(
        np.array([1, -1, 1], dtype=np.int8), np.array([1, -1], dtype=np.int8)
    )
    lhs, rhs = oracle.duality_gap_table(g, kern, params, fwd, k=1, t=0.8)
    assert lhs.shape == rhs.shape == (oracle.dual_state_count(g, 1),)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_gap_table_long_step_matches_dense_expm_of_the_dual_generator(p3):
    # lam_d * t = 1,500 is past one series' limit of 500, so the dual side's
    # one step is cut into 4 equal steps on the grid before it is summed.
    g, kern = p3
    params, t = ModelParams(0.4, 2.0), 300.0
    L_d = oracle.build_dual_generator(g, kern, params, 1)
    assert L_d.shape == (54, 54)
    assert float(np.max(-L_d.diagonal())) * t > 2 * oracle._MAX_UNIFORM_EXPONENT
    fwd = striped_state(g)
    lhs, rhs = oracle.duality_gap_table(g, kern, params, fwd, k=1, t=t)
    weights = oracle._weighted_cylinder_masses(g, oracle.forward_delta(g, fwd), 1, params.p)
    assert np.abs(rhs - expm(L_d.toarray() * t) @ weights).max() < 1e-8
    assert np.abs(lhs - rhs).max() < 1e-8


@st.composite
def _dual_chains(draw):
    """A random simple graph on 2 to 4 sites, each with an edge but not
    always connected, a valid kernel on it with rate-0 entries and unequal
    rates, k = 1 to 3 walkers within 1,000 labelled dual states, and a
    forward state."""
    n = draw(st.integers(2, 4))
    pairs = [(x, y + (y >= x)) for x in range(n) for y in [draw(st.integers(0, n - 2))]]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    g = build_graph([(a, b) for a, b in pairs if a != b], n)
    rates = {}
    for x in range(n):
        weights = draw(st.lists(st.integers(0, 3), min_size=g.degree(x), max_size=g.degree(x)).filter(any))
        rates[x] = {y: w / sum(weights) for (y, _), w in zip(g.adjacency[x], weights)}
    ks = [k for k in (1, 2, 3) if (2 * n) ** k * 3**g.edge_count <= 1000]
    assume(ks)  # four sites and five edges have 1,944 states at k = 1
    k = draw(st.sampled_from(ks))
    fwd = decode_forward_state(g, draw(st.integers(0, 2 ** (n + g.edge_count) - 1)))
    return g, kernel_from_rates(rates, n), k, fwd


_TWO_EDGES = build_graph([(0, 1), (2, 3)], 4)


@settings(max_examples=40, deadline=None)
@given(
    chain=_dual_chains(),
    mode=st.sampled_from(["coalescing", "independent"]),
    p=st.sampled_from([0.001, 0.01, 0.5, 0.99, 0.999]),
    v=st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
)
@example(  # two components, with a walker pair that never meets
    chain=(_TWO_EDGES, uniform_kernel(_TWO_EDGES), 2, decode_forward_state(_TWO_EDGES, 37)),
    mode="coalescing", p=0.01, v=1e3,
)
def test_dual_orbit_chain_is_the_lumped_labelled_chain(chain, mode, p, v):
    # Over the theorem's class, with both rules: the orbit generator is the
    # labelled reference chain lumped by sorting decoded walkers, and the
    # right side on the orbits, read at every labelled state through its
    # orbit, is the labelled chain's within 1e-13 of the weights' scale;
    # under the coalescing rule the gap table's right side is too.
    g, kern, k, fwd = chain
    params, t = ModelParams(p, v), 0.5
    reference = _dual_generator_by_state(g, kern, params, k, mode)
    reps, orbit = dual_orbits(g, k)
    L_q = oracle.build_dual_generator(g, kern, params, k, mode)
    _assert_lumps(L_q, lump_dual_generator(reference, reps, orbit), mode)
    weights = oracle._weighted_cylinder_masses(g, oracle.forward_delta(g, fwd), k, p)
    labelled = oracle.transient_action(reference, weights, t)
    scale = np.abs(weights).max()
    rhs = oracle.transient_action(L_q, weights[reps], t)[orbit]
    assert np.abs(rhs - labelled).max() <= 1e-13 * scale
    if mode == "coalescing":
        _, rhs = oracle.duality_gap_table(g, kern, params, fwd, k, t)
        assert np.abs(rhs - labelled).max() <= 1e-13 * scale


def _series_work(lam_ts, entries):
    """Work a run of series over spans lam * span = lam_ts can take: each
    at most lam_t + 50 sqrt(lam_t + 1) + 200 products, as _series limits
    them, of entries + _STEP_OVERHEAD each."""
    return sum(int(x + 50.0 * np.sqrt(x + 1.0) + 200.0) for x in lam_ts) * (
        entries + oracle._STEP_OVERHEAD
    )


@pytest.mark.parametrize(
    "dt, steps, lam_ts",
    [
        (300.0, 1, [375.0] * 4),  # lam dt = 1,500: 4 pieces, one series each
        (0.5, 20, [20.0, 20.0, 10.0]),  # 20 times in segments of 8, 8 and 4
    ],
)
def test_transient_work_budget_is_counted_before_the_first_product(p3, monkeypatch, dt, steps, lam_ts):
    # path:3, k = 1, at v = 2: lam = 5. At a budget of exactly the work its
    # series can take, every time is yielded; one entry under it, nothing is
    # multiplied and the budget's label names the states.
    g, kern = p3
    L_d = oracle.build_dual_generator(g, kern, ModelParams(0.4, 2.0), 1)
    lam = oracle._uniformize(L_d)
    assert lam == 5.0
    work = _series_work(lam_ts, L_d.nnz)
    products = []

    def product(w):
        products.append(1)
        return L_d @ w

    def run():
        vec = np.ones(L_d.shape[0])
        return list(oracle.transient_steps(product, lam, vec, dt, steps, L_d.nnz))

    monkeypatch.setattr(oracle, "ORACLE_WORK_BUDGET", work)
    assert len(run()) == steps and products
    products.clear()
    monkeypatch.setattr(oracle, "ORACLE_WORK_BUDGET", work - 1)
    with pytest.raises(StateSpaceCapError, match="transient work on 54 states") as err:
        run()
    assert not products
    assert err.value.required == work and err.value.cap == work - 1


def test_transient_work_past_the_budget_exits_3_at_once(tmp_path, capsys):
    # complete:2 at v = 1e9: lam t is about 2e9, which the series would take
    # hours to step; the dual side's count passes the budget within its
    # first few thousand segments and nothing is written
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps(dict(
        experiment="duality-check", seed=1, graph="complete:2", p=0.3, v=1e9, k=2, t=1.0,
        oracle="on", output_dir=str(out),
    )))
    assert main(["check", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "transient work on 30 states" in err and f"cap of {oracle.ORACLE_WORK_BUDGET}" in err
    assert not out.exists()


def test_transient_action_rejects_a_series_that_is_not_finite(p3):
    g, kern = p3
    L_d = oracle.build_dual_generator(g, kern, ModelParams(0.4, 2.0), 1)
    vec = np.ones(L_d.shape[0])
    vec[7] = np.inf
    with pytest.raises(RuntimeError, match="transient series is not finite"):
        oracle.transient_action(L_d, vec, 0.7)


@pytest.mark.parametrize("graph, k", [("p3", 1), ("p3", 2), ("k2", 2)])
def test_gap_table_lhs_matches_scalar_formula(graph, k, request):
    g, kern = request.getfixturevalue(graph)
    params = ModelParams(0.3, 1.0)
    fwd = striped_state(g)
    t = 0.7
    L = oracle.build_forward_generator(g, kern, params)
    mu_t = oracle.transient_distribution(L, oracle.forward_delta(g, fwd), t)
    lhs, _ = oracle.duality_gap_table(g, kern, params, fwd, k=k, t=t)
    assert lhs.shape == (oracle.dual_state_count(g, k),)
    for s, value in enumerate(lhs.tolist()):
        dual = decode_dual_state(g, k, s)
        scalar = float(mu_t @ forward_weight_vector(g, dual, params.p))
        assert abs(value - scalar) <= 1e-13
        if k == 2 and dual.positions[0] == dual.positions[1] and dual.signs[0] != dual.signs[1]:
            assert value == 0.0


def test_independent_rule_breaks_duality_for_shared_sites(k2):
    # Negative control: with one clock per walker instead of one per occupied
    # site, a co-located pair separates and the identity fails visibly.  This
    # is what the coalescing rule is for -- and proof the gate can fail.
    g, kern = k2
    params = ModelParams(0.3, 1.0)
    fwd = SpinBondState(np.array([1, -1], dtype=np.int8), np.array([1], dtype=np.int8))
    dual = DualState.of([0, 0], [1, 1])
    good = exact_duality_check(g, kern, params, fwd, dual, 1.0, mode="coalescing")
    bad = exact_duality_check(g, kern, params, fwd, dual, 1.0, mode="independent")
    assert good.gap < 1e-11
    assert bad.gap > 1e-2


def test_duality_weight_vectors_agree_with_scalar(k2):
    g, kern = k2
    p = 0.3
    dual = DualState.of([0], [1], revealed_positive=[0])
    weights = forward_weight_vector(g, dual, p)

    for idx in range(8):
        st = decode_forward_state(g, idx)
        assert weights[idx] == pytest.approx(
            duality_weight(st.site_signs, st.edge_signs, dual, p)
        )
    fwd = decode_forward_state(g, 6)
    dual_weights = oracle._weighted_cylinder_masses(g, oracle.forward_delta(g, fwd), 1, p)
    for idx in range(oracle.dual_state_count(g, 1)):
        d = decode_dual_state(g, 1, idx)
        assert dual_weights[idx] == pytest.approx(
            duality_weight(fwd.site_signs, fwd.edge_signs, d, p)
        )
