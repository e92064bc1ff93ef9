"""Traced memory of the exact oracle and of one dual block.

numpy reports its buffers to tracemalloc, so the traced peak of a call
counts every array the call makes, the sparse matrices' arrays included.
Each oracle bound is in units of the generator's own arrays, and allows the
matrix the call is about plus one generator-sized matrix beside it; the
state-sized vectors of these chains are small beside either. A copy of
L + diag(-row sums) at assembly, or a jump matrix I + L/lam made beside
L (and then transposed), breaks the bound. The dual block's bound is per
(replica, edge) cell.
"""

import tracemalloc

import numpy as np
import pytest

# The oracle imports scipy.sparse and its csgraph on first use; importing
# them here keeps a module's own import out of every traced peak, whatever
# order the tests run in.
import scipy.sparse.csgraph  # noqa: F401

from spinbond import oracle
from spinbond.dual import DualState, simulate_dual
from spinbond.forward import EventTable, ModelParams
from spinbond.graphs import builtin_graph, uniform_kernel
from spinbond.rng import RngStream

PARAMS = ModelParams(0.3, 1.0)


def _generator_bytes(L):
    return L.data.nbytes + L.indices.nbytes + L.indptr.nbytes


def _traced_peak(call):
    """The call's result and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def cycle6():
    g = builtin_graph("cycle", 6)
    return g, oracle.build_forward_generator(g, uniform_kernel(g), PARAMS)


def test_forward_build_holds_one_table(cycle6):
    # The slot table is read in place as CSR: L and the build's temporaries
    # stay under two generators (the table has 13 slots for 11.5 entries a row)
    g, reference = cycle6
    L, peak = _traced_peak(lambda: oracle.build_forward_generator(g, uniform_kernel(g), PARAMS))
    assert (L != reference).nnz == 0
    assert peak < 2.0 * _generator_bytes(L)


def test_stationary_solve_holds_one_jump_matrix(cycle6):
    _, L = cycle6
    pi, peak = _traced_peak(lambda: oracle.stationary_distribution(L))
    assert abs(pi.sum() - 1.0) < 1e-12
    assert peak < 1.5 * _generator_bytes(L)


def test_transient_steps_hold_one_jump_matrix(cycle6):
    _, L = cycle6
    law = np.zeros(L.shape[0])
    law[5] = 1.0

    def steps():
        for stepped in oracle.transient_steps(L, law, 0.5, 4):
            pass
        return stepped

    stepped, peak = _traced_peak(steps)
    assert abs(stepped.sum() - 1.0) < 1e-12
    assert peak < 1.5 * _generator_bytes(L)


def test_duality_gap_table_holds_one_dual_generator():
    # The dual generator becomes its own jump matrix, and the table is three
    # columns; the bound is in units of the dual generator (5,184 states)
    g = builtin_graph("cycle", 4)
    kern = uniform_kernel(g)
    L_d = oracle.build_dual_generator(g, kern, PARAMS, 2)
    fwd = oracle.decode_forward_state(g, 5)
    table, peak = _traced_peak(lambda: oracle.duality_gap_table(g, kern, PARAMS, fwd, 2, 1.0))
    assert len(table) == L_d.shape[0]
    assert np.abs(table.lhs - table.rhs).max() < 1e-10
    assert peak < 3.0 * _generator_bytes(L_d)


def test_dual_block_holds_its_edge_arrays_once():
    # A block keeps one int8 status and one float64 last-seen time per
    # (replica, edge) cell, 9 bytes; the bound of 14 leaves room for the
    # per-replica arrays and for the end resolution's temporaries, which
    # grow only with the revealed entries of a chunk of rows. Full-size
    # (replica, edge) temporaries at the end break it.
    g = builtin_graph("grid_torus", 10, 10)
    table = EventTable(g, uniform_kernel(g), PARAMS)
    initial = DualState.of(list(range(0, 100, 11)), [1, -1] * 5)  # ten walkers on the diagonal
    size = 4096
    traj, peak = _traced_peak(
        lambda: simulate_dual(RngStream(5).generator(), size, table, initial, 5.0)
    )
    assert traj.status.shape == (size, g.edge_count) and traj.reveal_count > 0
    assert peak <= 14 * size * g.edge_count
