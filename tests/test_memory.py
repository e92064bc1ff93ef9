"""Traced memory of the exact oracle and of one dual block.

numpy reports its buffers to tracemalloc, so the traced peak of a call
counts every array the call makes, the sparse matrices' arrays included,
and its traces of numpy's domain are exactly the arrays alive. Each oracle
bound is in units of the generator's own arrays, for the forward chain
those of its spin-flip quotient Q, the one forward generator the oracle
builds. A build may hold its slot table beside its block temporaries, and
retains exactly the arrays of the generator it returns. The transient
solvers take their generator over, so a call handed Q holds only its
series' vectors: a copy of Q or of its transpose breaks their bound. The
stationary solve keeps Q as it is and steps on Q's own arrays, and its
certificate reads Q's columns in blocks, so a copy of Q's transpose breaks
its bound too. The dual block's bound is per (replica, edge) cell, and the
result writer's is a share of the file it writes.
"""

import tracemalloc

import numpy as np
import pytest

# The oracle imports scipy.sparse on first use; importing it here keeps a
# module's own import out of every traced peak, whatever order the tests
# run in.
import scipy.sparse  # noqa: F401

from conftest import decode_forward_state, full_forward_generator
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


def _retained_array_bytes(call):
    """The call's result and the bytes of the numpy arrays it made that are still alive."""
    tracemalloc.start()
    try:
        result = call()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return result, sum(trace.size for trace in arrays.traces)


@pytest.fixture(scope="module")
def cycle6():
    g = builtin_graph("cycle", 6)
    return g, oracle.build_forward_generator(g, uniform_kernel(g), PARAMS)


def test_forward_build_holds_one_table(cycle6):
    # The arrays sized for the quotient's slot table and one block's
    # temporaries stay under two generators (the table keeps all 13 slots
    # of its 2,048 columns), and the build keeps no unused slot and no
    # temporary
    g, reference = cycle6
    Q, peak = _traced_peak(lambda: oracle.build_forward_generator(g, uniform_kernel(g), PARAMS))
    assert (Q != reference).nnz == 0 and Q.shape == (2048, 2048)
    assert peak < 2.0 * _generator_bytes(Q)
    Q, retained = _retained_array_bytes(
        lambda: oracle.build_forward_generator(g, uniform_kernel(g), PARAMS)
    )
    assert retained == _generator_bytes(Q)


def test_dual_build_retains_its_csr_arrays():
    # 2,916 orbits with 13 slots for 8.1 entries a row: the table's unused
    # slots are cut off, so what stays is the CSR arrays alone
    g = builtin_graph("cycle", 4)
    L_d, retained = _retained_array_bytes(
        lambda: oracle.build_dual_generator(g, uniform_kernel(g), PARAMS, 2)
    )
    assert L_d.nnz < 0.7 * L_d.shape[0] * 13
    assert retained == _generator_bytes(L_d)


def test_stationary_solve_holds_one_jump_matrix(cycle6):
    # The one jump matrix is Q itself: each step adds (Q^T pi) / lam to pi
    # through the CSR view Q.T, and the closed-class certificate reads Q's
    # columns a block at a time, so the call holds vectors and one block's
    # temporaries alone, and a copy of Q's transpose (1.0x) fails
    g, Q = cycle6
    before = Q.copy()
    pi, peak = _traced_peak(lambda: oracle.stationary_distribution(Q, g, PARAMS))
    assert abs(pi.sum() - 1.0) < 1e-12 and pi.shape == (Q.shape[0],)
    assert peak < 0.6 * _generator_bytes(Q)
    assert (Q != before).nnz == 0


def test_transient_steps_hold_one_jump_matrix(cycle6):
    # The jump matrix is made in place on Q's transpose, a view of Q's own
    # arrays, so the call holds the series' vectors and no matrix
    _, reference = cycle6
    Q = reference.copy()
    law = np.zeros(Q.shape[0])
    law[5] = 1.0

    def steps():
        PT = Q.T
        for stepped in oracle.transient_steps(PT.dot, oracle._uniformize(PT), law, 0.5, 4, PT.nnz):
            pass
        return stepped

    stepped, peak = _traced_peak(steps)
    assert abs(stepped.sum() - 1.0) < 1e-12
    assert peak < 0.6 * _generator_bytes(reference)


def test_tv_curve_holds_the_quotient_alone(cycle6):
    # The curve builds the flip quotient, which retains half the full
    # generator's slots, and steps half-size vectors: its peak, build
    # included, stays under two quotients (one full generator), which
    # building or holding a full generator breaks
    g, Q = cycle6
    assert Q.nnz == full_forward_generator(g, uniform_kernel(g), PARAMS).nnz // 2
    a = decode_forward_state(g, 5)
    b = decode_forward_state(g, 2 * Q.shape[0] - 1)
    curve, peak = _traced_peak(
        lambda: oracle.total_variation_curve(g, uniform_kernel(g), PARAMS, a, b, 0.5, 4)
    )
    assert curve[0] == 1.0 and curve[-1] < curve[0]
    assert peak < 1.98 * _generator_bytes(Q)


def test_duality_gap_table_holds_one_dual_generator():
    # The dual generator, on the 2,916 label orbits of 5,184 states, is
    # built while no dual-sized vector is held and becomes its own jump
    # matrix, and the table is two columns over the labelled states; the
    # bound is in units of the orbit generator (1.95x is read), which holds
    # 0.55 of the labelled generator's bytes
    g = builtin_graph("cycle", 4)
    kern = uniform_kernel(g)
    L_d = oracle.build_dual_generator(g, kern, PARAMS, 2)
    fwd = decode_forward_state(g, 5)
    (lhs, rhs), peak = _traced_peak(lambda: oracle.duality_gap_table(g, kern, PARAMS, fwd, 2, 1.0))
    assert L_d.shape[0] == 2916
    assert lhs.shape == rhs.shape == (oracle.dual_state_count(g, 2),)
    assert np.abs(lhs - rhs).max() < 1e-10
    assert peak < 2.0 * _generator_bytes(L_d)


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


def test_result_writer_streams_its_blocks(tmp_path):
    # 25,000 rows of a gap table's four columns, no value repeated, make a
    # file of 2.4 MB in 25 blocks. The writer holds one block's cell strings
    # and joined lines (0.74 MB), so its peak stays under half the file,
    # which holding every line, or the whole text, at once breaks
    from spinbond.experiments import _WRITE_BLOCK, write_results

    rows = 25_000
    lhs = np.arange(rows) / 7.0
    rhs = np.arange(rows) / 11.0
    columns = {"dual_state": np.arange(rows), "lhs": lhs, "rhs": rhs, "gap": np.abs(lhs - rhs)}
    path = tmp_path / "gaps.jsonl"
    _, peak = _traced_peak(lambda: write_results(columns, path))
    size = path.stat().st_size
    assert rows > 20 * _WRITE_BLOCK and size > 2_000_000
    assert peak < size / 2
