import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinbond.graphs import (
    AdoptionKernel,
    build_graph,
    builtin_graph,
    closed_classes,
    kernel_from_rates,
    read_graph_file,
    read_kernel_file,
    uniform_kernel,
    validate_kernel,
    write_graph_file,
    write_kernel_file,
)


def test_build_graph_indexing():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.edge_id(0, 1) == 0 and g.edge_id(1, 0) == 0
    assert g.edge_id(2, 1) == 1
    assert g.has_edge(0, 1) and not g.has_edge(0, 2) and not g.has_edge(1, 1)
    with pytest.raises(KeyError):
        g.edge_id(0, 2)


def test_build_graph_deduplicates_unordered_pairs():
    g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
    assert g.edges == ((0, 1),)


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([(1, 1)], 3)
    with pytest.raises(ValueError, match="outside"):
        build_graph([(0, 3)], 3)
    with pytest.raises(ValueError, match="vertex_count"):
        build_graph([], 0)


def test_builtin_families():
    path = builtin_graph("path", 4)
    assert path.edges == ((0, 1), (1, 2), (2, 3))
    cycle = builtin_graph("cycle", 5)
    assert cycle.edge_count == 5 and all(cycle.degree(x) == 2 for x in range(5))
    complete = builtin_graph("complete", 4)
    assert complete.edge_count == 6
    with pytest.raises(ValueError, match="cycle needs size >= 3"):
        builtin_graph("cycle", 2)
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_graph("star", 3)
    with pytest.raises(ValueError, match="cycle takes 1 size, got 2"):
        builtin_graph("cycle", 3, 4)
    with pytest.raises(ValueError, match="path takes 1 size, got 0"):
        builtin_graph("path")
    with pytest.raises(ValueError, match="grid_torus takes 2 sizes, got 1"):
        builtin_graph("grid_torus", 3)


def test_grid_torus_small_cases():
    g = builtin_graph("grid_torus", 2, 2)
    # wrap-around duplicates collapse, leaving the 4-cycle
    assert set(g.edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    g33 = builtin_graph("grid_torus", 3, 3)
    assert g33.vertex_count == 9 and g33.edge_count == 18
    assert all(g33.degree(x) == 4 for x in range(9))
    g11 = builtin_graph("grid_torus", 1, 1)
    assert g11.vertex_count == 1 and g11.edge_count == 0
    g13 = builtin_graph("grid_torus", 1, 3)
    # the single-row torus is just the 3-cycle
    assert set(g13.edges) == {(0, 1), (1, 2), (0, 2)}


def test_component_labels():
    # Under a uniform kernel the closed classes of the walk are the graph's components.
    g = build_graph([(0, 1), (2, 3), (4, 5), (5, 6)], 7)
    label = closed_classes(uniform_kernel(g))
    assert label[0] == label[1] and label[2] == label[3] and label[4] == label[5] == label[6]
    assert len(set(label)) == 3 and None not in label


def test_closed_classes_of_reducible_kernels():
    # path:4 cut in the middle by rate 0: two closed classes in one component.
    halves = kernel_from_rates({0: {1: 1.0}, 1: {0: 1.0, 2: 0.0}, 2: {3: 1.0}, 3: {2: 1.0}}, 4)
    label = closed_classes(halves)
    assert label[0] == label[1] != label[2] == label[3] and None not in label
    # 0 -> 1 <-> 2: the walk leaves vertex 0 for good.
    label = closed_classes(kernel_from_rates({0: {1: 1.0}, 1: {2: 1.0}, 2: {1: 1.0}}, 3))
    assert label[0] is None and label[1] == label[2] is not None
    # A one-way cycle is one closed class; a one-way path into a cycle is not.
    one_way = {x: {(x + 1) % 6: 1.0} for x in range(6)}
    assert len(set(closed_classes(kernel_from_rates(one_way, 6)))) == 1
    into = {0: {1: 1.0}, 1: {2: 1.0}, 2: {0: 1.0}, 3: {2: 1.0}, 4: {3: 1.0}, 5: {4: 1.0}}
    label = closed_classes(kernel_from_rates(into, 6))
    assert label[3:] == [None] * 3 and label[0] == label[1] == label[2] is not None


def test_uniform_kernel_and_isolated_vertex():
    g = build_graph([(0, 1), (1, 2)], 3)
    kern = uniform_kernel(g)
    assert dict(kern.rows[1]).get(0, 0.0) == 0.5 and dict(kern.rows[1]).get(2, 0.0) == 0.5
    assert dict(kern.rows[0]).get(1, 0.0) == 1.0 and dict(kern.rows[0]).get(2, 0.0) == 0.0
    assert validate_kernel(g, kern) == ()
    isolated = build_graph([(0, 1)], 3)
    with pytest.raises(ValueError, match="isolated"):
        uniform_kernel(isolated)


def test_validate_kernel_reports_each_violation():
    g = build_graph([(0, 1), (1, 2)], 3)
    bad = kernel_from_rates(
        {0: {1: -0.25, 2: 1.25}, 1: {0: 0.5, 2: 0.5}, 2: {1: 0.3}}, 3
    )
    violations = validate_kernel(g, bad)
    assert violations
    text = "\n".join(violations)
    assert "negative rate" in text
    assert "off-support" in text
    assert "row sum at vertex 2" in text


def test_validate_kernel_row_count_mismatch():
    g = build_graph([(0, 1)], 2)
    violations = validate_kernel(g, AdoptionKernel(rows=((),)))
    assert violations and "rows" in violations[0]


def test_graph_file_roundtrip(tmp_path):
    g = builtin_graph("cycle", 5)
    path = tmp_path / "g.txt"
    write_graph_file(g, path)
    g2 = read_graph_file(path)
    assert g2.edges == g.edges and g2.vertex_count == g.vertex_count


def test_graph_file_comments_and_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\n3 3\n0 1\n# middle comment\n1 2\n0 2\n")
    g = read_graph_file(path)
    assert g.edge_count == 3
    path.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="declares 2 edges"):
        read_graph_file(path)
    # As many lines as declared but 1 0 is 0 1 again, or as many distinct
    # edges as declared but one line more.
    path.write_text("3 3\n0 1\n1 2\n1 0\n")
    with pytest.raises(ValueError, match="declares 3 edges but lists 3, 2 of them distinct"):
        read_graph_file(path)
    path.write_text("3 3\n0 1\n1 2\n1 0\n0 2\n")
    with pytest.raises(ValueError, match="declares 3 edges but lists 4, 3 of them distinct"):
        read_graph_file(path)
    path.write_text("3\n")
    with pytest.raises(ValueError, match="header"):
        read_graph_file(path)
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        read_graph_file(path)


def test_kernel_file_roundtrip(tmp_path):
    g = build_graph([(0, 1), (1, 2)], 3)
    kern = kernel_from_rates({0: {1: 1.0}, 1: {0: 0.25, 2: 0.75}, 2: {1: 1.0}}, 3)
    path = tmp_path / "k.txt"
    write_kernel_file(kern, path)
    back = read_kernel_file(g, path)
    assert back == kern
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="expected 'x y rate'"):
        read_kernel_file(g, path)
    # A vertex outside the graph, as source or target, or a pair named twice.
    for extra, message in [
        ("7 0 0.9", "outside 0..2"),
        ("-1 2 3.0", "outside 0..2"),
        ("0 3 0.0", "outside 0..2"),
        ("1 0 0.25", "repeats the pair 1 0"),
    ]:
        write_kernel_file(kern, path)
        path.write_text(path.read_text() + extra + "\n")
        with pytest.raises(ValueError, match=message):
            read_kernel_file(g, path)


@given(
    n=st.integers(min_value=1, max_value=8),
    pairs=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20
    ),
)
def test_build_graph_adjacency_consistency(n, pairs):
    pairs = [(u % n, v % n) for u, v in pairs if u % n != v % n]
    g = build_graph(pairs, n)
    for x in range(n):
        for y, e in g.adjacency[x]:
            assert g.edges[e] == ((x, y) if x < y else (y, x))
            assert (x, g.edge_id(x, y)) in g.adjacency[y]
    assert len(set(g.edges)) == g.edge_count
    if g.edge_count:
        kern = uniform_kernel(g) if all(g.degree(x) for x in range(n)) else None
        if kern is not None:
            assert validate_kernel(g, kern) == ()
            label = closed_classes(kern)
            assert all(label[x] == label[y] is not None for x, y in g.edges)
