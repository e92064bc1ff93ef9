"""Finite simple graphs and adoption-rate kernels.

Vertices and edges carry dense integer indices; every state array in the
simulators is keyed off these indices. Graphs are immutable after
construction and safe to share between concurrent replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with indexed edges.

    ``edges[e]`` is the unordered pair of endpoints of edge ``e`` stored as
    ``(min, max)``; ``adjacency[x]`` lists ``(neighbor, edge_index)`` pairs.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    _edge_lookup: dict[tuple[int, int], int] = field(repr=False, hash=False, compare=False, default_factory=dict)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    def edge_id(self, x: int, y: int) -> int:
        """Index of edge {x, y}; raises KeyError if not adjacent."""
        return self._edge_lookup[(x, y) if x < y else (y, x)]

    def has_edge(self, x: int, y: int) -> bool:
        if x == y:
            return False
        return ((x, y) if x < y else (y, x)) in self._edge_lookup


def build_graph(edge_list, vertex_count: int) -> Graph:
    """Build a simple graph from an edge list, deduplicating repeated pairs.

    Self-loops and out-of-range endpoints are rejected.
    """
    if vertex_count < 1:
        raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
    seen: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    for pair in edge_list:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed in a simple graph")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{vertex_count - 1}")
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen[key] = len(edges)
            edges.append(key)

    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for e, (u, v) in enumerate(edges):
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))

    return Graph(
        vertex_count=vertex_count,
        edges=tuple(edges),
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
        _edge_lookup=dict(seen),
    )


# How many sizes each builtin graph kind takes; an unknown kind is rejected below.
_SIZE_COUNTS = {"path": 1, "cycle": 1, "complete": 1, "grid_torus": 2}


def builtin_graph(kind: str, *sizes: int) -> Graph:
    """Named graph families: path, cycle, complete, grid_torus.

    ``grid_torus`` takes (rows, cols); wrap-around duplicates collapse to
    single edges and self-loops (from size-1 dimensions) are dropped.
    """
    count = _SIZE_COUNTS.get(kind, len(sizes))
    if len(sizes) != count:
        raise ValueError(f"{kind} takes {count} size{'s' * (count > 1)}, got {len(sizes)}")
    if kind == "path":
        (n,) = sizes
        if n < 1:
            raise ValueError("path needs size >= 1")
        return build_graph([(i, i + 1) for i in range(n - 1)], n)
    if kind == "cycle":
        (n,) = sizes
        if n < 3:
            raise ValueError(f"cycle needs size >= 3, got {n}")
        return build_graph([(i, (i + 1) % n) for i in range(n)], n)
    if kind == "complete":
        (n,) = sizes
        if n < 1:
            raise ValueError("complete graph needs size >= 1")
        return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)
    if kind == "grid_torus":
        rows, cols = sizes
        if rows < 1 or cols < 1:
            raise ValueError("grid_torus needs rows, cols >= 1")
        pairs = []
        for r in range(rows):
            for c in range(cols):
                x = r * cols + c
                right = r * cols + (c + 1) % cols
                down = ((r + 1) % rows) * cols + c
                if right != x:
                    pairs.append((x, right))
                if down != x:
                    pairs.append((x, down))
        return build_graph(pairs, rows * cols)
    raise ValueError(f"unknown builtin graph kind {kind!r}")


@dataclass(frozen=True)
class AdoptionKernel:
    """Per-vertex neighbor-selection rates q(x, y).

    ``rows[x]`` holds ``(neighbor, rate)`` pairs. A valid kernel has unit
    total outflow at every vertex and support only on graph edges; use
    ``validate_kernel`` to check.
    """

    rows: tuple[tuple[tuple[int, float], ...], ...]

    def rate(self, x: int, y: int) -> float:
        for nbr, q in self.rows[x]:
            if nbr == y:
                return q
        return 0.0


def kernel_from_rates(rates_by_vertex, vertex_count: int) -> AdoptionKernel:
    """Assemble a kernel from {vertex: {neighbor: rate}} without validating it."""
    rows = []
    for x in range(vertex_count):
        row = rates_by_vertex.get(x, {})
        rows.append(tuple(sorted((int(y), float(q)) for y, q in row.items())))
    return AdoptionKernel(rows=tuple(rows))


def uniform_kernel(g: Graph) -> AdoptionKernel:
    """q(x, y) = 1/deg(x) for every neighbor y; rejects isolated vertices."""
    rows = []
    for x in range(g.vertex_count):
        d = g.degree(x)
        if d == 0:
            raise ValueError(f"vertex {x} is isolated; no unit-outflow kernel exists")
        rows.append(tuple((y, 1.0 / d) for y, _ in g.adjacency[x]))
    return AdoptionKernel(rows=tuple(rows))


@dataclass(frozen=True)
class KernelReport:
    valid: bool
    violations: tuple[str, ...]


def validate_kernel(g: Graph, kernel: AdoptionKernel) -> KernelReport:
    """Check non-negativity, edge support, and unit row outflow.

    Returns a report listing every violated condition instead of raising.
    """
    violations: list[str] = []
    if len(kernel.rows) != g.vertex_count:
        violations.append(
            f"kernel has {len(kernel.rows)} rows, graph has {g.vertex_count} vertices"
        )
        return KernelReport(valid=False, violations=tuple(violations))
    for x in range(g.vertex_count):
        total = 0.0
        for y, q in kernel.rows[x]:
            if q < 0:
                violations.append(f"negative rate q({x},{y}) = {q}")
            if q > 0 and not g.has_edge(x, y):
                violations.append(f"off-support rate q({x},{y}) = {q}: {{{x},{y}}} is not an edge")
            total += q
        if abs(total - 1.0) > ROW_SUM_TOL:
            violations.append(f"row sum at vertex {x} is {total!r}, expected 1")
    return KernelReport(valid=not violations, violations=tuple(violations))


def require_valid_kernel(g: Graph, kernel: AdoptionKernel) -> None:
    """Raise ``ValueError("invalid kernel: ...")`` naming every violation."""
    report = validate_kernel(g, kernel)
    if not report.valid:
        raise ValueError("invalid kernel: " + "; ".join(report.violations))


def closed_classes(kernel: AdoptionKernel) -> list[int | None]:
    """Each vertex's closed class of the kernel's walk, or None for a transient vertex.

    The walk steps from x to y at rate q(x, y). Its classes are the strong
    components of the graph of positive rates (Kosaraju: a depth-first
    search's finishing order, then searches of the reversed graph in reverse
    finishing order). A class is closed when no positive rate leaves it;
    the walk leaves any other vertex for good. Under a uniform kernel the
    closed classes are the graph's components.
    """
    steps = [[y for y, q in row if q > 0] for row in kernel.rows]
    n = len(steps)
    order, seen = [], [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(steps[start]))]
        while stack:
            x, ahead = stack[-1]
            y = next((y for y in ahead if not seen[y]), None)
            if y is None:
                order.append(stack.pop()[0])
            else:
                seen[y] = True
                stack.append((y, iter(steps[y])))
    back: list[list[int]] = [[] for _ in range(n)]
    for x, ys in enumerate(steps):
        for y in ys:
            back[y].append(x)
    label = [-1] * n
    for count, start in enumerate(x for x in reversed(order) if label[x] < 0):
        label[start], todo = count, [start]
        while todo:
            for x in back[todo.pop()]:
                if label[x] < 0:
                    label[x] = count
                    todo.append(x)
    leaving = {label[x] for x, ys in enumerate(steps) for y in ys if label[y] != label[x]}
    return [None if c in leaving else c for c in label]


def format_graph(g: Graph) -> str:
    """Plain-text graph format: header "<V> <E>", then one "u v" line per edge."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_graph_file(g: Graph, path) -> None:
    Path(path).write_text(format_graph(g))


def read_graph_file(path) -> Graph:
    """Parse the plain-text graph format; '#' lines are comments."""
    tokens: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append(line)
    if not tokens:
        raise ValueError(f"graph file {path} is empty")
    header = tokens[0].split()
    if len(header) != 2:
        raise ValueError(f"graph header must be '<vertex_count> <edge_count>', got {tokens[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(tokens) - 1 != m:
        raise ValueError(f"graph file declares {m} edges but contains {len(tokens) - 1}")
    pairs = []
    for line in tokens[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return build_graph(pairs, n)


def read_kernel_file(g: Graph, path) -> AdoptionKernel:
    """Kernel file: one "x y rate" line per positive entry."""
    rates: dict[int, dict[int, float]] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad kernel line {line!r}, expected 'x y rate'")
        x, y, q = int(parts[0]), int(parts[1]), float(parts[2])
        rates.setdefault(x, {})[y] = q
    return kernel_from_rates(rates, g.vertex_count)


def write_kernel_file(kernel: AdoptionKernel, path) -> None:
    lines = []
    for x, row in enumerate(kernel.rows):
        for y, q in row:
            lines.append(f"{x} {y} {q!r}")
    Path(path).write_text("\n".join(lines) + "\n")
