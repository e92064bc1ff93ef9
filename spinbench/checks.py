"""Correctness checks on experiment outputs, made apart from the program.

Each check reads the files an operation wrote and compares them with a
closed form, a small dense solve done here, or a property the law must
have. None of them compares against a stored copy of earlier output, and
none imports the program. A check returns a list of problems; an empty
list means the outputs passed.

Statistical checks test at a per-test false-failure rate of ``ALPHA``; the
README lists how many tests each operation makes, which bounds its
family-wise false-failure rate by the union bound.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations, product
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy import stats

ALPHA = 1e-6
Z_LIMIT = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)  # two-sided, about 4.89
EXACT_TOL = 1e-9


# ---------------------------------------------------------------- graphs


def graph_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a builtin graph spec such as ``cycle:6``."""
    kind, _, arg = spec.partition(":")
    sizes = [int(s) for s in arg.split(",")]
    if kind == "path":
        (n,) = sizes
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        (n,) = sizes
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        (n,) = sizes
        return n, list(combinations(range(n), 2))
    if kind == "grid_torus":
        rows, cols = sizes
        if rows < 3 or cols < 3:
            raise ValueError("only tori with both sides >= 3 have a simple edge count")
        edges = []
        for r in range(rows):
            for c in range(cols):
                x = r * cols + c
                edges.append((x, r * cols + (c + 1) % cols))
                edges.append((x, ((r + 1) % rows) * cols + c))
        return rows * cols, edges
    raise ValueError(f"unsupported graph spec {spec!r}")


def parse_label(label: str) -> tuple[dict[int, int], dict[int, int]]:
    """Site and edge constraints of a cylinder label like ``site0=+1&edge2=-1``."""
    sites: dict[int, int] = {}
    edges: dict[int, int] = {}
    if label == "full":
        return sites, edges
    for part in label.split("&"):
        name, _, sign = part.partition("=")
        value = 1 if sign == "+1" else -1 if sign == "-1" else None
        if value is None:
            raise ValueError(f"bad sign in {label!r}")
        if name.startswith("site"):
            sites[int(name[4:])] = value
        elif name.startswith("edge"):
            edges[int(name[4:])] = value
        else:
            raise ValueError(f"bad constraint in {label!r}")
    return sites, edges


def product_mass(p: float, edges: dict[int, int]) -> float:
    """Stationary mass factor p^|pos| (1-p)^|neg| of revealed edge signs."""
    pos = sum(1 for s in edges.values() if s > 0)
    return p**pos * (1.0 - p) ** (len(edges) - pos)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _within(point: float, target: float, std_error: float, z: float = Z_LIMIT) -> bool:
    if not (math.isfinite(point) and math.isfinite(std_error)):
        return False
    return abs(point - target) <= z * std_error + 1e-12


# ------------------------------------------------------ birth-death MGF


def birth_death_mgf(theta: float, t: float, v: float, r0: int) -> float:
    """E exp(theta K_t) for births at rate 1 and deaths at rate v per head.

    K_t is the sum of Binomial(r0, e^{-vt}) survivors and a Poisson number
    of arrivals with mean (1 - e^{-vt}) / v.
    """
    d = math.exp(-v * t)
    return (1.0 - d + d * math.exp(theta)) ** r0 * math.exp(
        (math.exp(theta) - 1.0) * (1.0 - d) / v
    )


def check_mgf(cfg: dict, out: Path) -> list[str]:
    rows = _read_jsonl(out / "mgf_check.jsonl")
    problems = []
    mgf_rows = [r for r in rows if r["estimator"] == "birth_death_mgf"]
    expected = len(cfg["thetas"]) * len(cfg["times"]) * len(cfg["r0_values"])
    if len(mgf_rows) != expected:
        problems.append(f"{len(mgf_rows)} mgf estimates, expected {expected}")
    for r in mgf_rows:
        prm = r["params"]
        target = birth_death_mgf(prm["theta"], prm["t"], prm["v"], prm["r0"])
        if r["replicas"] != cfg["replicas"]:
            problems.append(f"mgf {prm}: {r['replicas']} replicas, expected {cfg['replicas']}")
        if not _within(r["point"], target, r["std_error"]):
            problems.append(
                f"mgf {prm}: {r['point']} +- {r['std_error']} vs closed form {target}"
            )
    if cfg.get("check_domination"):
        dom = [r for r in rows if r["estimator"] == "revealed_weight"]
        if len(dom) != 1:
            problems.append(f"{len(dom)} revealed-weight records, expected 1")
        for r in dom:
            prm = r["params"]
            bound = birth_death_mgf(prm["theta"], prm["t"], prm["v"], 0)
            if not r["point"] <= bound + Z_LIMIT * r["std_error"]:
                problems.append(f"revealed weight {r['point']} above birth-death bound {bound}")
    return problems


# ------------------------------------------------------ stationary law


def _stationary_rows(p: float, n: int, m: int, max_revealed: int):
    """(site, site sign, edge constraints, target) for the product form."""
    for x in range(n):
        for sign in (1, -1):
            for r in range(max_revealed + 1):
                for chosen in combinations(range(m), r):
                    for signs in product((1, -1), repeat=r):
                        edges = dict(zip(chosen, signs))
                        yield x, sign, edges, 0.5 * product_mass(p, edges)


def check_stationary(cfg: dict, out: Path) -> list[str]:
    """Stationary masses of one site and a few revealed edges.

    The legend of ``stationary_distribution.csv`` says bit x is set when
    site x is +1 and bit n + e when edge e is +1; the target is
    1/2 * p^|pos| * (1-p)^|neg|.
    """
    n, edge_list = graph_edges(cfg["graph"])
    m = len(edge_list)
    p = cfg["p"]
    problems = []
    with (out / "stationary_distribution.csv").open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["state_index", "probability"]:
            return [f"stationary_distribution.csv header {header}"]
        data = [(int(s), float(q)) for s, q in reader]
    size = 1 << (n + m)
    if [s for s, _ in data] != list(range(size)):
        return [f"stationary_distribution.csv does not list states 0..{size - 1} in order"]
    pi = np.array([q for _, q in data])
    if pi.min() < 0.0 or abs(pi.sum() - 1.0) > EXACT_TOL:
        problems.append(f"stationary law has min {pi.min()} and total {pi.sum()}")
    idx = np.arange(size)
    site_bits = [(idx >> x) & 1 for x in range(n)]
    edge_bits = [(idx >> (n + e)) & 1 for e in range(m)]
    worst = 0.0
    for x, sign, edges, target in _stationary_rows(p, n, m, cfg.get("max_revealed", 2)):
        mask = site_bits[x] == (1 if sign > 0 else 0)
        for e, s in edges.items():
            mask = mask & (edge_bits[e] == (1 if s > 0 else 0))
        worst = max(worst, abs(float(pi[mask].sum()) - target))
    if worst > EXACT_TOL:
        problems.append(f"stationary site/edge mass off the product form by {worst:.3e}")
    problems += _check_stationary_mc(cfg, out)
    return problems


def _check_stationary_mc(cfg: dict, out: Path) -> list[str]:
    if cfg.get("replicas", 0) <= 0:
        return []
    problems = []
    rows = [
        r
        for r in _read_jsonl(out / "stationary_compare.jsonl")
        if r.get("estimator") == "forward_cylinder"
    ]
    if not rows:
        problems.append("no Monte Carlo stationary estimates written")
    for r in rows:
        sites, edges = parse_label(r["params"]["cylinder"])
        if len(sites) != 1:
            problems.append(f"unexpected cylinder {r['params']['cylinder']}")
            continue
        target = 0.5 * product_mass(cfg["p"], edges)
        if not _within(r["point"], target, r["std_error"]):
            problems.append(
                f"stationary mc {r['params']['cylinder']}: {r['point']} +- "
                f"{r['std_error']} vs {target}"
            )
    return problems


# ------------------------------------------------------ mu-dyn


def dense_generator(n: int, edges: list[tuple[int, int]], p: float, v: float) -> np.ndarray:
    """Dense generator of the joint chain, states packed as in the legend.

    Every site wakes at rate 1 and copies a uniformly chosen neighbor times
    the sign of the connecting edge; every edge redraws its sign at rate v,
    +1 with probability p.
    """
    m = len(edges)
    size = 1 << (n + m)
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        neighbors[a].append((b, e))
        neighbors[b].append((a, e))
    Q = np.zeros((size, size))
    for s in range(size):
        for x in range(n):
            for y, e in neighbors[x]:
                sign_y = (s >> y) & 1
                sign_e = (s >> (n + e)) & 1
                new = 1 ^ sign_y ^ sign_e  # product of two +-1 signs, as bits
                if new != (s >> x) & 1:
                    Q[s, s ^ (1 << x)] += 1.0 / len(neighbors[x])
        for e in range(m):
            bit = (s >> (n + e)) & 1
            Q[s, s ^ (1 << (n + e))] += v * (1.0 - p) if bit else v * p
    Q -= np.diag(Q.sum(axis=1))
    return Q


def dense_stationary(Q: np.ndarray) -> np.ndarray:
    """Solve pi Q = 0 with sum(pi) = 1 by least squares on the stacked system."""
    a = np.vstack([Q.T, np.ones(Q.shape[0])])
    b = np.zeros(Q.shape[0] + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def _mu_dyn_record(out: Path) -> dict:
    rows = _read_jsonl(out / "mu_dyn_estimate.jsonl")
    if len(rows) != 1 or rows[0].get("estimator") != "mu_dyn":
        raise ValueError("mu_dyn_estimate.jsonl must hold one mu_dyn record")
    return rows[0]


def check_mu_dyn_dense(cfg: dict, out: Path) -> list[str]:
    """mu-dyn estimate against the stationary law solved densely here."""
    n, edges = graph_edges(cfg["graph"])
    if n + len(edges) > 10:
        return [f"graph {cfg['graph']} too large for the dense reference"]
    pi = dense_stationary(dense_generator(n, edges, cfg["p"], cfg.get("v", 1.0)))
    idx = np.arange(pi.size)
    mask = np.ones(pi.size, dtype=bool)
    for x, s in zip(cfg["sites"], cfg.get("signs", [1] * len(cfg["sites"]))):
        mask &= ((idx >> x) & 1) == (1 if s > 0 else 0)
    target = float(pi[mask].sum())
    rec = _mu_dyn_record(out)
    if _within(rec["point"], target, rec["std_error"]):
        return []
    return [f"mu-dyn {rec['point']} +- {rec['std_error']} vs dense stationary mass {target}"]


def check_mu_dyn_half(cfg: dict, out: Path) -> list[str]:
    """At p = 1/2 the law is gauge invariant, so the mass is 2^-|sites|."""
    if cfg["p"] != 0.5:
        return [f"the 2^-|sites| target needs p = 1/2, config has {cfg['p']}"]
    target = 0.5 ** len(cfg["sites"])
    rec = _mu_dyn_record(out)
    problems = []
    if rec["replicas"] + rec["censored"] != cfg["replicas"]:
        problems.append(f"{rec['replicas']} + {rec['censored']} censored != {cfg['replicas']}")
    if not _within(rec["point"], target, rec["std_error"]):
        problems.append(f"mu-dyn {rec['point']} +- {rec['std_error']} vs 2^-|sites| = {target}")
    return problems


# ------------------------------------------------------ raw-simulate


def check_raw_simulate(cfg: dict, out: Path) -> list[str]:
    """Checkpoint rows against site marginal 1/2 and the edge marginal.

    Every edge redraws independently, so edge e is +1 at time t with
    probability p + (q0 - p) e^{-vt} and distinct edges are independent:
    pooled edge counts are binomial. Site opinions are correlated, but with
    site_plus_prob = 1/2 the global site flip is a symmetry, so each site is
    +1 with probability 1/2; the test uses per-replica means, which are
    independent across replicas. A conjunction observable must equal the
    product of its single-constraint observables in the same row.
    """
    p, v = cfg["p"], cfg.get("v", 1.0)
    q0 = cfg.get("edge_plus_prob", 0.5)
    replicas = cfg.get("replicas", 1)
    times = sorted(cfg["checkpoint_times"])
    labels = list(cfg["observables"])
    table: dict[tuple[int, float, str], float] = {}
    rows = 0
    with (out / "checkpoints.csv").open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["replica", "time", "observable_id", "value"]:
            return [f"checkpoints.csv header {reader.fieldnames}"]
        for row in reader:
            key = (int(row["replica"]), float(row["time"]), row["observable_id"])
            table[key] = float(row["value"])
            rows += 1
    expected = {(r, t, lab) for r in range(replicas) for t in times for lab in labels}
    if set(table) != expected or rows != len(expected):
        return [f"checkpoints.csv has {rows} rows, expected one per (replica, time, observable)"]
    if any(val not in (0.0, 1.0) for val in table.values()):
        return ["checkpoint values must be 0 or 1"]

    problems = []
    single_site: dict[int, tuple[str, int]] = {}
    single_edge: dict[int, tuple[str, int]] = {}
    conjunctions = []
    for lab in labels:
        sites, edges = parse_label(lab)
        if len(sites) + len(edges) == 1:
            for x, s in sites.items():
                single_site[x] = (lab, s)
            for e, s in edges.items():
                single_edge[e] = (lab, s)
        else:
            conjunctions.append((lab, sites, edges))

    for t in times:
        if single_edge:
            q = p + (q0 - p) * math.exp(-v * t)
            hits = sum(
                table[(r, t, lab)] if s > 0 else 1.0 - table[(r, t, lab)]
                for r in range(replicas)
                for lab, s in single_edge.values()
            )
            trials = replicas * len(single_edge)
            se = math.sqrt(q * (1.0 - q) / trials)
            if not _within(hits / trials, q, se):
                problems.append(f"t={t:g}: edge +1 frequency {hits / trials:.5f} vs {q:.5f}")
        if single_site and cfg.get("site_plus_prob", 0.5) == 0.5 and replicas > 2:
            means = np.array(
                [
                    np.mean(
                        [
                            table[(r, t, lab)] if s > 0 else 1.0 - table[(r, t, lab)]
                            for lab, s in single_site.values()
                        ]
                    )
                    for r in range(replicas)
                ]
            )
            limit = stats.t.isf(ALPHA / 2.0, replicas - 1)
            se = means.std(ddof=1) / math.sqrt(replicas)
            if not _within(float(means.mean()), 0.5, se, z=limit):
                problems.append(
                    f"t={t:g}: site +1 frequency {means.mean():.5f} +- {se:.5f} vs 0.5"
                )

    for lab, sites, edges in conjunctions:
        parts = [(single_site.get(x), s) for x, s in sites.items()]
        parts += [(single_edge.get(e), s) for e, s in edges.items()]
        if any(part is None for part, _ in parts):
            continue
        for r in range(replicas):
            for t in times:
                value = 1.0
                for (single_lab, single_sign), want in parts:
                    hit = table[(r, t, single_lab)]
                    value *= hit if single_sign == want else 1.0 - hit
                if table[(r, t, lab)] != value:
                    problems.append(f"replica {r} t={t:g}: {lab} disagrees with its parts")
                    break
    return problems


# ------------------------------------------------------ duality


def check_gap_table(cfg: dict, out: Path) -> list[str]:
    """Exact duality gap table: size, gaps and normalization of the lhs.

    Dual states are mixed-radix integers: k position digits base |V|, then k
    sign bits, then one base-3 digit per edge. With nothing revealed the lhs
    is P(sites at the walker positions carry the walker signs), so over the
    2^k sign patterns of one placement it sums to 1.
    """
    n, edge_list = graph_edges(cfg["graph"])
    k = cfg.get("k", 1)
    size = n**k * 2**k * 3 ** len(edge_list)
    tol = cfg.get("tolerance", 1e-8)
    rows = _read_jsonl(out / "duality_gaps.jsonl")
    if [r["dual_state"] for r in rows] != list(range(size)):
        return [f"gap table has {len(rows)} rows, expected dual states 0..{size - 1}"]
    lhs = np.array([r["lhs"] for r in rows])
    rhs = np.array([r["rhs"] for r in rows])
    gap = np.array([r["gap"] for r in rows])
    problems = []
    worst = float(np.max(np.abs(lhs - rhs)))
    if not worst <= tol:
        problems.append(f"worst |lhs - rhs| = {worst:.3e} above tolerance {tol:g}")
    if not np.allclose(gap, np.abs(lhs - rhs), rtol=0.0, atol=1e-15):
        problems.append("gap column differs from |lhs - rhs|")
    placements = n**k
    sums = lhs[: placements * 2**k].reshape(2**k, placements).sum(axis=0)
    off = float(np.max(np.abs(sums - 1.0)))
    if off > EXACT_TOL:
        problems.append(f"unrevealed lhs over sign patterns sums to 1 +- {off:.3e}")
    return problems


def check_duality_mc(cfg: dict, out: Path) -> list[str]:
    rows = {r["estimator"]: r for r in _read_jsonl(out / "duality_mc.jsonl")}
    if set(rows) != {"forward_cylinder", "dual_side"}:
        return [f"duality_mc.jsonl holds {sorted(rows)}"]
    fwd, dual = rows["forward_cylinder"], rows["dual_side"]
    pooled = math.hypot(fwd["std_error"], dual["std_error"])
    if _within(fwd["point"], dual["point"], pooled):
        return []
    return [f"forward {fwd['point']} vs dual {dual['point']} beyond {Z_LIMIT:.2f} pooled sigma"]


# ------------------------------------------------------ total variation


def _initial_edge_signs(cfg: dict, m: int) -> list[int]:
    if "initial_file" not in cfg:
        return [-1] * m  # tv-decay's default start is all -1
    lines = [
        ln.strip()
        for ln in Path(cfg["initial_file"]).read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    return [1 if ch == "+" else -1 for ch in lines[1]]


def edge_tv(signs: list[int], p: float, v: float, t: float) -> float:
    """TV between the edge laws started from ``signs`` and from their flip.

    Edges evolve independently, so both laws are products of Bernoulli
    marginals; the sum runs over every edge configuration.
    """
    decay = math.exp(-v * t)
    a = np.array([p + ((1.0 if s > 0 else 0.0) - p) * decay for s in signs])
    b = np.array([p + ((0.0 if s > 0 else 1.0) - p) * decay for s in signs])
    m = len(signs)
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    pa = np.prod(np.where(bits == 1, a, 1.0 - a), axis=1)
    pb = np.prod(np.where(bits == 1, b, 1.0 - b), axis=1)
    return 0.5 * float(np.abs(pa - pb).sum())


def check_tv_exact(cfg: dict, out: Path) -> list[str]:
    n, edge_list = graph_edges(cfg["graph"])
    with (out / "tv_decay.csv").open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["t", "total_variation"]:
            return [f"tv_decay.csv header {reader.fieldnames}"]
        curve = [(float(r["t"]), float(r["total_variation"])) for r in reader]
    steps = int(round(cfg["t_max"] / cfg["t_step"]))
    if len(curve) != steps + 1:
        return [f"tv curve has {len(curve)} points, expected {steps + 1}"]
    problems = []
    if abs(curve[0][1] - 1.0) > EXACT_TOL:
        problems.append(f"TV(0) = {curve[0][1]}, expected 1")
    signs = _initial_edge_signs(cfg, len(edge_list))
    for i, (t, tv) in enumerate(curve):
        if abs(t - i * cfg["t_step"]) > 1e-12:
            problems.append(f"grid point {i} at t={t}")
        if not 0.0 <= tv <= 1.0 + EXACT_TOL:
            problems.append(f"TV({t:g}) = {tv} outside [0, 1]")
        if i and tv > curve[i - 1][1] + 1e-10:
            problems.append(f"TV rises from {curve[i - 1][1]} to {tv} at t={t:g}")
        floor = edge_tv(signs, cfg["p"], cfg.get("v", 1.0), t)
        if tv < floor - EXACT_TOL:
            problems.append(f"TV({t:g}) = {tv} below the edge-marginal TV {floor}")
    return problems


CHECKS = {
    "mgf": check_mgf,
    "stationary": check_stationary,
    "mu_dyn_dense": check_mu_dyn_dense,
    "mu_dyn_half": check_mu_dyn_half,
    "raw_simulate": check_raw_simulate,
    "gap_table": check_gap_table,
    "duality_mc": check_duality_mc,
    "tv_exact": check_tv_exact,
}


def same_files(dir_a: Path, dir_b: Path) -> list[str]:
    """Problems if two output directories differ in any file name or byte."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"{dir_b.name}: files {names_b} differ from {names_a}"]
    return [
        f"{dir_b.name}/{name} differs in bytes"
        for name in names_a
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
    ]
