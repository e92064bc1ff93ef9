"""Each output check passes on real program output and rejects a corrupted copy.

Run with ``python3 -m pytest spinbench/tests -q`` from the repository root.
The outputs come from small configs run through the CLI, so the whole file
takes a few seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import pytest

import checks
from spinbond import cli


def run_config(tmp_path: Path, name: str, cfg: dict) -> tuple[dict, Path]:
    out = tmp_path / name
    cfg = dict(cfg, output_dir=str(out))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path)]) in (0, 1)
    return cfg, out


def rewrite_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def rewrite_csv(path: Path, edit) -> None:
    with path.open() as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Small real outputs of every experiment kind, made once."""
    base = tmp_path_factory.mktemp("outputs")
    specs = {
        "mgf": {"experiment": "mgf-check", "seed": 1, "v": 1.0, "thetas": [-1.0, 0.5],
                "times": [1.0], "r0_values": [0, 3], "replicas": 4000,
                "check_domination": True, "graph": "path:3", "p": 0.3, "t": 2.0},
        "stationary": {"experiment": "stationary-compare", "seed": 1, "graph": "path:3",
                       "p": 0.3, "v": 1.0, "max_revealed": 2, "replicas": 500,
                       "mc_time": 10.0},
        "mu_dyn_dense": {"experiment": "mu-dyn", "seed": 1, "graph": "complete:2", "p": 0.3,
                         "v": 1.0, "sites": [0, 1], "replicas": 4000},
        "mu_dyn_half": {"experiment": "mu-dyn", "seed": 1, "graph": "cycle:9", "p": 0.5,
                        "v": 1.0, "oracle": "off", "sites": [0, 4], "replicas": 2000},
        "raw_simulate": {"experiment": "raw-simulate", "seed": 1, "graph": "cycle:6", "p": 0.3,
                         "v": 1.0, "t_max": 2.0, "checkpoint_times": [0.5, 2.0],
                         "observables": ["site0=+1", "site3=+1", "edge0=+1", "edge2=-1",
                                         "site0=+1&edge0=+1"],
                         "site_plus_prob": 0.5, "edge_plus_prob": 0.9, "replicas": 300},
        "gap_table": {"experiment": "duality-check", "seed": 1, "graph": "complete:2",
                      "p": 0.3, "v": 1.0, "k": 2, "t": 1.0, "tolerance": 1e-8},
        "duality_mc": {"experiment": "duality-check", "seed": 1, "graph": "path:3", "p": 0.3,
                       "v": 1.0, "k": 2, "t": 1.0, "oracle": "off", "replicas": 3000},
        "tv_exact": {"experiment": "tv-decay", "seed": 1, "graph": "path:3", "p": 0.3,
                     "v": 1.0, "t_max": 10.0, "t_step": 0.5, "threshold": 0.01},
    }
    return {name: run_config(base, name, cfg) for name, cfg in specs.items()}


@pytest.fixture
def output(outputs, tmp_path, request):
    """A private copy of one experiment's output, safe to corrupt."""
    cfg, out = outputs[request.param]
    copy = tmp_path / out.name
    shutil.copytree(out, copy)
    return request.param, cfg, copy


def check(name, cfg, out):
    return checks.CHECKS[name](cfg, out)


@pytest.mark.parametrize("output", sorted(checks.CHECKS), indirect=True)
def test_clean_output_passes(output):
    name, cfg, out = output
    assert check(name, cfg, out) == []


@pytest.mark.parametrize("output", ["mgf"], indirect=True)
def test_mgf_rejects_perturbed_estimate(output):
    name, cfg, out = output
    rewrite_jsonl(out / "mgf_check.jsonl", lambda rows: rows[1].update(point=rows[1]["point"] * 1.1))
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["mgf"], indirect=True)
def test_mgf_rejects_broken_domination(output):
    name, cfg, out = output

    def edit(rows):
        rows[-1]["point"] = rows[-1]["bound"] * 1.5

    rewrite_jsonl(out / "mgf_check.jsonl", edit)
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["stationary"], indirect=True)
def test_stationary_rejects_perturbed_probability_row(output):
    name, cfg, out = output

    def edit(rows):  # move mass between two states; the total stays 1
        rows[1][1] = repr(float(rows[1][1]) + 1e-6)
        rows[2][1] = repr(float(rows[2][1]) - 1e-6)

    rewrite_csv(out / "stationary_distribution.csv", edit)
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["stationary"], indirect=True)
def test_stationary_rejects_missing_state(output):
    name, cfg, out = output
    rewrite_csv(out / "stationary_distribution.csv", lambda rows: rows.pop())
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["stationary"], indirect=True)
def test_stationary_rejects_shifted_monte_carlo_estimate(output):
    name, cfg, out = output

    def edit(rows):
        mc = [r for r in rows if r.get("estimator") == "forward_cylinder"]
        mc[3]["point"] += 6 * mc[3]["std_error"]

    rewrite_jsonl(out / "stationary_compare.jsonl", edit)
    problems = check(name, cfg, out)
    assert any(p.startswith("stationary mc ") for p in problems)


@pytest.mark.parametrize("output", ["mu_dyn_dense", "mu_dyn_half"], indirect=True)
def test_mu_dyn_rejects_shifted_estimate(output):
    name, cfg, out = output

    def edit(rows):
        rows[0]["point"] += 8 * rows[0]["std_error"]

    rewrite_jsonl(out / "mu_dyn_estimate.jsonl", edit)
    assert check(name, cfg, out)


def _edit_raw(out: Path, flip) -> None:
    def edit(rows):
        for row in rows[1:]:
            if flip(row[2]):
                row[3] = "1.0" if row[3] == "0.0" else "0.0"

    rewrite_csv(out / "checkpoints.csv", edit)


@pytest.mark.parametrize("output", ["raw_simulate"], indirect=True)
def test_raw_rejects_flipped_edge_marginal(output):
    name, cfg, out = output
    _edit_raw(out, lambda label: label.startswith("edge"))
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["raw_simulate"], indirect=True)
def test_raw_rejects_biased_site_marginal(output):
    name, cfg, out = output

    def edit(rows):
        for row in rows[1:]:
            if row[2].startswith("site") and "&" not in row[2] and int(row[0]) % 3 == 0:
                row[3] = "1.0"

    rewrite_csv(out / "checkpoints.csv", edit)
    problems = check(name, cfg, out)
    assert any("site +1 frequency" in p for p in problems)


@pytest.mark.parametrize("output", ["raw_simulate"], indirect=True)
def test_raw_rejects_duplicated_row(output):
    name, cfg, out = output
    rewrite_csv(out / "checkpoints.csv", lambda rows: rows.append(rows[-1]))
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["raw_simulate"], indirect=True)
def test_raw_rejects_inconsistent_conjunction(output):
    name, cfg, out = output
    _edit_raw(out, lambda label: label == "site0=+1&edge0=+1")
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["gap_table"], indirect=True)
def test_gap_table_rejects_widened_gap(output):
    name, cfg, out = output

    def edit(rows):
        rows[7]["rhs"] += 1e-6
        rows[7]["gap"] = abs(rows[7]["lhs"] - rows[7]["rhs"])

    rewrite_jsonl(out / "duality_gaps.jsonl", edit)
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["gap_table"], indirect=True)
def test_gap_table_rejects_unnormalized_lhs(output):
    name, cfg, out = output

    def edit(rows):  # both sides moved together: the gap stays 0
        rows[0]["lhs"] += 1e-3
        rows[0]["rhs"] += 1e-3

    rewrite_jsonl(out / "duality_gaps.jsonl", edit)
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["gap_table"], indirect=True)
def test_gap_table_rejects_missing_row(output):
    name, cfg, out = output
    rewrite_jsonl(out / "duality_gaps.jsonl", lambda rows: rows.pop(5))
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["duality_mc"], indirect=True)
def test_duality_mc_rejects_shifted_dual_side(output):
    name, cfg, out = output

    def edit(rows):
        rows[1]["point"] += 0.2

    rewrite_jsonl(out / "duality_mc.jsonl", edit)
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["tv_exact"], indirect=True)
def test_tv_rejects_rising_curve(output):
    name, cfg, out = output

    def edit(rows):
        rows[5][1] = repr(float(rows[4][1]) + 1e-3)

    rewrite_csv(out / "tv_decay.csv", edit)
    assert check(name, cfg, out)


@pytest.mark.parametrize("output", ["tv_exact"], indirect=True)
def test_tv_rejects_curve_below_edge_marginal_tv(output):
    name, cfg, out = output

    def edit(rows):  # still non-increasing, but too small
        for row in rows[3:]:
            row[1] = "0.0"

    rewrite_csv(out / "tv_decay.csv", edit)
    problems = check(name, cfg, out)
    assert any("below the edge-marginal TV" in p for p in problems)


@pytest.mark.parametrize("output", ["tv_exact"], indirect=True)
def test_tv_rejects_wrong_start(output):
    name, cfg, out = output
    rewrite_csv(out / "tv_decay.csv", lambda rows: rows[1].__setitem__(1, "0.9"))
    assert check(name, cfg, out)


def test_same_files_rejects_a_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.csv").write_text("t,v\n0,1\n")
    (b / "x.csv").write_text("t,v\n0,1\n")
    assert checks.same_files(a, b) == []
    (b / "x.csv").write_text("t,v\n0,2\n")
    assert checks.same_files(a, b)
    (b / "y.csv").write_text("")
    assert checks.same_files(a, b)


def test_dense_stationary_matches_product_form():
    """The dense reference solve reproduces the known single-site law."""
    import numpy as np

    n, edges = checks.graph_edges("path:3")
    pi = checks.dense_stationary(checks.dense_generator(n, edges, 0.3, 1.0))
    idx = np.arange(pi.size)
    site0_plus_edge0_plus = pi[((idx & 1) == 1) & (((idx >> n) & 1) == 1)].sum()
    assert abs(pi.sum() - 1.0) < 1e-12
    assert abs(site0_plus_edge0_plus - 0.5 * 0.3) < 1e-12
