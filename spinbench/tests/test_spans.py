"""The tracer records nested spans and counts, and puts every original back."""

from __future__ import annotations

import contextlib
import io
import json

import spinbond.estimators
import spinbond.forward
from spans import Tracer
from spinbond import cli


def test_traced_run_counts_and_restores(tmp_path):
    cfg = {"experiment": "raw-simulate", "seed": 1, "graph": "cycle:6", "p": 0.3, "v": 1.0,
           "t_max": 2.0, "checkpoint_times": [1.0, 2.0], "observables": ["site0=+1"],
           "replicas": 5, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(cfg))
    original = spinbond.forward.simulate_forward

    tracer = Tracer()
    tracer.install()
    try:
        assert spinbond.forward.simulate_forward is not original
        assert spinbond.estimators.simulate_forward is spinbond.forward.simulate_forward
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(path)]) == 0
    finally:
        tracer.uninstall()

    assert spinbond.forward.simulate_forward is original
    assert spinbond.estimators.simulate_forward is original
    table = tracer.span_table()
    assert table["cli.main"]["calls"] == 1
    assert table["forward.simulate_forward"]["calls"] == 5
    assert table["rng.substream"]["calls"] == 5
    assert table["cylinders.matches"]["calls"] == 10
    for row in table.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-12
    # The CLI span holds everything else, so its self time is the rest.
    inner = sum(row["self_s"] for name, row in table.items() if name != "cli.main")
    assert abs(table["cli.main"]["total_s"] - table["cli.main"]["self_s"] - inner) < 1e-6
    metrics = tracer.layer_metrics()
    assert metrics["forward.calls"] == {"value": 5, "unit": "count"}
    assert metrics["forward.events"]["value"] > 0
    written = (tmp_path / "out" / "checkpoints.csv").stat().st_size
    assert metrics["experiments.bytes_written"] == {"value": written, "unit": "bytes"}
