"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the analyzer's own test run (pytest collects
`test_*.py`); they take about half a minute, most of it one untraced and one
traced pass per workload.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from lifetaint.ir import load_app  # noqa: E402

SEED = 11

# boundaries a workload does not reach: no generated app has a receiver
UNREACHED = {"corpus": set(), "wide": {"cli.receiver_plan"}, "deep": {"cli.receiver_plan"}}


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("family", sorted(gen.FAMILIES))
def test_generator_is_deterministic_and_valid(family, tmp_path):
    first = gen.write_family(family, SEED, str(tmp_path / "a"))
    gen.write_family(family, SEED, str(tmp_path / "b"))
    gen.write_family(family, SEED + 1, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    expected = json.loads((tmp_path / "a" / "expected.json").read_text())
    shape = gen.FAMILIES[family]
    assert sum(1 for v in expected.values() if v["warnings"]) == shape.leaky
    for path in first:
        app = load_app(path)
        assert app.app_id in expected


class Traced:
    """One untraced and one traced pass of a workload."""

    def __init__(self, workload, workdir):
        with open(run.prepare(workload, SEED, workdir), encoding="utf-8") as fh:
            self.batch = json.load(fh)
        self.runner = worker.Runner(self.batch)
        self.runner.one_pass()
        with tracer.Tracer() as tr:
            self.pass_s = self.runner.one_pass(wrap=tr.run_pass)[0]
        self.tracer = tr


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request, tmp_path_factory):
    return Traced(request.param, str(tmp_path_factory.mktemp(request.param)))


def test_verdicts_and_reports_match_untraced(traced):
    # both passes were checked against the expected verdicts, and their
    # JSON reports hashed: tracing must not change a byte
    assert traced.runner.failed == 0, traced.runner.problems
    assert len(traced.runner.digests) == 1


def test_every_boundary_is_reached(traced):
    calls, _, counts = traced.tracer.totals()
    missing = {name for name, n in calls.items() if n == 0}
    assert missing == UNREACHED[traced.batch["workload"]]
    for counted in ("analysis.instructions", "api_handlers.lookups"):
        assert counts[counted] > 0


def test_self_times_fit_in_the_pass(traced):
    _, self_s, _ = traced.tracer.totals()
    layers = sum(s for name, s in self_s.items() if name != "pass")
    assert 0 < layers <= traced.batch["jobs"] * traced.pass_s


def test_per_layer_metrics_are_all_named(traced):
    metrics = tracer.per_layer_metrics(traced.tracer, traced.batch["jobs"], traced.pass_s)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        named = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(metrics) == sorted(named)


def test_split_reports_round_trip():
    docs = [{"app_id": "a", "warnings": []}, {"app_id": "b", "warnings": [{"k": 1}]}]
    text = "".join(json.dumps(d, indent=2) + "\n" for d in docs)
    assert worker.split_reports(text) == docs
