"""`cli.run` forces no garbage collection, and raises the collector's first
threshold while a batch runs: reference counting alone must free what the
analysis of an app and the rendering of its report allocate.  A reference
cycle, such as an engine record that points back at its context, would
leave garbage that only the collector finds, and a long batch would hold it
until then.  The caller's thresholds come back however the batch ends."""

import gc
import io
import itertools
import json
import os

import pytest

from lifetaint import analyze_app, cli, load_app
from lifetaint.detectors import render_report
from lifetaint.ir import app_from_dict

from conftest import ROOT, all_corpus_paths
from oracles import random_heap_doc


@pytest.fixture()
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_analysis_leaves_no_cyclic_garbage(models, config, tmp_path, monkeypatch,
                                           collector_off):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    batches = [(all_corpus_paths(), 3)] + [
        (gen.write_family(family, 1, str(tmp_path / family)), gen.FAMILIES[family].m_max)
        for family in ("wide", "deep")]
    left = {}
    for paths, m_max in batches:
        for path in paths:
            app = load_app(path)
            gc.collect()  # only what the analysis leaves is counted
            analyze_app(app, models, config, m_max)
            left[os.path.basename(path)] = gc.collect()
    assert len(left) == 23
    assert left == dict.fromkeys(left, 0)


def test_a_batch_leaves_no_cyclic_garbage(tmp_path, monkeypatch, collector_off):
    # the whole of `cli.run`: loading, planning, the analysis, dedup and
    # rendering each report
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    batches = {"corpus": (all_corpus_paths(), 3)}
    for family in ("wide", "deep"):
        batches[family] = (gen.write_family(family, 1, str(tmp_path / family)),
                           gen.FAMILIES[family].m_max)
    left = {}
    for name, (paths, m_max) in batches.items():
        gc.collect()
        assert cli.run(cli.RunConfig(paths, m_max=m_max, out=io.StringIO())) == 0
        left[name] = gc.collect()
    assert left == {"corpus": 0, "wide": 0, "deep": 0}


def out_at_read(n):
    """A clock whose budget runs out at its n-th read."""
    reads = itertools.count(1)
    return lambda: 0.0 if next(reads) < n else 1e9


def test_a_budget_killed_wide_app_leaves_no_cyclic_garbage(models, config, tmp_path,
                                                           monkeypatch, collector_off):
    # frames that share a heap refer to each other through their group; a
    # run killed at any clock read must leave none of them in a cycle
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    app = load_app(gen.write_family("wide", 1, str(tmp_path))[0])
    left = {}
    for read in (3, 4, 5, 8, 13, 40, 150, 600):
        gc.collect()
        report = analyze_app(app, models, config, gen.WIDE.m_max, 1.0, out_at_read(read))
        assert not report.finished
        left[read] = gc.collect()
    assert left == dict.fromkeys(left, 0)


def test_a_kill_while_frames_share_a_heap_leaves_no_cyclic_garbage(models, config,
                                                                  collector_off):
    # the target arm writes, then its two exits share its heap; the entry's
    # fallthrough, run last, calls a method whose budget check kills the run
    # while that group is held
    on_create = [
        ["CONST_NUM", "c", 1],
        ["IF_GOTO", "c", "t"],
        ["INVOKE_VIRTUAL", None, "this", "Main.helper/0", []],
        ["RETURN_VOID"],
        ["IPUT", "this", "f", "c"],     # t
        ["IF_GOTO", "c", "t2"],
        ["RETURN_VOID"],
        ["RETURN_VOID"],                # t2
    ]
    app = app_from_dict({
        "app_id": "kill",
        "classes": [{"name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
                     "methods": [
                         {"sig": "onCreate/1", "params": ["this", "savedState"],
                          "instructions": on_create, "labels": {"t": 4, "t2": 7}},
                         {"sig": "helper/0", "params": ["this"],
                          "instructions": [["RETURN_VOID"]]}]}],
        "components": [{"class": "Main", "kind": "ACTIVITY",
                        "aui_callbacks": [], "misc_callbacks": []}],
    })
    left, killed = {}, 0
    for read in range(1, 12):
        gc.collect()
        killed += not analyze_app(app, models, config, 1, 1.0, out_at_read(read)).finished
        left[read] = gc.collect()
    assert killed >= 5
    assert left == dict.fromkeys(left, 0)


class _ClosedOut(io.StringIO):
    """An output stream whose reader went away."""

    def write(self, text):
        raise BrokenPipeError()


# how a batch ends: (RunConfig arguments, what the app's analysis raises or
# None, the output stream, the exit status or the exception that ends run)
BATCH_ENDS = {
    "finished": ({}, None, io.StringIO, 0),
    "an app raises": ({}, RuntimeError("boom"), io.StringIO, 0),
    "an app is killed": ({"budget_secs": 1e-9}, None, io.StringIO, 2),
    "stdout closes": ({}, None, _ClosedOut, BrokenPipeError),
    "interrupted": ({}, KeyboardInterrupt(), io.StringIO, KeyboardInterrupt),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("end", sorted(BATCH_ENDS))
def test_a_batch_gives_back_the_callers_collector_settings(end, enabled, monkeypatch):
    kwargs, raised, out, status = BATCH_ENDS[end]
    seen = []
    real_analyze = cli.analyze_app

    def analyze(*args):
        seen.append((gc.get_threshold(), gc.isenabled()))
        if raised is not None:
            raise raised
        return real_analyze(*args)

    monkeypatch.setattr(cli, "analyze_app", analyze)
    config = cli.RunConfig([os.path.join(ROOT, "corpus", "motivating_example.app")],
                           out=out(), **kwargs)
    before, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 12, 9)
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(status, int):
            assert cli.run(config) == status
        else:
            with pytest.raises(status):
                cli.run(config)
        after = gc.get_threshold(), gc.isenabled()
    finally:
        gc.set_threshold(*before)
        (gc.enable if was_enabled else gc.disable)()
    assert after == ((700, 12, 9), enabled)
    # while the app runs, only generation 0's threshold is raised
    assert seen == [((cli.BATCH_GC_THRESHOLD, 12, 9), enabled)]


# the random heap apps of seeds 0-299 whose analysis leaves cyclic garbage
CYCLIC_SEEDS = (31, 69, 70, 81, 103, 109, 116, 172, 194, 221, 274, 280, 288, 294)


def test_a_batch_that_leaves_cyclic_garbage(models, config, tmp_path):
    # the reports are those of each app alone, and the collector still finds
    # the garbage: during the batch, or at the first collection after it
    paths = []
    for seed in CYCLIC_SEEDS:
        path = tmp_path / ("h%d.app" % seed)
        path.write_text(json.dumps(random_heap_doc(seed)))
        paths.append(str(path))
    expected = "".join(render_report(analyze_app(load_app(p), models, config), "json") + "\n"
                       for p in paths)

    def left_by_batch():
        collected = []

        def count(phase, info):
            if phase == "stop":
                collected.append(info["collected"])

        out = io.StringIO()
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert cli.run(cli.RunConfig(paths, out=out)) == 0
            gc.collect()
        finally:
            gc.callbacks.remove(count)
        assert out.getvalue() == expected
        return sum(collected)

    garbage = left_by_batch()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert left_by_batch() == garbage
    finally:
        if enabled:
            gc.enable()
    assert garbage >= len(CYCLIC_SEEDS)
