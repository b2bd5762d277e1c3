"""`cli.run` forces no garbage collection: reference counting alone must free
what the analysis of an app and the rendering of its report allocate.  A
reference cycle, such as an engine record that points back at its context,
would leave garbage that only the collector finds, and a long batch would
hold it until then."""

import gc
import io
import itertools
import os

import pytest

from lifetaint import analyze_app, cli, load_app
from lifetaint.ir import app_from_dict

from conftest import ROOT, all_corpus_paths


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
