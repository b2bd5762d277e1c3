"""`cli.run` forces no garbage collection: reference counting alone must free
what the analysis of an app allocates.  A reference cycle, such as an engine
record that points back at its context, would leave garbage that only the
collector finds, and a long batch would hold it until then."""

import gc
import os

import pytest

from lifetaint import analyze_app, load_app

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
