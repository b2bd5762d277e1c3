"""The benchmark's tracer still fits the program.

perfbench/tracer.py wraps functions at the bindings the program calls
through and walks symbol spaces; a refactor that drops such a binding or
reshapes an entry would break `perfbench/run.py --trace 1` without this.
"""

import io
import os

from lifetaint.cli import RunConfig, run
from lifetaint.symbols import SymbolSpace, fresh_entry, value_entry

from conftest import ROOT, corpus_path

# sms_autoreply is the only corpus app with a receiver component
APPS = [corpus_path("motivating_example"), corpus_path("sms_autoreply")]


def run_text():
    out = io.StringIO()
    assert run(RunConfig(app_paths=APPS, out=out)) == 0
    return out.getvalue()


def test_traced_pass_calls_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracer

    untraced = run_text()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced, seconds = tr.run_pass(run_text)
    finally:
        tr.remove()
    calls, _, counts = tr.totals()
    assert [name for name in tracer.SPANS if not calls[name]] == []
    assert counts["symbols.sampled_copies"] > 0
    assert traced == untraced
    assert seconds < 1.0


def test_count_details_counts_each_object_once(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracer

    # a.next.next is a; `a` is bound twice and `b` is also a static.  The
    # space has no caller tables (`outer`), which the count does not walk.
    a, b, c = fresh_entry(), fresh_entry(), fresh_entry()
    a.fields["next"] = b
    b.fields["next"] = a
    b.fields["name"] = value_entry((), "text")
    space = SymbolSpace({"a": a, "alias": a}, {"S.b": b, "S.c": c})
    space.returned = value_entry()
    assert tracer._count_details(space) == 5
    assert tracer._count_details(space.deep_copy()) == 5
