"""The value types: immutable records stay immutable, hash as their items,
and every loaded or built object survives a pickle round trip."""

import pickle

import pytest

from lifetaint import analyze_app, load_app
from lifetaint.analysis import AnalysisContext, analyze_component
from lifetaint.detectors import render_report
from lifetaint.lifecycle import Guard, Step
from lifetaint.sequences import Segment, build_plan, generate_m_way, receiver_plan
from lifetaint.symbols import TaintTag

from conftest import all_corpus_paths, corpus_app


def immutable_records(models):
    """One instance of each immutable record type."""
    app = corpus_app("motivating_example")
    component = app.components[0]
    activity = models["ACTIVITY"]
    plan = build_plan(activity, component)
    return [
        TaintTag("getDeviceId", ("C", "m/0", 1)),
        Segment("createActivity", ("onCreate",)),
        Step("createActivity", ("onCreate",)),
        component.klass.methods[0].instructions[0],
        Guard(),
        activity.transitions[0],
        activity.states[activity.initial],
        plan.units[0],
        plan,
        next(generate_m_way(plan, 1)),
    ]


class TestImmutableRecords:
    def test_ten_types(self, models):
        assert len({type(r) for r in immutable_records(models)}) == 10

    def test_fields_cannot_be_assigned(self, models):
        for record in immutable_records(models):
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_taint_tag_hashes_as_its_items(self):
        # taint sets iterate in hash order, so the hash is part of the behaviour
        location = ("C", "m/0", 3)
        assert hash(TaintTag("getDeviceId", location)) == hash(("getDeviceId", location))


def report_of(app, models, config):
    return render_report(analyze_app(app, models, config, m_max=3), "json")


class TestPickle:
    @pytest.mark.parametrize("path", all_corpus_paths())
    def test_loaded_app_and_models(self, path, models, config):
        app = load_app(path)
        expected = report_of(app, models, config)
        clone_app = pickle.loads(pickle.dumps(app))
        clone_models = pickle.loads(pickle.dumps(models))
        assert report_of(clone_app, clone_models, config) == expected

    @pytest.mark.parametrize("path", all_corpus_paths())
    def test_built_plans(self, path, models, config):
        app = load_app(path)

        def warnings(plans):
            ctx = AnalysisContext(app, config)
            for component, plan in zip(app.components, plans):
                for m in range(1, min(len(plan.units), 2) + 1):
                    analyze_component(app, component, plan, m, ctx)
            return [w.to_dict() for w in ctx.warnings]

        plans = [receiver_plan(c) if c.kind == "RECEIVER" else build_plan(models[c.kind], c)
                 for c in app.components]
        clones = pickle.loads(pickle.dumps(plans))
        assert clones == plans
        assert warnings(clones) == warnings(plans)
