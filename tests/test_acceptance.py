"""Acceptance criteria, one test per criterion, one printed line each."""

import io
import math
import sys
import time

from lifetaint.analysis import AnalysisContext
from lifetaint.cfg import build_cfg, remove_back_edges, reverse_post_order
from lifetaint.cli import RunConfig, analyze_app, run
from lifetaint.detectors import Warning, dedup_warnings
from lifetaint.ir import load_app
from lifetaint.sequences import (
    PermutationPlan, PermutationUnit, Segment, build_plan, generate_m_way,
)
from lifetaint.symbols import MUTABLE_REF, bind_copy, collect_taints, fresh_entry, TaintTag

from conftest import all_corpus_paths, corpus_app
from oracles import (
    callback_sequences, callbacks_of, event_sequences, replay_events, run_sequence, sequence_of,
)

GET_DEVICE_ID = "TelephonyManager.getDeviceId/0"
SEND_TEXT = "SmsManager.sendTextMessage/5"


def report_line(number, ok, text):
    print("criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", text),
          file=sys.stderr)
    assert ok, text


def full_service_component():
    from test_sequences import SERVICE_CALLBACKS, component_with
    return component_with(SERVICE_CALLBACKS, kind="SERVICE")


def test_criterion_1_sequence_counts(models):
    started = time.monotonic()
    activity = len(event_sequences(models["ACTIVITY"]))
    service = len(event_sequences(models["SERVICE"]))
    dedup = len(callback_sequences(models["SERVICE"], full_service_component()))
    elapsed = time.monotonic() - started
    ok = activity == 26 and service == 15 and dedup == 10 and elapsed < 1.0
    report_line(1, ok,
                "activity=%d/26 service=%d/15 service-callbacks=%d/10 in %.3fs"
                % (activity, service, dedup, elapsed))


def test_criterion_2_motivating_example(models, config):
    started = time.monotonic()
    app = corpus_app("motivating_example")
    comp = app.components[0]
    twelve = len(callback_sequences(models["ACTIVITY"], comp))

    rep1 = analyze_app(app, models, config, m_max=1)
    rep2 = analyze_app(app, models, config, m_max=2)
    leak = [w for w in rep2.warnings if w.kind == "INFO_LEAK"]
    has_leak = (len(leak) >= 1
                and leak[0].source_apis == frozenset({GET_DEVICE_ID})
                and leak[0].sink_api == SEND_TEXT)

    pattern = ["onUserLeaveHint", "onUserLeaveHint", "onSaveInstanceState",
               "onRestoreInstanceState", "onResume"]

    def contains(callbacks):
        it = iter(callbacks)
        return all(any(c == want for c in it) for want in pattern)

    plan = build_plan(models["ACTIVITY"], comp)
    equivalence = True
    for seq in generate_m_way(plan, 2):
        ctx = AnalysisContext(app, config)
        run_sequence(comp, seq, ctx)
        warned = any(w.kind == "INFO_LEAK" for w in ctx.warnings)
        if warned != contains(callbacks_of(seq.segments)):
            equivalence = False
            break
    elapsed = time.monotonic() - started
    ok = (twelve == 12 and rep1.warnings == [] and has_leak and equivalence
          and elapsed < 10.0)
    report_line(2, ok,
                "sequences=%d/12 m1-warnings=%d m2-leak=%s detector~pattern=%s in %.2fs"
                % (twelve, len(rep1.warnings), has_leak, equivalence, elapsed))


TABLE7 = [
    ("activity_eveseq1", ("createActivity",)),
    ("activity_eveseq2", ("createActivity", "hideActivityPartially", "savStop",
                          "savRestart", "savStop")),
    ("activity_eveseq3", ("createActivity", "hideActivityPartially", "gotoActivity",
                          "overlapActivity", "restartActivity", "confPR")),
    ("service_eveseq1", ("createAndStart", "bind", "start")),
    ("service_eveseq2", ("createAndStart", "bind", "unbind", "bind")),
    ("service_eveseq3", ("createAndBind", "unbindAndDestroy")),
]


def _replay_column_triggers(app, comp, model, column, config):
    """Flatten the column's event sequence to the component's callbacks and
    run it directly; the documented attack sequence must fire the warning."""
    paths = replay_events(model, column)
    if not paths:
        return False
    implemented = {m.name for m in comp.klass.methods}
    segments = tuple(
        Segment(step.event, tuple(cb for cb in step.callbacks if cb in implemented))
        for step in paths[0]
    )
    seq = sequence_of((0,), segments)
    ctx = AnalysisContext(app, config)
    run_sequence(comp, seq, ctx)
    return any(w.kind == "INFO_LEAK" for w in ctx.warnings)


def test_criterion_3_table7_apps(models, config):
    failures = []
    for name, column in TABLE7:
        app = corpus_app(name)
        comp = app.components[0]
        report = analyze_app(app, models, config, m_max=2)
        leaks = [w for w in report.warnings if w.kind == "INFO_LEAK"]
        if not leaks:
            failures.append("%s: no warning" % name)
            continue
        w = leaks[0]
        if w.m > 2 or w.source_apis != frozenset({GET_DEVICE_ID}):
            failures.append("%s: wrong warning shape" % name)
            continue
        if name == "activity_eveseq3":
            # the attack needs two permutation units, so the minimal detecting
            # sequence is not literally the documented one; instead the
            # documented event sequence must itself trigger the leak
            model = models[comp.kind]
            if w.m != 2 or not _replay_column_triggers(app, comp, model, column, config):
                failures.append("%s: column replay failed" % name)
        elif w.event_trace != column:
            failures.append("%s: trace %s != %s" % (name, w.event_trace, column))
    report_line(3, not failures, "six test apps: %s" % (failures or "all match"))


def test_criterion_4_sensitivity_pair(models, config):
    obj = analyze_app(corpus_app("obj_sensitivity"), models, config, m_max=1)
    flow = analyze_app(corpus_app("flow_sensitivity"), models, config, m_max=1)
    obj_ok = len(obj.warnings) == 1
    flow_ok = len(flow.warnings) == 1
    if flow_ok:
        sink = [l for l in flow.warnings[0].locations if l["role"] == "sink"]
        flow_ok = sink[0]["instruction"] == 9  # the second sink call site
    report_line(4, obj_ok and flow_ok,
                "aliasing=%d/1 warning, flow=second-sink-only=%s" % (len(obj.warnings), flow_ok))


def test_criterion_5_sms_detectors(models, config):
    hard = analyze_app(corpus_app("sms_hardcoded"), models, config, m_max=1)
    reply = analyze_app(corpus_app("sms_autoreply"), models, config, m_max=1)
    conf = analyze_app(corpus_app("sms_confignum"), models, config, m_max=2)
    ok = ({w.kind for w in hard.warnings} == {"SMS_HARDCODED"}
          and "SMS_AUTOREPLY" in {w.kind for w in reply.warnings}
          and conf.warnings == [])
    report_line(5, ok, "hardcoded=%s autoreply=%s config-file-miss=%s"
                % ({w.kind for w in hard.warnings},
                   {w.kind for w in reply.warnings}, conf.warnings == []))


def test_criterion_6_property_suites(models, config):
    started = time.monotonic()
    checks = {}

    # alias soundness and merge preservation
    base = fresh_entry(MUTABLE_REF)
    alias = bind_copy(base)
    tag = TaintTag(GET_DEVICE_ID, ("C", "m/0", 0))
    alias.taints |= {tag}
    checks["alias"] = tag in collect_taints(base)

    from test_engine import TestListings
    TestListings().test_merge_preserves_out_d_taint(config)
    checks["merge"] = True

    coll = fresh_entry("COLLECTION")
    coll.taints |= {tag}
    checks["collection"] = tag in coll.taints  # nothing ever removes it

    rec = analyze_app(corpus_app("recursion"), models, config, m_max=1)
    checks["recursion"] = rec.finished

    checks["permutation"] = all(
        sum(1 for _ in generate_m_way(PermutationPlan(tuple(
            PermutationUnit("LIFECYCLE_SUBSEQUENCE", ("e%d" % i,),
                            (Segment("e%d" % i, ("cb%d" % i,)),))
            for i in range(n)), ()), m)) == math.factorial(n) // math.factorial(n - m)
        for n in range(1, 7) for m in range(1, n + 1)
    )

    ws = [Warning("INFO_LEAK", {"A"}, "S", [], "C", 1, ("e",)),
          Warning("INFO_LEAK", {"A", "B"}, "S", [], "C", 1, ("e",))]
    once = dedup_warnings(ws)
    checks["dedup"] = (len(once) == 1
                       and [w.key() for w in dedup_warnings(once)] == [w.key() for w in once])

    acyclic = True
    for path in all_corpus_paths():
        app = load_app(path)
        for klass in app.classes:
            for method in klass.methods:
                dag = remove_back_edges(build_cfg(method))
                order = reverse_post_order(dag)
                pos = {b: i for i, b in enumerate(order)}
                for b in order:
                    for s in dag.blocks[b].successors:
                        acyclic = acyclic and pos[b] < pos[s]
    checks["cfg"] = acyclic

    from test_engine import TestBruteForceEquivalence
    TestBruteForceEquivalence().test_straight_line_verdicts_match_oracle(config)
    checks["oracle"] = True

    elapsed = time.monotonic() - started
    ok = all(checks.values()) and elapsed < 60.0
    report_line(6, ok, "%s in %.2fs" % (checks, elapsed))


def test_criterion_7_determinism():
    def one_run():
        out = io.StringIO()
        status = run(RunConfig(app_paths=all_corpus_paths(), out=out, m_max=2))
        return status, out.getvalue()

    s1, first = one_run()
    s2, second = one_run()
    ok = s1 == s2 == 0 and first == second
    report_line(7, ok, "two runs byte-identical=%s (%d bytes)"
                % (first == second, len(first)))
