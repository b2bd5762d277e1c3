"""Reference oracles and derived views that only the tests read.

The analyzer runs `derive_paths`, `build_plan` and the memoised permutation
tree walk; the functions here recompute what those produce another way, or
present it as the paper does, so the tests can compare the two:

- `event_sequences` and `callback_sequences`: the paper's deduplicated event
  and callback sequences of a model, from `derive_paths`;
- `callbacks_of`: the flat callback list of a run of Segments (a unit, a
  plan's prefix or a generated sequence);
- `callbacks_for_event`: the paper's event-to-callback table;
- `replay_events`: replays an event sequence against a model by guard
  evaluation, independently of the derivation's walk;
- `run_sequence`: runs one generated sequence flat, from a fresh state and
  without the memo; `sequence_of` makes a sequence of given segments;
- `invoke_call`: an IR invoke's operands in one shape, static or not;
- `shares_match`: whether a method's run, where each earlier reader of a
  block shares its heap, equals the run where each takes a deep copy,
  instruction by instruction;
  `random_heap_app` makes methods for it;
- `direct_joins_match`: whether that run, and `stepped_app_run`'s whole
  analysis of an app, are the same where every join is of private copies
  (`without_direct_joins`);
- `trail_mismatches`: where a callback run in place on its kept start state
  differs from the same run on a deep copy; `repeat_levels` runs a random
  heap app's method from the states it leaves.
"""

import random

from lifetaint import analysis, symbols
from lifetaint.analysis import (
    AnalysisContext, _emit, _fresh_state, _run_callback, analyze_component, analyze_method,
    handle_instruction,
)
from lifetaint.cli import analyze_app
from lifetaint.detectors import render_report
from lifetaint.errors import ModelError
from lifetaint.ir import app_from_dict
from lifetaint.lifecycle import Step, _exits, _settle, derive_paths
from lifetaint.sequences import (
    MISC_CALLBACK, FlattenedSequence, PermutationPlan, PermutationUnit, Segment, _distinct_paths,
    _implemented,
)
from lifetaint.symbols import SymbolSpace, fingerprint


def event_sequences(model):
    """All feasible event sequences (tuples of event names), deduplicated, in
    derivation order."""
    return list(dict.fromkeys(tuple(step.event for step in path)
                              for path in derive_paths(model)))


def callback_sequences(model, component):
    """Unique callback sequences (tuples of callback names) for the
    component, one per distinct result, in derivation order."""
    return [key for _, key in _distinct_paths(derive_paths(model), _implemented(component))]


def callbacks_of(segments):
    """The callbacks of `segments`, in order."""
    return tuple(cb for seg in segments for cb in seg.callbacks)


def callbacks_for_event(model, event):
    """Callback list a single event induces from its static source state.

    Follows the first transition (file order) that triggers the event and
    walks the transient chain to the next static state.
    """
    if event not in model.events:
        raise LookupError("unknown event %r" % event)
    for tr in model.transitions:
        if tr.triggers == event:
            callbacks, end = _settle(model, tr, tr.guard.prev_event)
            if end is None:
                raise ModelError(
                    "transient cycle: event %r never reaches a static state" % event
                )
            return list(callbacks)
    raise LookupError("event %r is never triggered by any transition" % event)


def replay_events(model, events):
    """Replay an event sequence against the model via guard evaluation.

    Returns the list of feasible paths (lists of Steps), in depth-first
    order; an empty list means the sequence is infeasible or does not end at
    the goal state.  As in `lifecycle._walk`, `stack` holds the static
    states the current path passes through, one per replayed event plus the
    initial one, each with its exits still to follow, so a sequence of any
    length fits.
    """
    results, path, stack = [], [], []
    name, previous = model.initial, None
    while True:
        # `path` replays the first len(path) events and ends in static state `name`
        if len(path) == len(events):
            if name == model.goal:
                results.append(list(path))
        else:
            stack.append((name, previous, iter(_exits(model, name, None, previous))))
        # follow the next exit of the deepest state that has one left
        while stack:
            name, previous, exits = stack[-1]
            del path[len(stack) - 1:]
            event = events[len(path)]
            for tr in exits:
                if tr.triggers == event and tr.destination != name:
                    callbacks, end = _settle(model, tr, previous)
                    if end is not None:  # a transient cycle makes it infeasible
                        break
            else:
                stack.pop()
                continue
            path.append(Step(event, callbacks))
            name, previous = end, event
            break
        else:
            return results


def run_sequence(component, seq, ctx):
    """Run one whole sequence from a fresh component state, each callback
    on the state the one before left, without the memo."""
    state = _fresh_state()
    for i, segment in enumerate(seq.segments):
        for callback in segment.callbacks:
            _run_callback(component, callback, state, ctx)
            _emit(ctx.found, component, seq, i, ctx)


def invoke_call(instr):
    """An IR invoke's (result, receiver or None, signature, args), else None."""
    if instr.kind == "INVOKE_STATIC":
        return (instr.operands[0], None, *instr.operands[1:])
    return instr.operands if instr.kind.startswith("INVOKE_") else None


def sequence_of(unit_indexes, segments):
    """A sequence of the units `unit_indexes` whose segments are `segments`:
    its plan's prefix holds them all, and its units are empty."""
    empty = PermutationUnit(MISC_CALLBACK, (), ())
    plan = PermutationPlan((empty,) * (max(unit_indexes) + 1), tuple(segments))
    return FlattenedSequence(unit_indexes, plan)


def heap_run(app, config):
    """(findings, fingerprint of the exit frame) of the app's first method,
    run as a callback from a fresh component state."""
    method = app.classes[0].methods[0]
    ctx = AnalysisContext(app, config)
    ctx.method_stack.append(method)
    state = _fresh_state()
    frame = SymbolSpace({"this": state.regs["this"]}, state.statics, (state.regs,))
    _, exit_frame = analyze_method(method, ctx, frame)
    return ctx.found, fingerprint(exit_frame)


def stepped_heap_run(app, config):
    """`heap_run`'s (findings, exit frame's fingerprint), and the fingerprint
    of the frame after each instruction, callees' included, from the run's
    first `SymbolSpace.share` on: up to that call, a run in which `share`
    is a deep copy takes the same steps on the same frames."""
    frames, shared = [], False
    share = SymbolSpace.share

    def sharing(space):
        nonlocal shared
        shared = True
        return share(space)

    def step(instr, ctx, frame, method):
        handle_instruction(instr, ctx, frame, method)
        if shared:
            frames.append(fingerprint(frame))

    analysis.handle_instruction, SymbolSpace.share = step, sharing
    try:
        return heap_run(app, config), frames
    finally:
        analysis.handle_instruction, SymbolSpace.share = handle_instruction, share


def shares_match(app, config):
    """Whether `heap_run` gives the same findings and exit frame, and the
    same frame after every instruction, as it does where
    `SymbolSpace.share` is a deep copy."""
    shared = stepped_heap_run(app, config)
    share = SymbolSpace.share
    SymbolSpace.share = SymbolSpace.deep_copy
    try:
        copied = stepped_heap_run(app, config)
    finally:
        SymbolSpace.share = share
    return shared == copied


def without_direct_joins(run, *args):
    """`run(*args)` where `merge_spaces` joins no inputs directly
    (`symbols._joins_directly`): every join is of private copies."""
    direct = symbols._joins_directly
    symbols._joins_directly = lambda base, others: False
    try:
        return run(*args)
    finally:
        symbols._joins_directly = direct


def stepped_app_run(app, models, config, m_max):
    """The JSON report of `analyze_app` and the fingerprint of the frame
    after every instruction it runs."""
    frames = []

    def step(instr, ctx, frame, method):
        handle_instruction(instr, ctx, frame, method)
        frames.append(fingerprint(frame))

    analysis.handle_instruction = step
    try:
        return render_report(analyze_app(app, models, config, m_max), "json"), frames
    finally:
        analysis.handle_instruction = handle_instruction


def direct_joins_match(run, *args):
    """Whether `run(*args)`, `stepped_heap_run` or `stepped_app_run`, gives
    the same findings or report and the same frame after every instruction
    as it does where no join is direct."""
    return run(*args) == without_direct_joins(run, *args)


def trail_mismatches(app, config, levels, number_all=False):
    """Run `levels`, (component, plan, m) triples, on one context of `app`,
    and check each callback run in place against the same run on a deep
    copy of its start state: the two find the same, the start state's
    fingerprint is as before once the run is stored, and the state the run
    left, once numbered, has the copy's fingerprint, as every kept state
    still has its own at the end.  With `number_all` each run's end is
    numbered as soon as the run is stored, else only when a step starts
    from it.  Returns the mismatches, each (callback, what differs)."""
    ctx = AnalysisContext(app, config)
    bad, pending, ends = [], [], []

    def run(component, callback, state, ctx):
        if symbols.trail is None:  # not in place: nothing to compare
            return _run_callback(component, callback, state, ctx)
        trail, symbols.trail, copy = symbols.trail, None, state.deep_copy()
        try:
            _run_callback(component, callback, copy, ctx)
        finally:
            symbols.trail = trail
        pending.append((callback, state, fingerprint(state), tuple(ctx.found),
                        fingerprint(copy)))
        _run_callback(component, callback, state, ctx)

    class Checked(dict):
        """A memo that checks each run as `_visit` stores it, undone."""

        def __setitem__(self, key, node):
            callback, state, start, found, end = pending.pop()
            if fingerprint(state) != start:
                bad.append((callback, "start state"))
            if node.found != found:
                bad.append((callback, "findings"))
            if number_all:
                analysis._number(node, ctx)
            ends.append((callback, node, end))
            super().__setitem__(key, node)

    ctx.memo = Checked()
    analysis._run_callback = run
    try:
        for component, plan, m in levels:
            analyze_component(app, component, plan, m, ctx)
    finally:
        analysis._run_callback = _run_callback
    bad += [(callback, "end state") for callback, node, end in ends
            if node.number is not None and fingerprint(node.state) != end]
    bad += [(None, "kept state %d" % number) for key, (number, state) in ctx.states.items()
            if fingerprint(state) != key]
    return bad


def repeat_levels(app):
    """`random_heap_app`'s component as `trail_mismatches` levels: `main`
    runs three times in a row, from the fresh state and then from each
    state it leaves."""
    unit = PermutationUnit(MISC_CALLBACK, ("main",), (Segment("main", ("main", "main")),))
    return [(app.components[0], PermutationPlan((unit,), (Segment("main", ("main",)),)), 1)]


_REGS = ("a", "b", "d", "e")
_LATE = ("m", "n")              # written, never read
_FIELDS = ("f", "g")


def _heap_ops(rng, n, params):
    """`n` random draws of instructions that read the registers `_REGS`,
    `params` and `this`, and also write `_LATE`; a branch targets the label
    "L<k>" of the k-th instruction, k <= n.  A draw is one instruction, or
    a branch over an arm of one to three that only bind registers (`binds`),
    so that the join after it can be direct."""
    regs = _REGS + params
    objs = regs + ("this",)
    ops = []

    def reg():
        return rng.choice(regs)

    def dst():  # a register that only some paths bind is adopted at a join
        return rng.choice(regs + _LATE)

    def label():
        return "L%d" % rng.randint(0, n)

    def self_append(builder):
        # a builder appended to itself gains no taint, and one that holds no
        # constant is unchanged: a join adopts the result, the builder itself
        return ["INVOKE_VIRTUAL", rng.choice(_LATE), builder,
                "StringBuilder.append/1", [builder]]

    binds = [
        (8, lambda: ["MOVE", dst(), rng.choice(objs)]),   # may alias `this`
        (5, lambda: ["NEW_INSTANCE", dst(), "Foo"]),
        (8, lambda: ["INVOKE_VIRTUAL", dst(), "this", "TelephonyManager.getDeviceId/0", []]),
        (4, lambda: ["INVOKE_VIRTUAL", dst(), reg(), "String.concat/1", [reg()]]),
        (2, lambda: ["COLLECTION_GET", dst(), reg(), 0]),
        (2, lambda: ["CONST_STRING", dst(), rng.choice(("x", "y"))]),
        # a number, a string and a collection: a join of two of them drops
        # a constant or collapses a kind
        (2, lambda: ["CONST_NUM", dst(), rng.choice((1, 2))]),
        (2, lambda: ["INVOKE_STATIC", dst(), "String.valueOf/1", [reg()]]),
        (2, lambda: ["COLLECTION_NEW", dst()]),
        (5, lambda: self_append(reg())),
        (4, lambda: ["IGET", dst(), "this", rng.choice(_FIELDS)]),  # a field a run bound
    ]

    def arm():
        body = [rng.choices(binds, [w for w, _ in binds])[0][1]()
                for _ in range(rng.randint(1, 3))]
        return [["IF_GOTO", "c", "L%d" % (len(ops) + 1 + len(body))]] + body

    kinds = binds + [
        (25, lambda: ["IF_GOTO", "c", label()]),
        (4, lambda: ["GOTO", label()]),
        (12, lambda: ["IGET", dst(), rng.choice(objs), rng.choice(_FIELDS)]),
        (10, lambda: ["IPUT", rng.choice(objs), rng.choice(_FIELDS), reg()]),
        (4, lambda: ["SGET", dst(), "S." + rng.choice(_FIELDS)]),
        (3, lambda: ["SPUT", "S." + rng.choice(_FIELDS), reg()]),
        (10, lambda: ["INVOKE_STATIC", None, "Log.e/2", [reg(), rng.choice(objs)]]),
        (4, lambda: ["INVOKE_VIRTUAL", dst(), reg(), "StringBuilder.append/1", [reg()]]),
        (6, lambda: ["INVOKE_VIRTUAL", dst(), reg(), "Foo.put/1", [reg()]]),
        (2, lambda: ["INVOKE_STATIC", None, "System.arraycopy/5",
                     [reg(), "c", reg(), "c", "c"]]),
        (2, lambda: ["COLLECTION_PUT", reg(), 0, reg()]),
        (2, lambda: ["RETURN", reg()]),
        (20, arm),
    ]
    if not params:  # the main method calls the helper, which calls nothing
        kinds.append((3, lambda: ["INVOKE_VIRTUAL", dst(), "this", "Main.helper/1", [reg()]]))
    weights = [w for w, _ in kinds]
    for _ in range(n):
        make = rng.choices(kinds, weights)[0][1]
        ops += make() if make is arm else [make()]
    return ops


def _heap_method(rng, sig, params):
    """A method that binds `c` and `_REGS`, then runs `_heap_ops`."""
    prologue = [["CONST_NUM", "c", 1]]
    for r in _REGS:
        prologue.append(rng.choice([["IGET", r, "this", rng.choice(_FIELDS)],
                                    ["NEW_INSTANCE", r, "Foo"],
                                    ["CONST_STRING", r, r],
                                    ["MOVE", r, "this"]]))
    ops = _heap_ops(rng, rng.randint(3, 14), tuple(params[1:]))
    instructions = prologue + ops
    labels = {"L%d" % k: len(prologue) + k for k in range(len(ops) + 1)}
    instructions.append(rng.choice([["RETURN_VOID"], ["RETURN", rng.choice(_REGS)]]))
    return {"sig": sig, "params": params, "instructions": instructions, "labels": labels}


def random_heap_app(seed):
    """An app whose class Main has a random branchy method `main/0`, which
    reads and writes fields and statics, moves values, calls sources,
    sinks, handlers and the default rule, and calls a random `helper/1`."""
    return app_from_dict(random_heap_doc(seed))


def random_heap_doc(seed):
    """`random_heap_app(seed)` as the JSON document of its IR."""
    rng = random.Random(seed)
    methods = [_heap_method(rng, "main/0", ["this"]),
               _heap_method(rng, "helper/1", ["this", "p"])]
    return {
        "app_id": "h%d" % seed,
        "classes": [{"name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
                     "methods": methods}],
        "components": [{"class": "Main", "kind": "ACTIVITY",
                        "aui_callbacks": [], "misc_callbacks": ["main"]}],
    }
