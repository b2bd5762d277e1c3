"""The taint engine: per-sequence, per-method abstract interpretation.

Each generated callback sequence is analyzed as one execution hypothesis:
the component instance, its saved-state bundle and the statics persist
across the callbacks of a sequence.  They are the registers and statics of
the component state, the sequence's outermost symbol space, and each
callback runs one level deeper on its method stack, as does every app
method call: a call hands its caller the callee's whole exit heap.
Sequences that start with the same prefix and units share them: the
sequences are walked as a permutation tree, and a node's children start from
the state it left; a parent's leaves, which come one after another, run in
one loop.  Each top-level callback run is memoised for the whole app,
across m levels, on the component, the callback and the number of its start
state (equal states, by a canonical fingerprint, share one), in the
spirit of IFDS summaries (Reps, Horwitz and Sagiv, POPL 1995): units built
from life-cycle paths often share callbacks, and a callback that already ran
from an equal state reports that run's findings and hands on the state it
left.  A whole unit that finished from an equal state is one record: the
state its last callback left and its findings by segment, so replaying it
is one lookup, not one per callback.  A run records only its findings;
`_emit` turns them into warnings, with the m and event trace of the
sequence at hand.  A callback runs in place on its kept start state, logs
its heap writes on a trail and undoes them after (as a backtracking
machine's trail does, Warren 1983): the state it left is kept, as a copy,
only when a step first starts from it, by redoing the trail (`_number`).
Each method is compiled once per app into a plan: its de-looped CFG's
blocks in reverse post order, each with the predecessors it reads; a method
of one basic block, as most are, is one step and builds no CFG.  One rule
runs every block but the entry: it starts from its predecessors' OUT_d
frames, merged when there are several, so taints survive path-local
untainting.  A block holds the frame it ran on as its OUT_d; the last reader
of that frame, known when the plan is compiled, takes the frame itself, and
every earlier reader a share: its own register table over the frame's heap.
The heap's only writers, `symbols.store`, `assign` and `add_taints`, first
give the other sharers copies (`own`).  What each invoke of a plan calls is
resolved with it, once per app: `_decode` picks the invokes by opcode, and
`_resolve` unpacks each one's operands once into its `_Invoke`.
"""

import time
from collections import namedtuple
from functools import partial
from itertools import islice

from . import api_handlers, symbols
from .cfg import build_cfg, leaders, remove_back_edges, reverse_post_order
from .detectors import INFO_LEAK, FoundWarning, detect_sms_attacks
from .errors import AnalysisError, ConfigError, list_of, load_json
from .ir import INVOKES, MethodDef, resolve_method
from .sequences import generate_m_way
from .symbols import (
    BOUND_AS_IS, COLLECTION, IMMUTABLE_REF, PRIMITIVE, Entry, SymbolSpace, TaintTag,
    add_taints, assign, bind_copy, collect_taints, fingerprint, fresh_entry,
    merge_spaces, redo, store, undo, value_entry,
)

# life-cycle callbacks that receive the component's saved-state bundle as
# their first argument; it is one object, so stored values round-trip
BUNDLE_CALLBACKS = {"onCreate", "onSaveInstanceState", "onRestoreInstanceState"}

# (parent kind, invoked method name) -> (the callbacks the runtime then runs,
# whether the call returns its receiver): a thread's start() runs run() and
# returns nothing, a task's execute() runs its four callbacks and returns the
# task itself
DISCONTINUITIES = {
    ("THREAD", "start"): (("run",), False),
    ("ASYNC_TASK", "execute"): (
        ("onPreExecute", "doInBackground", "onProgressUpdate", "onPostExecute"), True),
}

# an invoke decoded by `_resolve`, which `handle_instruction` knows by its
# kind "INVOKE"; a `_Sink` or a `_Trigger` may be its target
_Invoke = namedtuple("_Invoke", "kind result receiver args index location target")
_Sink = namedtuple("_Sink", "api reports rule")  # reports: whether it is a sink
_Trigger = namedtuple("_Trigger", "callbacks returns_receiver")


class _TimeBudgetExceeded(Exception):
    pass


class AnalysisConfig:
    def __init__(self, sources, sinks, sms_send_apis, originating_address_apis):
        self.sources = set(sources)
        self.sinks = set(sinks)
        self.sms_rules = {rule["signature"]: rule for rule in sms_send_apis}
        self.originating_address_apis = set(originating_address_apis)


def load_config(path):
    doc = load_json(path, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError("%s: not a JSON object" % path)
    for key in ("sources", "sinks"):
        if key not in doc:
            raise ConfigError("%s: missing %r list" % (path, key))

    def strings(key):
        return list_of(str, doc, key, path, ConfigError)

    rules = doc.get("sms_send_apis", [])
    if not isinstance(rules, list) or not all(
            isinstance(r, dict) and isinstance(r.get("signature"), str)
            and type(r.get("recipient_arg_index")) is int and r["recipient_arg_index"] >= 0
            for r in rules):
        raise ConfigError("%s: sms_send_apis entries need a string signature and a "
                          "non-negative int recipient_arg_index" % path)
    return AnalysisConfig(strings("sources"), strings("sinks"), rules,
                          strings("originating_address_apis"))


class AnalysisContext:
    """Mutable state of one app analysis (single-threaded)."""

    def __init__(self, app, config, budget_secs=600.0, clock=time.monotonic):
        self.app = app
        self.config = config
        self.method_stack = []        # the MethodDefs on the current call chain
        self.warnings = []
        self.killed = False
        self.sequences_analyzed = 0
        self._clock = clock
        self._deadline = clock() + budget_secs
        self.found = []               # the running callback's findings, for `_emit`
        self.plans = {}               # MethodDef -> its decoded plan
        # (component class, callback name, number of the state it starts
        # from) -> _Node, kept across m levels
        self.memo = {}
        # (component class, unit's segments, number of the state it starts
        # from) -> (its last step's _Node, ((segment offset, findings), ...))
        self.unit_runs = {}
        # fingerprint -> (number, kept state): the steps that start from an
        # equal state run on the kept one in place, and undo their writes
        self.states = {}

    def out_of_time(self):
        return self._clock() > self._deadline

    def check_time(self):
        if self.out_of_time():
            raise _TimeBudgetExceeded()


def analyze_component(app, component, plan, m, ctx):
    """Analyze every m-way sequence of the plan; returns the new warnings.

    The sequences are the leaves of a permutation tree of depth m whose root
    is the prefix and whose depth-j nodes hold j units.  `generate_m_way`
    yields them in lexicographic order, which walks that tree depth first, so a
    sequence visits only the nodes after the prefix it shares with the one
    before it, each from the state its parent left.  A parent's first leaf
    takes that general path; its other N - m leaves, which follow in unit
    order, run in one loop from the parent's node, each a clock test, a
    `_visit` and a count.  `_visit` replays a node's unit from its record
    when the unit already finished from an equal state, and otherwise runs
    each callback or takes the memo's run of it.
    """
    if not plan.units:
        return []
    before = len(ctx.warnings)
    units = [unit.segments for unit in plan.units]
    # nodes[j]: the step after the prefix and previous[:j], and the segment
    # offset in the sequence of the unit that follows it
    nodes = []
    previous = ()
    sequences = generate_m_way(plan, m)
    try:
        for seq in sequences:
            combo = seq.unit_indexes
            k = 0
            while k < len(previous) and previous[k] == combo[k]:
                k += 1
            del nodes[k + 1:]
            ctx.check_time()
            if not nodes:  # the prefix runs from the fresh component state
                root = _Node((), None, None, *_keep(_fresh_state(), ctx))
                nodes.append((_visit(component, plan.prefix, root, seq, 0, ctx),
                              len(plan.prefix)))
            node, start = nodes[k]
            for u in combo[k:]:
                segments = units[u]
                node = _visit(component, segments, node, seq, start, ctx)
                start += len(segments)
                nodes.append((node, start))
            previous = combo
            ctx.sequences_analyzed += 1
            # the parent's other leaves; the next sequence after them leaves
            # this parent, so it shares with the last of them what it shares
            # with `previous`
            parent, start = nodes[m - 1]
            for seq in islice(sequences, len(units) - m):
                if ctx._clock() > ctx._deadline:  # check_time's one read
                    raise _TimeBudgetExceeded()
                _visit(component, units[seq.unit_indexes[-1]], parent, seq, start, ctx)
                ctx.sequences_analyzed += 1
    except _TimeBudgetExceeded:
        ctx.killed = True
    return ctx.warnings[before:]


class _Node:
    """A memoised callback run: its findings, each (kind, tags, sink API,
    location), and the state it left, as the writes of the run (`trail`)
    over the state its `parent` left, until `_number` gives it the number
    and the kept state of that state."""

    __slots__ = ("found", "parent", "trail", "number", "state")

    def __init__(self, found, parent, trail, number=None, state=None):
        self.found, self.parent, self.trail = found, parent, trail
        self.number, self.state = number, state


def _fresh_state():
    # the outermost level of the method stack holds the component instance
    # and its saved-state bundle; each callback is called from it
    return SymbolSpace({"this": fresh_entry(), "savedState": fresh_entry()})


def _keep(state, ctx, copy=False):
    """(number, state) kept for `state`'s fingerprint in this app: a state
    equal to one already kept shares that one and its number; a new one is
    kept, as a deep copy with `copy`."""
    key = fingerprint(state)
    kept = ctx.states.get(key)
    if kept is None:
        kept = ctx.states[key] = (len(ctx.states), state.deep_copy() if copy else state)
    return kept


def _number(node, ctx):
    """Give unnumbered `node` its number and kept state when a step first
    starts from it: its parent's if its run wrote nothing, else those `_keep`
    finds for its trail redone on its parent's kept state, then undone."""
    parent, trail = node.parent, node.trail
    if trail:
        redo(trail)
        node.number, node.state = _keep(parent.state, ctx, copy=True)
        undo(trail)
    else:
        node.number, node.state = parent.number, parent.state
    node.parent = node.trail = None


def _visit(component, segments, node, seq, start, ctx):
    """One tree node: the unit `segments`, at segment `start` of `seq`, from
    the state `node` left.  A unit that finished from an equal state, in
    this app, is replayed from its record in `ctx.unit_runs`: its findings
    are reported at their segments and its last step is returned.  Otherwise
    each callback steps from the state the step before left: its run from an
    equal state is taken from `ctx.memo`, or it runs in place on the kept
    state and then undoes its writes, and its findings are stored with its
    trail.  `_emit` reports the findings as warnings of `seq`.  The unit's
    record is stored once its last callback has stepped, so a killed unit
    leaves none.  Returns the unit's last step (`node` if none)."""
    if node.number is None:
        _number(node, ctx)
    key = (component.class_name, segments, node.number)
    record = ctx.unit_runs.get(key)
    if record is not None:
        for offset, found in record[1]:
            _emit(found, component, seq, start + offset, ctx)
        return record[0]
    steps = []
    for offset, segment in enumerate(segments):
        for callback in segment.callbacks:
            if node.number is None:
                _number(node, ctx)
            memo_key = (component.class_name, callback, node.number)
            step = ctx.memo.get(memo_key)
            if step is None:
                symbols.trail = trail = []
                try:
                    _run_callback(component, callback, node.state, ctx)
                finally:  # a killed run is undone, reports what it found, and is not stored
                    symbols.trail = None
                    undo(trail)
                    _emit(ctx.found, component, seq, start + offset, ctx)
                step = ctx.memo[memo_key] = _Node(tuple(ctx.found), node, trail)
            elif step.found:
                _emit(step.found, component, seq, start + offset, ctx)
            if step.found:
                steps.append((offset, step.found))
            node = step
    ctx.unit_runs[key] = (node, tuple(steps))
    return node


def _emit(found, component, seq, segment, ctx):
    """Report a callback run's findings as warnings of `seq`, in which the
    callback runs in segment `segment`: each at m = the sequence's unit
    count, with the event trace up to that segment."""
    if not found:
        return
    for kind, tags, sink_api, location in found:
        ctx.warnings.append(FoundWarning(kind, tags, sink_api, location,
                                         component.class_name, seq, segment))


def _run_callback(component, callback, state, ctx):
    """Run one top-level callback on the component state; what it finds is
    recorded in a new `ctx.found`."""
    ctx.found = []
    method = component.klass.method_by_name(callback)
    if method is not None:
        bundle = [state.regs["savedState"]] if callback in BUNDLE_CALLBACKS else []
        _call(method, ctx, state, state.regs["this"], bundle)


def analyze_method(method, ctx, frame):
    """Alg: walk the de-looped CFG's blocks in RPO, merging at join points.

    The plan is compiled on the method's first call in this app.  The entry
    block runs on `frame`.  Every other step starts from the frames its
    reached predecessors hold as their OUT_d: the last reader of a frame
    takes it, and each earlier reader a share, so each runs as on its own
    copy.  One frame is continued as it is, several are merged.  The caller
    adopts the exit frame's heap, so even the entry frame, which shares the
    caller's tables, is handed on.

    Returns (return-value entry or None, exit frame).
    """
    if ctx._clock() > ctx._deadline:  # check_time's one read
        raise _TimeBudgetExceeded()
    steps = ctx.plans.get(method)
    if steps is None:
        steps = ctx.plans[method] = _decode(_compile(method), method, ctx)
    current = frame
    held = {}
    try:
        for bid, instrs, reads in steps:
            if reads:
                frames = [held.pop(p) if last else held[p].share() for p, last in reads]
                current = frames[0] if len(frames) == 1 else merge_spaces(frames)
            for instr in instrs:
                handle_instruction(instr, ctx, current, method)
            held[bid] = current
    except BaseException:
        # a run cut short leaves no group to hold its frames in a cycle
        for space in (current, *held.values()):
            space.group = None
        raise
    return current.returned, current


def _compile(method):
    """[(block id, instructions, reads)] in RPO, where `reads` lists
    (predecessor, last) for each reached predecessor, sorted, and `last`
    marks the block's final reader in step order.  The entry reads nothing.
    Several exits are joined by a last step, block None, with no
    instructions; a sole exit comes last in RPO and is the exit frame.  A
    method of one basic block is that one step, built without a CFG.
    """
    if len(leaders(method)) == 1:
        return [(0, method.instructions[:], [])]
    return _dag_steps(remove_back_edges(build_cfg(method)))


def _dag_steps(dag):
    """`_compile`'s steps for the de-looped CFG `dag`."""
    order = reverse_post_order(dag)
    reached = set(order)
    steps = [(bid, dag.instructions(dag.blocks[bid]),
              sorted(p for p in dag.blocks[bid].predecessors if p in reached))
             for bid in order]
    exits = sorted(bid for bid in order if not dag.blocks[bid].successors)
    if len(exits) > 1:
        steps.append((None, (), exits))
    # one backwards pass: a block's first reader met is its last in step order
    read = set()
    for i in reversed(range(len(steps))):
        bid, instrs, preds = steps[i]
        steps[i] = (bid, instrs, [(p, p not in read) for p in preds])
        read.update(preds)
    return steps


def _decode(steps, method, ctx):
    """`steps`, each invoke replaced by the `_Invoke` that `_resolve` makes."""
    return [(bid, [_resolve(i, method, ctx) if i.kind in INVOKES else i for i in instrs], reads)
            for bid, instrs, reads in steps]


def _resolve(instr, method, ctx):
    """The invoke `instr` with its registers, location and target, the first
    that fits: a source's tag, the `_Sink` of a sink or SMS send API, the
    app's method, the `_Trigger` of a thread or task (the chain's methods
    that its class implements), the API handler, or None, the default rule."""
    if instr.kind == "INVOKE_STATIC":
        (result, sig, args), receiver = instr.operands, None
    else:
        result, receiver, sig, args = instr.operands
    location = (method.class_name, method.sig, instr.index)
    if sig in ctx.config.sources:
        target = TaintTag(sig, location)
    elif sig in ctx.config.sinks or sig in ctx.config.sms_rules:
        target = _Sink(sig, sig in ctx.config.sinks, ctx.config.sms_rules.get(sig))
    else:
        target = resolve_method(ctx.app, sig)
        if target is None:
            cls_name, _, member = sig.rpartition(".")
            klass = ctx.app.klass(cls_name)
            found = klass and DISCONTINUITIES.get((klass.parent_kind, member.split("/", 1)[0]))
            target = (_Trigger([cb for cb in map(klass.method_by_name, found[0]) if cb], found[1])
                      if found else api_handlers.lookup(sig, receiver is not None))
    return _Invoke("INVOKE", result, receiver, args, instr.index, location, target)


def _lookup(reg, method, instr):
    """Raise for `reg`, a register that the running method reads unbound."""
    raise AnalysisError("use of undefined register %r" % reg,
                        (method.class_name, method.sig, instr.index))


def handle_instruction(instr, ctx, frame, method):
    kind = instr.kind
    if kind == "INVOKE":  # the invoke path's one binding, of a decoded `_Invoke`
        result = handle_invoke(instr, ctx, frame, method)
        if instr.result is not None:  # None binds a fresh untainted value
            frame.regs[instr.result] = result if result is not None else value_entry()
        return
    # a register is read as `regs.get(name) or _lookup(...)`: an Entry is
    # always true, and `_lookup` raises for the unbound name.  `bind_copy`'s
    # rule is written out where a value is bound
    ops = instr.operands
    regs = frame.regs
    if kind == "IGET":
        obj = regs.get(ops[1]) or _lookup(ops[1], method, instr)
        field = obj.fields.get(ops[2])
        if field is None:
            field = Entry()
            store(frame, obj.fields, ops[2], field)
        regs[ops[0]] = field if field.value_kind in BOUND_AS_IS else field.deep_copy()
    elif kind == "IPUT":
        obj = regs.get(ops[0]) or _lookup(ops[0], method, instr)
        src = regs.get(ops[2]) or _lookup(ops[2], method, instr)
        store(frame, obj.fields, ops[1], src if src.value_kind in BOUND_AS_IS else src.deep_copy())
    elif kind == "CONST_STRING":
        regs[ops[0]] = Entry(IMMUTABLE_REF, None, ops[1])
    elif kind == "CONST_NUM":
        regs[ops[0]] = Entry(PRIMITIVE, None, ops[1])
    elif kind == "MOVE":
        src = regs.get(ops[1]) or _lookup(ops[1], method, instr)
        regs[ops[0]] = src if src.value_kind in BOUND_AS_IS else src.deep_copy()
    elif kind == "NEW_INSTANCE":
        regs[ops[0]] = Entry()
    elif kind == "SGET":
        slot = frame.statics.get(ops[1])
        if slot is None:
            slot = Entry()
            store(frame, frame.statics, ops[1], slot)
        regs[ops[0]] = slot if slot.value_kind in BOUND_AS_IS else slot.deep_copy()
    elif kind == "SPUT":
        src = regs.get(ops[1]) or _lookup(ops[1], method, instr)
        store(frame, frame.statics, ops[0],
              src if src.value_kind in BOUND_AS_IS else src.deep_copy())
    elif kind == "COLLECTION_NEW":
        regs[ops[0]] = Entry(COLLECTION)
    elif kind == "COLLECTION_PUT":
        coll = regs.get(ops[0]) or _lookup(ops[0], method, instr)
        src = regs.get(ops[2]) or _lookup(ops[2], method, instr)
        # index is irrelevant: element taint always taints the whole object
        add_taints(frame, coll, collect_taints(src))
    elif kind == "COLLECTION_GET":
        coll = regs.get(ops[1]) or _lookup(ops[1], method, instr)
        regs[ops[0]] = value_entry(coll.taints)
    elif kind == "IF_GOTO":
        # the condition must exist; control only
        regs.get(ops[0]) or _lookup(ops[0], method, instr)
    elif kind == "GOTO" or kind == "RETURN_VOID":
        pass
    else:  # RETURN: the loader admits no other opcode, and `_decode` the invokes
        frame.returned = regs.get(ops[0]) or _lookup(ops[0], method, instr)


def handle_invoke(invoke, ctx, frame, method):
    """Run an invoke's effects and return the entry its result register is
    bound to, or None for a fresh untainted value; `handle_instruction`
    binds it."""
    receiver, args = _operands(frame, invoke, method)
    target = invoke.target
    kind = type(target)
    if kind is TaintTag:
        return value_entry({target})
    if kind is _Sink:
        tags = collect_taints(*args) if receiver is None else collect_taints(*args, receiver)
        if target.reports and tags:
            ctx.found.append((INFO_LEAK, tags, target.api, invoke.location))
        if target.rule is not None:
            for attack, found in detect_sms_attacks(target.rule, args, ctx.config):
                ctx.found.append((attack, found, target.api, invoke.location))
        return value_entry(tags)
    if kind is MethodDef:
        ret = _call(target, ctx, frame, receiver, args)
        return bind_copy(ret) if ret is not None else None
    if kind is _Trigger:
        return handle_discontinuity(*target, ctx, frame, invoke, method)
    if target is not None:  # an API handler
        return target(frame, receiver, args)

    # any other API propagates taint from every input to the receiver and
    # the result, and never clears anything
    tags = collect_taints(*args)
    if receiver is not None:
        add_taints(frame, receiver, tags)
        tags = collect_taints(receiver)
    return value_entry(tags)


def _operands(frame, invoke, method):
    """An invoke's (receiver entry or None, argument entries)."""
    regs = frame.regs
    receiver = invoke.receiver
    if receiver is not None:
        receiver = regs.get(receiver) or _lookup(receiver, method, invoke)
    return receiver, [regs.get(a) or _lookup(a, method, invoke) for a in invoke.args]


def _call(target, ctx, frame, receiver, args):
    """Context switch into an app-defined method (Alg lines 11-17).

    The callee runs one level deeper on `frame`'s method stack.  `frame`
    then adopts the callee's exit heap (its own and its callers' register
    tables and the statics, joined over every path through the callee), and
    the callee's return value entry, from the same heap, is returned.  A
    recursive call (the target is already on the call chain, so it was
    analyzed once there) is skipped and returns None.
    """
    if target in ctx.method_stack:
        return None
    if frame.group is not None:
        frame.own()  # the callee runs on, and may write, `frame`'s heap
    regs = {}
    callee = SymbolSpace(regs, frame.statics, frame.outer + (frame.regs,))
    params = target.params
    if params and params[0] == "this":
        if receiver is None:
            raise AnalysisError("static call to instance method %s" % target.full_signature)
        regs["this"] = receiver
        params = params[1:]
    for pname, actual in zip(params, args):
        regs[pname] = actual if actual.value_kind in BOUND_AS_IS else actual.deep_copy()
    for pname in params[len(args):]:
        regs[pname] = Entry()
    ctx.method_stack.append(target)
    try:
        ret, exit_frame = analyze_method(target, ctx, callee)
    finally:
        ctx.method_stack.pop()
    # a top-level call's frame is the component state: the callback's trail
    # takes its tables
    adopt = setattr if ctx.method_stack else partial(assign, frame)
    adopt(frame, "regs", exit_frame.outer[-1])
    adopt(frame, "outer", exit_frame.outer[:-1])
    adopt(frame, "statics", exit_frame.statics)
    return ret


# the register that holds doInBackground's result in its caller's table; no
# IR register name is a tuple
_CARRIED = ("doInBackground",)


def handle_discontinuity(callbacks, returns_receiver, ctx, frame, invoke, method):
    """Implicit control transfers the runtime performs: run `callbacks`, the
    methods of the trigger's chain that its class implements, in order, with
    its arguments passed to doInBackground and its result to onPostExecute.
    Each callback hands `frame` a new heap, so the operands are read afresh
    for each, and the result waits in a register of `frame`.  Returns the
    trigger's result, as `handle_invoke` does: the receiver, read afresh
    after the chain, when the call returns it, else None."""
    for cb in callbacks:
        receiver, args = _operands(frame, invoke, method)
        if cb.name == "doInBackground":
            cb_args = args
        elif cb.name == "onPostExecute" and _CARRIED in frame.regs:
            cb_args = [frame.regs[_CARRIED]]
        else:
            cb_args = []
        ret = _call(cb, ctx, frame, receiver, cb_args)
        if cb.name == "doInBackground" and ret is not None:
            frame.regs[_CARRIED] = ret
    frame.regs.pop(_CARRIED, None)
    receiver = _operands(frame, invoke, method)[0] if returns_receiver else None
    return bind_copy(receiver) if receiver is not None else None
