"""Flattened component life-cycle state machines and event-sequence derivation.

A model is a flat state machine with static states (the component waits for an
external event) and transient states (left automatically while the current
event is still being processed).  Event sequences are derived by a
depth-first search that counts each static state's visits on the current
path: the goal ends a path when it was visited before or has no exits, and a
third visit to any static state cuts the branch, so every loop between static
states is unrolled at least once and at most twice.  Each event's walk
through transient states ends in a static state; one that comes back to a
transient state it already passed is cut.  Derivation only reads the model.
"""

from collections import namedtuple

from .errors import ModelError, list_of, load_json

STATIC = "STATIC"
TRANSIENT = "TRANSIENT"

LifecycleState = namedtuple("LifecycleState", "name kind")


class Guard(namedtuple("Guard", "event prev_event is_else", defaults=(None, None, False))):
    """Transition guard.

    ``event`` constrains the event currently being processed (meaningful on
    transient-state exits), ``prev_event`` constrains the event triggered
    before it.  ``is_else`` makes the transition fire only when no sibling
    transition with an explicit guard matched.  A guard with no fields set is
    always true.
    """

    __slots__ = ()

    def matches(self, current, previous):
        if self.is_else:
            return False  # resolved by the caller, after explicit guards
        if self.event is not None and self.event != current:
            return False
        if self.prev_event is not None and self.prev_event != previous:
            return False
        return True


Transition = namedtuple("Transition", "source destination guard callbacks triggers",
                        defaults=(None,))


class LifecycleModel:
    def __init__(self, component_kind, states, initial, goal, events, callbacks,
                 transitions):
        self.component_kind = component_kind
        self.states = states
        self.initial = initial
        self.goal = goal
        self.events = events
        self.callbacks = callbacks
        self.transitions = transitions
        self._by_source = {}
        for tr in transitions:
            self._by_source.setdefault(tr.source, []).append(tr)
        self._paths_cache = None    # derive_paths(self), cached on first use
        # sequences.build_plan's: (prefix length, the paths after the prefix
        # as indexes into their distinct steps, every path callback), and
        # (lifecycle units, prefix) per set of path callbacks implemented
        self._path_index = None
        self._plans = {}

    def outgoing(self, state_name):
        return self._by_source.get(state_name, [])


# one event of a derived path plus the callbacks its state walk emits
Step = namedtuple("Step", "event callbacks")


def _parse_guard(raw, where):
    if raw is None:
        return Guard()
    if not isinstance(raw, dict):
        raise ModelError("%s: guard must be an object" % where)
    unknown = set(raw) - {"event", "prev_event", "else"}
    if unknown:
        raise ModelError("%s: unknown guard field %r" % (where, sorted(unknown)[0]))
    is_else = _field(raw, "else", where, bool, False)
    if is_else and (raw.get("event") or raw.get("prev_event")):
        raise ModelError("%s: guard 'else' excludes 'event'/'prev_event'" % where)
    return Guard(raw.get("event"), raw.get("prev_event"), is_else)


def _field(raw, key, where, kind=str, default=None):
    """raw[key] (default `default`), checked to be a `kind`: a string or a
    JSON bool; otherwise a ModelError naming the field."""
    value = raw.get(key, default)
    if not isinstance(value, kind):
        raise ModelError("%s: field '%s' must be a %s, got %r"
                         % (where, key, {str: "string", bool: "JSON bool"}[kind], value))
    return value


def load_model(path):
    """Load and validate a life-cycle model from a JSON file."""
    return model_from_dict(load_json(path, ModelError), source=str(path))


def model_from_dict(doc, source="<dict>"):
    if not isinstance(doc, dict):
        raise ModelError("%s: not a JSON object" % source)
    for key in ("component_kind", "states", "initial", "goal", "events", "transitions"):
        if key not in doc:
            raise ModelError("%s: missing required field '%s'" % (source, key))
    kind = doc["component_kind"]
    if kind not in ("ACTIVITY", "SERVICE"):
        raise ModelError("%s: component_kind must be ACTIVITY or SERVICE, got %r" % (source, kind))

    states = {}
    for i, raw in enumerate(list_of(dict, doc, "states", source, ModelError)):
        name, skind = _field(raw, "name", "%s: states[%d]" % (source, i)), raw.get("kind")
        if not name or skind not in (STATIC, TRANSIENT):
            raise ModelError("%s: bad state entry %r (field 'states')" % (source, raw))
        if name in states:
            raise ModelError("%s: duplicate state name %r" % (source, name))
        states[name] = LifecycleState(name, skind)

    initial, goal = _field(doc, "initial", source), _field(doc, "goal", source)
    for label, value in (("initial", initial), ("goal", goal)):
        if value not in states:
            raise ModelError("%s: %s state %r is not a declared state" % (source, label, value))
        if states[value].kind != STATIC:
            raise ModelError("%s: %s state %r must be STATIC" % (source, label, value))

    events = list_of(str, doc, "events", source, ModelError)
    callbacks = list_of(str, doc, "callbacks", source, ModelError)
    known_callbacks = set(callbacks)

    transitions = []
    for i, raw in enumerate(list_of(dict, doc, "transitions", source, ModelError)):
        where = "%s: transitions[%d]" % (source, i)
        src, dst = _field(raw, "from", where), _field(raw, "to", where)
        if src not in states:
            raise ModelError("%s: unknown source state %r (field 'from')" % (where, src))
        if dst not in states:
            raise ModelError("%s: unknown destination state %r (field 'to')" % (where, dst))
        guard = _parse_guard(raw.get("guard"), where)
        triggers = raw.get("triggers")
        cbs = tuple(list_of(str, raw, "callbacks", where, ModelError))
        for ev in (guard.event, guard.prev_event, triggers):
            if ev is not None and ev not in events:
                raise ModelError("%s: event %r not in declared events" % (where, ev))
        for cb in cbs:
            if known_callbacks and cb not in known_callbacks:
                raise ModelError("%s: callback %r not in declared callbacks" % (where, cb))
        if states[src].kind == STATIC:
            if triggers is None:
                raise ModelError("%s: transition out of static state %r needs 'triggers'" % (where, src))
            if guard.event is not None and guard.event != triggers:
                raise ModelError(
                    "%s: guard event %r contradicts triggered event %r" % (where, guard.event, triggers)
                )
        elif triggers is not None:
            raise ModelError("%s: transient state %r cannot trigger a new event" % (where, src))
        transitions.append(Transition(src, dst, guard, cbs, triggers))

    return LifecycleModel(kind, states, initial, goal, events, callbacks, transitions)


def _exits(model, state_name, current, previous):
    """Transitions out of a state whose guards hold, in file order.

    A transition processes the event it triggers (static exits) or else the
    `current` event (transient exits); `previous` is the event triggered
    before that one.  'else' transitions fire only when no explicitly guarded
    sibling matched.
    """
    explicit, elses = [], []
    for tr in model.outgoing(state_name):
        if tr.guard.is_else:
            elses.append(tr)
        elif tr.guard.matches(tr.triggers or current, previous):
            explicit.append(tr)
    return explicit or elses


def _memo_exits(memo, model, state_name, current, previous):
    """`_exits`, kept in `memo` by its arguments: a walk asks for the same
    exits many times."""
    key = (state_name, current, previous)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _exits(model, state_name, current, previous)
    return found


def _settle(model, tr, previous, memo=None):
    """Follow the static exit `tr` through transient states to a static one.

    Each transient state is left by its first matching transition.  Returns
    (callbacks, static state name), or (callbacks, None) when the chain comes
    back to a transient state it already passed.  `memo` keeps `_exits`'
    results, as `_memo_exits` does.
    """
    if memo is None:
        memo = {}
    event, callbacks, passed = tr.triggers, tr.callbacks, set()
    while model.states[tr.destination].kind == TRANSIENT:
        name = tr.destination
        if name in passed:
            return callbacks, None
        passed.add(name)
        matches = _memo_exits(memo, model, name, event, previous)
        if not matches:
            raise ModelError(
                "stuck machine: transient state %r has no transition for event %r"
                % (name, event)
            )
        tr = matches[0]
        callbacks += tr.callbacks
    return callbacks, tr.destination


def derive_paths(model):
    """Run the depth-first derivation and return every path as a list of Steps.

    Paths whose event sequences coincide are all returned (guards over
    statically unknown conditions make the walk nondeterministic, e.g. the
    two possible outcomes of unbinding a started service); callers decide
    which level of deduplication they need.  The result is cached on the
    model.
    """
    if model._paths_cache is None:
        model._paths_cache = _walk(model)
    return model._paths_cache


def _walk(model):
    """Every path of the derivation, in depth-first order.

    `stack` holds the static states the current path passes through, each
    with its visit count from before the path entered it and its exits still
    to follow, so a path of any length fits; `visits` counts each static
    state's visits on the path, and `path` holds one Step into each state on
    the stack but the first.  `memo` keeps `_exits`' and `_settle`'s results
    for the walk.
    """
    paths, path, visits, stack, memo = [], [], {}, [], {}
    name, incoming = model.initial, None
    while True:
        # `path` ends in static state `name` after event `incoming`
        seen = visits.get(name, 0)
        if name == model.goal and (seen or not model.outgoing(name)):
            paths.append(list(path))
        elif seen < 2:
            visits[name] = seen + 1
            # In a static state the walk of the incoming event has finished,
            # so that event is what prev_event guards are checked against.
            exits = _memo_exits(memo, model, name, None, incoming)
            stack.append((name, seen, incoming, iter(exits)))
        # follow the next exit of the deepest state that has one left
        while stack:
            name, seen, incoming, exits = stack[-1]
            del path[len(stack) - 1:]
            for tr in exits:
                if tr.destination != name:  # avoid self-loop
                    settled = memo.get((tr, incoming))
                    if settled is None:
                        settled = memo[tr, incoming] = _settle(model, tr, incoming, memo)
                    callbacks, end = settled
                    if end is not None:  # a transient cycle cuts the branch
                        break
            else:
                visits[name] = seen
                stack.pop()
                continue
            path.append(Step(tr.triggers, callbacks))
            name, incoming = end, tr.triggers
            break
        else:
            return paths
