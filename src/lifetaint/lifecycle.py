"""Flattened component life-cycle state machines and event-sequence derivation.

A model is a flat state machine with static states (the component waits for an
external event) and transient states (left automatically while the current
event is still being processed).  Event sequences are derived with a colored
depth-first search: a static state is GREY after its first visit on the
current path and RED after the second, and a RED state cuts the branch, so
every loop between static states is unrolled at least once and at most twice.
"""

import json
import threading
from dataclasses import dataclass

from .errors import ModelError

STATIC = "STATIC"
TRANSIENT = "TRANSIENT"

WHITE, GREY, RED = 0, 1, 2


@dataclass
class LifecycleState:
    name: str
    kind: str
    color: int = WHITE


@dataclass(frozen=True)
class Guard:
    """Transition guard.

    ``event`` constrains the event currently being processed (meaningful on
    transient-state exits), ``prev_event`` constrains the event triggered
    before it.  ``is_else`` makes the transition fire only when no sibling
    transition with an explicit guard matched.  A guard with no fields set is
    always true.
    """

    event: str | None = None
    prev_event: str | None = None
    is_else: bool = False

    def matches(self, current, previous):
        if self.is_else:
            return False  # resolved by the caller, after explicit guards
        if self.event is not None and self.event != current:
            return False
        if self.prev_event is not None and self.prev_event != previous:
            return False
        return True


@dataclass(frozen=True)
class Transition:
    source: str
    destination: str
    guard: Guard
    callbacks: tuple
    triggers: str | None = None


@dataclass
class LifecycleModel:
    component_kind: str
    states: dict
    initial: str
    goal: str
    events: list
    callbacks: list
    transitions: list

    def __post_init__(self):
        self._by_source = {}
        for tr in self.transitions:
            self._by_source.setdefault(tr.source, []).append(tr)
        # derivation mutates state colors, so it is serialized per instance;
        # the result is deterministic and cached for reuse
        self._derive_lock = threading.Lock()
        self._paths_cache = None

    def outgoing(self, state_name):
        return self._by_source.get(state_name, [])

    def goal_is_terminal(self):
        return not self.outgoing(self.goal)

    def reset_colors(self):
        for st in self.states.values():
            st.color = WHITE


@dataclass(frozen=True)
class EventSequence:
    events: tuple


@dataclass(frozen=True)
class Step:
    """One event of a derived path plus the callbacks its state walk emits."""

    event: str
    callbacks: tuple


def _parse_guard(raw, where):
    if raw is None:
        return Guard()
    if not isinstance(raw, dict):
        raise ModelError("%s: guard must be an object" % where)
    unknown = set(raw) - {"event", "prev_event", "else"}
    if unknown:
        raise ModelError("%s: unknown guard field %r" % (where, sorted(unknown)[0]))
    is_else = bool(raw.get("else", False))
    if is_else and (raw.get("event") or raw.get("prev_event")):
        raise ModelError("%s: guard 'else' excludes 'event'/'prev_event'" % where)
    return Guard(raw.get("event"), raw.get("prev_event"), is_else)


def load_model(path):
    """Load and validate a life-cycle model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError("%s: not valid JSON: %s" % (path, exc)) from exc
    return model_from_dict(doc, source=str(path))


def model_from_dict(doc, source="<dict>"):
    for key in ("component_kind", "states", "initial", "goal", "events", "transitions"):
        if key not in doc:
            raise ModelError("%s: missing required field '%s'" % (source, key))
    kind = doc["component_kind"]
    if kind not in ("ACTIVITY", "SERVICE"):
        raise ModelError("%s: component_kind must be ACTIVITY or SERVICE, got %r" % (source, kind))

    states = {}
    for raw in doc["states"]:
        name, skind = raw.get("name"), raw.get("kind")
        if not name or skind not in (STATIC, TRANSIENT):
            raise ModelError("%s: bad state entry %r (field 'states')" % (source, raw))
        if name in states:
            raise ModelError("%s: duplicate state name %r" % (source, name))
        states[name] = LifecycleState(name, skind)

    initial, goal = doc["initial"], doc["goal"]
    for label, value in (("initial", initial), ("goal", goal)):
        if value not in states:
            raise ModelError("%s: %s state %r is not a declared state" % (source, label, value))
    if states[initial].kind != STATIC:
        raise ModelError("%s: initial state %r must be STATIC" % (source, initial))

    events = list(doc["events"])
    callbacks = list(doc.get("callbacks", []))
    known_callbacks = set(callbacks)

    transitions = []
    for i, raw in enumerate(doc["transitions"]):
        where = "%s: transitions[%d]" % (source, i)
        src, dst = raw.get("from"), raw.get("to")
        if src not in states:
            raise ModelError("%s: unknown source state %r (field 'from')" % (where, src))
        if dst not in states:
            raise ModelError("%s: unknown destination state %r (field 'to')" % (where, dst))
        guard = _parse_guard(raw.get("guard"), where)
        triggers = raw.get("triggers")
        cbs = tuple(raw.get("callbacks", []))
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


def _matching(model, state, current, previous):
    """Transitions out of a transient `state` whose guards hold, file order.

    'else' transitions fire only when no explicitly guarded sibling matched.
    """
    explicit, elses = [], []
    for tr in model.outgoing(state.name):
        if tr.guard.is_else:
            elses.append(tr)
        elif tr.guard.matches(current, previous):
            explicit.append(tr)
    return explicit if explicit else elses


def _static_exits(model, state, incoming):
    """Transitions leaving a static state, filtered by prev-event guards.

    `incoming` is the event whose walk ended in this state, i.e. the last
    event of the running sequence; guard.event is documentary on static exits
    (it must equal the triggered event and is checked at load time).
    """
    explicit, elses = [], []
    for tr in model.outgoing(state.name):
        if tr.guard.is_else:
            elses.append(tr)
        elif tr.guard.prev_event is None or tr.guard.prev_event == incoming:
            explicit.append(tr)
    return explicit if explicit else elses


def derive_paths(model):
    """Run the colored DFS and return every emitted path as a list of Steps.

    Paths whose event sequences coincide are all returned (guards over
    statically unknown conditions make the walk nondeterministic, e.g. the
    two possible outcomes of unbinding a started service); callers decide
    which level of deduplication they need.
    """
    with model._derive_lock:
        if model._paths_cache is None:
            model._paths_cache = _derive_paths_locked(model)
    return model._paths_cache


def _derive_paths_locked(model):
    for st in model.states.values():
        if st.color != WHITE:
            raise ModelError("state %r not WHITE before derivation" % st.name)
    goal_terminal = model.goal_is_terminal()
    results = []

    def walk(state, event, prev_event, path):
        if state.name == model.goal and (state.color != WHITE or goal_terminal):
            results.append(list(path))
            return
        if state.color == RED and state.kind == STATIC:
            return
        if state.kind == STATIC:
            saved = state.color
            state.color = GREY if saved == WHITE else RED
            # In a static state the walk of the incoming event has finished,
            # so that event is what prev_event guards are checked against.
            for tr in _static_exits(model, state, event):
                nxt = model.states[tr.destination]
                if nxt is state:  # avoid self-loop
                    continue
                step = Step(tr.triggers, tr.callbacks)
                path.append(step)
                walk(nxt, tr.triggers, event, path)
                path.pop()
            state.color = saved
        else:
            matches = _matching(model, state, event, prev_event)
            if not matches:
                raise ModelError(
                    "stuck machine: transient state %r has no transition for event %r"
                    % (state.name, event)
                )
            tr = matches[0]
            nxt = model.states[tr.destination]
            if nxt is state:  # avoid self-loop
                return
            last = path[-1]
            path[-1] = Step(last.event, last.callbacks + tr.callbacks)
            walk(nxt, event, prev_event, path)
            path[-1] = last

    try:
        walk(model.states[model.initial], None, None, [])
    finally:
        model.reset_colors()
        del walk  # its closure refers to itself: free it without the cyclic GC
    return results


def derive_event_sequences(model):
    """All feasible event sequences, deduplicated, in derivation order."""
    seen = set()
    out = []
    for path in derive_paths(model):
        events = tuple(step.event for step in path)
        if events not in seen:
            seen.add(events)
            out.append(EventSequence(events))
    return out


def callbacks_for_event(model, event):
    """Callback list a single event induces from its static source state.

    Follows the first transition (file order) that triggers the event and
    walks the transient chain to the next static state.
    """
    if event not in model.events:
        raise LookupError("unknown event %r" % event)
    for tr in model.transitions:
        if tr.triggers == event:
            callbacks = list(tr.callbacks)
            state = model.states[tr.destination]
            guard_prev = tr.guard.prev_event
            while state.kind == TRANSIENT:
                matches = _matching(model, state, event, guard_prev)
                if not matches:
                    raise ModelError(
                        "stuck machine: transient state %r has no transition for event %r"
                        % (state.name, event)
                    )
                nxt = matches[0]
                callbacks.extend(nxt.callbacks)
                state = model.states[nxt.destination]
            return callbacks
    raise LookupError("event %r is never triggered by any transition" % event)


def replay_events(model, events):
    """Replay an event sequence against the model via guard evaluation.

    Returns the list of feasible paths (lists of Steps); an empty list means
    the sequence is infeasible or does not end at the goal state.
    """
    results = []

    def advance(state_name, idx, prev_event, path):
        if idx == len(events):
            if state_name == model.goal:
                results.append(list(path))
            return
        state = model.states[state_name]
        if state.kind != STATIC:
            return
        event = events[idx]
        for tr in _static_exits(model, state, prev_event):
            if tr.triggers != event or tr.destination == state_name:
                continue
            callbacks = list(tr.callbacks)
            nxt = model.states[tr.destination]
            ok = True
            while nxt.kind == TRANSIENT:
                matches = _matching(model, nxt, event, prev_event)
                if not matches or matches[0].destination == nxt.name:
                    ok = False
                    break
                callbacks.extend(matches[0].callbacks)
                nxt = model.states[matches[0].destination]
            if not ok:
                continue
            path.append(Step(event, tuple(callbacks)))
            advance(nxt.name, idx + 1, event, path)
            path.pop()

    advance(model.initial, 0, None, [])
    return results
