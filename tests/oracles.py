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
  without the memo.
"""

from lifetaint.analysis import _emit, _fresh_state, _run_callback
from lifetaint.errors import ModelError
from lifetaint.lifecycle import Step, _exits, _settle, derive_paths
from lifetaint.sequences import _distinct_paths, _implemented


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
