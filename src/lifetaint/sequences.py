"""Callback-sequence derivation and m-way permutation of permutation units.

A component's analyzable executions are built in three stages: derived event
paths are resolved to the callbacks the component actually implements, the
resulting callback sequences are deduplicated, and the deduplicated pieces
become permutation units, which do not depend on m.  An m-way permutation
arranges m distinct units after a fixed prefix (the creation callbacks for an
activity), which keeps every generated ordering feasible with respect to the
life-cycle model.
"""

import itertools
from collections import namedtuple

from .lifecycle import derive_paths

LIFECYCLE_SUBSEQUENCE = "LIFECYCLE_SUBSEQUENCE"
AUI_CALLBACK = "AUI_CALLBACK"
MISC_CALLBACK = "MISC_CALLBACK"

# the callbacks belonging to one event of a unit (may be empty)
Segment = namedtuple("Segment", "event callbacks")

# `events`: the event names this unit covers, in order; `segments`: one
# Segment per event
PermutationUnit = namedtuple("PermutationUnit", "kind events segments")

# a component's units and prefix, the Segments preceding every generated
# sequence; one plan serves every m
PermutationPlan = namedtuple("PermutationPlan", "units prefix")


class FlattenedSequence(namedtuple("FlattenedSequence", "unit_indexes plan")):
    """One generated ordering: the plan's prefix, then its units at
    `unit_indexes`.  Only a kept warning's event trace reads the segments,
    so `segments` flattens them on each read."""

    __slots__ = ()

    @property
    def segments(self):
        units = self.plan.units
        return sum((units[i].segments for i in self.unit_indexes), self.plan.prefix)

    def event_trace(self, upto_segment):
        return tuple(seg.event for seg in self.segments[: upto_segment + 1])


def _implemented(component):
    return {m.name for m in component.klass.methods}


def _restrict(path, implemented):
    return tuple(
        Segment(step.event, tuple(cb for cb in step.callbacks if cb in implemented))
        for step in path
    )


def _index(paths, drop):
    """(steps, rows): the distinct steps of the paths after each path's
    first `drop`, in order of first use, and each path as the indexes of
    its steps among them."""
    found = {}
    rows = [tuple(found.setdefault(step, len(found)) for step in path[drop:])
            for path in paths]
    return list(found), rows


def _distinct_paths(paths, implemented, drop=0, index=None):
    """(segments, callbacks) of each path after its first `drop` steps,
    restricted to the `implemented` callbacks; a path whose callbacks are
    empty or repeat an earlier path's is skipped, keeping the first.  Each
    step of `index`, `_index(paths, drop)` if not given, is restricted once."""
    steps, rows = _index(paths, drop) if index is None else index
    segments = _restrict(steps, implemented)
    seen = set()
    for row in rows:
        key = sum((segments[i].callbacks for i in row), ())
        if key and key not in seen:
            seen.add(key)
            yield tuple(segments[i] for i in row), key


def _callback_unit(kind, name):
    """The unit of one declared callback, in an event of its own name."""
    return PermutationUnit(kind, (name,), (Segment(name, (name,)),))


def build_plan(model, component):
    """A component's plan: the creation prefix (activities) and the units.
    It does not depend on m, so one plan serves every level of an app.

    Lifecycle units come first (derivation order), then AUI callbacks in
    declaration order, then miscellaneous callbacks.  For activities the
    prefix is the first path's leading creation event and the lifecycle
    units are the per-path segments after it; for services they are whole
    paths.  The lifecycle units and the prefix depend only on which of the
    model's path callbacks the component implements, so the model keeps
    them per set of those, with its paths indexed once (`_index`).
    """
    paths = derive_paths(model)
    if model._path_index is None:
        drop = 1 if model.component_kind == "ACTIVITY" else 0
        model._path_index = (drop, _index(paths, drop),
                             frozenset(cb for path in paths for step in path
                                       for cb in step.callbacks))
    drop, index, path_callbacks = model._path_index
    implemented = path_callbacks.intersection(_implemented(component))
    cached = model._plans.get(implemented)
    if cached is None:
        prefix = _restrict(paths[0][:1], implemented) if drop and paths else ()
        units = tuple(PermutationUnit(LIFECYCLE_SUBSEQUENCE, tuple(s.event for s in segs), segs)
                      for segs, _ in _distinct_paths(paths, implemented, drop, index))
        cached = model._plans[implemented] = (units, prefix)
    units, prefix = cached
    units += tuple(_callback_unit(AUI_CALLBACK, name) for name in component.aui_callbacks)
    units += tuple(_callback_unit(MISC_CALLBACK, name) for name in component.misc_callbacks)
    return PermutationPlan(units, prefix)


def receiver_plan(component):
    """Degenerate plan for a broadcast receiver: its one-state model has a
    single onReceive callback, so the units are onReceive, if implemented,
    and the declared miscellaneous callbacks; AUI callbacks are ignored."""
    units = []
    if "onReceive" in _implemented(component):
        seg = Segment("receiveBroadcast", ("onReceive",))
        units.append(PermutationUnit(LIFECYCLE_SUBSEQUENCE, ("receiveBroadcast",), (seg,)))
    units += [_callback_unit(MISC_CALLBACK, name) for name in component.misc_callbacks]
    return PermutationPlan(tuple(units), ())


def generate_m_way(plan, m):
    """Yield every ordered arrangement of m distinct units of the plan,
    each after its prefix.

    Arrangements follow unit index order (for units A,B,C and m=2:
    AB, AC, BA, BC, CA, CB); the total count is N!/(N-m)!.
    """
    n = len(plan.units)
    if not 1 <= m <= n:
        raise ValueError("m must satisfy 1 <= m <= %d, got %d" % (n, m))
    new = tuple.__new__  # FlattenedSequence's own __new__ is a Python call
    for combo in itertools.permutations(range(n), m):
        yield new(FlattenedSequence, (combo, plan))
