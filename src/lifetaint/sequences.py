"""Callback-sequence derivation and m-way permutation of permutation units.

A component's analyzable executions are built in three stages: derived event
paths are resolved to the callbacks the component actually implements, the
resulting callback sequences are deduplicated, and the deduplicated pieces
become permutation units.  An m-way permutation arranges m distinct units
after a fixed prefix (the creation callbacks for an activity), which keeps
every generated ordering feasible with respect to the life-cycle model.
"""

import itertools
from dataclasses import dataclass

from .lifecycle import derive_paths

LIFECYCLE_SUBSEQUENCE = "LIFECYCLE_SUBSEQUENCE"
AUI_CALLBACK = "AUI_CALLBACK"
MISC_CALLBACK = "MISC_CALLBACK"


@dataclass(frozen=True)
class CallbackSequence:
    callbacks: tuple


@dataclass(frozen=True)
class Segment:
    """Callbacks belonging to one event of a unit (may be empty)."""

    event: str
    callbacks: tuple


@dataclass(frozen=True)
class PermutationUnit:
    kind: str
    events: tuple      # event names this unit covers, in order
    segments: tuple    # one Segment per event

    @property
    def callbacks(self):
        return CallbackSequence(tuple(cb for seg in self.segments for cb in seg.callbacks))


@dataclass(frozen=True)
class PermutationPlan:
    m: int
    units: tuple
    prefix: tuple      # Segments preceding every generated sequence

    @property
    def prefix_callbacks(self):
        return CallbackSequence(tuple(cb for seg in self.prefix for cb in seg.callbacks))


@dataclass(frozen=True)
class FlattenedSequence:
    """One generated ordering: prefix plus m units, flattened to segments."""

    unit_indexes: tuple
    segments: tuple

    @property
    def callbacks(self):
        return tuple(cb for seg in self.segments for cb in seg.callbacks)

    def event_trace(self, upto_segment):
        return tuple(seg.event for seg in self.segments[: upto_segment + 1])


def _implemented(component):
    return {m.name for m in component.klass.methods}


def _restrict(path, implemented):
    return tuple(
        Segment(step.event, tuple(cb for cb in step.callbacks if cb in implemented))
        for step in path
    )


def derive_callback_sequences(model, component):
    """Unique callback sequences for the component, one per distinct result.

    Each derived path is restricted to the callbacks the component's class
    implements; identical results are deduplicated keeping the first, and a
    fully empty result is discarded.
    """
    implemented = _implemented(component)
    seen = set()
    out = []
    for path in derive_paths(model):
        cbs = tuple(cb for step in path for cb in step.callbacks if cb in implemented)
        if cbs and cbs not in seen:
            seen.add(cbs)
            out.append(CallbackSequence(cbs))
    return out


def build_permutation_units(model, component):
    """Permutation units for a component, in deterministic order.

    Lifecycle units come first (derivation order), then AUI callbacks in
    declaration order, then miscellaneous callbacks.  For activities the
    lifecycle units are the per-path segments after the leading creation
    event; for services they are whole paths.
    """
    implemented = _implemented(component)
    units = []
    seen = set()
    if model is not None:
        drop = 1 if model.component_kind == "ACTIVITY" else 0
        for path in derive_paths(model):
            segs = _restrict(path[drop:], implemented)
            key = tuple(cb for seg in segs for cb in seg.callbacks)
            if not key or key in seen:
                continue
            seen.add(key)
            units.append(
                PermutationUnit(LIFECYCLE_SUBSEQUENCE, tuple(s.event for s in segs), segs)
            )
    for kind, names in ((AUI_CALLBACK, component.aui_callbacks),
                        (MISC_CALLBACK, component.misc_callbacks)):
        for name in names:
            if name not in implemented:
                continue
            seg = Segment(name, (name,))
            units.append(PermutationUnit(kind, (name,), (seg,)))
    return units


def build_plan(model, component, m):
    """Assemble the m-way plan: creation prefix (activities) plus units."""
    if model is not None and model.component_kind == "ACTIVITY":
        paths = derive_paths(model)
        prefix = _restrict(paths[0][:1], _implemented(component)) if paths else ()
    else:
        prefix = ()
    units = build_permutation_units(model, component)
    return PermutationPlan(m, tuple(units), tuple(prefix))


def receiver_plan(component, m):
    """Degenerate plan for a broadcast receiver: its one-state model has a
    single onReceive callback, so units are just the declared callbacks."""
    implemented = _implemented(component)
    units = []
    if "onReceive" in implemented:
        seg = Segment("receiveBroadcast", ("onReceive",))
        units.append(PermutationUnit(LIFECYCLE_SUBSEQUENCE, ("receiveBroadcast",), (seg,)))
    for name in component.misc_callbacks:
        if name in implemented:
            seg = Segment(name, (name,))
            units.append(PermutationUnit(MISC_CALLBACK, (name,), (seg,)))
    return PermutationPlan(m, tuple(units), ())


def generate_m_way(plan):
    """Yield every ordered arrangement of m distinct units, prefixed.

    Arrangements follow unit index order (for units A,B,C and m=2:
    AB, AC, BA, BC, CA, CB); the total count is N!/(N-m)!.
    """
    n = len(plan.units)
    if not 1 <= plan.m <= n:
        raise ValueError("m must satisfy 1 <= m <= %d, got %d" % (n, plan.m))
    for combo in itertools.permutations(range(n), plan.m):
        segments = list(plan.prefix)
        for idx in combo:
            segments.extend(plan.units[idx].segments)
        yield FlattenedSequence(combo, tuple(segments))
