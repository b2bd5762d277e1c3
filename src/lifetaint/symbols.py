"""Layered symbol tables: entries, alias-preserving copies, merges.

Aliases are realized by identity: entries that alias one object share one
EntryDetails, so a mutation through any alias is seen by all of them.  A
shallow copy shares the details object; a deep copy duplicates the whole
reachable structure while preserving the sharing inside it, which is what
isolates a block's OUT_d snapshot from later mutation.
"""

from dataclasses import dataclass

PRIMITIVE = "PRIMITIVE"
IMMUTABLE_REF = "IMMUTABLE_REF"
MUTABLE_REF = "MUTABLE_REF"
COLLECTION = "COLLECTION"


@dataclass(frozen=True)
class TaintTag:
    source_api: str
    location: tuple   # (class name, method signature, instruction index)

    def __deepcopy__(self, memo):
        return self


class EntryDetails:
    __slots__ = ("taints", "fields", "value_kind", "const_value", "const_from_code", "class_name")

    def __init__(self, value_kind=MUTABLE_REF, taints=None, const_value=None,
                 const_from_code=False, class_name=None):
        self.taints = set(taints or ())
        self.fields = {}
        self.value_kind = value_kind
        self.const_value = const_value
        self.const_from_code = const_from_code
        self.class_name = class_name


class Entry:
    __slots__ = ("name", "details")

    def __init__(self, name, details):
        self.name = name
        self.details = details

    def shallow_copy(self, name=None):
        return Entry(name if name is not None else self.name, self.details)

    def deep_copy(self, name=None, memo=None):
        memo = memo if memo is not None else {}
        return Entry(name if name is not None else self.name, _copy_details(self.details, memo))


def _copy_details(details, memo):
    found = memo.get(id(details))
    if found is not None:
        return found
    dup = EntryDetails(details.value_kind, details.taints, details.const_value,
                       details.const_from_code, details.class_name)
    memo[id(details)] = dup
    for fname, fentry in details.fields.items():
        dup.fields[fname] = Entry(fentry.name, _copy_details(fentry.details, memo))
    return dup


def fresh_entry(name, kind=MUTABLE_REF, class_name=None):
    return Entry(name, EntryDetails(kind, class_name=class_name))


def const_entry(name, value, kind):
    return Entry(name, EntryDetails(kind, const_value=value, const_from_code=True))


def bind_copy(entry, name):
    """Copy semantics for assignment: share details for mutable objects and
    collections, duplicate them for primitives and immutable references."""
    if entry.details.value_kind in (MUTABLE_REF, COLLECTION):
        return entry.shallow_copy(name)
    return entry.deep_copy(name)


def collect_taints(entry):
    """All tags reachable from the entry through its fields (cycle-safe)."""
    tags = set()
    seen = set()
    stack = [entry.details]
    while stack:
        det = stack.pop()
        if id(det) in seen:
            continue
        seen.add(id(det))
        tags |= det.taints
        stack.extend(f.details for f in det.fields.values())
    return tags


class SymbolSpace:
    """The layered symbol tables a method executes against.

    Registers form the method level, `statics` the global level; the
    class/instance level is reached through the receiver entry's field list,
    and the block level is realized by per-block snapshots (OUT/OUT_d) of
    whole spaces.  Lookup goes innermost-first: a register shadows nothing
    else because the layers have disjoint name spaces.
    """

    __slots__ = ("regs", "statics", "returned")

    def __init__(self, regs=None, statics=None):
        self.regs = regs if regs is not None else {}
        self.statics = statics if statics is not None else {}
        self.returned = None

    def deep_copy(self):
        memo = {}
        dup = SymbolSpace(
            {n: Entry(e.name, _copy_details(e.details, memo)) for n, e in self.regs.items()},
            {n: Entry(e.name, _copy_details(e.details, memo)) for n, e in self.statics.items()},
        )
        if self.returned is not None:
            dup.returned = Entry(self.returned.name, _copy_details(self.returned.details, memo))
        return dup


def _merge_details(base, other, seen):
    if (id(base), id(other)) in seen:
        return
    seen.add((id(base), id(other)))
    base.taints |= other.taints
    if base.const_value != other.const_value or base.const_from_code != other.const_from_code:
        base.const_value = None
        base.const_from_code = False
    if base.value_kind != other.value_kind:
        # conflicting kinds collapse to a mutable object, the weakest claim
        base.value_kind = COLLECTION if COLLECTION in (base.value_kind, other.value_kind) else MUTABLE_REF
    for fname, fentry in other.fields.items():
        mine = base.fields.get(fname)
        if mine is None:
            base.fields[fname] = fentry
        else:
            _merge_details(mine.details, fentry.details, seen)


def merge_spaces(frames):
    """Conservative union of isolated symbol spaces (alias structure from the
    first). Taint sets union; constants agree or collapse to "not a
    constant"; fields merge recursively.  Inputs must already be private
    copies.
    """
    base = frames[0]
    seen = set()
    for other in frames[1:]:
        for table, src in ((base.regs, other.regs), (base.statics, other.statics)):
            for name, entry in src.items():
                mine = table.get(name)
                if mine is None:
                    table[name] = entry
                else:
                    _merge_details(mine.details, entry.details, seen)
        if base.returned is None:
            base.returned = other.returned
        elif other.returned is not None:
            _merge_details(base.returned.details, other.returned.details, seen)
    return base
