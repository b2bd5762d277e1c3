"""Layered symbol tables: entries, alias-preserving copies, merges.

Aliases are realized by identity: entries that alias one object share one
EntryDetails, so a mutation through any alias is seen by all of them.  A
shallow copy shares the details object; a deep copy duplicates the whole
reachable structure while preserving the sharing inside it, which is what
gives each reader of a block's OUT_d but the last a private copy.
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


class EntryDetails:
    __slots__ = ("taints", "fields", "value_kind", "const_value", "const_from_code")

    def __init__(self, value_kind=MUTABLE_REF, taints=None, const_value=None,
                 const_from_code=False):
        self.taints = set(taints or ())
        self.fields = {}
        self.value_kind = value_kind
        self.const_value = const_value
        self.const_from_code = const_from_code


class Entry:
    __slots__ = ("details",)

    def __init__(self, details):
        self.details = details

    def shallow_copy(self):
        return Entry(self.details)

    def deep_copy(self):
        return Entry(_copy_details(self.details, {}))


def _copy_details(details, memo):
    found = memo.get(id(details))
    if found is not None:
        return found
    dup = EntryDetails(details.value_kind, details.taints, details.const_value,
                       details.const_from_code)
    memo[id(details)] = dup
    for fname, fentry in details.fields.items():
        dup.fields[fname] = Entry(_copy_details(fentry.details, memo))
    return dup


def fresh_entry(kind=MUTABLE_REF):
    return Entry(EntryDetails(kind))


def const_entry(value, kind):
    return Entry(EntryDetails(kind, const_value=value, const_from_code=True))


def bind_copy(entry):
    """Copy semantics for assignment: share details for mutable objects and
    collections, duplicate them for primitives and immutable references."""
    if entry.details.value_kind in (MUTABLE_REF, COLLECTION):
        return entry.shallow_copy()
    return entry.deep_copy()


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

    The method level is a stack: `regs` holds the running method's registers
    and `outer` its callers' register tables, outermost first, so a copy or
    merge of the space takes the whole heap the call chain can reach.
    `statics` is the global level; the class/instance level is reached
    through the receiver entry's field list, and the block level is realized
    by per-block snapshots (OUT/OUT_d) of whole spaces.  Lookup goes to
    `regs` only: the layers have disjoint name spaces.
    """

    __slots__ = ("regs", "statics", "outer", "returned")

    def __init__(self, regs=None, statics=None, outer=()):
        self.regs = regs if regs is not None else {}
        self.statics = statics if statics is not None else {}
        self.outer = outer
        self.returned = None

    def deep_copy(self):
        memo = {}

        def table(src):
            return {n: Entry(_copy_details(e.details, memo)) for n, e in src.items()}

        dup = SymbolSpace(table(self.regs), table(self.statics),
                          tuple(table(t) for t in self.outer))
        if self.returned is not None:
            dup.returned = Entry(_copy_details(self.returned.details, memo))
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
    # listed first: an adopted field can alias `other` itself, which a
    # nested merge then extends
    for fname, fentry in list(other.fields.items()):
        mine = base.fields.get(fname)
        if mine is None:
            base.fields[fname] = fentry
        else:
            _merge_details(mine.details, fentry.details, seen)


def merge_spaces(frames):
    """Conservative union of isolated symbol spaces (alias structure from the
    first). Taint sets union; constants agree or collapse to "not a
    constant"; fields merge recursively.  The spaces belong to one
    activation, so their caller tables pair up.  Inputs must be private:
    the first is updated in place and returned, the others are consumed.
    """
    base = frames[0]
    seen = set()
    for other in frames[1:]:
        for table, src in zip((base.regs, base.statics) + base.outer,
                              (other.regs, other.statics) + other.outer):
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
