"""Layered symbol tables: entries, alias-preserving copies, merges.

Aliases are realized by identity: names that alias one object hold the same
Entry, so a mutation through any alias is seen by all of them.  A deep copy
duplicates the whole reachable structure while preserving the sharing inside
it, one new Entry per copied object.  A held state's earlier readers get
shares instead: spaces with their own register tables over its heap, in one
group.  The first write through a member (`own`) gives every other member
a deep copy, equal to one taken at the share, as nothing wrote the heap in
between.  Copies, merges and taint collection walk the heap with explicit
stacks, so a heap of any depth fits.  A merge has two paths: spaces over
one heap that differ only in fieldless objects at registers are joined
pair by pair in place, and any other spaces are joined as private copies.

Taint sets are immutable frozensets, shared by copies and replaced on write
(`add_taints`), so a write through one copy never shows in another, and an
object that nothing changed since a copy holds the very set its source
holds, which a merge of the two then skips.  Copies are built without
running constructors.

The heap has one write rule.  Its only writers are `store` (a name bound
in the statics or a field list), `assign` (an attribute of an object or a
space) and `add_taints`, each given the space that writes.  A write that
changes something first gives the other members of that space's group
their copies (`own`), then logs itself on `trail` while a callback runs in
place on a kept component state, so that `undo` brings the start state
back and `redo` the state the run left.  A run logs nothing else: a method
frame's registers and return value, which no state a run leaves holds, and
the copies that `own` fills.
"""

from collections import namedtuple

PRIMITIVE = "PRIMITIVE"
IMMUTABLE_REF = "IMMUTABLE_REF"
MUTABLE_REF = "MUTABLE_REF"
COLLECTION = "COLLECTION"


# location: (class name, method signature, instruction index)
TaintTag = namedtuple("TaintTag", "source_api location")


_NO_TAINTS = frozenset()
_new = object.__new__

# the running callback's writes while it runs in place, else None: each is
# (table or object, name or attribute, old value, new value)
trail = None
_UNBOUND = object()           # the old value of a name that a write binds


def store(space, table, name, entry):
    """table[name] = entry, a write to `space`'s heap."""
    old = table.get(name, _UNBOUND)
    if old is not entry:
        if space.group is not None:
            space.own()
        if trail is not None:
            trail.append((table, name, old, entry))
        table[name] = entry


def assign(space, obj, attr, value):
    """obj.attr = value, a write to `space`'s heap."""
    old = getattr(obj, attr)
    if old is not value:
        if space.group is not None:
            space.own()
        if trail is not None:
            trail.append((obj, attr, old, value))
        setattr(obj, attr, value)


def undo(log):
    """Take back the writes of `log`, last first."""
    for target, name, old, _ in reversed(log):
        if old is _UNBOUND:
            del target[name]
        elif target.__class__ is dict:
            target[name] = old
        else:
            setattr(target, name, old)


def redo(log):
    """Make the writes of `log` again, in order."""
    for target, name, _, new in log:
        if target.__class__ is dict:
            target[name] = new
        else:
            setattr(target, name, new)


class Entry:
    """One heap object.  Equality is identity; `taints` is a frozenset that
    copies share and a write replaces."""

    __slots__ = ("taints", "fields", "value_kind", "const_value")

    def __init__(self, value_kind=MUTABLE_REF, taints=None, const_value=None):
        self.taints = frozenset(taints) if taints else _NO_TAINTS
        self.fields = {}
        self.value_kind = value_kind
        self.const_value = const_value

    @property
    def details(self):
        # the entry itself; only perfbench/tracer.py's _count_details reads
        # it, and ROADMAP item 14's benchmark step deletes it
        return self

    def deep_copy(self):
        if self.fields:
            return _copy({0: self}, {})[0]
        # a string or a number: nothing to walk
        dup = _new(Entry)
        dup.taints = self.taints
        dup.fields = {}
        dup.value_kind = self.value_kind
        dup.const_value = self.const_value
        return dup


def _copy(table, memo):
    """A copy of a table of entries under `memo` (Entry -> its copy): each
    object is copied when first reached, and its fields are filled in the
    same walk.  The duplicates share their sources' taint sets."""
    out = {}
    stack = [(table, out)]
    while stack:
        src, dst = stack.pop()
        for name, entry in src.items():
            dup = memo.get(entry)
            if dup is None:
                # Entry.deep_copy's duplicate, inlined: a call per object
                # would cost about a tenth of the copy
                dup = memo[entry] = _new(Entry)
                dup.taints = entry.taints
                dup.fields = fields = {}
                dup.value_kind = entry.value_kind
                dup.const_value = entry.const_value
                if entry.fields:
                    stack.append((entry.fields, fields))
            dst[name] = dup
    return out


def fresh_entry(kind=MUTABLE_REF):
    return Entry(kind)


def value_entry(taints=(), const_value=None):
    """A new immutable value: a string or another result the engine builds."""
    return Entry(IMMUTABLE_REF, taints, const_value)


# the kinds that an assignment binds as they are, not as a copy
BOUND_AS_IS = frozenset((MUTABLE_REF, COLLECTION))


def bind_copy(entry):
    """Copy semantics for assignment: a mutable object or collection is
    shared, a primitive or immutable reference is duplicated."""
    if entry.value_kind in BOUND_AS_IS:
        return entry
    return entry.deep_copy()


def add_taints(space, entry, tags):
    """`entry` also carries `tags`, a write to `space`'s heap: its set is
    replaced, never changed in place, and kept when `tags` adds nothing."""
    if not tags <= entry.taints:
        assign(space, entry, "taints", entry.taints | tags if entry.taints else frozenset(tags))


def collect_taints(*entries):
    """All tags reachable from the entries through their fields (cycle-safe)."""
    if len(entries) == 1 and not entries[0].fields:
        return set(entries[0].taints)
    tags = set()
    seen = set()
    stack = list(entries)
    while stack:
        entry = stack.pop()
        if entry in seen:
            continue
        seen.add(entry)
        tags |= entry.taints
        stack.extend(entry.fields.values())
    return tags


class SymbolSpace:
    """The layered symbol tables a method executes against.

    The method level is a stack: `regs` holds the running method's registers
    and `outer` its callers' register tables, outermost first, so a copy or
    merge of the space takes the whole heap the call chain can reach.
    `statics` is the global level; the class/instance level is reached
    through the receiver entry's field list, and the block level is realized
    by the whole space each block holds as its OUT/OUT_d for the blocks
    that read it.  Lookup goes to `regs` only: the layers have disjoint name
    spaces.
    """

    __slots__ = ("regs", "statics", "outer", "returned", "group")

    def __init__(self, regs=None, statics=None, outer=()):
        self.regs = regs if regs is not None else {}
        self.statics = statics if statics is not None else {}
        self.outer = outer
        self.returned = None
        self.group = None         # the spaces that share this one's heap, or None

    def deep_copy(self):
        memo = {}
        dup = SymbolSpace(_copy(self.regs, memo), _copy(self.statics, memo),
                          tuple(_copy(t, memo) for t in self.outer))
        if self.returned is not None:
            dup.returned = _copy({0: self.returned}, memo)[0]
        return dup

    def share(self):
        """A space with its own register table over this space's heap; the
        two are then in one group."""
        if self.group is None:
            self.group = [self]
        dup = SymbolSpace(dict(self.regs), self.statics, self.outer)
        dup.returned, dup.group = self.returned, self.group
        self.group.append(dup)
        return dup

    def own(self, keep=()):
        """Make the heap this space's own before it writes there: every other
        member of its group but those in `keep` takes a deep copy in place,
        and the group ends."""
        group = self.group
        if group is not None:
            for space in group:
                space.group = None
                if space is not self and space not in keep:
                    dup = space.deep_copy()
                    space.regs, space.statics, space.outer, space.returned = (
                        dup.regs, dup.statics, dup.outer, dup.returned)


def fingerprint(space):
    """A canonical flat tuple of a space: two spaces with equal fingerprints
    hold the same names, in the same order, bound to the same alias graph of
    objects with the same contents, so every run from either behaves alike.

    Each Entry is numbered at its first visit, and an edge to it is
    written as its number.  The tables `regs`, `statics`, `outer` and
    `returned` are written first, each as its length and its (name, number)
    pairs in insertion order; then every object in number order as its
    value kind, taints, constant type, constant and its fields the same way
    as a table.  The constant's type keeps 1, 1.0 and True apart.
    """
    returned = {} if space.returned is None else {0: space.returned}
    # the root tables, then each object as it is numbered; one walk writes
    # them all in that order
    queue = [space.regs, space.statics, *space.outer, returned]
    roots = len(queue)
    number = {}                   # Entry -> its number
    out = [len(space.outer)]
    for item in queue:            # grows as the tables reach new objects
        if item.__class__ is Entry:
            const = item.const_value
            out += (item.value_kind, item.taints, type(const), const)
            item = item.fields
        out.append(len(item))
        for name, entry in item.items():
            n = number.get(entry)
            if n is None:
                n = number[entry] = len(queue) - roots
                queue.append(entry)
            out += (name, n)
    return tuple(out)


def _join(space, table, pairs, seen):
    """Join (name, entry) pairs of another space into `table` of `space`:
    adopt the entry where the name is unbound, else merge the two objects
    and then their fields the same way.  A nested merge finishes before the
    next pair of its level is taken, as in a recursive walk: a field cycle
    can lead back to an object this join has already extended."""
    stack = [(table, iter(pairs))]
    while stack:
        table, pending = stack[-1]
        for name, other in pending:
            base = table.get(name)
            if base is None:
                store(space, table, name, other)
                continue
            if (base, other) in seen:
                continue
            seen.add((base, other))
            if other.taints is not base.taints:   # the same set: unchanged since a copy
                add_taints(space, base, other.taints)
            if base.const_value != other.const_value:
                assign(space, base, "const_value", None)
            if base.value_kind != other.value_kind:
                # conflicting kinds collapse to a mutable object, the weakest claim
                kinds = (base.value_kind, other.value_kind)
                kind = COLLECTION if COLLECTION in kinds else MUTABLE_REF
                assign(space, base, "value_kind", kind)
            if other.fields:
                # listed first: an adopted field can alias `other` itself,
                # which a nested merge then extends
                stack.append((base.fields, iter(list(other.fields.items()))))
                break
        else:
            stack.pop()


def merge_spaces(frames):
    """Conservative union of symbol spaces (alias structure from the
    first). Taint sets union; constants agree or collapse to "not a
    constant"; fields merge the same way.  The spaces belong to one
    activation, so their caller tables pair up.  The first is updated in
    place and returned, the others are consumed.

    A join takes one of two paths.  Inputs that all share the first's heap
    are joined directly when `_joins_directly` finds that they differ from
    it only in fieldless objects at registers it binds.  Every other join
    is of private copies: each space that shares an input's heap takes a
    copy first, and `_join` then merges every table.
    """
    base, others = frames[0], frames[1:]
    group = base.group
    if group is not None:
        if all(other.group is group for other in others) and _joins_directly(base, others):
            return base
        base.own()
    regs = base.regs
    seen = set()
    for other in others:
        other.own()  # a heap but the first's: the rest of its group copies it
        for table, src in zip((regs, base.statics) + base.outer,
                              (other.regs, other.statics) + other.outer):
            if table is not src:
                _join(base, table, src.items(), seen)
        if base.returned is None:
            base.returned = other.returned
        elif other.returned is not None:
            # the two return values, as one-entry tables
            _join(base, {0: base.returned}, [(0, other.returned)], seen)
    return base


def _joins_directly(base, others):
    """Join `others`, which share `base`'s heap, into it pair by pair, and
    return True, if what they bind differently from `base` is only
    registers: `base` binds each such name, the inputs' objects there have
    no fields and none is one of `base`'s that the join changes, and the
    return values are `base`'s.  `_join` of private copies would then take
    just these pairs, and change only `base`'s objects at those names."""
    regs = base.regs
    # each input's registers bound to another object
    diffs = [[(name, entry) for name, entry in other.regs.items()
              if regs.get(name) is not entry] for other in others]
    changed = {regs.get(name) for pairs in diffs for name, _ in pairs}
    if None in changed:
        return False
    for other, pairs in zip(others, diffs):
        if other.returned is not base.returned:
            return False
        for _, entry in pairs:
            if entry.fields or entry in changed:
                return False
    base.own(others)
    # `_join`'s step, in its order (a pair met again changes nothing); a
    # call per pair would slow `_join`'s walk of a large heap
    for pairs in diffs:
        for name, other in pairs:
            entry = regs[name]
            if other.taints is not entry.taints:
                add_taints(base, entry, other.taints)
            if entry.const_value != other.const_value:
                assign(base, entry, "const_value", None)
            if entry.value_kind != other.value_kind:
                kinds = (entry.value_kind, other.value_kind)
                assign(base, entry, "value_kind",
                       COLLECTION if COLLECTION in kinds else MUTABLE_REF)
    return True
