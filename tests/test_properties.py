"""Property suites over the heap abstraction and the combinatorics."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lifetaint.detectors import Warning, dedup_warnings
from lifetaint.sequences import PermutationPlan, PermutationUnit, Segment, generate_m_way
from lifetaint.symbols import (
    COLLECTION, IMMUTABLE_REF, MUTABLE_REF, PRIMITIVE,
    Entry, SymbolSpace, TaintTag, add_taints, bind_copy, collect_taints,
    fingerprint, fresh_entry, merge_spaces, value_entry,
)

TAG = TaintTag("Api.src/0", ("C", "m/0", 0))
OTHER = TaintTag("Api.other/0", ("C", "m/0", 1))


@st.composite
def field_chains(draw):
    return draw(st.lists(st.sampled_from(["f", "g", "next", "value"]),
                         min_size=0, max_size=5))


def dig(entry, chain, create=True):
    cur = entry
    for name in chain:
        nxt = cur.fields.get(name)
        if nxt is None:
            if not create:
                return None
            nxt = fresh_entry(MUTABLE_REF)
            cur.fields[name] = nxt
        cur = nxt
    return cur


class TestAliasSoundness:
    @given(field_chains())
    def test_taint_through_alias_is_visible(self, chain):
        base = fresh_entry(MUTABLE_REF)
        alias = bind_copy(base)   # shallow: the entry itself
        dig(alias, chain).taints |= {TAG}
        assert TAG in collect_taints(base)

    @given(field_chains())
    def test_deep_copy_is_isolated(self, chain):
        base = fresh_entry(MUTABLE_REF)
        dig(base, chain)
        dup = base.deep_copy()
        dig(dup, chain).taints |= {TAG}
        assert TAG not in collect_taints(base)

    @given(field_chains(), st.sampled_from([MUTABLE_REF, COLLECTION]))
    def test_reassignment_isolation(self, chain, kind):
        # binding a new object to the alias's name leaves the original untouched
        base = fresh_entry(kind)
        dig(base, chain).taints |= {TAG}
        before = collect_taints(base)
        regs = {"a": base}
        regs["b"] = bind_copy(regs["a"])
        assert regs["b"] is base   # an alias is the entry itself
        regs["b"] = Entry(MUTABLE_REF, taints={OTHER})
        assert collect_taints(regs["a"]) == before

    def test_deep_copy_preserves_internal_sharing(self):
        base = fresh_entry(MUTABLE_REF)
        shared = fresh_entry(MUTABLE_REF)
        base.fields["a"] = bind_copy(shared)
        base.fields["b"] = bind_copy(shared)
        dup = base.deep_copy()
        dup.fields["a"].taints |= {TAG}
        assert TAG in collect_taints(dup.fields["b"])
        assert TAG not in collect_taints(base)


class TestMergeOrder:
    def test_nested_merge_finishes_before_the_next_field(self):
        # base x: {a: {p: x}}; other x: {a: {p: y}, b: ...}, y: {b: ...}.
        # Merging a reaches x again through p and adopts y's b before x's
        # own b is taken, so x's b is y's object, joined with the other's
        b = fresh_entry(MUTABLE_REF)
        b.fields["a"] = fresh_entry(MUTABLE_REF)
        b.fields["a"].fields["p"] = b
        o, y = fresh_entry(MUTABLE_REF), fresh_entry(MUTABLE_REF)
        o.fields["a"] = fresh_entry(MUTABLE_REF)
        o.fields["a"].fields["p"] = y
        o.fields["b"] = Entry(IMMUTABLE_REF, taints={TAG})
        y.fields["b"] = Entry(IMMUTABLE_REF, taints={OTHER})
        y_b = y.fields["b"]
        merged = merge_spaces([SymbolSpace({"x": b}), SymbolSpace({"x": o})])
        assert merged.regs["x"].fields["b"] is y_b
        assert y_b.taints == {TAG, OTHER}


    def test_a_pair_met_again_is_not_joined_again(self):
        # base r and s: one value, p and q: one object; the other binds r
        # and s to x, and p and q to objects whose field f holds x and a
        # tainted z.  The join adopts x as p.f, and then joins z into it;
        # at s the pair (r's value, x) comes up again and is skipped, so
        # z's taint reaches p.f but not r
        value, obj = value_entry(), fresh_entry(MUTABLE_REF)
        x, z = value_entry(), value_entry({TAG})
        o1, o2 = fresh_entry(MUTABLE_REF), fresh_entry(MUTABLE_REF)
        o1.fields["f"], o2.fields["f"] = x, z
        merged = merge_spaces([SymbolSpace({"r": value, "p": obj, "q": obj, "s": value}),
                               SymbolSpace({"r": x, "p": o1, "q": o2, "s": x})])
        assert merged.regs["p"].fields["f"] is x
        assert (x.taints, value.taints) == ({TAG}, set())


def cyclic_space():
    """Every table of a space over a heap with a field cycle (a.next.next is
    a), a collection aliased from a register, a static and a field, taints
    and constants."""
    a, b, items = fresh_entry(), fresh_entry(), fresh_entry(COLLECTION)
    a.fields["next"] = b
    b.fields["next"] = a
    a.fields["items"] = items
    items.taints |= {TAG}
    b.fields["name"] = value_entry({OTHER}, "text")
    space = SymbolSpace({"a": a, "items": items, "n": Entry(PRIMITIVE, const_value=1)},
                        {"S.box": items}, ({"this": b},))
    space.returned = value_entry({TAG})
    return space


def heap_pairs(space, dup):
    """{object of `space`: its counterpart in `dup`}, walking both heaps
    along the same names; an object reached twice has one counterpart."""
    tables = [(space.regs, dup.regs), (space.statics, dup.statics),
              *zip(space.outer, dup.outer), ({0: space.returned}, {0: dup.returned})]
    pairs = {}
    while tables:
        src, dst = tables.pop()
        assert list(src) == list(dst)
        for name, entry in src.items():
            other = dst[name]
            if entry not in pairs:
                pairs[entry] = other
                tables.append((entry.fields, other.fields))
            assert pairs[entry] is other
    return pairs


class TestSharedTaints:
    def test_deep_copy_shares_taints_and_no_fields(self):
        space = cyclic_space()
        pairs = heap_pairs(space, space.deep_copy())
        assert len(pairs) == 6
        for obj, dup in pairs.items():
            assert dup is not obj and dup.fields is not obj.fields
            assert dup.taints is obj.taints   # immutable, so shared
            before = obj.taints
            dup.taints |= {OTHER, TaintTag("Api.new/0", ("C", "m/0", 2))}
            assert obj.taints is before and dup.taints > before

    @given(st.sampled_from([IMMUTABLE_REF, PRIMITIVE, MUTABLE_REF, COLLECTION]),
           st.sets(st.sampled_from([TAG, OTHER])), st.sampled_from([None, "s", 1]))
    def test_entry_copy_without_fields(self, kind, tags, const):
        entry = Entry(kind, tags, const)
        dup = entry.deep_copy()
        assert dup is not entry and dup.fields is not entry.fields
        assert dup.taints is entry.taints and dup.taints == tags
        assert (dup.value_kind, dup.const_value) == (kind, const)
        dup.fields["f"] = fresh_entry()
        dup.taints |= {TaintTag("Api.new/0", ("C", "m/0", 2))}
        assert entry.fields == {} and entry.taints == tags

    def test_a_write_replaces_the_set_only_when_it_adds(self):
        entry = Entry(MUTABLE_REF, {TAG})
        space = SymbolSpace({"r": entry})
        before = entry.taints
        add_taints(space, entry, {TAG})
        add_taints(space, entry, set())
        assert entry.taints is before
        add_taints(space, entry, {OTHER})
        assert entry.taints == {TAG, OTHER} and before == {TAG}

    def test_merge_of_two_copies_is_the_space(self):
        space = cyclic_space()
        merged = merge_spaces([space.deep_copy(), space.deep_copy()])
        assert fingerprint(merged) == fingerprint(space)
        # no union was built: every object keeps the very set it shares
        assert all(m.taints is obj.taints for obj, m in heap_pairs(space, merged).items())


class TestCollectionMonotonicity:
    @given(st.lists(st.sampled_from(["put_tainted", "put_clean", "get"]),
                    min_size=1, max_size=30))
    def test_taints_never_shrink_under_element_ops(self, ops):
        coll = fresh_entry(COLLECTION)
        high = 0
        for op in ops:
            if op == "put_tainted":
                coll.taints |= {TAG}
            elif op == "put_clean":
                pass  # element overwrite never clears object taint
            else:
                got = Entry(IMMUTABLE_REF, taints=coll.taints)
                assert len(collect_taints(got)) >= (1 if high else 0)
            assert len(coll.taints) >= high
            high = len(coll.taints)


def _units(n):
    return tuple(
        PermutationUnit("LIFECYCLE_SUBSEQUENCE", ("e%d" % i,),
                        (Segment("e%d" % i, ("cb%d" % i,)),))
        for i in range(n)
    )


class TestPermutationCountLaw:
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))))
    @settings(max_examples=40)
    def test_count_is_falling_factorial(self, nm):
        n, m = nm
        plan = PermutationPlan(_units(n), ())
        seqs = list(generate_m_way(plan, m))
        assert len(seqs) == math.factorial(n) // math.factorial(n - m)
        # all arrangements distinct
        assert len({s.unit_indexes for s in seqs}) == len(seqs)


api_sets = st.frozensets(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4)


@st.composite
def warning_lists(draw):
    raws = draw(st.lists(st.tuples(api_sets, st.sampled_from(["S1", "S2"])),
                         min_size=0, max_size=25))
    return [Warning("INFO_LEAK", srcs, sink, [], "C", 1, ("e",))
            for (srcs, sink) in raws]


class TestDedupProperties:
    @given(warning_lists())
    def test_idempotent(self, ws):
        once = dedup_warnings(ws)
        twice = dedup_warnings(once)
        assert [x.key() for x in twice] == [x.key() for x in once]

    @given(warning_lists(), st.randoms())
    def test_order_insensitive_key_set(self, ws, rng):
        shuffled = ws[:]
        rng.shuffle(shuffled)
        assert ({x.key() for x in dedup_warnings(ws)}
                == {x.key() for x in dedup_warnings(shuffled)})

    @given(warning_lists())
    def test_antichain_per_sink(self, ws):
        kept = dedup_warnings(ws)
        for a in kept:
            for b in kept:
                if a is not b and a.sink_api == b.sink_api:
                    assert not (a.source_apis < b.source_apis)
