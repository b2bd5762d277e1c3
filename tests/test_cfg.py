import logging

import pytest

from lifetaint.cfg import build_cfg, remove_back_edges, reverse_post_order, to_dot
from lifetaint.ir import app_from_dict, load_app

from conftest import all_corpus_paths
from test_golden_dags import random_method


def method_of(instructions, labels=None, sig="m/0", params=("this",)):
    doc = {
        "app_id": "t",
        "classes": [{
            "name": "C", "parent_kind": "PLAIN", "static_fields": [],
            "methods": [{
                "sig": sig, "params": list(params),
                "instructions": instructions, "labels": labels or {},
            }],
        }],
        "components": [],
    }
    return app_from_dict(doc).classes[0].methods[0]


def straight():
    return method_of([
        ["CONST_NUM", "v0", 1],
        ["CONST_NUM", "v1", 2],
        ["RETURN_VOID"],
    ])


def diamond():
    # 0: cond; 1: branch | 2: true | 3-: merge
    return method_of([
        ["CONST_NUM", "c", 1],
        ["IF_GOTO", "c", "other"],
        ["CONST_NUM", "v0", 1],
        ["GOTO", "join"],
        ["CONST_NUM", "v0", 2],
        ["CONST_NUM", "v1", 3],
        ["RETURN_VOID"],
    ], labels={"other": 4, "join": 5})


def while_loop():
    # 0-1: header; 2-3: body; 4: exit
    return method_of([
        ["CONST_NUM", "c", 1],
        ["IF_GOTO", "c", "exit"],
        ["CONST_NUM", "v0", 1],
        ["GOTO", "head"],
        ["RETURN_VOID"],
    ], labels={"head": 1, "exit": 4})


def nested_loops():
    return method_of([
        ["CONST_NUM", "c", 1],        # 0 outer header
        ["IF_GOTO", "c", "exit"],     # 1
        ["CONST_NUM", "d", 1],        # 2 inner header
        ["IF_GOTO", "d", "oback"],    # 3
        ["CONST_NUM", "v", 1],        # 4 inner body
        ["GOTO", "ihead"],            # 5
        ["GOTO", "ohead"],            # 6 outer back edge
        ["RETURN_VOID"],              # 7
    ], labels={"ohead": 0, "ihead": 2, "oback": 6, "exit": 7})


def reachable_without(cfg, banned=None):
    """Blocks reachable from the entry along paths that avoid `banned`."""
    seen = set()
    stack = [] if cfg.entry == banned else [cfg.entry]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(s for s in cfg.blocks[x].successors if s != banned)
    return seen


def dominates(cfg, v, b):
    """Brute force: v dominates a reachable b iff b cannot be reached from
    the entry once v is removed."""
    return b not in reachable_without(cfg, v)


def retreating_edges(succs, entry):
    """Edges into a block on the stack of a depth-first walk that takes
    successors in list order."""
    state, found = {}, []

    def dfs(b):
        state[b] = 1
        for s in succs[b]:
            if state.get(s) == 1:
                found.append((b, s))
            elif s not in state:
                dfs(s)
        state[b] = 2

    dfs(entry)
    return found


def find_cycle(cfg):
    state = {}

    def dfs(b):
        state[b] = 1
        for s in cfg.blocks[b].successors:
            if state.get(s) == 1:
                return True
            if s not in state and dfs(s):
                return True
        state[b] = 2
        return False

    return dfs(cfg.entry)


class TestBuild:
    def test_straight_line_single_block(self):
        cfg = build_cfg(straight())
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == []

    def test_diamond_shape(self):
        cfg = build_cfg(diamond())
        assert len(cfg.blocks) == 4
        merge = cfg.blocks[3]
        assert sorted(merge.predecessors) == [1, 2]
        assert sorted(cfg.blocks[0].successors) == [1, 2]

    def test_loop_has_back_edge(self):
        cfg = build_cfg(while_loop())
        back = [(b.id, s) for b in cfg.blocks for s in b.successors if dominates(cfg, s, b.id)]
        assert len(back) == 1
        (tail, header) = back[0]
        assert header < tail  # textbook: header dominates the body end

    @pytest.mark.parametrize("labels", [{}, {"end": 0}], ids=["plain", "label-at-end"])
    def test_empty_method_is_one_empty_block(self, labels):
        cfg = build_cfg(method_of([], labels=labels))
        assert [(b.id, b.start, b.end, b.successors, b.predecessors) for b in cfg.blocks] == [
            (0, 0, 0, [], [])]
        assert reverse_post_order(remove_back_edges(cfg)) == [0]

    def test_deterministic_ids_by_position(self):
        cfg = build_cfg(diamond())
        starts = [b.start for b in cfg.blocks]
        assert starts == sorted(starts)


def check_two_pass_definition(cfg, caplog):
    """The one walk drops what two passes would: first every edge whose
    target dominates its source, then the edges still retreating in a
    depth-first walk of what is left, which are irreducible flow and warn."""
    loops = {(b, s) for b in reachable_without(cfg) for s in cfg.blocks[b].successors
             if dominates(cfg, s, b)}
    rest = [[s for s in b.successors if (b.id, s) not in loops] for b in cfg.blocks]
    irreducible = retreating_edges(rest, cfg.entry)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        dag = remove_back_edges(cfg)
    assert set(cfg.edges()) - set(dag.edges()) == loops | set(irreducible)
    assert any("irreducible" in r.message for r in caplog.records) == bool(irreducible)


class TestDominators:
    @pytest.mark.parametrize("path", all_corpus_paths())
    def test_brute_force_oracle(self, path, caplog):
        app = load_app(path)
        for klass in app.classes:
            for method in klass.methods:
                check_two_pass_definition(build_cfg(method), caplog)

    def test_brute_force_oracle_random_methods(self, caplog):
        for seed in range(300):
            check_two_pass_definition(build_cfg(random_method(seed)), caplog)


class TestDeloop:
    def test_loop_free_unchanged(self):
        cfg = build_cfg(diamond())
        dag = remove_back_edges(cfg)
        assert sorted(dag.edges()) == sorted(cfg.edges())

    def test_single_loop_edge_replaced(self):
        cfg = build_cfg(while_loop())
        assert (2, 1) in cfg.edges()  # body end -> header
        dag = remove_back_edges(cfg)
        assert not find_cycle(dag)
        # body end now feeds the loop exit instead of the header
        assert (2, 1) not in dag.edges()
        assert (2, 3) in dag.edges()

    def test_nested_loops_become_dag(self):
        cfg = build_cfg(nested_loops())
        dag = remove_back_edges(cfg)
        assert not find_cycle(dag)
        exit_block = next(b.id for b in dag.blocks if not b.successors)
        reach = set()
        stack = [dag.entry]
        while stack:
            b = stack.pop()
            if b in reach:
                continue
            reach.add(b)
            stack.extend(dag.blocks[b].successors)
        assert exit_block in reach

    @pytest.mark.parametrize("path", all_corpus_paths())
    def test_corpus_acyclic_and_rpo_valid(self, path):
        app = load_app(path)
        for klass in app.classes:
            for method in klass.methods:
                dag = remove_back_edges(build_cfg(method))
                assert not find_cycle(dag), method.full_signature
                order = reverse_post_order(dag)
                pos = {b: i for i, b in enumerate(order)}
                for b in order:
                    for s in dag.blocks[b].successors:
                        assert pos[b] < pos[s], method.full_signature

    def test_irreducible_fallback_warns(self, caplog):
        # two blocks jumping into each other's middle: neither dominates
        method = method_of([
            ["CONST_NUM", "c", 1],   # 0
            ["IF_GOTO", "c", "b"],   # 1 -> 2 | 4
            ["CONST_NUM", "x", 1],   # 2 (a)
            ["GOTO", "b"],           # 3
            ["CONST_NUM", "y", 1],   # 4 (b)
            ["GOTO", "a"],           # 5
        ], labels={"a": 2, "b": 4})
        with caplog.at_level(logging.WARNING):
            dag = remove_back_edges(build_cfg(method))
        assert not find_cycle(dag)
        assert any("irreducible" in r.message for r in caplog.records)


class TestRpo:
    def test_diamond_order(self):
        dag = remove_back_edges(build_cfg(diamond()))
        order = reverse_post_order(dag)
        assert order[0] == 0 and order[-1] == 3

    def test_chain_identity(self):
        method = method_of([
            ["CONST_NUM", "v0", 1],
            ["GOTO", "next"],
            ["CONST_NUM", "v1", 1],
            ["GOTO", "last"],
            ["RETURN_VOID"],
        ], labels={"next": 2, "last": 4})
        dag = remove_back_edges(build_cfg(method))
        assert reverse_post_order(dag) == [0, 1, 2]

    def test_delooped_header_before_body_before_exit(self):
        dag = remove_back_edges(build_cfg(while_loop()))
        order = reverse_post_order(dag)
        header, body, exit_ = 1, 2, 3
        assert order.index(header) < order.index(body) < order.index(exit_)

    def test_cycle_is_internal_error(self):
        cfg = build_cfg(while_loop())
        with pytest.raises(RuntimeError):
            reverse_post_order(cfg)


def test_dot_export_mentions_blocks():
    dot = to_dot(build_cfg(diamond()))
    assert "digraph" in dot and "b0 -> " in dot
