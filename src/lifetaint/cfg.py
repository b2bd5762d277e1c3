"""Per-method control-flow graphs: construction, de-looping, block ordering.

The edges into a block still on the stack of one depth-first walk are
removed; for each of them that closes a natural loop (its target dominates
its source), a replacement edge from the end of the loop body to the loop's
exit successors is added when it does not reintroduce a cycle, so the merge
at the loop exit still sees the body's effects.  The result is a
DAG suitable for a single reverse-post-order pass.
"""


class BasicBlock:
    def __init__(self, bid, start, end):
        self.id = bid
        self.start = start          # first instruction index
        self.end = end              # one past the last instruction index
        self.successors = []
        self.predecessors = []


class Cfg:
    def __init__(self, method, blocks, entry=0):
        self.method = method
        self.blocks = blocks
        self.entry = entry

    def edges(self):
        return [(b.id, s) for b in self.blocks for s in b.successors]

    def instructions(self, block):
        return self.method.instructions[block.start:block.end]


def leaders(method):
    """The first instruction index of each basic block, in order: 0, every
    branch target and label below the end, and each index after a branch
    or a return."""
    instrs = method.instructions
    n = len(instrs)
    found = {0}
    for ins in instrs:
        if ins.kind in ("IF_GOTO", "GOTO"):
            found.add(method.labels[ins.operands[-1]])
            if ins.index + 1 < n:
                found.add(ins.index + 1)
        elif ins.kind in ("RETURN", "RETURN_VOID") and ins.index + 1 < n:
            found.add(ins.index + 1)
    for target in method.labels.values():
        if target < n:
            found.add(target)
    return sorted(found)


def build_cfg(method):
    """Partition instructions into leader-delimited blocks and wire edges."""
    instrs = method.instructions
    n = len(instrs)
    starts = leaders(method)
    blocks = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        blocks.append(BasicBlock(i, start, end))
    by_start = {b.start: b.id for b in blocks}
    for b in blocks:
        if b.start == b.end:
            continue
        last = instrs[b.end - 1]
        if last.kind == "GOTO":
            succs = [by_start[method.labels[last.operands[0]]]]
        elif last.kind == "IF_GOTO":
            succs = []
            if b.end < n:
                succs.append(by_start[b.end])
            target = by_start[method.labels[last.operands[1]]]
            if target not in succs:
                succs.append(target)
        elif last.kind in ("RETURN", "RETURN_VOID"):
            succs = []
        else:
            succs = [by_start[b.end]] if b.end < n else []
        b.successors = succs
        for s in succs:
            blocks[s].predecessors.append(b.id)
    return Cfg(method, blocks)


def _reachable(blocks, start, avoid=None):
    """Blocks reachable from start along paths that do not enter avoid."""
    seen = {avoid}
    stack = [start]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(blocks[b].successors)
    seen.discard(avoid)
    return seen


def _dfs(blocks, entry, back_edge):
    """Iterative depth-first walk from entry, successors in list order.

    Calls back_edge(u, v) for every edge into a block still on the walk's
    stack (the callback may drop that edge) and returns the visited blocks
    in post order.
    """
    post = []
    state = {entry: 1}          # 1: on the stack, 2: finished
    stack = [(entry, iter(list(blocks[entry].successors)))]
    while stack:
        node, succs = stack[-1]
        for s in succs:
            if state.get(s) == 1:
                back_edge(node, s)
            elif s not in state:
                state[s] = 1
                stack.append((s, iter(list(blocks[s].successors))))
                break
        else:
            state[node] = 2
            stack.pop()
            post.append(node)
    return post


def _natural_loop(cfg, tail, header):
    body = {header, tail}
    work = [tail]
    while work:
        node = work.pop()
        if node == header:
            continue
        for p in cfg.blocks[node].predecessors:
            if p not in body:
                body.add(p)
                work.append(p)
    return body


def _copy(cfg):
    blocks = [BasicBlock(b.id, b.start, b.end) for b in cfg.blocks]
    for b, nb in zip(cfg.blocks, blocks):
        nb.successors = list(b.successors)
        nb.predecessors = list(b.predecessors)
    return Cfg(cfg.method, blocks, cfg.entry)


def remove_back_edges(cfg):
    """Return a de-looped copy of the CFG.

    One depth-first walk finds every edge into a block still on its stack,
    and all of them are dropped.  Such an edge closes a natural loop when
    its target dominates its source: the source cannot be reached from the
    entry without passing the target.  Any other one is irreducible flow,
    logged as a warning.  Then each loop's tail (the end of its body) feeds
    the loop's exit successors so merges past the loop still combine the
    body's state; such a replacement edge is kept whenever it leaves the
    graph acyclic, i.e. its target cannot reach the tail.
    """
    out = _copy(cfg)
    retreating = []
    _dfs(out.blocks, out.entry, lambda u, v: retreating.append((u, v)))
    for (u, v) in retreating:
        out.blocks[u].successors.remove(v)
        out.blocks[v].predecessors.remove(u)
    loops = [(b.id, s) for b in cfg.blocks for s in b.successors
             if (b.id, s) in retreating and b.id not in _reachable(cfg.blocks, cfg.entry, s)]
    if len(loops) < len(retreating):
        import logging  # only here: importing it costs more than a run of most apps
        logging.getLogger(__name__).warning(
            "%s: irreducible control flow, its retreating edges dropped",
            cfg.method.full_signature)

    for (tail, header) in loops:
        body = _natural_loop(cfg, tail, header)
        exits = [s for s in out.blocks[header].successors if s not in body]
        for ex in exits:
            if ex not in out.blocks[tail].successors and tail not in _reachable(out.blocks, ex):
                out.blocks[tail].successors.append(ex)
                out.blocks[ex].predecessors.append(tail)

    return out


def reverse_post_order(cfg):
    """Reachable block ids, every block after all of its predecessors."""

    def cyclic(u, v):
        raise RuntimeError(
            "reverse_post_order called on a cyclic graph (%s)" % cfg.method.full_signature
        )

    return list(reversed(_dfs(cfg.blocks, cfg.entry, cyclic)))


def to_dot(cfg):
    """DOT rendering of the CFG for debugging."""
    lines = ["digraph \"%s\" {" % cfg.method.full_signature]
    for b in cfg.blocks:
        ops = "\\l".join(
            "%d: %s" % (i.index, i.kind) for i in cfg.instructions(b)
        )
        lines.append('  b%d [shape=box, label="B%d\\l%s\\l"];' % (b.id, b.id, ops))
    for (u, v) in cfg.edges():
        lines.append("  b%d -> b%d;" % (u, v))
    lines.append("}")
    return "\n".join(lines)
