"""Host speed, measured with a fixed pure-Python task.

On a shared machine the CPU speed a process gets drifts by a quarter or more
over tens of seconds, whatever the process runs.  The benchmark times this
task before and after every pass (and every set-up probe) and reports each
time scaled to the speed at which the task takes NOMINAL_S: a time in
"reference seconds".
The task allocates small objects and copies an aliased object graph through
a memo, as the analyzer's snapshots do, so it slows down with the host the
way the analyzer does.  It does not touch lifetaint, so no change to the
analyzer can move it.
"""

import time

NOMINAL_S = 0.033   # the task's time on the shared 2-core machine the bounds were set on


class _Node:
    __slots__ = ("fields", "tags")

    def __init__(self):
        self.fields = {}
        self.tags = set()


def _copy(node, memo):
    dup = memo.get(id(node))
    if dup is not None:
        return dup
    dup = memo[id(node)] = _Node()
    dup.tags = set(node.tags)
    for name, child in node.fields.items():
        dup.fields[name] = _copy(child, memo)
    return dup


def task_seconds():
    """Run the reference task once; returns its wall time."""
    started = time.perf_counter()
    root = cur = _Node()
    for i in range(40):
        nxt = _Node()
        cur.fields["next"] = nxt
        cur.fields["v%d" % (i % 3)] = _Node()
        cur.tags.add(i % 5)
        cur = nxt
    for _ in range(500):
        _copy(root, {})
    return time.perf_counter() - started


def normalize(times, tasks):
    """`times` in reference seconds.  `tasks` holds one task time before the
    first of `times`, then one after each; each time is scaled by the host
    speed measured just before and just after it."""
    if len(tasks) != len(times) + 1:
        raise ValueError("need one task time around each measured time")
    return [t * 2 * NOMINAL_S / (a + b) for t, a, b in zip(times, tasks, tasks[1:])]
