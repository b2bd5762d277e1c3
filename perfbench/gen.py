"""Seeded generator for the synthetic `wide` and `deep` app families.

Each family member is one activity component written in the lifetaint IR
(docs/ir.md).  The knobs of a family are fixed by its `Shape`; the seed only
picks which app carries the planted leak, which AUI callbacks form its chain,
its source and sink APIs, constants, and field choices that do not change the
heap's size.  Every member of a family therefore does the same amount of
analysis work whatever the seed, and runs to the same m.

The planted leak needs an ordered chain of `leak_chain` AUI callbacks:
the first reads a source into the heap, the middle ones pass it along, the
last one sinks it.  With `leak_chain == m_max` the leak is found only at the
last level, by exactly one permutation, so a leaky app escalates as far as a
clean one.  Clean apps carry the same callbacks with a non-source API in
place of the source, so both kinds cost the same.

Usage: python3 perfbench/gen.py {wide,deep} SEED OUTDIR
"""

import itertools
import json
import os
import random
import sys
from dataclasses import dataclass

SOURCES = (
    "TelephonyManager.getDeviceId/0",
    "TelephonyManager.getLine1Number/0",
    "TelephonyManager.getSubscriberId/0",
    "TelephonyManager.getSimSerialNumber/0",
)
# same receiver class and arity as the sources, but not a source
NON_SOURCE = "TelephonyManager.getPhoneType/0"
SINKS = ("Log.v/2", "Log.d/2", "Log.i/2", "Log.e/2")
OP_KINDS = 5

# parameters of the life-cycle callbacks the generator can implement
LIFECYCLE_PARAMS = {
    "onCreate": ["this", "savedState"],
    "onRestoreInstanceState": ["this", "state"],
    "onSaveInstanceState": ["this", "outState"],
    "onResume": ["this"],
    "onPause": ["this"],
    "onUserLeaveHint": ["this"],
}


@dataclass(frozen=True)
class Shape:
    """Knobs of one family (ROADMAP item 1)."""

    apps: int            # family size
    leaky: int           # members carrying the planted leak
    lifecycle: tuple     # life-cycle callbacks implemented; sets the lifecycle unit count
    aui_units: int       # AUI callbacks, one permutation unit each
    helper_calls: int    # helper (wide) or walker (deep) calls per AUI callback
    method_len: int      # operations (two instructions each) per helper body
    branch_every: int    # one if/else diamond per this many operations; 0 for none
    call_depth: int      # length of the helper call chain
    fan_out: int         # fields per heap object
    chain_len: int       # nodes on the instance-field chain; 0 for a flat heap
    leak_chain: int      # ordered AUI units the planted leak needs
    m_max: int


# sK style: the motivating example's five life-cycle callbacks (12 lifecycle
# units) plus a dozen AUI callbacks, each calling branchy helpers; small heap
WIDE = Shape(
    apps=2, leaky=1,
    lifecycle=("onCreate", "onRestoreInstanceState", "onResume",
               "onUserLeaveHint", "onSaveInstanceState"),
    aui_units=12, helper_calls=2, method_len=2, branch_every=2, call_depth=1,
    fan_out=3, chain_len=0, leak_chain=2, m_max=2,
)

# few units (4 lifecycle + 3 AUI), long sequences, a long instance-field
# chain that callbacks walk and extend, few branches
DEEP = Shape(
    apps=2, leaky=1,
    lifecycle=("onCreate", "onPause", "onResume"),
    aui_units=3, helper_calls=2, method_len=4, branch_every=0, call_depth=4,
    fan_out=3, chain_len=10, leak_chain=3, m_max=3,
)

FAMILIES = {"wide": WIDE, "deep": DEEP}


def _method(sig, params, instructions, labels=None):
    return {"sig": sig, "params": list(params), "instructions": instructions,
            "labels": labels or {}}


def _sig(name, params):
    return "%s/%d" % (name, len(params) - 1)


class _AppGenerator:
    """Generates one app; every random choice goes through `rng`."""

    def __init__(self, shape, rng, app_id, leaky):
        self.shape = shape
        self.rng = rng
        self.app_id = app_id
        self.leaky = leaky
        self.cls = "".join(p.capitalize() for p in app_id.split("_")) + "Activity"
        self.fields = ["f%d" % i for i in range(shape.fan_out)]
        self.scalars = ["s%d" % i for i in range(shape.fan_out)]
        self.source = rng.choice(SOURCES)
        self.sink = rng.choice(SINKS)

    # -- helper bodies ---------------------------------------------------

    def _op(self, kind, index):
        """One two-instruction operation of the given kind on `acc`.

        The kind and the field are fixed by the caller, so that every seed
        gives helpers of the same cost; the seed picks constants only.
        """
        r = self.rng
        field = self.scalars[index % len(self.scalars)]
        if kind == 0:
            return [["INVOKE_VIRTUAL", "t", "sb", "StringBuilder.append/1", ["acc"]],
                    ["INVOKE_VIRTUAL", "acc", "t", "StringBuilder.toString/0", []]]
        if kind == 1:
            return [["CONST_STRING", "t", "k%d" % r.randrange(100)],
                    ["INVOKE_VIRTUAL", "acc", "acc", "String.concat/1", ["t"]]]
        if kind == 2:
            return [["IGET", "t", "this", field],
                    ["INVOKE_STATIC", "acc", "Math.max/2", ["acc", "t"]]]
        if kind == 3:
            return [["IPUT", "this", field, "acc"],
                    ["CONST_NUM", "t", r.randrange(100)]]
        return [["INVOKE_STATIC", "t", "String.valueOf/1", ["acc"]],
                ["MOVE", "acc", "t"]]

    def _helper_body(self, depth):
        """Straight-line operations with an if/else diamond every
        `branch_every` operations, plus a call one level deeper.  Operation
        kinds cycle in a fixed order."""
        s = self.shape
        ins = [["MOVE", "acc", "x"], ["NEW_INSTANCE", "sb", "StringBuilder"]]
        labels = {}
        kinds = itertools.count()
        for i in range(s.method_len):
            if s.branch_every and i % s.branch_every == s.branch_every - 1:
                other, join = "else%d" % i, "join%d" % i
                ins.append(["IF_GOTO", "x", other])
                ins += self._op(next(kinds) % OP_KINDS, i)
                ins.append(["GOTO", join])
                labels[other] = len(ins)
                ins += self._op(next(kinds) % OP_KINDS, i)
                labels[join] = len(ins)
            else:
                ins += self._op(next(kinds) % OP_KINDS, i)
        if depth + 1 < s.call_depth:
            ins.append(["INVOKE_VIRTUAL", "acc", "this",
                        "%s.helper%d/1" % (self.cls, depth + 1), ["acc"]])
        ins.append(["RETURN", "acc"])
        return ins, labels

    # -- the heap chain (deep) ---------------------------------------------

    def _walk(self, reg, steps):
        """Instructions that walk `steps` nodes down from this.head."""
        ins = [["IGET", reg, "this", "head"]]
        ins += [["IGET", reg, reg, "next"] for _ in range(steps)]
        return ins

    def _build_chain(self):
        """onCreate body for the deep family: a fresh chain of nodes, each
        with `fan_out` fields that hold objects of their own."""
        ins = [["NEW_INSTANCE", "p", "Node"], ["IPUT", "this", "head", "p"]]
        for _ in range(self.shape.chain_len - 1):
            ins.append(["NEW_INSTANCE", "n", "Node"])
            for field in self.fields:
                ins += [["NEW_INSTANCE", "o", "Item"], ["IPUT", "n", field, "o"]]
            ins += [["IPUT", "p", "next", "n"], ["MOVE", "p", "n"]]
        return ins

    def _build_items(self):
        """onCreate prologue for the wide family: the small heap every
        snapshot copies, one object per field of the instance, each holding
        `fan_out` strings."""
        ins = []
        for field in self.fields:
            ins.append(["NEW_INSTANCE", "o", "Item"])
            for inner in self.fields:
                ins += [["CONST_STRING", "v", inner], ["IPUT", "o", inner, "v"]]
            ins.append(["IPUT", "this", field, "o"])
        return ins

    def _chain_work(self):
        """Walk to a few depths, extend the heap there and call the node
        walker, with one branch to force a merge of two full snapshots."""
        r = self.rng
        s = self.shape
        ins = [["CONST_NUM", "v", r.randrange(100)]]
        for k in range(s.helper_calls):
            # fixed depths, so that the cost does not depend on the seed
            ins += self._walk("c", (k + 1) * s.chain_len // (2 * s.helper_calls + 2))
            ins += [["NEW_INSTANCE", "o", "Item"],
                    ["IPUT", "o", r.choice(self.fields), "v"],
                    ["IPUT", "c", r.choice(self.fields), "o"],
                    ["INVOKE_VIRTUAL", "v", "c", "Node.walk0/1", ["v"]]]
        ins.append(["IF_GOTO", "v", "skip"])
        ins += [["IGET", "c", "this", "head"], ["IPUT", "c", r.choice(self.fields), "v"]]
        return ins, {"skip": len(ins)}

    def _node_class(self):
        s = self.shape
        methods = []
        for d in range(s.call_depth):
            ins = [["IGET", "nx", "this", "next"]]
            for i in range(s.method_len):
                ins += [["IGET", "t", "this", self.fields[i % s.fan_out]],
                        ["IPUT", "t", "mark", "v"]]
            if d + 1 < s.call_depth:
                ins.append(["INVOKE_VIRTUAL", "v", "nx", "Node.walk%d/1" % (d + 1), ["v"]])
            ins.append(["RETURN", "v"])
            methods.append(_method("walk%d/1" % d, ["this", "v"], ins))
        return {"name": "Node", "parent_kind": "PLAIN", "static_fields": [],
                "methods": methods}

    # -- callbacks ---------------------------------------------------------

    def _callback_body(self):
        """The shared work of one callback: helper calls (wide) or chain
        work (deep).  Returns (instructions, labels)."""
        if self.shape.chain_len:
            return self._chain_work()
        ins = [["IGET", "a", "this", self.scalars[0]]]
        for _ in range(self.shape.helper_calls):
            ins.append(["INVOKE_VIRTUAL", "a", "this", "%s.helper0/1" % self.cls, ["a"]])
        ins.append(["IPUT", "this", self.scalars[-1], "a"])
        return ins, {}

    def _leak_step(self, position):
        """Instructions of chain position `position` of the planted leak.

        Position 0 reads the source (or, in a clean app, a non-source API of
        the same shape); the last position sinks; the ones between move the
        value one stage along.  Stages live in the heap: on the instance in
        the wide family, on a node down the chain in the deep one.
        """
        last = self.shape.leak_chain - 1
        depth = self.shape.chain_len // 2
        if self.shape.chain_len:
            def load(reg, stage):
                return self._walk("s", depth) + [["IGET", reg, "s", "stage%d" % stage]]

            def store(stage, reg):
                return self._walk("s", depth) + [["IPUT", "s", "stage%d" % stage, reg]]
        else:
            def load(reg, stage):
                return [["IGET", reg, "this", "stage%d" % stage]]

            def store(stage, reg):
                return [["IPUT", "this", "stage%d" % stage, reg]]
        if position == 0:
            api = self.source if self.leaky else NON_SOURCE
            return ([["NEW_INSTANCE", "tm", "TelephonyManager"],
                     ["INVOKE_VIRTUAL", "w", "tm", api, []]] + store(0, "w"))
        if position < last:
            return load("w", position - 1) + store(position, "w")
        return (load("w", position - 1)
                + [["CONST_STRING", "tag", self.app_id],
                   ["INVOKE_STATIC", None, self.sink, ["tag", "w"]]])

    def _light_body(self):
        """A life-cycle callback: one field copy on the instance (wide) or
        at a node down the chain (deep)."""
        r = self.rng
        if self.shape.chain_len:
            ins = self._walk("c", self.shape.chain_len // 4)
            return ins + [["IGET", "a", "c", r.choice(self.fields)],
                          ["IPUT", "c", r.choice(self.fields), "a"]], {}
        return [["IGET", "a", "this", self.scalars[0]],
                ["IPUT", "this", self.scalars[-1], "a"]], {}

    def _callback(self, name, params, extra=(), light=False):
        body, labels = self._light_body() if light else self._callback_body()
        shift = len(extra)
        ins = list(extra) + body + [["RETURN_VOID"]]
        labels = {k: v + shift for k, v in labels.items()}
        return _method(_sig(name, params), params, ins, labels)

    def build(self):
        s = self.shape
        methods = []
        for name in s.lifecycle:
            params = LIFECYCLE_PARAMS[name]
            if s.chain_len and name == "onCreate":
                methods.append(_method(_sig(name, params), params,
                                       self._build_chain() + [["RETURN_VOID"]]))
            elif name == "onCreate":
                methods.append(self._callback(name, params, self._build_items(), light=True))
            else:
                methods.append(self._callback(name, params, light=True))
        aui = ["onAction%d" % i for i in range(s.aui_units)]
        chain = sorted(self.rng.sample(range(s.aui_units), s.leak_chain))
        self.rng.shuffle(chain)
        leak_steps = {unit: pos for pos, unit in enumerate(chain)}
        for i, name in enumerate(aui):
            extra = self._leak_step(leak_steps[i]) if i in leak_steps else ()
            methods.append(self._callback(name, ["this", "view"], extra))
        classes = []
        if s.chain_len:
            classes.append(self._node_class())
        else:
            for d in range(s.call_depth):
                ins, labels = self._helper_body(d)
                methods.append(_method("helper%d/1" % d, ["this", "x"], ins, labels))
        classes.insert(0, {"name": self.cls, "parent_kind": "ACTIVITY",
                           "static_fields": [], "methods": methods})
        doc = {
            "app_id": self.app_id,
            "version": "1",
            "classes": classes,
            "components": [{"class": self.cls, "kind": "ACTIVITY",
                            "aui_callbacks": aui, "misc_callbacks": []}],
        }
        warnings = []
        if self.leaky:
            warnings.append({"kind": "INFO_LEAK", "source_apis": [self.source],
                             "sink_api": self.sink, "detected_at_m": s.leak_chain})
        expected = {"m_reached": s.m_max, "finished": True, "warnings": warnings}
        return doc, expected


def generate(family, seed):
    """The family's apps for `seed`: a list of (app_id, app document,
    expected verdict), in a fixed order."""
    shape = FAMILIES[family]
    if not 1 <= shape.leak_chain <= shape.m_max or shape.leak_chain > shape.aui_units:
        raise ValueError("%s: the leak chain must fit in m_max and the AUI units" % family)
    rng = random.Random("%s-%d" % (family, seed))
    leaky = set(rng.sample(range(shape.apps), shape.leaky))
    out = []
    for i in range(shape.apps):
        app_id = "%s_%02d" % (family, i)
        doc, expected = _AppGenerator(shape, rng, app_id, i in leaky).build()
        out.append((app_id, doc, expected))
    return out


def write_family(family, seed, outdir):
    """Write `<app_id>.app` files and `expected.json` into `outdir`;
    returns the app paths in batch order."""
    os.makedirs(outdir, exist_ok=True)
    paths, expected = [], {}
    for app_id, doc, verdict in generate(family, seed):
        path = os.path.join(outdir, app_id + ".app")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=1) + "\n")
        paths.append(path)
        expected[app_id] = verdict
    with open(os.path.join(outdir, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in FAMILIES:
        sys.exit("usage: gen.py {wide,deep} SEED OUTDIR")
    for p in write_family(sys.argv[1], int(sys.argv[2]), sys.argv[3]):
        print(p)
