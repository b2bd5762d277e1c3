"""Golden de-loop results for every corpus method and seeded random methods.

`golden_dags.json` holds, for each method, every block's successors after
`remove_back_edges`, the reverse post order of the result, and whether the
irreducible-flow warning fired.  The random methods have up to 14
instructions (30% IF_GOTO, 15% GOTO, 5% RETURN_VOID, the rest CONST_NUM)
and a label at every index, so they hold natural loops, irreducible flow
and unreachable blocks.  Regenerate the file only for an intended change
to de-looping:

    PYTHONPATH=src python tests/test_golden_dags.py
"""

import json
import logging
import os
import random

import pytest

from lifetaint.cfg import build_cfg, remove_back_edges, reverse_post_order
from lifetaint.ir import app_from_dict, load_app

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_dags.json")
CORPUS = os.path.join(os.path.dirname(HERE), "corpus")
RANDOM_METHODS = 600


def random_method(seed, sparse=False):
    """A random method; `sparse` binds only its branch targets and, at
    random, labels at its start, at its end and at one other index, so that
    some of its methods are one basic block (a label at every index splits
    all but those of one instruction)."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    instrs = []
    for _ in range(n):
        r = rng.random()
        target = "L%d" % rng.randint(0, n)
        if r < 0.30:
            instrs.append(["IF_GOTO", "c", target])
        elif r < 0.45:
            instrs.append(["GOTO", target])
        elif r < 0.50:
            instrs.append(["RETURN_VOID"])
        else:
            instrs.append(["CONST_NUM", "c", 1])
    labels = {"L%d" % i: i for i in range(n + 1)}
    if sparse:
        bound = {ins[-1] for ins in instrs if ins[0] in ("IF_GOTO", "GOTO")}
        bound.update("L%d" % i for i in (0, n, rng.randint(0, n)) if rng.random() < 0.5)
        labels = {name: labels[name] for name in sorted(bound)}
    doc = {
        "app_id": "r%d" % seed,
        "classes": [{
            "name": "R", "parent_kind": "PLAIN", "static_fields": [],
            "methods": [{
                "sig": "m/0", "params": [], "instructions": instrs,
                "labels": labels,
            }],
        }],
        "components": [],
    }
    return app_from_dict(doc).classes[0].methods[0]


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def deloop(method):
    """{"succs": successors per block, "rpo": [...], "irreducible": bool}"""
    logger = logging.getLogger("lifetaint.cfg")
    handler = _Warnings()
    logger.addHandler(handler)
    try:
        dag = remove_back_edges(build_cfg(method))
    finally:
        logger.removeHandler(handler)
    return {
        "succs": [b.successors for b in dag.blocks],
        "rpo": reverse_post_order(dag),
        "irreducible": any("irreducible" in m for m in handler.messages),
    }


def corpus_apps():
    return sorted(f[:-len(".app")] for f in os.listdir(CORPUS) if f.endswith(".app"))


def corpus_dags(name):
    app = load_app(os.path.join(CORPUS, name + ".app"))
    return {m.full_signature: deloop(m) for k in app.classes for m in k.methods}


def random_dags():
    return [deloop(random_method(seed)) for seed in range(RANDOM_METHODS)]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", corpus_apps())
def test_corpus_dags(golden, name):
    assert corpus_dags(name) == golden["corpus"][name]


def test_random_dags(golden):
    expected = golden["random"]
    assert len(expected) == RANDOM_METHODS
    for seed, (got, want) in enumerate(zip(random_dags(), expected)):
        assert got == want, seed
    # the sample holds irreducible flow and, apart from it, natural loops
    assert any(d["irreducible"] for d in expected)
    assert any(not d["irreducible"] and d["succs"] != [
        b.successors for b in build_cfg(random_method(seed)).blocks]
        for seed, d in enumerate(expected))


if __name__ == "__main__":
    doc = {"corpus": {name: corpus_dags(name) for name in corpus_apps()},
           "random": random_dags()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
