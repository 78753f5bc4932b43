"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import child
import oracle
import run
import tracing
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_every_op_passes(workload):
    res = run.summarize(workload, seed=3, seconds=0, trace=False, tiny=True)
    ops = workloads.build(workload, 3, tiny=True)
    known = {op["key"] for op in ops if op["known"]}
    assert res["correct"]
    assert {key for key, _ in res["info"]["failures"]} <= known
    assert res["attempted"] == len(ops)
    assert res["metrics"]["fail_rate"][0] == res["failed"] / res["attempted"]


def test_traced_tiny_run_reports_every_layer_metric():
    res = run.summarize("codes-stats", seed=3, seconds=0, trace=True, tiny=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(res["metrics"]) == names
    assert res["metrics"]["codespace.influence_calls"][0] > 0


def test_span_tree_is_well_formed():
    tracer = tracing.Tracer()
    ops = workloads.build("ball-dfs", 5, tiny=True)[:20]
    tracer.install()
    try:
        for i, op in enumerate(ops):
            root = tracer.begin("op", i)
            child.run_op(op)
            tracer.end(root)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert not tracer.stack
    assert {s.name for s in spans} >= {"op", "cli.main", "ifs.count", "numeric.make_lacunary"}
    for s in spans:
        assert s.t0 <= s.t1
        assert tracing.self_time(s) >= -1e-9
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.t0 <= s.t0 and s.t1 <= p.t1 and p.op == s.op
        else:
            assert s.name == "op"
    # uninstall puts every original function back
    import fracpack.ifs
    import fracpack.numeric
    assert fracpack.ifs.affine_sign_scaled is fracpack.numeric.affine_sign_scaled
    assert fracpack.ifs.affine_sign_scaled.__module__ == "fracpack.numeric"


def test_ops_repeat_for_a_seed_and_change_with_it():
    a = workloads.build("level-enum", 11)
    assert a == workloads.build("level-enum", 11)
    assert a != workloads.build("level-enum", 12)
    assert len(a) >= 100


def _value(word, u):
    return sum((u if ch == "u" else int(ch)) * Fraction(1, 4 ** (k + 1))
               for k, ch in enumerate(word))


def test_oracle_matches_direct_rational_enumeration():
    rng = random.Random(1)
    u = Fraction(1, 4) + Fraction(1, 4 ** 3) + Fraction(1, 4 ** 7)
    values = [_value(w, u) for w in itertools.product("01u", repeat=5)]
    for _ in range(30):
        center = "".join(rng.choice("01u") for _ in range(rng.randint(1, 8)))
        C = rng.choice([Fraction(0), Fraction(1, 2), Fraction(2)])
        c = _value(center, u)
        want = sum(1 for x in values if abs(x - c) <= C / 4 ** 5)
        assert oracle.ball_count("explicit:1,3,7", 5, center, C) == want
    assert oracle.box_cells("explicit:1,3,7", 5) == len({int(x * 4 ** 5) for x in values})


def test_oracle_refuses_to_guess():
    u = oracle.U("paper", E=30)   # 192 < u * den < 193
    assert u.sign(-384, 2 * u.den) == 1    # zero at the lower end, u is strictly above it
    with pytest.raises(oracle.Undecided):
        u.sign(-385, 2 * u.den)           # changes sign inside the enclosure
