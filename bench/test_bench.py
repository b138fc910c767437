"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _inputs(name, seed):
    wl = workloads.WORKLOADS[name](seed, 2)
    return json.dumps(wl.inputs(), sort_keys=True, default=str).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_leaves_no_patch():
    tc = run.import_library()
    before = tracing.snapshot()
    tr = tracing.Tracer().install()
    try:
        assert tracing.snapshot() != before
        g = tc.cyclic_group(6)
        d = tc.whole_group_set(g)
        t = tc.validate_endo(g, [[3]])
        f = tc.table_fn(d, [0] * 6)
        assert tc.check_inequality(tc.TTCONVEX, f, tc.ConvexPair(t, Fraction(1))).verdict
    finally:
        tr.uninstall()
    assert tracing.snapshot() == before
    assert tr.calls["functions.check_inequality"] == 1
    assert tr.calls["sets.is_T_convex"] == 1
    assert tr.calls["endos.apply"] > 36
    assert tr.calls["sets.contains"] == 36
    # the copy bound in functions by `from .sets import is_T_convex` was patched too
    assert any(name == "sets.is_T_convex" for _, _, _, name, _, _ in tr.spans)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_are_declared(name, trace):
    meta, result = run.measure(name, 3, 0, trace, min_samples=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert meta["deterministic"]["rounds_run"] == 1


def test_checks_reject_wrong_outputs():
    tc = run.import_library()
    wl = workloads.FiniteChecks(5, 1)
    wl.bind(tc)
    req = next(r for r in wl.plan[0] if r["op"] == "check")
    rep = wl.execute(req)
    assert wl.check(req, rep) is None
    rep.verdict = not rep.verdict
    assert wl.check(req, rep) is not None

    wl = workloads.Certify(5, 1)
    wl.bind(tc)
    req = next(r for r in wl.plan[0] if r["cls"] == "support-r1")
    code, text, err = wl.execute(req)
    assert wl.check(req, (code, text, err)) is None
    doc = json.loads(text)
    doc["c"] = str(Fraction(doc["c"]) + 1)
    assert wl.check(req, (code, json.dumps(doc), err)) is not None


def test_missing_library_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-dir")
    code = run.main(["--workload", "campaign", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
