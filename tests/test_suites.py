import json
from fractions import Fraction

import pytest

from tconvex import (
    ConvexPair,
    SuiteConfig,
    SuiteError,
    check_inequality,
    cyclic_group,
    multiplication_endo,
    replay_alarm,
    run_suite,
    table_fn,
    whole_group_set,
)
from tconvex import suites
from tconvex.functions import (
    QUASICONVEX, TTCONVEX, TT_AFFINE, WRIGHT, is_vacuous, member_catalogue,
)
from tconvex.generators import with_defaults
from tconvex.report import EXHAUSTIVE, Report
from tconvex.suites import REGISTRY, brute_envelope

SMALL = {"cases": 15}


def _failing_check(kind, f, pair, **kwargs):
    return Report(f"check:{kind}", False, EXHAUSTIVE)


def _stripped(report):
    data = report.to_json()
    data.pop("elapsed_ms")
    return json.dumps(data, sort_keys=True, default=str)


def test_registry_covers_the_documented_suites():
    for sid in ("prop-ls", "empty", "last-coefficients", "radstrom",
                "semigroup-combination", "wright-grid", "kuhn-chain"):
        assert sid in REGISTRY


def test_unknown_suite_id_raises():
    with pytest.raises(SuiteError):
        run_suite(SuiteConfig("no-such-suite"))


def test_empty_suite_trivially_passes():
    rep = run_suite(SuiteConfig("empty", seed=9))
    assert rep.cases == 0 and rep.alarms == []


def test_reports_are_deterministic_for_fixed_seed_and_caps():
    # the second run of each suite reads its pair tables from a warm memo
    # and the closure suites' member catalogues from a warm one
    for sid in ("prop-ls", "closure-wright", "twa-roundtrip", "compose-convex",
                "closure-affine", "midpoint-convexity", "closure-convex", "closure-quasi"):
        a = run_suite(SuiteConfig(sid, seed=11, caps=SMALL))
        b = run_suite(SuiteConfig(sid, seed=11, caps=SMALL))
        assert _stripped(a) == _stripped(b)


def test_every_registered_suite_runs_clean_on_a_small_budget():
    for sid in REGISTRY:
        rep = run_suite(SuiteConfig(sid, seed=4, caps={"cases": 10}))
        assert rep.alarms == [], f"suite {sid} raised alarms"
        assert all(r["verdict"] for r in rep.results), f"suite {sid} failed"


def test_aggregate_suite_prefixes_case_ids():
    rep = run_suite(SuiteConfig("all", seed=0, caps={"cases": 5}))
    assert rep.suite == "all"
    assert any(r["id"].startswith("ring-laws/") for r in rep.results)
    assert rep.alarms == []


def test_closure_and_compose_cases_go_through_the_public_checker(monkeypatch):
    """With the checker the suites import stubbed to fail, every closure
    and composition case that checks an inequality raises an alarm."""
    monkeypatch.setattr(suites, "check_inequality", _failing_check)
    caps = {"cases": 3}
    for sid, tags in (
        ("closure-quasi", ("quasi/sup", "quasi/chain-inf")),
        ("closure-wright", ("wright/chain-inf", "wright/sum", "wright/scale")),
        ("closure-convex", ("convex/sup", "convex/chain-inf", "convex/sum",
                            "convex/scale")),
        ("closure-affine", ("affine/limit", "affine/combo")),
    ):
        alarms = {a["id"] for a in run_suite(SuiteConfig(sid, seed=2, caps=caps)).alarms}
        assert {f"{tag}/{i}" for tag in tags for i in range(3)} <= alarms, sid
    for sid, tag in (("compose-quasi", "compose-q"), ("compose-wright", "compose-w"),
                     ("compose-convex", "compose-c"), ("compose-affine", "compose-a")):
        rep = run_suite(SuiteConfig(sid, seed=2, caps=caps))
        assert {a["id"] for a in rep.alarms} == {f"{tag}/{i}" for i in range(3)}, sid


def _round_trip(alarm):
    return json.loads(json.dumps(alarm))


def test_stubbed_alarms_replay_to_their_entries(monkeypatch):
    """Every alarm of the closure, compose and prop-ls suites, with the
    checker stubbed to fail, replays from its JSON to its own entry."""
    monkeypatch.setattr(suites, "check_inequality", _failing_check)
    for sid in ("closure-quasi", "closure-wright", "closure-convex", "closure-affine",
                "compose-quasi", "compose-wright", "compose-convex", "compose-affine",
                "prop-ls"):
        rep = run_suite(SuiteConfig(sid, seed=2, caps={"cases": 1}))
        entries = {r["id"]: r for r in rep.results}
        assert rep.alarms, sid
        for alarm in rep.alarms:
            assert alarm["case"] == {"suite": sid, "seed": 2, "caps": with_defaults(
                {"cases": 1}), "id": alarm["id"]}
            assert replay_alarm(_round_trip(alarm)) == entries[alarm["id"]]


def test_any_case_replays_from_its_run():
    caps = with_defaults({"cases": 5})
    for sid in REGISTRY:
        results = run_suite(SuiteConfig(sid, seed=4, caps={"cases": 5})).results
        if not results:
            continue
        last = results[-1]
        case = {"suite": sid, "seed": 4, "caps": caps, "id": last["id"]}
        assert replay_alarm({"id": last["id"], "case": case}) == last, sid


def test_aggregate_alarms_replay_their_sub_suite(monkeypatch):
    monkeypatch.setattr(suites, "check_inequality", _failing_check)
    rep = run_suite(SuiteConfig("all", seed=1, caps={"cases": 3}))
    alarm = next(a for a in rep.alarms if a["id"].startswith("compose-convex/"))
    case = alarm["case"]
    assert case["suite"] == "compose-convex" and case["caps"]["cases"] == 3
    assert alarm["id"] == f"compose-convex/{case['id']}"
    entry = next(r for r in rep.results if r["id"] == alarm["id"])
    assert replay_alarm(_round_trip(alarm)) == {**entry, "id": case["id"]}


@pytest.mark.parametrize("caps", [{"cases": 0}, {"cases": -5}, {"probes": 0},
                                  {"probes": -3}, {"cases": True}, {"cases": 2.0}])
def test_caps_that_are_not_positive_integers_raise(caps):
    with pytest.raises(SuiteError, match="positive integer"):
        run_suite(SuiteConfig("ring-laws", seed=0, caps=caps))


def test_closure_keys_have_non_constant_members_at_endpoint_t_only():
    """The TT kinds admit a non-constant table in {0..3}^m on Z_m, m <= 8,
    only at t in {0, 1}: at every interior t of the grid the catalogue
    holds just the four constants."""
    for kind in (TTCONVEX, TT_AFFINE):
        for m in range(3, 9):
            for a in range(m):
                for t in suites._T_GRID[1:-1]:
                    assert len(member_catalogue(kind, m, a, t)) == 4, (kind, m, a, t)
        keys = suites._informative_keys(kind)
        assert len(keys) == 14
        assert {t for _, _, t in keys} == {0, 1}
        assert {m for m, _, _ in keys} == {4, 6, 8}
    for kind, count in ((QUASICONVEX, 21), (WRIGHT, 12)):
        keys = suites._informative_keys(kind)
        assert len(keys) == count and {t for _, _, t in keys} == {Fraction(1, 2)}
        assert not any(is_vacuous(kind, m, a, t) for m, a, t in keys)


def test_replay_of_an_unknown_suite_or_case_raises():
    caps = with_defaults(None)
    with pytest.raises(SuiteError):
        replay_alarm({"id": "x/0", "case": {"suite": "no-such-suite", "seed": 0,
                                            "caps": caps, "id": "x/0"}})
    with pytest.raises(SuiteError):
        replay_alarm({"id": "x/0", "case": {"suite": "ring-laws", "seed": 0,
                                            "caps": {"cases": 2}, "id": "ring/2"}})


def test_report_schema():
    rep = run_suite(SuiteConfig("ring-laws", seed=0, caps={"cases": 5}))
    data = rep.to_json()
    assert set(data) == {"suite", "cases", "alarms", "audit", "results",
                        "elapsed_ms"}
    assert data["cases"] == len(data["results"])


def test_brute_envelope_is_a_quasiconvex_minorant():
    g = cyclic_group(4)
    f = table_fn(whole_group_set(g), [2, 0, 1, 2])
    ts = [multiplication_endo(g, 3)]
    oracle = brute_envelope(f, ts)
    assert all(o <= v for o, v in zip(oracle.values, f.values))
    assert check_inequality(
        "quasiconvex", oracle, ConvexPair(ts[0], Fraction(1, 2))
    ).verdict
