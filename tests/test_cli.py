import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tconvex import (
    cyclic_group,
    multiplication_endo,
    serialize_endo,
    serialize_fn,
    serialize_group,
    table_fn,
    whole_group_set,
)

PY = [sys.executable, "-m", "tconvex.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        PY + list(args), capture_output=True, text=True, input=stdin
    )


@pytest.fixture()
def z5_files(tmp_path):
    g = cyclic_group(5)
    f = table_fn(whole_group_set(g), [0, 1, 2, 1, 0])
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps(
        {"group": serialize_group(g), "fn": serialize_fn(f)}
    ))
    endo_path = tmp_path / "e.json"
    endo_path.write_text(json.dumps(
        {"endo": serialize_endo(multiplication_endo(g, 3)), "t": "1/2"}
    ))
    endos_path = tmp_path / "ts.json"
    endos_path.write_text(json.dumps(
        {"endos": [serialize_endo(multiplication_endo(g, 3))]}
    ))
    return fn_path, endo_path, endos_path


def test_check_violation_exits_one(z5_files):
    fn_path, endo_path, _ = z5_files
    proc = run_cli("check", "--kind", "quasiconvex", "--fn", str(fn_path),
                   "--endo", str(endo_path))
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["verdict"] is False and out["witness"]


def test_envelope_then_check_passes(z5_files, tmp_path):
    fn_path, endo_path, endos_path = z5_files
    proc = run_cli("envelope", "--fn", str(fn_path), "--endos", str(endos_path))
    assert proc.returncode == 0
    env_doc = json.loads(proc.stdout)
    assert env_doc["fn"]["values"] == ["0"] * 5
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(env_doc))
    proc2 = run_cli("check", "--kind", "quasiconvex", "--fn", str(env_path),
                    "--endo", str(endo_path))
    assert proc2.returncode == 0


def test_reads_from_stdin(z5_files):
    fn_path, endo_path, _ = z5_files
    proc = run_cli("check", "--kind", "quasiconvex", "--fn", "-",
                   "--endo", str(endo_path), stdin=fn_path.read_text())
    assert proc.returncode == 1


def test_semigroup_counts_endos(z5_files, tmp_path):
    g = cyclic_group(5)
    from tconvex import serialize_ground_set, whole_group_set as wgs

    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "group": serialize_group(g),
        "set": serialize_ground_set(wgs(g)),
    }))
    proc = run_cli("semigroup", "--input", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 5


def test_support_certificate(tmp_path):
    from tconvex import finite_set, lattice_group

    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    f = table_fn(window, [x * x for x in range(-4, 5)])
    path = tmp_path / "sup.json"
    path.write_text(json.dumps({
        "group": serialize_group(g), "fn": serialize_fn(f), "p": ["2"],
    }))
    proc = run_cli("support", "--input", str(path))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["status"] == "certificate"
    assert out["A"] == ["4"] and out["c"] == "-4"


def test_support_infeasible_carries_farkas(tmp_path):
    from tconvex import finite_set, lattice_group

    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    f = table_fn(window, [-x * x for x in range(-4, 5)])
    doc = {"group": serialize_group(g), "fn": serialize_fn(f), "p": ["0"]}
    proc = run_cli("support", "--input", "-", stdin=json.dumps(doc))
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["status"] == "infeasible" and out["note"] == "window artifact"
    assert out["contradiction"] == [["0"], "-8"]
    weights = {x[0]: w for x, w in ((e["x"], e["weight"]) for e in out["farkas"])}
    assert weights == {str(i): "1/4" if abs(i) == 4 else "0" for i in range(-4, 5)}


def test_suite_exit_codes():
    proc = run_cli("suite", "--id", "empty", "--seed", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cases"] == 0
    proc2 = run_cli("suite", "--id", "does-not-exist")
    assert proc2.returncode == 2


def test_suite_writes_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("suite", "--id", "ring-laws", "--seed", "1",
                   "--cases", "5", "--output", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "ring-laws" and data["alarms"] == []


def test_generate_is_deterministic():
    a = run_cli("generate", "--kind", "group", "--seed", "4").stdout
    b = run_cli("generate", "--kind", "group", "--seed", "4").stdout
    assert a == b


def test_missing_file_exits_three():
    proc = run_cli("spectral", "--input", "/nonexistent/x.json")
    assert proc.returncode == 3


def test_usage_error_exits_two():
    proc = run_cli("check", "--kind", "bogus", "--fn", "x", "--endo", "y")
    assert proc.returncode == 2


def test_malformed_payload_exits_two(z5_files):
    fn_path, _, _ = z5_files
    proc = run_cli("spectral", "--input", "-", stdin="{}")
    assert proc.returncode == 2


def test_zero_denominator_exits_two():
    doc = {"group": {"family": "lattice", "rank": 1,
                     "metric": {"kind": "abs", "weights": ["1/0"]}},
           "endo": {"matrix": [["2"]]}}
    proc = run_cli("spectral", "--input", "-", stdin=json.dumps(doc))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_deeply_nested_json_exits_three():
    proc = run_cli("spectral", "--input", "-", stdin="[" * 100000)
    assert proc.returncode == 3
    assert "cannot read" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("group", [
    '{"family": "lattice", "rank": 1e400, "metric": {"kind": "abs", "weights": ["1"]}}',
    '{"family": "cyclic", "moduli": [1e400], "metric": {"kind": "lee", "weights": ["1"]}}',
    '{"family": "lattice", "rank": 1.5, "metric": {"kind": "abs", "weights": ["1"]}}',
    '{"family": "nadic", "base": 6.5, "rank": 1, "metric": {"kind": "abs", "weights": ["1"]}}',
    '{"family": "lattice", "rank": true, "metric": {"kind": "abs", "weights": ["1"]}}',
])
def test_non_integer_group_fields_exit_two(group):
    proc = run_cli("spectral", "--input", "-",
                   stdin='{"group": %s, "endo": {"matrix": [["2"]]}}' % group)
    assert proc.returncode == 2
    assert "must be" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture()
def quadratic_box(tmp_path):
    doc = {"group": {"family": "nadic", "base": 2, "rank": 1,
                     "metric": {"kind": "abs", "weights": ["1"]}},
           "fn": {"kind": "quadratic", "domain": {"kind": "box", "lower": ["0"],
                                                   "upper": ["1"]},
                  "Q": [["1"]], "b": ["0"], "c": "0"}}
    fn_path = tmp_path / "q.json"
    fn_path.write_text(json.dumps(doc))
    endo_path = tmp_path / "half.json"
    endo_path.write_text(json.dumps({"endo": {"matrix": [["1/2"]]}, "t": "1/2"}))
    return fn_path, endo_path


def test_check_reports_mode_and_probes(quadratic_box, z5_files):
    fn_path, endo_path = quadratic_box
    args = ["check", "--kind", "ttconvex", "--fn", str(fn_path), "--endo", str(endo_path),
            "--budget", "50", "--seed", "3"]
    proc = run_cli(*args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert (out["verdict"], out["mode"], out["probes"]) == (True, "sampled", 50)
    assert run_cli(*args).stdout == proc.stdout
    table_fn_path, table_endo_path, _ = z5_files
    out = json.loads(run_cli("check", "--kind", "quasiconvex", "--fn", str(table_fn_path),
                             "--endo", str(table_endo_path)).stdout)
    assert (out["mode"], out["probes"]) == ("exhaustive", None)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_sampled_check_without_probes_exits_two(quadratic_box, budget):
    fn_path, endo_path = quadratic_box
    proc = run_cli("check", "--kind", "ttconvex", "--fn", str(fn_path),
                   "--endo", str(endo_path), "--budget", budget)
    assert proc.returncode == 2
    assert "probe" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("rule, fields", [
    ("wright-ratio", '"n": 1.5, "k": 1'),
    ("wright-ratio", '"n": 1e400, "k": 1'),
    ("kuhn", '"n": 1e400'),
    ("last", '"k": true, "pairs": []'),
])
def test_derive_rejects_non_integer_counts(rule, fields):
    stdin = ('{"group": {"family": "nadic", "base": 6, "rank": 1, "metric": '
             '{"kind": "abs", "weights": ["1"]}}, "endo": {"matrix": [["1/2"]]}, '
             '"t": "1/2", %s}' % fields)
    proc = run_cli("derive", "--rule", rule, "--input", "-", stdin=stdin)
    assert proc.returncode == 2
    assert "must be an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unexpected_errors_exit_four(monkeypatch, capsys):
    from tconvex import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_spectral", broken)
    assert cli.cli_dispatch(["spectral", "--input", "-"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal:") and "boom" in err
    assert "Traceback" not in err


REQUIRED = {
    "check": ["--kind", "quasiconvex", "--fn", "-", "--endo", "-"],
    "derive": ["--rule", "kuhn", "--input", "-"],
    "envelope": ["--fn", "-", "--endos", "-"],
    "semigroup": ["--input", "-"],
    "decompose": ["--input", "-"],
    "support": ["--input", "-"],
    "spectral": ["--input", "-"],
    "suite": ["--id", "empty"],
    "generate": ["--kind", "group"],
}
UNREAD_FLAGS = [(cmd, flag) for cmd in ("derive", "envelope", "decompose", "support",
                                        "spectral")
                for flag in (["--seed", "1"], ["--budget", "5"], ["--exhaustive"])]
UNREAD_FLAGS += [("semigroup", ["--seed", "1"]), ("suite", ["--exhaustive"]),
                 ("check", ["--exhaustive"]), ("generate", ["--budget", "5"])]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS])
def test_flags_a_subcommand_does_not_read_exit_two(command, flag, capsys):
    from tconvex import cli

    assert cli.cli_dispatch([command, *REQUIRED[command], *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--cases", "-5"], ["--cases", "0"], ["--budget", "0"],
                                  ["--budget", "-3"]], ids=" ".join)
def test_suite_non_positive_caps_exit_two(flag, capsys):
    from tconvex import cli

    assert cli.cli_dispatch(["suite", "--id", "ring-laws", *flag]) == 2
    assert "positive integer" in capsys.readouterr().err


def dispatch(argv, stdin=""):
    """cli_dispatch in this process: (exit code, stdout, stderr)."""
    from tconvex import cli

    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_dispatch(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# pinned stdout of support and decompose requests: certificates, Farkas
# weights and Wright decompositions must print the same bytes
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = {c["name"]: c for c in json.loads((DATA / "cli_golden.json").read_text())}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs_are_byte_identical(name):
    case = GOLDEN[name]
    code, out, err = dispatch(case["argv"], json.dumps(case["doc"]))
    assert (code, out) == (case["exit"], case["stdout"]), err


def test_parser_is_built_once_and_leaks_no_state(monkeypatch):
    from tconvex import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        support = GOLDEN["support-infeasible-pairs"]
        first = dispatch(support["argv"], json.dumps(support["doc"]))
        assert first[0] == 1

        def broken(args):
            raise RuntimeError("boom")

        with monkeypatch.context() as m:
            m.setattr(cli, "cmd_spectral", broken)
            assert dispatch(["spectral", "--input", "-"])[0] == 4
        assert dispatch(["check", "--kind", "bogus", "--fn", "-", "--endo", "-"])[0] == 2
        assert dispatch(["support", "--input", "-", "--seed", "1"])[0] == 2
        code, out, _ = dispatch(["--help"])
        assert code == 0 and out.startswith("usage: tconvex")
        assert dispatch(support["argv"], json.dumps(support["doc"])) == first
        for _ in range(14):
            assert dispatch(["generate", "--kind", "group", "--seed", "2"])[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


# -- in-process fuzzing ----------------------------------------------------

_Z3 = {"family": "cyclic", "moduli": [3], "metric": {"kind": "lee", "weights": ["1"]}}
_Q2 = {"family": "nadic", "base": 2, "rank": 1,
       "metric": {"kind": "abs", "weights": ["1"]}}
_HALF = {"endo": {"matrix": [["1/2"]]}, "t": "1/2"}
_Z3_SET = {"kind": "finite", "elements": [["0"], ["1"], ["2"]]}
_Z3_FN = {"group": _Z3, "fn": {"kind": "table", "domain": _Z3_SET, "values": ["0", "1", "0"]}}
SEEDS = [
    (["check", "--kind", "quasiconvex", "--fn", "-", "--endo", str(DATA / "z3_endo.json")],
     _Z3_FN),
    (["envelope", "--fn", "-", "--endos", str(DATA / "z3_endos.json")], _Z3_FN),
    (["derive", "--rule", "kuhn", "--input", "-"], {"group": _Q2, **_HALF, "n": 2}),
    (["derive", "--rule", "wright-ratio", "--input", "-"],
     {"group": _Q2, **_HALF, "n": 1, "k": 1}),
    (["derive", "--rule", "last", "--input", "-"], {"group": _Q2, "pairs": [_HALF], "k": 1}),
    (["semigroup", "--input", "-", "--exhaustive", "--budget", "50"],
     {"group": _Z3, "set": _Z3_SET}),
    (["spectral", "--input", "-"], {"group": _Q2, "endo": {"matrix": [["3/2"]]}}),
    (["generate", "--kind", "fn", "--seed", "3"], {}),
    (["suite", "--id", "empty", "--cases", "2"], {}),
] + [(c["argv"], c["doc"]) for c in GOLDEN.values()]
TOKENS = ["-", "--input", "--kind", "--mode", "--rule", "--seed", "--budget", "--cases",
          "--id", "--t", "--exhaustive", "--help", "affine", "wright", "kuhn", "fn", "0",
          "-3", "2", "1/2", "1/0", "x", "", "empty", "nope"]
LEAVES = [0, 1, 3, -1, 1.5, 1e400, True, None, "0", "-2", "1/2", "1/0", "x", "", [], {},
          ["1"], [["1"]]]


def _mutate_doc(draw, doc, depth=0):
    if isinstance(doc, dict) and doc and depth < 6:
        key = draw(st.sampled_from(sorted(doc)))
        action = draw(st.sampled_from(["into", "drop", "replace"]))
        out = dict(doc)
        if action == "drop":
            del out[key]
        elif action == "replace":
            out[key] = draw(st.sampled_from(LEAVES))
        else:
            out[key] = _mutate_doc(draw, doc[key], depth + 1)
        return out
    if isinstance(doc, list) and doc and depth < 6:
        i = draw(st.integers(0, len(doc) - 1))
        out = list(doc)
        out[i] = _mutate_doc(draw, doc[i], depth + 1)
        return out
    return draw(st.sampled_from(LEAVES))


@st.composite
def requests(draw):
    argv, doc = draw(st.sampled_from(SEEDS))
    argv = list(argv)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, draw(st.sampled_from(TOKENS)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        doc = _mutate_doc(draw, doc)
    stdin = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        stdin = stdin[:draw(st.integers(0, len(stdin)))]
    return argv, stdin


@settings(max_examples=300, deadline=2000, database=None, derandomize=True)
@given(requests())
def test_dispatch_fuzz_ends_cleanly(request):
    argv, stdin = request
    code, _, err = dispatch(argv, stdin)
    assert code in (0, 1, 2, 3, 4), code
    assert "Traceback" not in err
    if code == 1:
        assert argv[0] in ("check", "support", "decompose", "suite"), argv
