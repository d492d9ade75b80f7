import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from distlap import (CHECKS, FORMULAS, SCAN_IDS, CorpusError, UnknownTheorem,
                     bounds, build, cli, emit_report, enumerate_connected,
                     family_spec, from_graph6, order_groups, scan_reports,
                     to_graph6, verify)
from distlap.cli import run
from distlap.families import FAMILIES
from distlap.graphs import CONNECTED_G6, _connected_reps
from distlap.verify import _fmt, _verdict_line

import pins


def test_spectrum_family_kite():
    # dq radius of the 7-vertex kite heads the printed spectrum
    assert run(["spectrum", "--family", "kite:7", "--matrix", "Q"]) == 0


def test_spectrum_output(capsys):
    run(["spectrum", "--family", "kite:7", "--matrix", "Q"])
    out = capsys.readouterr().out.strip()
    assert out.split()[0] == "31.1081"
    run(["spectrum", "--graph6", "Bw"])
    vals = [float(t) for t in capsys.readouterr().out.split()]
    assert vals[:2] == [3.0, 3.0] and abs(vals[2]) < 1e-9
    run(["spectrum", "--graph6", "Bw", "--matrix", "Q", "--precise"])
    out = capsys.readouterr().out.strip()
    assert out == "4 1 1"


def test_spectrum_file_labels(tmp_path, capsys):
    p = tmp_path / "in.g6"
    p.write_text("Bw\nBg\n")
    assert run(["spectrum", "--file", str(p)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("Bw: ") and lines[1].startswith("Bg: ")


def test_bounds_equality(capsys):
    rc = run(["bounds", "--graph6", "Bw", "--check", "T6.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "T6.3" in out and "equality=True" in out and "holds=True" in out


def test_bounds_all(capsys):
    assert run(["bounds", "--family", "path:4", "--check", "all"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 13  # one line per registered theorem


def test_bounds_unknown_id(capsys):
    assert run(["bounds", "--graph6", "Bw", "--check", "T9.9"]) == 2
    assert "unknown theorem id" in capsys.readouterr().err


def test_bounds_bad_graph6(capsys):
    assert run(["bounds", "--graph6", "B", "--check", "T6.3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_family_command(capsys):
    assert run(["family", "--family", "turan:6,3"]) == 0
    g6 = capsys.readouterr().out.strip()
    assert len(g6) >= 2
    assert run(["family", "--family", "cycle:7", "--quantity", "QRadius"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "24.0000"
    # an over-order member is an input error, refused before its edges
    assert run(["family", "--family", "path:20000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: order 20000 outside 1..64\n"


# one valid member of each family kind
FAMILY_SAMPLES = {
    "Path": (5,), "Cycle": (6,), "Complete": (4,), "Star": (6,), "StarPlus": (5,),
    "CompleteMinusMatching": (7, 2), "CompleteMultipartite": (3, 2, 2),
    "Turan": (8, 3), "KiteClique": (9, 4), "Kite3": (7,), "TShape": (2, 2, 5),
    "TStar": (9,), "U4": (4, 3), "U3": (5, 4),
}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind, (name, _) in FAMILIES.items()],
                         ids=[name for name, _ in FAMILIES.values()])
def test_family_command_each_name(kind, name, capsys):
    params = FAMILY_SAMPLES[kind]
    spec = f"{name}:{','.join(map(str, params))}"
    assert run(["family", "--family", spec]) == 0
    assert capsys.readouterr().out == to_graph6(build(family_spec(kind, *params))) + "\n"


def test_graft_command(capsys):
    rc = run(["graft", "--base", "Bw", "--kind", "twins", "--anchor", "0,1",
              "--k", "2", "--l", "2", "--check"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0][0] == "F"  # 7-vertex graph6 starts at chr(63+7)
    assert any("T5.3" in line for line in lines)
    assert any("L7.2" in line for line in lines)
    rc = run(["graft", "--base", "Bw", "--kind", "vertex", "--anchor", "0",
              "--k", "1", "--l", "0"])
    assert rc == 0


def test_graft_bad_anchor(capsys):
    rc = run(["graft", "--base", "Bw", "--kind", "twins", "--anchor", "0;1",
              "--k", "2", "--l", "2"])
    assert rc == 2


@pytest.mark.parametrize("kind,anchors", [("vertex", ["0", "3"]),
                                          ("twins", ["0", "1"]),
                                          ("twins", ["0,1", "0,1"])])
def test_graft_repeated_anchor(kind, anchors, capsys):
    # a second --anchor is a usage error, not a silent overwrite
    argv = ["graft", "--base", "Cw", "--kind", kind, "--k", "2", "--l", "2", "--check"]
    for a in anchors:
        argv += ["--anchor", a]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: --anchor given 2 times; give twins as one --anchor u,v"]


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_graft_disconnected_base(check, capsys):
    # the graft lemmas assume a connected base: one error line, no graph6
    rc = run(["graft", "--base", "A?", "--kind", "vertex", "--anchor", "0",
              "--k", "2", "--l", "2", *check])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == ["error: graft base must be a connected graph"]


@pytest.mark.parametrize("argv,message", [
    (["family", "--family", "u4:2,2", "--quantity", "QRadius"],
     "no closed form for U4/QRadius"),
    (["graft", "--base", "Bw", "--kind", "vertex", "--anchor", "0",
      "--k", "2", "--l", "1", "--check"],
     "monotonicity comparison needs k >= l >= 2"),
], ids=["family", "graft"])
def test_failing_command_prints_nothing(argv, message, capsys):
    # the graph is built before the failing step, but nothing prints
    # before the error: one stderr line, empty stdout
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}"]


def test_scan_json(capsys):
    rc = run(["scan", "--check", "T3.1", "--n", "6", "--format", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["theorem_id"] == "T3.1"
    assert obj["graphs_checked"] == 112 and obj["violations"] == []


def test_scan_text(capsys):
    rc = run(["scan", "--check", "T6.4", "--check", "T6.3", "--n", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("T6.4 corpus=n=4 checked=6 skipped=0 violations=0")
    assert lines[1].startswith("T6.3 corpus=n=4")


def test_scan_requires_corpus(capsys):
    assert run(["scan", "--check", "T3.1"]) == 2


def test_scan_csv(capsys, tmp_path):
    p = tmp_path / "c.g6"
    p.write_text("Bw\nCp\n")
    rc = run(["scan", "--check", "T6.3", "--file", str(p), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "theorem_id,graph6,bound,observed,holds,equality"


def test_table1_exit_code(capsys):
    # the n = 12 T* row fails against the reference table (known misprint),
    # so the regression honestly exits 1
    rc = run(["table1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "pass=False" in out and out.count("pass=True") == 6


def test_table1_csv(capsys):
    rc = run(["table1", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,kite,tstar,pass"
    assert len(lines) == 8
    assert rc == 1


def test_console_bytes_pinned(orders_1_7, tmp_path, monkeypatch, capsysbinary):
    """Each line of the console pin table whose input is not perfbench's
    stream, run in process: its exit status and the digest of its stdout.
    The lines over the stream run in CI only: its two deletion-lemma lines
    take over a second each."""
    monkeypatch.chdir(tmp_path)
    pins.write_graph6(tmp_path / pins.INPUTS["orders"], orders_1_7)
    ran = []
    for status, digest, args in pins.read_pins():
        if "{stream}" in args:
            continue
        assert run(args.format_map(pins.INPUTS).split()) == status, args
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == digest, args
        ran.append(args)
    table = pins.TABLE.read_text()
    assert len(ran) == table.count("\n") - table.count("{stream}")


# perfbench/run.py's copies of table digests, by the command each pins;
# SWEEP_SHA256 pins perfbench/sweep.py's output, not a distlap command
PERFBENCH_COPIES = {
    "N7_SHA256": "scan --check all --n 7 --format json",
    "TABLE1_SHA256": "table1 --format json",
    "STREAM_SHA256": "scan " + "".join(f"--check {tid} " for tid in SCAN_IDS[:15])
                     + "--file {stream} --format json",
}


def test_perfbench_digests_are_the_table_lines():
    # read as text: importing perfbench/run.py would run its module code
    text = (pins.ROOT / "perfbench" / "run.py").read_text()
    copies = dict(re.findall(r'^(\w+_SHA256) = "(\w+)"$', text, re.MULTILINE))
    table = {args: digest for _, digest, args in pins.read_pins()}
    assert ({name: copies.get(name) for name in PERFBENCH_COPIES}
            == {name: table.get(args) for name, args in PERFBENCH_COPIES.items()})


def test_pin_table_digests_have_no_copies():
    # the table is the one source: no test module or CI workflow restates
    # one of its digests, and no command appears in it twice
    lines = pins.read_pins()
    assert len({args for _, _, args in lines}) == len(lines)
    paths = [*(pins.ROOT / "tests").glob("*.py"),
             *(pins.ROOT / ".github" / "workflows").glob("*.yml")]
    assert [(path.relative_to(pins.ROOT).as_posix(), digest) for path in sorted(paths)
            for _, digest, _ in lines if digest in path.read_text()] == []


def test_help_lists_theorem_ids(capsys):
    # both commands accept, and list, all 17 ids
    for command in ("scan", "bounds"):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "theorem ids:" in out
        for tid in ("L3.1", "T3.1", "T3.2", "T4.1", "T4.2", "T5.1", "T5.2", "T6.1", "T6.2",
                    "T6.3", "C6.1", "T6.4", "T7.1", "L4.1", "L4.2", "L2.3", "L2.4"):
            assert tid in out


def test_unknown_id_same_error_in_scan_and_bounds(capsys):
    assert run(["scan", "--check", "T9.9", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unknown theorem id 'T9.9'; known: L3.1, ")
    assert run(["bounds", "--check", "T9.9", "--graph6", "Bw"]) == 2
    assert capsys.readouterr() == ("", err)
    # an 'all' beside the unknown id does not hide it
    for command in (["scan", "--n", "3"], ["bounds", "--graph6", "Bw"]):
        assert run([*command, "--check", "all", "--check", "T9.9"]) == 2
        assert capsys.readouterr() == ("", err)


def test_check_all_keeps_the_ids_beside_it(capsys):
    # 'all' expands in place to bounds' 13 ids, and L2.3 follows them
    assert run(["bounds", "--check", "all", "--check", "L2.3", "--graph6", "Bw"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and lines[-1].startswith("L2.3 ")


# the input options name one input: a second one, or none, is a usage error
INPUT_USAGE_ERRORS = [
    (["spectrum", "--graph6", "Bw", "--family", "path:4"],
     "argument --family: not allowed with argument --graph6"),
    (["spectrum", "--file", "c.g6", "--graph6", "Bw"],
     "argument --graph6: not allowed with argument --file"),
    (["spectrum", "--family", "path:4", "--file", "c.g6"],
     "argument --file: not allowed with argument --family"),
    (["spectrum"], "one of the arguments --graph6 --file --family is required"),
    (["bounds", "--check", "T6.3", "--graph6", "Bw", "--family", "path:4"],
     "argument --family: not allowed with argument --graph6"),
    (["bounds", "--check", "T6.3", "--file", "c.g6", "--graph6", "Bw"],
     "argument --graph6: not allowed with argument --file"),
    (["bounds", "--check", "T6.3", "--family", "path:4", "--file", "c.g6"],
     "argument --file: not allowed with argument --family"),
    (["bounds", "--check", "T6.3"],
     "one of the arguments --graph6 --file --family is required"),
    (["scan", "--check", "T6.3", "--n", "3", "--file", "c.g6"],
     "argument --file: not allowed with argument --n"),
    (["scan", "--check", "T6.3", "--file", "c.g6", "--n", "3"],
     "argument --n: not allowed with argument --file"),
    (["scan", "--check", "T6.3"], "one of the arguments --n --file is required"),
]


@pytest.mark.parametrize("args,error", INPUT_USAGE_ERRORS, ids=[
    " ".join([args[0], *(a for a in args if a.startswith("--") and a != "--check")])
    for args, _ in INPUT_USAGE_ERRORS])
def test_input_options_exclusive_and_required(args, error, tmp_path, capsys):
    (tmp_path / "c.g6").write_text("Bw\n")
    args = [str(tmp_path / a) if a == "c.g6" else a for a in args]
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: distlap ")
    assert err.splitlines()[-1] == f"distlap {args[0]}: error: {error}"


def test_usage_errors():
    assert run([]) == 2
    assert run(["nope"]) == 2
    assert run(["--help"]) == 0


@pytest.mark.parametrize("command", ["scan", "spectrum"])
def test_file_non_ascii_byte(command, tmp_path, capsys):
    p = tmp_path / "c.g6"
    p.write_bytes(b"Bw\n\n\xe9Bg\n")
    args = [command, "--file", str(p)] + (["--check", "T6.3"] if command == "scan" else [])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "line 3: non-ASCII byte" in err


def test_file_malformed_record_names_line(tmp_path, capsys):
    p = tmp_path / "c.g6"
    p.write_text("Bw\nB\n")
    assert run(["bounds", "--file", str(p), "--check", "T6.3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 2: malformed graph6 record 'B'" in err


@pytest.mark.parametrize("command", [["bounds", "--check", "T6.3"], ["spectrum"]])
def test_file_disconnected_record_names_line(command, tmp_path, capsys):
    p = tmp_path / "c.g6"
    p.write_text("Bw\nB_\nBg\n")
    assert run([*command, "--file", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("Bw") and "Bg" not in out
    assert err == f"error: {p} line 2: disconnected graph 'B_'\n"
    # the adjacency and ordinary Laplacian spectra need no connectivity
    assert run(["spectrum", "--file", str(p), "--matrix", "lap"]) == 0


@pytest.mark.parametrize("command", [["bounds", "--check", "T6.3"], ["spectrum"]])
def test_file_over_order_record_names_line(command, tmp_path, capsys):
    # a well-formed record of order 66 (header ~?@A, then C(66, 2) = 2,145
    # bits in 358 characters) ends the command at its line, after the
    # records before it, as a disconnected record does
    p = tmp_path / "c.g6"
    p.write_text("Bw\n~?@A" + "?" * 358 + "\nBg\n")
    assert run([*command, "--file", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("Bw") and "Bg" not in out
    assert err == f"error: {p} line 2: order outside 1..64\n"


# stdout of bounds --check all over the records of orders_1_7 with the
# disconnected B_ after its first 50; digest computed before bounds evaluated
# its input as one stack
BOUNDS_CUT_SHA256 = "97d420c835080811250877c56f7e36b7d1df5ab27f1a1ca6f25c27e393e2df44"


@pytest.fixture(scope="module")
def orders_1_7():
    return pins.orders_1_7()


def test_bounds_file_prints_records_before_disconnected_line(orders_1_7, tmp_path,
                                                             capsys):
    head = orders_1_7[:50]
    assert len({len(r) for r in head}) > 1  # the records span several orders
    p = pins.write_graph6(tmp_path / "cut.g6", [*head, "B_", *orders_1_7[50:]])
    assert run(["bounds", "--check", "all", "--file", p]) == 2
    out, err = capsys.readouterr()
    assert out.count("\n") == 13 * 50
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_CUT_SHA256
    assert err == f"error: {p} line 51: disconnected graph 'B_'\n"


def test_bounds_file_builds_one_stack(orders_1_7, tmp_path, monkeypatch, capsys):
    built = []
    real = cli.order_groups
    monkeypatch.setattr(cli, "order_groups",
                        lambda graphs: built.append(len(graphs)) or real(graphs))
    p = pins.write_graph6(tmp_path / "some.g6", orders_1_7[:40])
    assert run(["bounds", "--check", "all", "--file", p]) == 0
    assert built == [40]


def test_bounds_file_deletion_lemmas_solve_once(orders_1_7, tmp_path, monkeypatch,
                                                capsys):
    # both edge-deletion lemmas over a mixed-order file: each order's
    # deletions are solved in one _deletion_gaps call, and each line is the
    # per-graph check
    records = orders_1_7[:40]
    sizes: dict = {}
    for r in records:
        n = from_graph6(r).n
        sizes[n] = sizes.get(n, 0) + 1
    assert len(sizes) > 1
    calls = []
    real = bounds._deletion_gaps
    monkeypatch.setattr(bounds, "_deletion_gaps", lambda group: calls.append(
        (group.n, len(group.graphs))) or real(group))
    p = pins.write_graph6(tmp_path / "some.g6", records)
    assert run(["bounds", "--check", "L2.3", "--check", "L2.4", "--precise", "--file", p]) == 0
    assert calls == list(sizes.items())
    monkeypatch.undo()
    assert capsys.readouterr().out.splitlines() == [
        f"{r} " + _verdict_line(CHECKS[tid](from_graph6(r)), True)
        for r in records for tid in ("L2.3", "L2.4")]


def test_shortened_deletion_distance_is_an_L23_violation(monkeypatch, capsys):
    # a distance kernel that makes every distance of the first kept
    # deletion one shorter: L2.3, decided from W = D(G - e) - D(G) >= 0,
    # reports that graph as a violation observed at W's entry -1, and the
    # scan exits 1 with its reports and no traceback; L2.4's eigenvalues
    # are solved before the distances are shortened, so it still holds
    real = bounds.distance_spectra

    def shortened(adj, signs):
        dist, rows = real(adj, signs)
        dist[0] -= dist[0] > 0
        return dist, rows
    monkeypatch.setattr(bounds, "distance_spectra", shortened)
    assert run(["scan", "--check", "L2.3", "--check", "L2.4", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    head23, violation, head24 = out.splitlines()
    assert "violations=1" in head23 and "violations=0" in head24
    assert violation.endswith("L2.3 bound=0.0000 observed=-1.0000 holds=False "
                              "strict=False equality=False applicable=True")


def test_lemma23_equality_does_not_read_the_tolerance():
    # L2.3's gap is exactly 0 on every graph with a kept deletion, so its
    # witnesses are the same at any tolerance, 0 included
    default, exact = (next(scan_reports(["L2.3"], 6, tolerance=tol))
                      for tol in (1e-7, 0.0))
    assert exact.witnesses == default.witnesses and len(default.witnesses) > 0


def test_tolerance_reaches_only_equality_flags(orders_1_7, tmp_path, monkeypatch,
                                               capsys):
    """Over the orders 1..7 corpus, every id's per-row holds and strict,
    each scan report's violation count, the bounds --check all lines less
    their equality flags, and both exit statuses are the same at every
    tolerance: --tolerance moves equality flags only. The commands share
    one stack of the corpus, which no tolerance reaches, so it is solved
    once."""
    p = pins.write_graph6(tmp_path / "orders.g6", orders_1_7)
    groups = order_groups([from_graph6(r) for r in orders_1_7])
    for module in (cli, verify):
        monkeypatch.setattr(module, "order_groups", lambda graphs: groups)
    decided, witnesses = {}, {}
    for tol in ("0", "1e-12", "1e-7", "1e-3", "0.5", "1"):
        found = [FORMULAS[tid](g, float(tol)) for tid in SCAN_IDS for g in groups]
        scan = run(["scan", "--check", "all", "--file", p, "--tolerance", tol])
        counts = re.findall(r" violations=(\d+) ", capsys.readouterr().out)
        status = run(["bounds", "--check", "all", "--file", p, "--tolerance", tol])
        lines = re.sub(r" equality=\w+", "", capsys.readouterr().out)
        decided[tol] = ([(v.holds.tolist(), v.strict.tolist()) for v in found],
                        scan, counts, status, lines)
        witnesses[tol] = sum(int(v.equality.sum()) for v in found)
    assert decided["0"][1:4] == (0, ["0"] * len(SCAN_IDS), 0)
    assert [tol for tol in decided if decided[tol] != decided["0"]] == []
    # the tolerance still reaches the equality flags
    assert witnesses["0"] < witnesses["1e-7"] < witnesses["1"]


def test_damaged_packaged_corpus_refused(tmp_path, monkeypatch, capsys):
    # one order-7 record turned into another valid record leaves every
    # order's count as it was; the CRC-32 finds it: CorpusError, and from
    # the CLI exit 2 with one stderr line and no stdout
    with open(CONNECTED_G6, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] ^= 1  # the last body byte of the last record
    bad = tmp_path / "connected.g6"
    bad.write_bytes(data)
    monkeypatch.setattr("distlap.graphs.CONNECTED_G6", str(bad))
    _connected_reps.cache_clear()
    try:
        with pytest.raises(CorpusError, match="is damaged"):
            list(enumerate_connected(7))
        assert run(["scan", "--check", "T6.4", "--n", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "is damaged" in err
    finally:
        _connected_reps.cache_clear()


@pytest.mark.parametrize("command", [["bounds", "--check", "T6.3"], ["spectrum"]])
def test_file_bad_line_ends_command_before_output(command, tmp_path, capsys):
    # the whole file is checked before the first graph is printed
    p = tmp_path / "c.g6"
    p.write_text("Bw\nB\n")
    assert run([*command, "--file", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "line 2: malformed graph6 record 'B'" in err


@pytest.mark.parametrize("command", [["scan", "--check", "T6.3"],
                                     ["bounds", "--check", "T6.3"]])
def test_file_lines_end_only_at_newline(command, tmp_path, capsys):
    # a lone carriage return does not end a line, so both commands read
    # one malformed record on line 1
    p = tmp_path / "cr.g6"
    p.write_bytes(b"Bw\rBg\n")
    assert run([*command, "--file", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "line 1: malformed graph6 record 'Bw\\rBg'" in err


@pytest.mark.parametrize("command", [["scan", "--n", "4"], ["bounds", "--graph6", "Bw"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
def test_tolerance_must_be_finite_and_nonnegative(command, value, capsys):
    assert run([*command, "--check", "T6.3", "--tolerance", value]) == 2
    assert "--tolerance" in capsys.readouterr().err
    assert run([*command, "--check", "T6.3", "--tolerance", "0"]) == 0


def test_fmt_never_prints_negative_zero(capsys):
    assert run(["spectrum", "--graph6", "Bw", "--matrix", "L"]) == 0
    assert capsys.readouterr().out == "3.0000 3.0000 0.0000\n"
    for x in (-0.0, -1e-17, -4e-5):
        assert _fmt(x, False) == "0.0000"
    assert _fmt(-6e-5, False) == "-0.0001"
    # the 12-digit form keeps its sign
    assert _fmt(-0.0, True) == "-0" and _fmt(-1e-17, True) == "-1e-17"


@pytest.mark.parametrize("args", [
    ["bounds", "--family", "path:4", "--check", "all"],
    ["scan", "--check", "all", "--n", "6", "--format", "csv"],
    ["scan", "--check", "all", "--n", "6"],
    ["table1"],
])
def test_closed_stdout_ends_quietly(args):
    # the reader is gone before the first byte is written, as with `| head`
    # on a long output
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "distlap.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class _ClosedStdout:
    """A stdout whose reader goes after taking `accepts` writes: every later
    write raises BrokenPipeError."""

    def __init__(self, accepts=0):
        self.accepts, self.taken = accepts, []

    def write(self, data):
        if len(self.taken) == self.accepts:
            raise BrokenPipeError(32, "Broken pipe")
        self.taken.append(data)
        return len(data)

    def flush(self):
        pass

    @property
    def buffer(self):
        return self


@pytest.mark.parametrize("args", [
    ["bounds", "--family", "path:4", "--check", "all"],
    ["scan", "--check", "T6.3", "--n", "4", "--format", "json"],
    ["scan", "--check", "all", "--n", "6"],
    ["table1"],
])
def test_run_returns_status_on_closed_stdout(args, monkeypatch, capsys):
    # an in-process caller of run() gets the exit status, not an exception
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run(args) == 141
    assert capsys.readouterr().err == ""


def test_scan_ends_when_reader_closes_after_first_report(monkeypatch, capsys):
    # as with `| head -n 1`: the reader takes L3.1's report and goes, and
    # the scan ends before any deletion is solved
    solved = []
    monkeypatch.setattr(bounds, "_deletion_gaps",
                        lambda group: solved.append(group))
    out = _ClosedStdout(accepts=1)
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["scan", "--check", "all", "--n", "6", "--format", "json"]) == 141
    assert capsys.readouterr().err == "" and solved == []
    assert out.taken == [emit_report(next(scan_reports(["L3.1"], 6)))]


def test_scan_input_errors_raise_before_any_report(tmp_path, capsys):
    # an unknown id or a malformed corpus raises when scan_reports is
    # called, not at its first report, and scan prints nothing
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\n")
    with pytest.raises(UnknownTheorem):
        scan_reports(["X"], 3)
    with pytest.raises(CorpusError):
        scan_reports(["T6.3"], str(bad))
    for args in (["--check", "X", "--n", "3"], ["--check", "T6.3", "--file", str(bad)]):
        assert run(["scan", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
