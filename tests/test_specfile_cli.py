"""Spec-file parsing, round trips, builtins, and the CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synchrolab
from synchrolab.cli import HANDLERS, main
from synchrolab.errors import ParseError, SemanticError
from synchrolab.oracles import OracleShift
from synchrolab.periodic import enumerate_periodic
from synchrolab.points import BiSeq
from synchrolab.shift import fischer_cover, product
from synchrolab.specfile import (BUILTIN_SPECS, SpecFile, emit_spec, load_spec, parse_point,
                                 parse_spec_text, parse_word)
from synchrolab.sync import nonsync_subshift


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_parse_word_forms():
    assert parse_word("") == ()
    assert parse_word("011") == ("0", "1", "1")
    assert parse_word("0|1,1|0") == ("0|1", "1|0")


def test_parse_point_product_symbols_round_trip():
    from synchrolab.shift import Alphabet
    alph = Alphabet(("0|0", "0|1", "1|0", "1|1"))
    p = parse_point("L=1|0 C= O=0 R=1|0", alph)
    assert p == BiSeq.constant("1|0")
    assert parse_point(p.literal(), alph) == p


def test_parse_point_literal():
    p = parse_point("L=0 C= O=0 R=0")
    assert p == BiSeq.constant("0")
    q = parse_point("L=0 C=1 O=3 R=0")
    assert q.at(3) == "1"


def test_parse_point_errors():
    with pytest.raises(ParseError):
        parse_point("L=0 O=0")     # missing R
    with pytest.raises(ParseError):
        parse_point("L=0 C= O=zz R=0")
    with pytest.raises(ParseError):
        parse_point("L= C= O=0 R=0")


def test_builtin_specs_all_load():
    for name in BUILTIN_SPECS:
        spec = load_spec(name)
        assert spec.name == name
        assert spec.shift.alphabet


def test_builtin_even_matches_fixture(even_shift):
    spec = load_spec("even.shift")
    assert spec.shift.kind == "sofic" and spec.shift.forbidden is None
    assert fischer_cover(spec.shift).edges == fischer_cover(even_shift).edges
    assert spec.points["zeros"] == BiSeq.constant("0")


def test_builtin_goldenmean_is_sft():
    spec = load_spec("goldenmean")
    assert spec.shift.kind == "sft"
    assert spec.shift.forbidden == frozenset({("1", "1")})


def test_builtin_oracles_load():
    assert isinstance(load_spec("nonsofic-ray").shift, OracleShift)
    assert isinstance(load_spec("context-free").shift, OracleShift)
    assert synchrolab.OracleShift is OracleShift  # still exported at the top


def test_round_trip(even_shift):
    for name in ("even", "goldenmean", "nonsofic-ray"):
        spec = load_spec(name)
        text = emit_spec(spec)
        again = parse_spec_text(text)
        assert again.shift.kind == spec.shift.kind
        assert tuple(again.shift.alphabet) == tuple(spec.shift.alphabet)
        assert again.points == spec.points
        if spec.shift.kind == "sofic":
            assert again.shift.presentation.edges == spec.shift.presentation.edges


def test_unknown_keys_rejected():
    with pytest.raises(ParseError):
        parse_spec_text("alphabet: 0 1\ntype: sft\ncolor: red\n")


def test_malformed_edge_line_position():
    text = "alphabet: 0 1\ntype: sofic\nstate: A\nedge: A 0\n"
    with pytest.raises(ParseError) as excinfo:
        parse_spec_text(text)
    assert "line 4" in str(excinfo.value)


def test_duplicate_point_name_rejected():
    text = ("alphabet: 0 1\ntype: sft\n"
            "point: z L=0 C= O=0 R=0\npoint: z L=1 C= O=0 R=1\n")
    with pytest.raises(ParseError) as excinfo:
        parse_spec_text(text)
    assert "line 4" in str(excinfo.value)


@pytest.mark.parametrize("declaration, message", [
    ("forbid:", "forbidden words must have length >= 1"),
    ("forbid: 12", "symbol '2' not in the declared alphabet"),
    ("point: z L=2 C= O=0 R=0", "symbol '2' not in the declared alphabet"),
])
def test_bad_word_line_position(declaration, message):
    text = f"alphabet: 0 1\ntype: sft\nforbid: 00\n{declaration}\n"
    with pytest.raises(ParseError) as excinfo:
        parse_spec_text(text)
    assert excinfo.value.line == 4
    assert str(excinfo.value) == f"line 4: {message}"


def test_semantic_errors():
    with pytest.raises(SemanticError):
        parse_spec_text("alphabet: 0 1\ntype: sofic\nstate: A\nedge: A 2 A\n")
    with pytest.raises(SemanticError):
        parse_spec_text("alphabet: 0 1\ntype: sofic\nstate: A\nedge: A 0 B\n")


def test_file_loading(tmp_path):
    path = tmp_path / "custom.shift"
    path.write_text("alphabet: x y\ntype: sft\nforbid: yy\n")
    spec = load_spec(str(path))
    assert spec.name == "custom"
    assert spec.shift.forbidden == frozenset({("y", "y")})


def test_cli_nonsync_even(capsys):
    status, out = run_cli(capsys, "nonsync", "even.shift")
    assert status == 0
    assert "m: 1" in out
    assert "L=0 C= O=0 R=0" in out


def test_cli_nonsync_infinite_prints_the_presentation_size(capsys, tmp_path):
    # the size is the report's kept-index count, read without naming the
    # presentation; it must agree with the presentation once that is built
    path = tmp_path / "inf.shift"
    path.write_text("alphabet: 0 1\ntype: sofic\nstate: a\nstate: b\nstate: c\n"
                    "edge: a 1 b\nedge: b 0 c\nedge: b 1 c\nedge: c 0 b\nedge: c 1 a\n")
    status, out = run_cli(capsys, "nonsync", str(path), "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert (data["finiteness"], data["presentation_states"]) == ("infinite", 4)
    report = nonsync_subshift(load_spec(str(path)).shift)
    assert report.state_count == len(report.presentation.states) == 4


def test_cli_periodic_count(capsys):
    status, out = run_cli(capsys, "periodic", "goldenmean.shift",
                          "--n", "4", "--count-only")
    assert status == 0
    assert "count: 7" in out


def test_cli_classify(capsys):
    status, out = run_cli(capsys, "classify", "even.shift",
                          "--point", "L=0 C= O=0 R=0")
    assert status == 0
    assert "nonSynchronizing" in out


def test_cli_classify_named_point(capsys):
    status, out = run_cli(capsys, "classify", "even.shift", "--point", "ones")
    assert status == 0
    assert "status: synchronizing" in out
    assert "witness: 1" in out


def test_cli_json_and_text_carry_identical_data(capsys):
    status, text_out = run_cli(capsys, "report", "even.shift")
    status2, json_out = run_cli(capsys, "report", "even.shift", "--format", "json")
    assert status == status2 == 0
    data = json.loads(json_out)
    assert data["m"] == 1
    assert data["quotient"] == "C^1"
    assert "m: 1" in text_out and "quotient: C^1" in text_out


def test_cli_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "info", "even.shift")
    _, out2 = run_cli(capsys, "info", "even.shift")
    assert out1 == out2


def test_cli_every_builtin_info(capsys):
    for name in BUILTIN_SPECS:
        status, out = run_cli(capsys, "info", name)
        assert status == 0, name
        assert name in out


def test_cli_info_on_a_reducible_shift_prints_flags_without_a_cover(capsys, tmp_path):
    # the shift has no Fischer cover: its terminal component reads only 1*
    path = tmp_path / "reducible.shift"
    path.write_text("alphabet: 0 1\ntype: sofic\nstate: a\nstate: b\n"
                    "edge: a 0 a\nedge: a 1 b\nedge: b 1 b\n")
    status, out = run_cli(capsys, "info", str(path), "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert data["flags"] == {"irreducible": False, "mixing": False, "period": 1}
    assert "cover_states" not in data and "cover_edges" not in data
    status, out = run_cli(capsys, "info", str(path))
    assert status == 0 and "  irreducible: False\n" in out and "cover" not in out


def test_cli_usage_error_exit_2(capsys):
    assert main(["classify", "no-such-spec-anywhere"]) == 2


def test_cli_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process, so no call may leave state
    # behind for the next one
    calls = [["periodic", "even", "--n", "5", "--count-only"],
             ["periodic", "even", "--n", "5"],
             ["factor", "even", "--check", "a1to1", "--maxper", "5", "--format", "json"],
             ["factor", "even", "--check", "a1to1", "--maxper", "5"],
             ["periodic", "goldenmean", "--count-only"],
             ["periodic", "goldenmean", "--n", "3", "--count-only"],
             ["factor", "even", "--check", "degree", "--format", "jsn"],
             ["factor", "even", "--check", "degree"]]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    statuses = []
    for argv in calls:
        status = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "synchrolab.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (status, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        statuses.append(status)
    assert statuses == [0, 0, 0, 0, 2, 0, 2, 0]


@pytest.mark.parametrize("declaration", ["alphabet: 0 0", "alphabet:"])
def test_cli_bad_alphabet_is_an_error_line(capsys, tmp_path, declaration):
    path = tmp_path / "bad.shift"
    path.write_text(f"# a malformed alphabet\n{declaration}\ntype: sft\n")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("argv, message", [
    (["periodic", "goldenmean", "--n", "0"], "period must be >= 1"),
    (["bracket", "goldenmean", "--x", "zeros", "--y", "zeros", "--window", "1"],
     "N >= 2"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0", "--window", "1"],
     "N >= 2"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0", "--window", "0"],
     "N >= 2"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0", "--window", "-2"],
     "N >= 2"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0", "--window", "1",
      "--return-point", "L=0 C= O=0 R=0", "--n", "1"], "N >= 2"),
    (["groupoid", "goldenmean", "--kind", "lcs"], "non-empty base set P"),
    (["groupoid", "goldenmean", "--kind", "lcu"], "non-empty base set P"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0",
      "--return-point", "L=0 C= O=0 R=0", "--n", "0"], "period n must be >= 1"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0",
      "--return-point", "L=0 C= O=0 R=0", "--n", "-1"], "period n must be >= 1"),
    (["find-periodic", "goldenmean", "--point", "L=0 C= O=0 R=0",
      "--return-point", "L=0 C= O=0 R=0"], "--n is required with --return-point"),
])
def test_cli_library_argument_error_exit_2(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, bound", [
    (["factor", "even", "--check", "a1to1", "--maxper", "0"], "--maxper"),
    (["words", "goldenmean", "--maxlen", "-1"], "--maxlen"),
    (["words", "goldenmean", "--maxlen", "0"], "--maxlen"),
    (["sync-words", "even", "--maxlen", "0"], "--maxlen"),
    (["groupoid", "goldenmean", "--bound", "0"], "--bound"),
    (["groupoid", "goldenmean", "--bound", "-1"], "--bound"),
])
def test_cli_bound_below_one_exit_2(capsys, argv, bound):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {bound} must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["periodic", "nonsofic-ray", "--n", "2"],
    ["periodic", "context-free", "--n", "3"],
    ["periodic", "nonsofic-ray", "--n", "2", "--count-only"],
    ["zeta", "nonsofic-ray", "--n", "2"],
    ["zeta", "context-free", "--n", "2"],
    ["groupoid", "nonsofic-ray"],
    ["sync-words", "nonsofic-ray"],
    ["sync-words", "context-free"],
    ["nonsync", "nonsofic-ray"],
    ["nonsync", "context-free"],
    ["factor", "nonsofic-ray", "--check", "resolving"],
    ["factor", "context-free", "--check", "degree"],
    ["factor", "nonsofic-ray", "--check", "a1to1"],
    ["find-periodic", "nonsofic-ray", "--point", "L=a C= O=0 R=a"],
    ["find-periodic", "context-free", "--point", "L=a C= O=0 R=a"],
    ["product", "nonsofic-ray", "even"],
    ["product", "even", "context-free"],
    ["germ", "nonsofic-ray", "--from", "L=a C= O=0 R=a", "--to", "L=a C=b O=0 R=a"],
    ["germ", "nonsofic-ray", "--from", "L=a C= O=0 R=a", "--to", "L=a C=b O=0 R=a",
     "--kind", "lcs"],
    ["germ", "context-free", "--from", "L=a C= O=0 R=a", "--to", "L=a C=b O=0 R=a",
     "--kind", "lcu"],
])
def test_cli_oracle_search_is_unverified(capsys, argv):
    # the whole stderr line: the periodic counts refuse on their own, the
    # rest stop at the presentation
    reason = ("cannot decide its periodic points" if argv[0] in ("periodic", "zeta")
              else "has no presentation")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"Unverified: an oracle shift {reason}\n")


_MARKER_INFO = """\
== info ==
alphabet:
  a
  b
  c
flags:
  irreducible: None
  mixing: None
  period: None
kind: oracle:{0}
points:
spec: {0}
"""

_MARKER_REPORT = """\
== report ==
bf_invariant_factors:
det_sign: 0
flags:
  finitelyManyNonSync: None
  irreducible: None
  mixing: None
m: unknown
quotient: None
shift: {0}
"""

_MARKER_CLASSIFY = """\
== classify ==
point: L=b C=cb O=0 R=c
spec: {0}
status: {1}
"""


@pytest.mark.parametrize("argv, stdout", [
    (["info", "nonsofic-ray"], _MARKER_INFO.format("nonsofic-ray")),
    (["info", "context-free"], _MARKER_INFO.format("context-free")),
    (["words", "nonsofic-ray", "--maxlen", "2"],
     "== words ==\ncount: 11\nmaxlen: 2\nspec: nonsofic-ray\nwords:\n"
     + "".join(f"  {w}\n" for w in "ε a b c aa ab bb bc ca cb cc".split())),
    (["words", "context-free", "--maxlen", "2"],
     "== words ==\ncount: 13\nmaxlen: 2\nspec: context-free\nwords:\n"
     + "".join(f"  {w}\n" for w in "ε a b c aa ab ac ba bb bc ca cb cc".split())),
    (["report", "nonsofic-ray"], _MARKER_REPORT.format("nonsofic-ray")),
    (["report", "context-free"], _MARKER_REPORT.format("context-free")),
    (["classify", "nonsofic-ray", "--point", "L=b C=cb O=0 R=c"],
     _MARKER_CLASSIFY.format("nonsofic-ray", "nonSynchronizing") + "window_used: 0\n"),
    (["classify", "context-free", "--point", "L=b C=cb O=0 R=c"],
     _MARKER_CLASSIFY.format("context-free", "synchronizing")
     + "window_used: 1\nwitness: bcb\n"),
])
def test_cli_marker_shift_output(capsys, argv, stdout):
    assert main(argv) == 0
    assert capsys.readouterr() == (stdout, "")


def _minimal_argvs(spec, point, other):
    return {
        "info": [[]],
        "words": [["--maxlen", "2"]],
        "sync-words": [["--maxlen", "2"]],
        "periodic": [["--n", "2"], ["--n", "2", "--count-only"]],
        "zeta": [["--n", "2"]],
        "find-periodic": [["--point", point],
                          ["--point", point, "--return-point", point, "--n", "1"]],
        "classify": [["--point", point]],
        "nonsync": [[]],
        "bracket": [["--x", point, "--y", y] for y in (point, other)],
        "germ": [["--from", point, "--to", y, "--kind", kind]
                 for y in (point, other) for kind in ("lc", "lcs", "lcu")],
        "groupoid": [["--bound", "2", "--kind", kind] for kind in ("lc", "lcsync")]
                    + [["--bound", "2", "--kind", kind, "--P", point] for kind in ("lcs", "lcu")],
        "factor": [["--check", "resolving"], ["--check", "degree", "--point", point],
                   ["--check", "a1to1", "--maxper", "2"]],
        "report": [[]],
        "product": [["even"], [spec]],
    }


def test_cli_never_raises_on_builtin_specs(capsys):
    # Every builtin spec against every subcommand, with a constant point
    # on the spec's first symbol, and for brackets and germs also a second
    # point that differs from it at 0: each run ends in an exit status,
    # never in an exception escaping ``main``.
    statuses = set()
    for spec in BUILTIN_SPECS:
        a, b = load_spec(spec).shift.alphabet.symbols[:2]
        argvs = _minimal_argvs(spec, f"L={a} C= O=0 R={a}", f"L={a} C={b} O=0 R={a}")
        assert set(argvs) == set(HANDLERS)
        for command, variants in argvs.items():
            for rest in variants:
                status = main([command, spec] + rest)
                capsys.readouterr()
                assert status in (0, 1, 2), (command, spec, rest)
                statuses.add(status)
    assert statuses == {0, 1}


def test_cli_unreadable_spec_path_exits_2(capsys, tmp_path):
    with pytest.raises(ParseError) as excinfo:
        load_spec(str(tmp_path))
    assert str(excinfo.value).startswith(f"cannot read {str(tmp_path)!r}")
    assert main(["info", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {str(tmp_path)!r}")


def test_cli_non_utf8_spec_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.shift"
    path.write_bytes(b"alphabet: \xe9 1\ntype: sft\n")
    assert main(["info", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_shift_kind_names_each_variant():
    assert load_spec("goldenmean").shift.kind == "sft"
    assert load_spec("even").shift.kind == "sofic"
    assert load_spec("nonsofic-ray").shift.kind == "oracle:nonsofic-ray"
    assert load_spec("context-free").shift.kind == "oracle:context-free"


def test_oracle_type_survives_the_round_trip():
    text = emit_spec(load_spec("nonsofic-ray"))
    assert "\ntype: oracle:nonsofic-ray\n" in text
    again = parse_spec_text(text)
    assert again.shift.kind == "oracle:nonsofic-ray"
    assert emit_spec(again) == text


def test_product_spec_round_trip():
    # a product's states are pairs; their spec tokens carry no whitespace
    shift = product(load_spec("goldenmean").shift, load_spec("even").shift)
    text = emit_spec(SpecFile("<product>", shift))
    assert "state: (('0',),'A')\n" in text
    again = parse_spec_text(text).shift
    assert again.words(6) == shift.words(6)
    assert len(fischer_cover(again).states) == len(fischer_cover(shift).states)


def test_cli_bracket(capsys):
    status, out = run_cli(capsys, "bracket", "goldenmean.shift",
                          "--x", "L=0 C= O=0 R=0", "--y", "L=0 C=1 O=-3 R=0",
                          "--window", "3")
    assert status == 0
    assert "value: L=0 C=1 O=-3 R=0" in out


def test_cli_words(capsys):
    status, out = run_cli(capsys, "words", "goldenmean.shift", "--maxlen", "2")
    assert status == 0
    listed = out.split("words:")[1]
    assert "ε" in listed and "01" in listed and "11" not in listed


def test_cli_sync_words(capsys):
    status, out = run_cli(capsys, "sync-words", "even.shift", "--maxlen", "2")
    assert status == 0
    assert "1" in out and "00" not in out.split("words:")[1]


def test_cli_find_periodic_acceptance_instance(capsys):
    status, out = run_cli(capsys, "find-periodic", "goldenmean.shift",
                          "--point", "L=0 C= O=0 R=0", "--window", "3",
                          "--return-point", "L=0 C=1 O=3 R=0", "--n", "6")
    assert status == 0
    assert "minimal_period: 6" in out


def test_cli_groupoid(capsys):
    status, out = run_cli(capsys, "groupoid", "even.shift", "--kind", "lcsync",
                          "--bound", "6")
    assert status == 0
    assert "arrow_count" in out
    assert "L=0 C= O=0 R=0" not in out


def test_cli_factor_degree_point(capsys):
    status, out = run_cli(capsys, "factor", "even.shift", "--check", "degree",
                          "--point", "L=0 C= O=0 R=0")
    assert status == 0
    assert "M: 2" in out
    assert "preimage_count: 2" in out


def test_cli_zeta(capsys):
    status, out = run_cli(capsys, "zeta", "even.shift", "--n", "4", "--format", "json")
    assert status == 0
    assert json.loads(out) == {"command": "zeta", "spec": "even", "n": 4,
                               "numerator": [1, 1], "denominator": [1, -1, -1],
                               "counts": [2, 2, 5, 6]}
    status, out = run_cli(capsys, "zeta", "goldenmean.shift", "--n", "3")
    assert status == 0
    assert out == ("== zeta ==\ncounts:\n  1\n  3\n  4\ndenominator:\n  1\n  -1\n  -1\n"
                   "n: 3\nnumerator:\n  1\nspec: goldenmean\n")


def test_cli_zeta_past_the_limit_is_search_exhausted(capsys, tmp_path):
    # the determinized cover keeps masks of up to 31 states: 2^31 candidates
    edges = ("s0 b s1, s0 b s2, s0 b s4, s1 a s1, s1 a s2, s2 a s8, s2 b s3, s3 a s4, "
             "s4 a s5, s4 b s5, s5 b s6, s5 b s7, s6 a s7, s7 a s3, s7 b s8, s8 a s0, s8 b s0")
    path = tmp_path / "wide.shift"
    path.write_text("alphabet: a b\ntype: sofic\n"
                    + "".join(f"state: s{i}\n" for i in range(9))
                    + "".join(f"edge: {e}\n" for e in edges.split(", ")))
    assert main(["zeta", str(path), "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "SearchExhausted: 2150799008 candidate subsets exceed the limit of 8192\n"
    # --count-only falls back to the enumerator
    assert main(["periodic", str(path), "--n", "3", "--count-only"]) == 0
    count = enumerate_periodic(load_spec(str(path)).shift, 3).count
    assert f"count: {count}\n" in capsys.readouterr().out


def test_cli_product(capsys):
    status, out = run_cli(capsys, "product", "even.shift", "goldenmean.shift")
    assert status == 0
    assert "0|0" in out and "cover_states: 4" in out
