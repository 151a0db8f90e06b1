import ast
import io
import contextlib
import re
import time
from pathlib import Path

import pytest

import vlink.search
from helpers import assert_matches_golden
from vlink.cli import main
from vlink.codec import parse_gauss, to_diagram
from vlink.diagram import canonical_string
from vlink.moves import MoveError, MoveSite, apply_move


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the golden transcript's inputs, written to the working directory
TRANSCRIPT_INPUTS = {
    "trefoil.gauss": "O1+ U2+ O3+ U1+ O2+ U3+\n",
    "vt.gauss": "O1+ O2+ U1+ U2+\n",
    "unknot.gauss": "*\n",
    "hopf.gauss": "O1+ U2+ / U1+ O2+\n",
    # T(2,21), one crossing above the state-sum cap
    "t221.gauss": " ".join(f"{'OU'[k % 2]}{k % 21 + 1}+" for k in range(42)) + "\n",
    "corpus.txt": "# five diagrams\n*\nO1+ U1+\nO1+ U2+ O3+ U1+ O2+ U3+\n"
                  "O1+ O2+ U1+ U2+\nO1+ U2+ / U1+ O2+\n",
}


def transcript() -> str:
    """A fixed list of command lines, each with its stdout, its stderr and
    its exit code, run in the working directory."""
    for name, text in TRANSCRIPT_INPUTS.items():
        Path(name).write_text(text)
    commands = []
    for name in ("trefoil", "vt", "unknot", "hopf", "t221"):
        path = f"{name}.gauss"
        commands.append(["genus", path])
        if name != "t221":  # its default orbit takes seconds
            commands.append(["minimize", path])
        commands.append(["minimize", path, "--max-crossings", "5", "--max-states", "300"])
        commands.append(["equiv", path, "unknot.gauss"])
        commands.append(["equiv", path, "trefoil.gauss"])
    commands.append(["classify", "corpus.txt", "--max-crossings", "4", "--max-states", "300"])
    blocks = []
    for argv in commands:
        code, out, err = run_cli_err(argv)
        blocks.append(f"$ vlink {' '.join(argv)}\n{out}"
                      + "".join(f"stderr: {line}\n" for line in err.splitlines())
                      + f"exit: {code}\n")
    return "\n".join(blocks)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "trefoil.gauss": "O1+ U2+ O3+ U1+ O2+ U3+\n",
        "vt.gauss": "O1+ O2+ U1+ U2+\n",
        "unknot.gauss": "*\n",
        "kink.gauss": "O1+ U1+\n",
        "hopf.gauss": "O1+ U2+ / U1+ O2+\n",
        "corpus.txt": "# three knots\n*\nO1+ U2+ O3+ U1+ O2+ U3+\nO1+ O2+ U1+ U2+\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_genus_output(files):
    code, out = run_cli(["genus", files["trefoil.gauss"]])
    assert code == 0
    assert out == "component 1: genus 0, faces 5\ntotal genus 0\n"
    code, out = run_cli(["genus", files["vt.gauss"]])
    assert out == "component 1: genus 1, faces 2\ntotal genus 1\n"
    code, out = run_cli(["genus", files["unknot.gauss"]])
    assert out == "component 1: genus 0, faces 2\ntotal genus 0\n"


def test_equiv_exit_codes(files):
    code, out = run_cli(["equiv", files["trefoil.gauss"], files["unknot.gauss"],
                         "--max-crossings", "5", "--max-states", "200"])
    assert code == 1
    assert "verdict: distinguished" in out
    assert "invariant: colorings[R3]" in out
    assert "value[a]: 9" in out and "value[b]: 3" in out

    code, out = run_cli(["equiv", files["kink.gauss"], files["unknot.gauss"],
                         "--max-crossings", "3"])
    assert code == 0
    assert "verdict: equivalent" in out

    code, out = run_cli(["equiv", files["vt.gauss"], files["unknot.gauss"],
                         "--quandles", "R3,R5"])
    assert code == 1
    assert "invariant: f_poly" in out


def test_equiv_unknown_exit_code(files, tmp_path):
    a = tmp_path / "a.gauss"
    a.write_text("O1+ U1+ O2+ U2+\n")
    code, out = run_cli(["equiv", str(a), files["unknot.gauss"],
                         "--max-crossings", "2", "--max-depth", "1", "--max-states", "3"])
    assert code == 2
    assert "verdict: unknown" in out


def test_equiv_free_loops_distinguished(tmp_path):
    # each free loop multiplies the R5 count by 5; counted jointly, 5^16
    # assignments would hang invariant_table
    a, b = tmp_path / "a.gauss", tmp_path / "b.gauss"
    a.write_text(" / ".join(["*"] * 16) + "\n")
    b.write_text(" / ".join(["*"] * 15) + "\n")
    t0 = time.perf_counter()
    code, out = run_cli(["equiv", str(a), str(b)])
    assert time.perf_counter() - t0 < 10
    assert code == 1
    assert "invariant: components" in out
    assert f"value[a]: {5 ** 16}" in out


def test_minimize_output(files):
    code, out = run_cli(["minimize", files["kink.gauss"], "--max-crossings", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "witness: *"
    assert "genus: 0" in lines
    assert "crossings: 0" in lines
    assert any(l.startswith("status: ") for l in lines)


def test_minimize_vt(files, tmp_path):
    code, out = run_cli(["minimize", files["vt.gauss"], "--max-crossings", "4",
                         "--max-states", "2000"])
    assert "witness: O1+ O2+ U1+ U2+" in out
    assert "genus: 1" in out
    # a link's witness is printed as its canonical string, as classify's minimal
    code, out = run_cli(["minimize", files["hopf.gauss"], "--max-states", "2000"])
    assert out.splitlines()[0] == "witness: O1+ U2+ / O2+ U1+"
    corpus = tmp_path / "hopf.txt"
    corpus.write_text("O1+ U2+ / U1+ O2+\n")
    code, out = run_cli(["classify", str(corpus), "--max-states", "2000"])
    assert "  minimal: O1+ U2+ / O2+ U1+" in out.splitlines()


def test_classify_report(files):
    code, out = run_cli(["classify", files["corpus.txt"],
                         "--max-crossings", "5", "--max-states", "300"])
    assert code == 0
    assert "diagrams: 3" in out
    assert "classes: 3" in out
    assert "violations: none" in out
    # one invariants line, its rows in report order
    assert ("\n  O1+ U2+ O3+ U1+ O2+ U3+ :: components=1 colorings[R3]=9 colorings[R5]=5 "
            "f_poly=-A^-16 + A^-12 + A^-4\n") in out


def test_quandle_file_argument(files, tmp_path):
    qfile = tmp_path / "r3.quandle"
    qfile.write_text("3\n0 2 1\n2 1 0\n1 0 2\n")
    code, out = run_cli(["equiv", files["trefoil.gauss"], files["unknot.gauss"],
                         "--max-states", "200", "--quandles", str(qfile)])
    assert code == 1
    assert f"invariant: colorings[{qfile}]" in out


@pytest.mark.parametrize("text", ["O1+ U2+\n", "O1+ U1-\n", "O1+ * U1+\n", "3\n"])
def test_unreadable_input_exits_3(files, tmp_path, text):
    bad = tmp_path / "bad.gauss"
    bad.write_text(text)
    for argv in (["equiv", str(bad), files["unknot.gauss"]], ["genus", str(bad)],
                 ["minimize", str(bad)], ["classify", str(bad)]):
        code, out, err = run_cli_err(argv)
        assert code == 3, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"vlink {argv[0]}: ")


@pytest.mark.parametrize("argv", [
    ["equiv", "{u}", "{u}", "--max-states", "x"],
    ["equiv", "{u}"],
    ["classify", "{u}", "--no-such-option"],
    ["bogus"],
    [],
    ["minimize", "{u}", "--quandles", "R3"],  # minimize computes no invariant
])
def test_usage_errors_exit_3(files, argv):
    argv = [a.format(u=files["unknot.gauss"]) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("vlink")


def test_state_sum_cap_exits_3(files, tmp_path):
    # T(2,21): 21 crossings, one above the bracket's cap
    torus = tmp_path / "t221.gauss"
    torus.write_text(" ".join(f"{'OU'[k % 2]}{k % 21 + 1}+" for k in range(42)) + "\n")
    for argv in (["equiv", str(torus), files["unknot.gauss"]], ["classify", str(torus)]):
        t0 = time.perf_counter()
        code, out, err = run_cli_err(argv)
        assert time.perf_counter() - t0 < 10
        assert code == 3 and out == ""
        assert err == f"vlink {argv[0]}: 21 crossings exceeds the state-sum cap 20\n"


def test_unreplayable_path_exits_4(files, tmp_path, monkeypatch):
    monkeypatch.setattr(vlink.search, "_replay", lambda *args: False)
    corpus = tmp_path / "kinks.txt"
    corpus.write_text("*\nO1+ U1+\n")
    for argv in (["equiv", files["kink.gauss"], files["unknot.gauss"]],
                 ["classify", str(corpus)]):
        code, out, err = run_cli_err(argv)
        assert (code, out) == (4, ""), argv
        assert len(err.splitlines()) == 1 and "failed to replay" in err


def test_corpus_error_names_its_line(tmp_path):
    # comment and blank lines count, a form feed ends no line, and the
    # position stays the one in the line
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# two good, one bad\nO1+ U1+\x0c\n\n*\nO1+ U0+\n")
    code, out, err = run_cli_err(["classify", str(corpus)])
    assert (code, out) == (3, "")
    assert err == ("vlink classify: line 5: crossing index must be positive"
                   " (at position 5)\n")


def test_missing_file_and_bad_quandle_exit_3(files, tmp_path):
    code, _, err = run_cli_err(["equiv", str(tmp_path / "absent.gauss"), files["unknot.gauss"]])
    assert code == 3 and len(err.splitlines()) == 1
    bad = tmp_path / "bad.quandle"
    for text in ("", "-1", "1\n0\n0 0"):
        bad.write_text(text)
        code, _, err = run_cli_err(["equiv", files["trefoil.gauss"], files["unknot.gauss"],
                                    "--quandles", str(bad)])
        assert code == 3 and len(err.splitlines()) == 1
    # a quandle name is R and at least one ASCII digit naming a size of 1 or more
    for name in ("R\u0661", "R0"):
        code, out, err = run_cli_err(["equiv", files["kink.gauss"], files["unknot.gauss"],
                                      "--quandles", name])
        assert code == 3 and out == "" and len(err.splitlines()) == 1, name
    # an empty entry is named, not read as the working directory
    for arg in ("R3,", ",", " "):
        code, out, err = run_cli_err(["equiv", files["kink.gauss"], files["unknot.gauss"],
                                      "--quandles", arg])
        assert code == 3 and out == "" and len(err.splitlines()) == 1, arg
        assert "empty entry" in err and "Is a directory" not in err, arg
    pair = ["equiv", files["trefoil.gauss"], files["unknot.gauss"]]
    assert run_cli_err(pair + ["--quandles", ""]) == run_cli_err(pair)


def test_printed_equiv_path_replays_from_canonical_representatives(files, tmp_path):
    # each move names darts of its state's representative, the diagram
    # to_diagram(parse_gauss(cs)) of the canonical string cs before it,
    # not of the input as typed
    typed = "O1- O2+ U1- U2+"
    a = tmp_path / "a.gauss"
    a.write_text(typed + "\n")
    code, out = run_cli(["equiv", str(a), files["unknot.gauss"],
                         "--max-crossings", "5", "--max-states", "3000"])
    assert code == 0
    sites = [MoveSite(m[1], ast.literal_eval(m[2]), m[3])
             for m in re.finditer(r"^move: (\S+) where=(.*) variant=(\S*)$", out, re.M)]
    assert sites == [MoveSite("R2-", (1, 6))]
    with pytest.raises(MoveError):
        apply_move(to_diagram(parse_gauss(typed)), sites[0])
    cs = canonical_string(to_diagram(parse_gauss(typed)))
    for site in sites:
        cs = canonical_string(apply_move(to_diagram(parse_gauss(cs)), site))
    assert cs == "*"


def test_search_bounds_below_input_exit_3(files):
    code, _, err = run_cli_err(["minimize", files["trefoil.gauss"], "--max-crossings", "2"])
    assert code == 3
    assert "above max_crossings=2" in err
    # equiv's two starts need two states
    code, out, err = run_cli_err(["equiv", files["vt.gauss"], files["unknot.gauss"],
                                  "--max-states", "1"])
    assert (code, out) == (3, "")
    assert err == "vlink equiv: max_states must be at least 2, one per start\n"


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    # every command's stdout, stderr and exit code, byte for byte
    monkeypatch.chdir(tmp_path)
    assert_matches_golden(transcript(), "cli.txt")
