import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aschur.cli import COMMANDS, FLAGS, main
from aschur.present import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jlines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def test_weyl_length(capsys):
    code, out, _ = run(capsys, "weyl", "length", "--r", "3", "--images", "1,2,3")
    assert code == 0 and out.strip() == "0"


def test_weyl_compose_structured(capsys):
    code, out, _ = run(
        capsys, "weyl", "compose", "--r", "3",
        "--a", "rho^1 * [1,2,3]", "--b", "[2,1,3]", "--format", "structured",
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["schema"] == "aschur.perm/1"
    assert rec["z"] == 1 and rec["r"] == 3
    # round-trip through the schema
    from aschur.aweyl import AffinePerm

    w = AffinePerm(rec["r"], rec["z"], tuple(rec["window"]))
    assert w == AffinePerm.rho(3) * AffinePerm.s(3, 1)


def test_weyl_reduced_and_coset(capsys):
    code, out, _ = run(capsys, "weyl", "reduced", "--r", "3", "--images", "2,1,3")
    assert code == 0 and "s1" in out
    code, out, _ = run(
        capsys, "weyl", "coset", "--r", "3", "--perm", "[3,1,2]", "--pi", "1",
    )
    assert code == 0 and "distinguished" in out
    code, out, _ = run(
        capsys, "weyl", "mincoset", "--r", "3", "--perm", "[2,1,3]",
        "--pi1", "1", "--pi2", "1",
    )
    assert code == 0 and out.strip() == "rho^0 * [1,2,3]"


def test_hecke_xlambda_weight_must_sum_to_r(capsys):
    code, out, err = run(capsys, "hecke", "xlambda", "--r", "3", "--lambda", "2,2,0")
    assert code == 2 and out == ""
    assert err == "usage error: --lambda '2,2,0' must sum to --r = 3\n"
    code, out, _ = run(capsys, "hecke", "xlambda", "--r", "4", "--lambda", "2,2,0")
    assert code == 0 and out.count("T[") == 4


def test_hecke_commands(capsys):
    code, out, _ = run(capsys, "hecke", "mul", "--r", "3", "--a", "[2,1,3]", "--b", "[2,1,3]")
    assert code == 0 and "v^2" in out
    code, out, _ = run(
        capsys, "hecke", "xlambda", "--r", "3", "--lambda", "2,1,0",
        "--format", "structured",
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["schema"] == "aschur.hecke/1" and len(rec["terms"]) == 2


def test_schur_commands(capsys):
    code, out, _ = run(
        capsys, "schur", "phi", "--n", "3", "--r", "2",
        "--lambda", "2,0,0", "--mu", "2,0,0", "--d", "[1,2]",
    )
    assert code == 0 and "T[" in out
    code, out, _ = run(
        capsys, "schur", "mul", "--n", "3", "--r", "2",
        "--a", "1,1,0 | [1,2] | 2,0,0", "--b", "2,0,0 | [1,2] | 1,1,0",
        "--format", "structured",
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["schema"] == "aschur.schur/1" and len(rec["terms"]) == 2
    code, out, _ = run(capsys, "schur", "embed", "--n", "3", "--r", "2", "--perm", "[2,1]")
    assert code == 0 and "phi[" in out


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    # a fault inside aschur is neither a verification failure (1) nor a
    # usage error (2): it exits 3 with one line and no traceback
    from aschur import schur

    def broken(k1, k2):
        raise schur.BasisExpansionError("coset of rho^0 * [1,2]: broken")

    monkeypatch.setattr(schur, "_mul_basis", broken)
    code, out, err = run(
        capsys, "schur", "mul", "--n", "3", "--r", "2",
        "--a", "1,1,0 | [1,2] | 2,0,0", "--b", "2,0,0 | [1,2] | 1,1,0",
    )
    assert code == 3 and out == ""
    assert err == "internal error: BasisExpansionError: coset of rho^0 * [1,2]: broken\n"


def test_value_error_behind_a_valid_command_is_internal(capsys, monkeypatch):
    # only a value read from a flag makes a ValueError a usage error: one
    # raised by the checker on a valid verify call is aschur's own fault
    from aschur import present

    def broken(n, r, inst):
        raise ValueError("broken check")

    monkeypatch.setattr(present, "verify_identity", broken)
    code, out, err = run(capsys, "verify", "--suite", "schur-presentation", "--n", "3", "--r", "2")
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: broken check\n"


def test_tensor_commands(capsys):
    code, out, _ = run(
        capsys, "tensor", "act", "--n", "3",
        "--word", "E1", "--vector", "1,2",
    )
    assert code == 0 and out.strip() == "(1)*e[1,1]"
    code, out, _ = run(
        capsys, "tensor", "weightspace", "--n", "3", "--lambda", "1,1,0",
        "--lo", "1", "--hi", "3", "--format", "structured",
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["vectors"] == [[1, 2], [2, 1]]


def test_word_grammar_reads_what_symbols_render(capsys):
    from aschur.cli import _parse_word
    from aschur.operators import E, F, K, Kinv, P, R, Rinv, cH, ce, cf
    from aschur.weights import Weight

    word = (E(1), F(2), K(3), Kinv(1), R, Rinv, P(Weight((1, 1, 0))), ce(2), cf(3), cH(1))
    text = " ".join(s.render() for s in word)
    assert "K1^-1" in text and "R^-1" in text
    assert _parse_word(text, 3) == word
    # K<i>^-1, the rendered spelling, acts as Kinv<i>
    outs = [run(capsys, "tensor", "act", "--n", "3", "--word", w, "--vector", "1,1")
            for w in ("K1^-1 F1", "Kinv1 F1")]
    assert outs[0] == outs[1] == (0, "(v^-2)*e[1,2] + (v^-1)*e[2,1]\n", "")


def test_tensor_rejects_bad_weights_and_indices(capsys):
    # the weight must have n parts and every generator index lie in 1..n
    for argv in (
        ("tensor", "weightspace", "--n", "3", "--lambda", "1,1"),
        ("tensor", "act", "--n", "3", "--word", "E0", "--vector", "1,2"),
        ("tensor", "act", "--n", "3", "--word", "Kinv4", "--vector", "1,2"),
        ("tensor", "act", "--n", "3", "--word", "K4^-1", "--vector", "1,2"),
        ("tensor", "act", "--n", "3", "--word", "P(1,1)", "--vector", "1,2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "schur-presentation", "--n", "3", "--r", "2")
    assert code == 0
    assert "4/4 checks passed" in out
    # usage error: affine suite needs n > r
    code, _, err = run(capsys, "verify", "--suite", "qaffine", "--n", "2", "--r", "2")
    assert code == 2 and "n > r" in err


@pytest.mark.parametrize("suite,n,r", [
    ("qaffine", 2, 1),  # at n = 2, a_12 = -2: the Serre relations have degree 3
    ("idempotented", 2, 1),
    ("classical", 2, 2),
    ("classical", 1, 1),  # at n = 1, eps+(i, j) = 0
    ("hecke-tau", 3, 1),  # at r = 1 there is no s_i
])
def test_verify_passes_at_small_n_and_r(capsys, suite, n, r):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", str(n), "--r", str(r))
    assert code == 0, out


def test_verify_structured_records(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "extended", "--n", "3", "--r", "2",
        "--format", "structured",
    )
    assert code == 0
    recs = jlines(out)
    assert all(rec["schema"] == "aschur.check/1" and rec["passed"] for rec in recs)


def test_monomial_commands(capsys):
    code, out, _ = run(
        capsys, "monomial", "m1", "--n", "9", "--r", "7",
        "--lambda", "2,0,0,3,0,0,0,0,2",
    )
    assert code == 0 and "mu=(2,3,2,0,0,0,0,0,0)" in out
    code, out, _ = run(
        capsys, "monomial", "factor-en", "--n", "4", "--r", "3", "--lambda", "2,1,0,0",
    )
    assert code == 0 and "holds: True" in out
    code, _, err = run(capsys, "monomial", "m", "--n", "3", "--r", "3", "--lambda", "2,1,0")
    assert code == 2


def test_matrix_commands(capsys):
    code, out, _ = run(
        capsys, "matrix", "from-coset", "--n", "3", "--r", "2",
        "--lambda", "1,1,0", "--mu", "1,1,0", "--d", "[1,2]",
        "--format", "structured",
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["entries"] == [[1, 1, 1], [2, 2, 1]]
    code, out, _ = run(
        capsys, "matrix", "to-coset", "--n", "3", "--r", "2",
        "--entries", "1,1,1;2,2,1",
    )
    assert code == 0 and "d=rho^0 * [1,2]" in out
    code, out, _ = run(
        capsys, "matrix", "dstat", "--n", "2", "--r", "2", "--entries", "1,2,1;2,1,1",
    )
    assert code == 0 and out.strip().isdigit()
    code, out, _ = run(
        capsys, "matrix", "aperiodic", "--n", "2", "--r", "2", "--entries", "1,2,1;2,3,1",
    )
    assert code == 0 and out.strip() == "false"


def test_usage_error_reports_flag(capsys):
    code, _, err = run(capsys, "weyl", "length", "--r", "3", "--images", "1,4,3")
    assert code == 2 and "usage error" in err


def test_dimensions_must_match_n_and_r(capsys):
    # a permutation's period must be --r; a weight needs --n parts summing to --r,
    # also inside a phi index 'lam | d | mu'
    for argv in (
        ("weyl", "length", "--r", "4", "--perm", "[2,1,3]"),
        ("weyl", "reduced", "--r", "2", "--perm", "rho^1 * [1,2,3]"),
        ("weyl", "compose", "--r", "3", "--a", "[2,1,3]", "--b", "[2,1]"),
        ("weyl", "compose", "--r", "2", "--a", "[2,1,3]", "--b", "[2,1]"),
        ("hecke", "mul", "--r", "4", "--a", "[2,1,3]", "--b", "[2,1,3]"),
        ("monomial", "m1", "--n", "4", "--r", "3", "--lambda", "2,1,0"),
        ("monomial", "m", "--n", "4", "--r", "3", "--lambda", "2,1,1,0"),
        ("schur", "mul", "--n", "4", "--r", "3",
         "--a", "1,1,0 | [1,2] | 2,0,0", "--b", "2,0,0 | [1,2] | 1,1,0"),
        ("schur", "mul", "--n", "3", "--r", "2",
         "--a", "1,1,0 | [1,2,3] | 2,0,0", "--b", "2,0,0 | [1,2] | 1,1,0"),
        ("schur", "phi", "--n", "3", "--r", "2",
         "--lambda", "2,1", "--mu", "3,0", "--d", "[1,2,3]"),
        ("schur", "phi", "--n", "3", "--r", "2",
         "--lambda", "2,0,0", "--mu", "2,0,0", "--d", "[1,2,3]"),
        ("schur", "embed", "--n", "3", "--r", "3", "--perm", "[2,1]"),
        # a missing phi index is a usage error too, not a traceback
        ("schur", "phi", "--n", "3", "--r", "2"),
        ("schur", "mul", "--n", "3", "--r", "2", "--a", "1,1,0 | [1,2] | 2,0,0"),
        ("schur", "embed", "--n", "3", "--r", "2"),
        # matrix from-coset reads its weights and d against --n and --r
        ("matrix", "from-coset", "--n", "3", "--r", "2",
         "--lambda", "1,1,1", "--mu", "1,1,1", "--d", "[1,2,3]"),
        ("matrix", "from-coset", "--n", "4", "--r", "3",
         "--lambda", "1,1,1", "--mu", "1,1,1", "--d", "[1,2,3]"),
        ("matrix", "from-coset", "--n", "3", "--r", "3",
         "--lambda", "1,1,1", "--mu", "1,1,1", "--d", "[1,2]"),
        ("matrix", "from-coset", "--n", "3", "--r", "3", "--lambda", "1,1,1", "--mu", "1,1,1"),
        ("matrix", "from-coset", "--n", "3", "--r", "3", "--d", "[1,2,3]"),
        ("matrix", "dstat", "--n", "2", "--r", "2"),
        ("matrix", "aperiodic", "--n", "2", "--r", "2"),
        ("matrix", "to-coset", "--n", "2", "--r", "2"),
        # x_lambda lives in the Hecke algebra of --r
        ("hecke", "xlambda", "--r", "3", "--lambda", "2,2,0"),
        ("hecke", "xlambda", "--r", "3"),
        # --n and --r must be positive
        ("verify", "--suite", "hecke-tau", "--n", "2", "--r", "0"),
        ("verify", "--suite", "zeta", "--n", "3", "--r", "0"),
        ("verify", "--suite", "schur-presentation", "--n", "2", "--r", "-1"),
        ("tensor", "act", "--n", "0", "--word", "E1", "--vector", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv", [
    ("weyl", "--r", "3"),  # no action
    ("weyl", "length", "--images", "1,2,3"),  # no --r
    ("tensor", "act", "--n", "x", "--word", "E1", "--vector", "1"),  # --n not an integer
    ("verify", "--suite", "bogus", "--n", "3", "--r", "2"),  # no such suite
])
def test_argparse_errors_are_one_line_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_a_line_break_in_a_message_is_escaped(capsys, monkeypatch):
    # argparse echoes an unrecognized value as it is; the error stays one line
    code, out, err = run(capsys, "weyl", "length", "--r", "3", "--images", "1,2,3", "a\nb")
    assert code == 2 and out == ""
    assert err == "usage error: unrecognized arguments: a\\nb\n"
    from aschur import schur

    def broken(k1, k2):
        raise schur.BasisExpansionError("two\nlines")

    monkeypatch.setattr(schur, "_mul_basis", broken)
    code, out, err = run(
        capsys, "schur", "mul", "--n", "3", "--r", "2",
        "--a", "1,1,0 | [1,2] | 2,0,0", "--b", "2,0,0 | [1,2] | 1,1,0",
    )
    assert code == 3 and out == ""
    assert err == "internal error: BasisExpansionError: two\\nlines\n"


@pytest.mark.parametrize("argv", [("--help",), ("weyl", "--help"), ("verify", "-h")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: aschur")


def readme_commands() -> list[list[str]]:
    """The argv of each `aschur ...` line of README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("aschur ")]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)  # the last --format wins
    assert code == 0 and out and err == "", err
    if fmt == "structured":
        assert all("schema" in rec for rec in jlines(out))


# the CLI fuzz: a flag's value is malformed one time in eight, and otherwise
# well formed for the drawn --n and --r, though not always valid for them
MALFORMED = ["", "x", ",", "|", ";", "[", "P(", "-", "1,,2", "bogus", "a\nb"]


@st.composite
def cli_argv(draw) -> list[str]:
    """A command and an action of COMMANDS with any of the command's flags,
    in any order; --n and --r stay at most 4 (3 and 2 for verify, to keep
    the run short)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, dims, actions = COMMANDS[command]
    action = draw(st.sampled_from(sorted(actions, key=str)))
    top = {"--n": 3, "--r": 2} if command == "verify" else {"--n": 4, "--r": 4}
    n, r = (draw(st.integers(1, top[dim])) for dim in ("--n", "--r"))
    options = [[dim, draw(st.sampled_from([str(n if dim == "--n" else r)] * 12 + ["0", "-1", "x"]))]
               for dim in dims]

    def perm() -> str:
        window = list(draw(st.permutations(range(1, r + 1))))
        shift = draw(st.integers(-1, 1)) * r if r > 1 else 0
        window[0], window[-1] = window[0] + shift, window[-1] - shift
        return ",".join(map(str, window))

    def weight() -> str:
        parts = [0] * n
        for _ in range(r):
            parts[draw(st.integers(0, n - 1))] += 1
        return ",".join(map(str, parts))

    def symbol() -> str:
        i = draw(st.integers(1, n))
        return draw(st.sampled_from([f"E{i}", f"F{i}", f"K{i}", f"Kinv{i}", f"K{i}^-1", "R",
                                     "Rinv", "R^-1", f"e{i}", f"f{i}", f"H{i}", f"P({weight()})"]))

    element = lambda: f"rho^{draw(st.integers(-1, 1))} * [{perm()}]"
    values = {
        "--images": perm, "--perm": element, "--d": element, "--lambda": weight, "--mu": weight,
        "--pi": lambda: ",".join(map(str, draw(st.sets(st.integers(0, r), max_size=2)))),
        "--word": lambda: " ".join(symbol() for _ in range(draw(st.integers(1, 3)))),
        "--vector": lambda: ",".join(str(draw(st.integers(1, n))) for _ in range(r)),
        "--entries": lambda: ";".join(f"{i},{j},1" for i, j in draw(st.lists(
            st.tuples(st.integers(1, n), st.integers(1 - n, 2 * n)), min_size=r, max_size=r))),
    }
    values["--pi1"] = values["--pi2"] = values["--pi"]
    values["--a"] = values["--b"] = (lambda: f"{weight()} | {element()} | {weight()}"
                                     if command == "schur" else element())
    flags = [f for _, required, optional in actions.values() for f in required + optional]
    for flag in dict.fromkeys(flags):
        if draw(st.integers(0, 9)) < (9 if flag in actions[action][1] else 4):
            spec = FLAGS.get(flag, {})
            if draw(st.integers(0, 7)) == 0:
                value = draw(st.sampled_from(MALFORMED))
            elif "choices" in spec:
                value = draw(st.sampled_from(spec["choices"]))
            else:
                value = str(draw(st.integers(-3, 6))) if spec.get("type") is int else values[flag]()
            options.append([flag, value])
    if draw(st.booleans()):
        options.append(["--format", draw(st.sampled_from(["text", "structured", "json"]))])
    order = draw(st.permutations(options))
    cut = draw(st.integers(0, len(order)))  # the action goes between two options
    before, after = ([t for o in part for t in o] for part in (order[:cut], order[cut:]))
    return [command] + before + ([] if action is None else [action]) + after


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_exit_codes(argv):
    # main returns, never raises SystemExit; the drawn input is the user's,
    # so an exit 3 (an internal error) would be a reader that lets the
    # user's ValueError through or a fault of aschur; a usage error is one
    # line on stderr and nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n"), (argv, lines)
        assert lines[0].startswith("usage error: "), (argv, lines)
