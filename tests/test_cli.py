import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nwalgebra import cli, nichols_core
from nwalgebra.nichols_core import AlgebraState


# child processes import the package under test, even from a checkout
# where only pytest's pythonpath setting puts it on the path
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "nwalgebra.cli", *args],
        capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_dims_csv():
    code, out, _ = run_cli("dims", "--type", "A", "--rank", "2", "--format", "csv")
    assert code == 0
    assert out == "degree,dim\n0,1\n1,3\n2,4\n3,3\n4,1\n"


def test_dims_json_exact_label():
    code, out, _ = run_cli("dims", "--rank", "2")
    data = json.loads(out)
    assert code == 0
    assert data["dims"] == [1, 3, 4, 3, 1]
    assert data["total"] == 12
    assert data["certification"] == "exact"
    assert data["config"]["engine_version"]


def test_dims_prime_label():
    code, out, _ = run_cli("dims", "--rank", "2", "--field", "prime")
    data = json.loads(out)
    assert code == 0
    assert data["certification"] == "mod-p lower-bound certified"
    assert data["dims"] == [1, 3, 4, 3, 1]


def test_reports_byte_identical():
    args = ("verify", "rhoD", "--rank", "2", "--trials", "20", "--seed", "7")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["reports"][0]["seed"] == 7


def test_verify_exit_zero():
    code, out, _ = run_cli("verify", "nz-antipode", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["status"] == "pass"


def test_verify_gen_leibniz():
    code, out, _ = run_cli("verify", "gen-leibniz", "--type", "A", "--rank", "2",
                           "--trials", "50", "--seed", "7")
    assert code == 0


def test_unknown_command_exit_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def _parsed(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits, as help and
    usage errors do."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out, err = capsys.readouterr()
    return stop.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["--help"], ["--version"], ["frobnicate"], [],
    *[[name, "--help"] for name in cli._subcommands()],
    ["dims", "--rank", "x"], ["bracket", "--order", "0"], ["verify", "nope"],
    ["reduce"], ["dims", "--bogus"], ["dims", "--version"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_named_command_parses_as_the_full_parser(argv, capsys):
    # main builds only the named command's subparser; help, version and
    # every usage error print the same bytes with the same exit code as
    # the parser that holds every subcommand
    full = _parsed(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert _parsed(cli.main, argv, capsys) == full
    assert full[0] in (0, 2) and (full[1] or full[2])


def test_named_command_builds_one_subparser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["roots", "--rank", "2"]) == 0
    assert len(built) <= 3
    built.clear()
    cli.build_parser()
    assert len(built) == 1 + len(cli._subcommands())


def test_cap_exceeded_exit_3():
    code, out, _ = run_cli("dims", "--rank", "3", "--degree-cap", "3")
    # construction stops at the cap without finding the top; dims succeed
    assert code == 0
    assert json.loads(out)["truncated"]
    code, _, err = run_cli("integral", "--rank", "3", "--degree-cap", "3")
    assert code == 3
    assert "resource bound exceeded" in err


def test_rank_bound_exit_3_before_root_generation(capsys):
    # the root count comes from its closed form, so an oversized rank is
    # refused before any root is generated
    import time

    t0 = time.perf_counter()
    code = cli.main(["dims", "--rank", "99"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "A99 has 4950 positive roots" in err and "over the bound 3628800" in err
    assert elapsed < 1.0, elapsed


def test_disjoint_find_complete_s6():
    code, out, _ = run_cli("disjoint", "--type", "A", "--rank", "5", "--find-complete")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    perms = [sorted(tuple(m["element"]["perm"]) for m in s["members"])
             for s in data["systems"]]
    golden = sorted([(1, 2, 3, 4, 5, 6), (2, 4, 1, 6, 3, 5), (3, 1, 5, 2, 6, 4)])
    mirrored = sorted([(1, 2, 3, 4, 5, 6), (5, 3, 1, 6, 4, 2), (4, 1, 5, 2, 6, 3)])
    assert golden in perms or mirrored in perms


def test_disjoint_check_violation_exit_1():
    code, out, _ = run_cli("disjoint", "--rank", "2", "--check", "[2,1,3];[1,2,3]")
    assert code == 1
    data = json.loads(out)
    assert data["result"] == "violation"


def test_disjoint_check_golden():
    code, out, _ = run_cli("disjoint", "--rank", "5",
                           "--check", "[1,2,3,4,5,6];[2,4,1,6,3,5];[3,1,5,2,6,4]")
    assert code == 0
    data = json.loads(out)
    assert data["detail"]["complete"] and data["detail"]["normalized"]
    assert data["detail"]["order"] == 3


def test_reduce_cli():
    code, out, _ = run_cli("reduce", "--rank", "2", "--monomial", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "1"
    assert data["w"] == {"perm": [3, 1, 2]}


def test_group_element_info():
    code, out, _ = run_cli("group", "--rank", "5", "--element", "[2,4,1,6,3,5]")
    assert code == 0
    data = json.loads(out)
    assert data["element"]["centralizes_longest"]
    assert data["exponent"] == 60


def test_pairing_cli():
    code, out, _ = run_cli("pairing", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["orthonormal"] and data["pairs"] == 36


def test_pairing_makes_one_gram_product_per_element(monkeypatch, capsys):
    # each embedded x_v goes through its degree's Gram matrix once, not
    # once per pair: |W| products on A3, whose x_v are homogeneous
    grams, products = set(), []
    gram, mat_col = AlgebraState.gram, nichols_core.mat_col

    def recorded(self, n):
        m = gram(self, n)
        grams.add(id(m))
        return m

    def counted(mat, col, field, plus=None):
        if id(mat) in grams:
            products.append(col)
        return mat_col(mat, col, field, plus)

    monkeypatch.setattr(AlgebraState, "gram", recorded)
    monkeypatch.setattr(nichols_core, "mat_col", counted)
    assert cli.main(["pairing", "--rank", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["orthonormal"] and data["pairs"] == 24 ** 2
    assert len(products) == 24


def test_memory_bound_on_pairs_exit_3(monkeypatch, capsys):
    # |W|^2 = 576 pairs for A3; checked before the construction starts
    code, out, err = run_cli("pairing", "--rank", "3", "--memory-bound", "500")
    assert code == 3 and out == ""
    assert "resource bound exceeded: pairing:" in err
    assert "Traceback" not in err
    # and from |W| = the product of the degrees, before W is closed
    from nwalgebra.coxeter import RootSystem

    def refuse(self, gens):
        raise AssertionError("_closure entered")

    monkeypatch.setattr(RootSystem, "_closure", refuse)
    assert cli.main(["pairing", "--rank", "3", "--memory-bound", "500"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert ("resource bound exceeded: pairing: 24^2 = 576 pairs exceed the memory bound 500"
            in err)


def test_pairing_checks_the_longest_length_against_the_cap(monkeypatch, capsys):
    # l(w_o) = 10 on A4, above the cap 5 (and the default cap 6 of a build
    # whose top is unknown): refused before anything is built
    def refuse(self):
        raise AssertionError("construct_all called")

    monkeypatch.setattr(AlgebraState, "construct_all", refuse)
    for cap in (["--degree-cap", "5"], []):
        assert cli.main(["pairing", "--type", "A", "--rank", "4", "--field", "prime",
                         *cap]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert ("resource bound exceeded: pairing: the longest element has length 10, "
                f"above the degree cap {cap[1] if cap else 6}") in err


@pytest.mark.parametrize("argv,needed", [
    pytest.param(["pairing", "--type", "A", "--rank", "4", "--field", "prime"], "length 10",
                 id="pairing"),
    *[pytest.param(["verify", identity, "--rank", "3"], "length 6", id=f"verify-{identity}")
      for identity in ("gen-leibniz", "tower", "skew-commutation", "basic-rev", "all")],
    pytest.param(["integral", "--rank", "3"], "length 6", id="integral"),
    pytest.param(["hypo", "--rank", "3"], "length 6", id="hypo"),
    pytest.param(["bracket", "--rank", "3", "--order", "2"], "degree 12", id="bracket"),
])
def test_cap_shortfall_exits_3(argv, needed, monkeypatch, capsys):
    # a cap below the degree a command needs is a resource bound, not a
    # failed check; x_{w_o}, which every command here but bracket embeds,
    # lies in degree l(w_o), and bracket's products in degree r l(w_o),
    # both known before any build
    def refuse(self):
        raise AssertionError("construct_all called")

    monkeypatch.setattr(AlgebraState, "construct_all", refuse)
    assert cli.main([*argv, "--degree-cap", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "resource bound exceeded:" in err
    assert needed in err and "degree cap 5" in err


def _top(cap):
    return f"the top degree {cap} is confirmed only at degree {cap + 1}"


@pytest.mark.parametrize("argv,cap,needed", [
    pytest.param(["integral", "--rank", "3"], 12, _top(12), id="integral-A3"),
    pytest.param(["integral", "--rank", "2"], 4, _top(4), id="integral-A2"),
    pytest.param(["bracket", "--rank", "3", "--order", "2"], 12, _top(12), id="bracket-A3"),
    pytest.param(["hypo", "--rank", "3"], 12, _top(12), id="hypo-A3"),
    pytest.param(["hypo", "--rank", "2"], 4, _top(4), id="hypo-A2"),
    # hypo embeds x_{w_o}, so a cap below l(w_o) can never pass either
    *[pytest.param(["hypo", "--rank", "4", "--field", "prime"], cap,
                   "the longest element has length 10", id=f"hypo-A4-cap{cap}")
      for cap in (3, 4, 6)],
])
def test_known_top_above_the_cap_exits_3_before_the_build(argv, cap, needed, monkeypatch,
                                                          capsys):
    # the top of a type with a known top is confirmed only by building the
    # empty degree past it; a cap at the top cannot, and is refused first
    def refuse(self):
        raise AssertionError("construct_all called")

    monkeypatch.setattr(AlgebraState, "construct_all", refuse)
    assert cli.main([*argv, "--degree-cap", str(cap)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"resource bound exceeded: {argv[0]}: {needed}, above the degree cap {cap}" in err


@pytest.mark.parametrize("type_,rank", [("D", 4), ("E", 6)])
def test_reduce_outside_type_a_is_a_usage_error(type_, rank, capsys):
    assert cli.main(["reduce", "--type", type_, "--rank", str(rank), "--monomial", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: reduce: monomial reduction is type A only, not {type_}{rank}" in err


@pytest.mark.parametrize("argv,code,err", [
    (["reduce", "--type", "D", "--rank", "4", "--monomial", "1"], 2,
     "error: reduce: monomial reduction is type A only, not D4"),
    (["reduce", "--type", "E", "--rank", "6", "--monomial", "1"], 2,
     "error: reduce: monomial reduction is type A only, not E6"),
    (["reduce", "--rank", "3", "--monomial", "1,x"], 2,
     "error: --monomial: not comma-separated root indices: '1,x'"),
    (["reduce", "--rank", "3", "--monomial", "1,6"], 2, "error: root index out of range: 6"),
    (["disjoint", "--rank", "3"], 2, "error: disjoint requires --find-complete or --check"),
    (["bracket", "--rank", "3", "--order", "3"], 1,
     "check failed: bracket: no complete disjoint system of sufficient order"),
    (["dims", "--field", "prime", "--prime", "4"], 2,
     "error: --prime: prime mode requires a prime modulus, got 4"),
], ids=["reduce-D4", "reduce-E6", "malformed-monomial", "root-out-of-range",
        "disjoint-no-mode", "bracket-no-system", "prime-4"])
def test_a_refusal_is_raised_and_main_alone_reports_it(argv, code, err, capsys):
    # a handler raises; main picks the exit code and the stderr prefix of
    # the exception's class, and the message is the whole of stderr
    assert cli.main(argv) == code
    out, got = capsys.readouterr()
    assert out == ""
    assert got == err + "\n"


@pytest.mark.parametrize("identity", ["rhoD", "nz-antipode"])
def test_verify_without_the_longest_word_runs_under_a_low_cap(identity):
    code, out, _ = run_cli("verify", identity, "--rank", "3", "--degree-cap", "5",
                           "--trials", "5")
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "pass"


def test_memory_bound_on_gram_exit_3():
    # the A3 construction fits in 3364 entries per class block; the dense
    # Gram matrix of degree 4 needs 71^2 = 5041
    code, out, err = run_cli("pairing", "--rank", "3", "--memory-bound", "5000")
    assert code == 3 and out == ""
    assert "resource bound exceeded: gram:" in err
    assert "Traceback" not in err


def test_bracket_without_a_system_of_the_order_refuses_before_building(monkeypatch, capsys):
    # A3's complete disjoint systems have order 2, which the root system
    # alone decides
    def refuse(self):
        raise AssertionError("construct_all called")

    monkeypatch.setattr(AlgebraState, "construct_all", refuse)
    assert cli.main(["bracket", "--rank", "3", "--order", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "no complete disjoint system of sufficient order" in err


@pytest.mark.parametrize("identity", ["skew-commutation", "all"])
@pytest.mark.parametrize("cap", [6, 7, 9, 12])
def test_verify_on_a_truncated_build_stays_inside_the_cap(identity, cap, capsys):
    # every check reads only the built degrees of a truncated build: a cap
    # at or above l(w_o) = 6 runs each, and basic-rev, whose products
    # need degree 7 or more, is skipped at cap 6
    assert cli.main(["verify", identity, "--rank", "3", "--degree-cap", str(cap)]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    status = {r["identity"]: r["status"] for r in reports}
    assert status["skew-commutation"] == "pass"
    assert set(status.values()) == ({"pass", "skipped"} if identity == "all" and cap == 6
                                    else {"pass"})


def test_bracket_cli():
    code, out, _ = run_cli("bracket", "--rank", "3", "--order", "2")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [["1", "1"], ["1", "1"]]


def test_integral_cli():
    code, out, _ = run_cli("integral", "--type", "A", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["degree"] == 4
    assert data["invariance"]["status"] == "pass"


def test_hypo_cli():
    code, out, _ = run_cli("hypo", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["subalgebra"]["dims"] == [1, 1]
    assert data["report"]["status"] == "pass"


@pytest.mark.parametrize("argv", [
    pytest.param(["--type", "D", "--rank", "4", "--degree-cap", "4"], id="D4-cap4"),
    pytest.param(["--type", "D", "--rank", "4", "--degree-cap", "12"], id="D4-cap12"),
    pytest.param(["--type", "E", "--rank", "6"], id="E6"),
])
def test_hypo_outside_type_a_exits_2_before_any_build(argv, monkeypatch, capsys):
    # the lifting theory is type A only: hypothetical_checks would refuse
    # only after the build, so the build is never started, whatever the cap
    def refuse(self):
        raise AssertionError("construct_all called")

    monkeypatch.setattr(AlgebraState, "construct_all", refuse)
    assert cli.main(["hypo", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "hypo: lifting theory is type A only, not " in err


@pytest.mark.parametrize("argv,name", [
    (["hypo"], "hypo"),
    (["integral"], "top_integral"),
    (["bracket", "--order", "1"], "bracket_matrix"),
], ids=["hypo", "integral", "bracket"])
def test_a_build_truncated_before_its_top_is_refused_after_the_build(argv, name, monkeypatch,
                                                                     capsys):
    # with A3's top taken as unknown, a cap of 8 passes every refusal made
    # before the build, which then stops below the top 12; each command
    # reads the top, so each refuses, naming itself or its statement
    monkeypatch.delitem(nichols_core.KNOWN_TOP, "A3")
    assert cli.main([*argv, "--rank", "3", "--degree-cap", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"resource bound exceeded: {name}: the algebra is truncated at the degree cap 8; "
            f"top component unknown") in err


@pytest.mark.parametrize("argv", [
    ["dims", "--type", "D", "--rank", "4", "--field", "prime", "--degree-cap", "5"],
    ["hilbert", "--rank", "4", "--field", "prime", "--degree-cap", "5"],
    ["group", "--type", "D", "--rank", "4"],
], ids=["dims-D4", "hilbert-A4", "group-D4"])
def test_stdout_does_not_depend_on_hash_seed_or_addresses(argv):
    # group elements hash by identity, so a set of them iterates in an
    # order set by memory addresses; nothing that reaches stdout may read
    # one.  The two runs differ in the string hash seed and, through an
    # allocation before main, in every address the run hands out
    code = ("import sys; pad = [[i] * (i % 7) for i in range(int(sys.argv[1]))]; "
            "from nwalgebra.cli import main; sys.exit(main(sys.argv[2:]))")
    outs = []
    for seed, pad in (("1", 0), ("2", 20011)):
        proc = subprocess.run([sys.executable, "-c", code, str(pad), *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**ENV, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_all_prime_field():
    code, out, _ = run_cli("verify", "all", "--rank", "2", "--field", "prime",
                           "--trials", "20", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    names = {r["identity"] for r in data["reports"]}
    assert {"rhoD", "nz-antipode", "gen-leibniz", "tower-invariance",
            "skew-commutation", "basic-rev"} <= names
    assert all(r["status"] in ("pass", "skipped") for r in data["reports"])


def test_unsound_prime_exit_2():
    # too small, composite, composite, and past the int64-safe bound 2**31
    for p in ("2", "9", "15", "4294967311"):
        code, out, err = run_cli("dims", "--rank", "2", "--field", "prime", "--prime", p)
        assert code == 2, p
        assert out == ""
        assert "--prime: prime mode requires" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "rhoD", "--trials", "0"],
    ["verify", "rhoD", "--trials", "-3"],
    ["dims", "--degree-cap", "0"],
    ["dims", "--degree-cap", "-1"],
    ["dims", "--memory-bound", "-5"],
    ["bracket", "--order", "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_out_of_range_integer_exit_2(argv):
    code, out, err = run_cli(*argv, "--rank", "2")
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: must be at least" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(["--rank", "2", "--max-degree", "-2"], id="--max-degree -2"),
    pytest.param(["--rank", "3", "--degree-cap", "6", "--max-degree", "8"],
                 id="--degree-cap 6 --max-degree 8"),
])
def test_max_degree_is_an_unrecognized_argument(argv, monkeypatch, capsys):
    # --degree-cap alone bounds what verify compares; the retired
    # --max-degree is refused by the parser, before any build
    def refuse(self):
        raise AssertionError("construct_all called")

    monkeypatch.setattr(AlgebraState, "construct_all", refuse)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "rhoD", *argv])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --max-degree" in err


def test_readme_names_every_common_flag():
    # README's "Common flags" line lists the options every subcommand takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = readme.split("Common flags:", 1)[1].split("Reports embed", 1)[0]
    p = argparse.ArgumentParser(add_help=False)
    cli._add_common(p)
    defined = {flag for action in p._actions for flag in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", line)) == defined


def test_readme_names_every_subcommand():
    # README's CLI block shows each subcommand at least once
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    shown = set(re.findall(r"^nwalg ([a-z]+)", block, re.M))
    assert set(cli._subcommands()) <= shown


@pytest.mark.parametrize("argv", [
    ["group", "--element", '{"word": [-1]}'],
    ["group", "--element", '{"word": [9]}'],
    ["group", "--element", '{"foo": 1}'],
    ["group", "--element", "5"],
    ["group", "--element", '{"perm": [1, 2, "x"]}'],
    ["group", "--element", '{"word": [0'],
    ["disjoint", "--check", "[1,2,3];[2,1"],
    ["reduce", "--monomial", "a"],
    ["reduce", "--monomial", "0,,1"],
    ["reduce", "--monomial", ","],
    ["reduce", "--monomial", "1,"],
], ids=lambda argv: " ".join(argv))
def test_malformed_element_or_monomial_exit_2(argv):
    code, out, err = run_cli(*argv, "--rank", "2")
    assert code == 2
    assert out == ""
    assert err.strip() and "Traceback" not in err
    if argv[0] == "reduce":
        assert "--monomial: not comma-separated root indices" in err


def test_empty_monomial_is_the_unit():
    code, out, _ = run_cli("reduce", "--rank", "2", "--monomial", "")
    assert code == 0
    assert json.loads(out)["monomial"] == []


def test_verify_all_rank_1():
    # A1's only complete disjoint system is {e}: skew commutation takes w_o
    code, out, _ = run_cli("verify", "all", "--rank", "1")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert {r["identity"] for r in reports} >= {"skew-commutation"}
    assert all(r["status"] in ("pass", "skipped") for r in reports)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_memory_bound_environment_default_is_checked(value):
    proc = subprocess.run(
        [sys.executable, "-m", "nwalgebra.cli", "dims", "--rank", "2"],
        capture_output=True, text=True,
        env={**ENV, "NWALGEBRA_MEMORY_BOUND": value})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --memory-bound:" in proc.stderr and "Traceback" not in proc.stderr


def test_roots_and_hilbert():
    code, out, _ = run_cli("roots", "--rank", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,height,coeffs"
    assert len(out.splitlines()) == 4
    code, out, _ = run_cli("hilbert", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["hilbert_series"] == "1 + 3*t^1 + 4*t^2 + 3*t^3 + 1*t^4"


def test_phases_on_stderr_only():
    _, out, err = run_cli("dims", "--rank", "2")
    assert "[phase]" in err
    assert "[phase]" not in out


def test_crash_is_not_a_check_failure(monkeypatch):
    # only the engine's own check exceptions map to exit 1; a crash propagates
    def crash(args, phases):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_dims", crash)
    with pytest.raises(RecursionError):
        cli.main(["dims", "--rank", "2"])


def _modules_loaded_by(imports):
    code = f"import json, sys, {imports}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_the_word_build():
    # the harness's setup_s times this import, so the orbit build, the
    # checks, modp and numpy stay out of it until a command needs them, and
    # so do dataclasses and the inspect module it loads; the modules that
    # verify, integral, hypo, disjoint and reduce import load neither
    # either, their result records being slotted classes
    loaded = _modules_loaded_by("nwalgebra.cli")
    assert [m for m in loaded if m.split(".")[0] == "nwalgebra"] == [
        "nwalgebra", "nwalgebra.cli", "nwalgebra.coxeter", "nwalgebra.exactlinalg",
        "nwalgebra.nichols_core"]
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
    assert "dataclasses" not in loaded and "inspect" not in loaded
    loaded = _modules_loaded_by("nwalgebra.calculus, nwalgebra.disjoint, nwalgebra.integrals, "
                                "nwalgebra.reduction")
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # reduce is syntactic: it compiles none of the checks, its
    # linear-algebra oracle being a test's
    loaded = _modules_loaded_by("nwalgebra.reduction")
    assert [m for m in loaded if m.split(".")[0] == "nwalgebra"] == [
        "nwalgebra", "nwalgebra.coxeter", "nwalgebra.exactlinalg", "nwalgebra.nichols_core",
        "nwalgebra.reduction"]


def test_harness_traced_names_exist():
    # perfbench/tracer.py wraps engine functions by name and lists the ones
    # it cannot find; run in a child process because install() patches the
    # engine's modules in place
    root = Path(__file__).resolve().parents[1]
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; from tracer import Tracer; "
            "t = Tracer(); t.install(); print(json.dumps(t.missing))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv", [["hypo"], ["verify", "basic-rev", "--trials", "4"],
                                  ["dims"], ["hilbert"]])
@pytest.mark.parametrize("field", ["rational", "prime"])
def test_one_construction_per_command(argv, field, monkeypatch, capsys):
    # perfbench checks the dims of every construct_all a command makes
    # against the series of B_W, and counts the extend_degree candidates
    # as those of B_W; a command that built a second state would break both
    built, returned, extended = [], [], set()
    construct_all, extend_degree = AlgebraState.construct_all, AlgebraState.extend_degree

    def counted_construct_all(self):
        built.append(self)
        returned.append(construct_all(self))
        return returned[-1]

    def counted_extend_degree(self):
        extended.add(id(self))
        return extend_degree(self)

    monkeypatch.setattr(AlgebraState, "construct_all", counted_construct_all)
    monkeypatch.setattr(AlgebraState, "extend_degree", counted_extend_degree)
    assert cli.main(argv + ["--type", "A", "--rank", "2", "--field", field]) == 0
    out = capsys.readouterr().out
    assert len(built) == 1
    # the dims-only build, an AlgebraState subclass, takes the same degree step
    assert extended == {id(built[0])}
    if argv[0] in ("dims", "hilbert"):
        top = built[0].finite_top
        assert json.loads(out)["dims"] == returned[0][:top + 1] == [1, 3, 4, 3, 1]
