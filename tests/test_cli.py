"""Black-box CLI tests: exit codes, exact output bytes, determinism, the
refusals (the Yamada cost estimate and the bound on free loops), and the
process exit through `os._exit`, which must lose no output."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from sginv import catalog, cli
from sginv.constituents import enumerate_constituents, hamiltonian_constituents
from sginv.diagram import Diagram, parse_document, serialize
from sginv.laurent import LaurentPoly
from sginv.moves import disjoint_union, mirror
from sginv.yamada import yamada_raw

from helpers import dumbbell, fixture_path, grid_text as _grid, read_fixture

CLI = [sys.executable, "-m", "sginv.cli"]


def run_cli(*args, env_extra=None, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True,
                          env={**os.environ, **(env_extra or {})}, **kwargs)


def _buffered_env():
    """The environment without PYTHONUNBUFFERED, so the child's stdout is
    block-buffered and only an explicit flush writes its tail."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


def test_validate_exit_codes():
    assert run_cli("validate", fixture_path("trefoil.json")).returncode == 0
    r = run_cli("validate", fixture_path("broken.json"))
    assert r.returncode == 1
    assert b"double-head" in r.stdout
    r = run_cli("validate", fixture_path("bad_syntax.json"))
    assert r.returncode == 2
    assert b"syntax error" in r.stderr
    assert run_cli("validate", fixture_path("no_such.json")).returncode == 2


def test_validate_json_output():
    r = run_cli("validate", fixture_path("trefoil.json"), "--json")
    assert json.loads(r.stdout) == {"valid": True, "violations": []}


def test_unknown_subcommand_and_flag():
    assert run_cli("frobnicate", "x.json").returncode == 2
    assert run_cli("yamada", fixture_path("trefoil.json"),
                   "--bogus").returncode == 2


def test_yamada_text_output():
    r = run_cli("yamada", fixture_path("theta_trivial.json"))
    assert r.returncode == 0
    assert r.stdout == b"-A^-2 - A^-1 - 2 - A - A^2\n"


def test_yamada_normalized_json():
    r = run_cli("yamada", fixture_path("theta_5_3.json"), "--normalized",
                "--json")
    assert json.loads(r.stdout)["yamada"] == \
        [[0, -1], [1, -1], [2, -1], [3, -1], [4, -1], [10, -1], [12, -1],
         [14, -1], [16, 1], [18, 1]]


def test_yamada_normalized_zero(tmp_path):
    """The dumbbell's polynomial is 0: normalized, it prints as 0 and as
    an empty term list."""
    path = tmp_path / "dumbbell.json"
    path.write_text(serialize(dumbbell()))
    r = run_cli("yamada", str(path), "--normalized")
    assert (r.returncode, r.stdout) == (0, b"0\n")
    r = run_cli("yamada", str(path), "--normalized", "--json")
    assert (r.returncode, r.stdout) == (0, b'{"yamada":[]}\n')


def _assert_cost_refused(path, widest):
    start = time.monotonic()
    r = run_cli("yamada", path, timeout=10)
    assert time.monotonic() - start < 1.0, path
    assert r.returncode == 1 and r.stdout == b"", path
    assert r.stderr.count(b"\n") == 1, path
    assert b"estimated Yamada cost " in r.stderr, path
    assert b"(widest frontier %d)" % widest in r.stderr, path


def test_yamada_cost_refusal():
    """K7 (35 crossings, widest frontier 12) is refused before any state is
    opened, with the estimate on one line."""
    _assert_cost_refused(fixture_path("k7.json"), 12)


def test_yamada_refuses_wide_and_long_diagrams(tmp_path):
    """The estimate, not the crossing count, decides: crossing-free grids
    of widest frontier 11 and 13, K8 (widest frontier 16), and the
    300-crossing closure of (sigma_1 sigma_2^-1)^150, whose frontier stays
    at 6 but whose packed polynomials grow with the crossings, are refused
    at once."""
    for name, text, widest in (
            ("grid10", _grid(10), 11), ("grid12", _grid(12), 13),
            ("k8", serialize(catalog.complete_graph_moment_curve(8)), 16),
            ("closure150", serialize(catalog.braid_closure(3, [1, -2] * 150)),
             6)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        _assert_cost_refused(str(path), widest)


def test_yamada_hundred_crossing_closure(tmp_path):
    """The 100-crossing closure of (sigma_1 sigma_2^-1)^50 runs; its
    digest is the value of the (A, y) packing with the cost limit lifted,
    and the mirror diagram gives R(A^-1)."""
    d = catalog.braid_closure(3, [1, -2] * 50)
    path = tmp_path / "closure50.json"
    path.write_text(serialize(d))
    r = run_cli("yamada", str(path), timeout=60)
    assert r.returncode == 0 and r.stderr == b""
    assert hashlib.sha256(r.stdout).hexdigest() == (
        "8a4d033325589c670fe57630d5166a09bcd114047f8a8adddf51eb1cde8d98e9")
    raw = yamada_raw(d)
    assert str(raw).encode() + b"\n" == r.stdout
    flipped = LaurentPoly({-e: c for e, c in raw.terms()}, "A")
    assert yamada_raw(mirror(d)) == flipped


# R of the closure of (sigma_1 sigma_2^-1)^12 from A^-37 up to A^0; the
# closure is amphichiral, so the coefficients of A^1 .. A^37 mirror these
CLOSURE_12_COEFFS = (
    1, -11, 43, -34, -265, 857, -343, -3280, 6938, 534, -22734, 30733, 18493,
    -99551, 82759, 113185, -300441, 126857, 403233, -653691, 25920, 996504,
    -1031984, -425543, 1816491, -1105581, -1305291, 2458855, -531839,
    -2307913, 2339611, 656971, -2775359, 1183161, 1887264, -2177193, -612490,
    2410293)


def test_yamada_runs_under_the_estimate(tmp_path):
    """Diagrams above the old cap of 18 crossings but cheap for the frontier
    sum run: closures of (sigma_1 sigma_2^-1)^12 and ^15 (24 and 30
    crossings) and K6 (15 crossings, widest frontier 9).  The 24-crossing
    value is the one the crossing cap gave when raised to 24."""
    terms = {e - 37: c for e, c in enumerate(CLOSURE_12_COEFFS)}
    terms.update({-e: c for e, c in terms.items()})
    for name, d, want in (
            ("closure12", catalog.braid_closure(3, [1, -2] * 12),
             str(LaurentPoly(terms, "A")).encode() + b"\n"),
            ("closure15", catalog.braid_closure(3, [1, -2] * 15), None),
            ("k6", catalog.complete_graph_moment_curve(6), None)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(d))
        r = run_cli("yamada", str(path), timeout=60)
        assert r.returncode == 0 and r.stderr == b"", name
        assert want is None or r.stdout == want, name


def test_free_loop_cap(tmp_path):
    """A huge free-loop count is refused at once by the subcommands that
    spend work on each loop; at most 18 free loops are taken."""
    path = tmp_path / "loops.json"
    path.write_text('{"vertices": [], "crossings": [], '
                    '"free_loops": 1000000000000}')
    for args in (("yamada",), ("constituents", "--invariant", "determinant"),
                 ("cg",), ("alexander",), ("determinant",), ("group",),
                 ("colorings", "--dihedral", "3"), ("pcolor", "--p", "3")):
        start = time.monotonic()
        r = run_cli(args[0], str(path), *args[1:])
        assert time.monotonic() - start < 1.0, args
        assert r.returncode == 1, args
        assert r.stderr.count(b"\n") == 1
        assert b"1000000000000 free loops" in r.stderr
    for loops in (3, 18, 19):
        path.write_text('{"vertices": [], "crossings": [], '
                        f'"free_loops": {loops}}}')
        for args in (("yamada",), ("determinant",), ("group",)):
            r = run_cli(args[0], str(path))
            if loops <= 18:
                assert r.returncode == 0, (loops, args)
            else:
                assert r.returncode == 1, args
                assert b"19 free loops, above the limit of 18" in r.stderr


def test_free_loops_read_as_kinks(tmp_path):
    """A free loop is isotopic to a kinked unknot, so the Alexander-type and
    coloring invariants read a diagram with free loops exactly as the one
    with kinks in their place."""
    kink, tre, th = (catalog.kinked_unknot(1), catalog.trefoil(),
                     catalog.theta_trivial())
    pairs = {"unknot": (Diagram(free_loops=1), kink),
             "two_loops": (Diagram(free_loops=2), disjoint_union(kink, kink)),
             "trefoil": (Diagram((), tre.crossings, 1),
                         disjoint_union(tre, kink)),
             "theta": (Diagram(th.vertices, (), 1), disjoint_union(th, kink))}
    commands = [("colorings", "--dihedral", "3"), ("pcolor", "--p", "3"),
                ("alexander", "--json"), ("determinant", "--json")]
    for name, (loops, kinks) in pairs.items():
        files = []
        for side, d in (("loops", loops), ("kinks", kinks)):
            files.append(tmp_path / f"{name}-{side}.json")
            files[-1].write_text(serialize(d, {"e1": 1, "e2": 1, "e3": -2}
                                           if name == "theta" else None))
        # group: the kink's trivial relator comes before the theta's vertex
        # relators, the free loop's after them
        for args in commands + ([("group",)] if name != "theta" else []):
            got = [run_cli(args[0], str(f), *args[1:]) for f in files]
            assert got[0].returncode == got[1].returncode == 0, (name, args)
            assert got[0].stdout == got[1].stdout, (name, args)
    r = run_cli("colorings", fixture_path("unknot.json"), "--dihedral", "3")
    assert r.stdout == b"3\n"


def test_alexander_json_output():
    r = run_cli("alexander", fixture_path("trefoil.json"), "--weight", "e1=1",
                "--json")
    assert r.stdout == b'{"alexander":[[0,1],[1,-1],[2,1]]}\n'


def test_alexander_weight_handling():
    # weight-1 theta is unbalanced: computation error
    r = run_cli("alexander", fixture_path("theta_trivial.json"))
    assert r.returncode == 1 and b"unbalanced" in r.stderr
    # balanced weights stored in the file
    r = run_cli("alexander", fixture_path("theta_weighted.json"))
    assert r.returncode == 0 and r.stdout == b"1\n"
    # flags override the file (and a bad edge name is an input error)
    r = run_cli("alexander", fixture_path("theta_trivial.json"),
                "--weight", "e1=1", "--weight", "e2=1", "--weight", "e3=-2")
    assert r.returncode == 0 and r.stdout == b"1\n"
    assert run_cli("alexander", fixture_path("trefoil.json"),
                   "--weight", "e9=1").returncode == 2
    assert run_cli("alexander", fixture_path("trefoil.json"),
                   "--weight", "oops").returncode == 2


def test_long_weight_flag_refused_briefly():
    """A --weight value with more digits than int() takes, or long and
    malformed, is refused with one short line that echoes at most 40
    characters."""
    cases = (("e1=" + "7" * 5000, b"the limit of int from str"),
             ("e1=" + "7" * 3000 + "x", b"expected e<k>=<int>"),
             ("x" * 5000, b"expected e<k>=<int>"))
    for command in ("alexander", "determinant"):
        for value, reason in cases:
            r = run_cli(command, fixture_path("theta_weighted.json"),
                        "--weight", value)
            assert r.returncode == 2 and r.stdout == b"", command
            assert r.stderr.count(b"\n") == 1 and len(r.stderr) < 1000
            assert reason in r.stderr and b"7" * 100 not in r.stderr


def test_dense_refusal():
    """A weight that would make the dense polynomials gigabytes long is
    refused with the estimate; the determinant, evaluated at t = -1, is
    computed.  The address-space limit keeps a regression off the host's
    memory."""
    args = (fixture_path("figure_eight.json"), "--weight", "e1=1000000000")
    r = run_cli("alexander", *args, preexec_fn=_limit_memory)
    assert r.returncode == 1
    assert r.stderr.count(b"\n") == 1
    assert b"about 3000000000 dense coefficients" in r.stderr
    r = run_cli("determinant", *args, preexec_fn=_limit_memory)
    assert r.returncode == 0 and r.stdout == b"1\n"


def test_determinant():
    r = run_cli("determinant", fixture_path("figure_eight.json"), "--json")
    assert json.loads(r.stdout) == {"determinant": 5}


def test_pendant_edges_are_refused(tmp_path):
    """Two disjoint pendant edges, 0 -> 1 and 2 -> 3, at weight 0 (so every
    vertex is balanced): four vertex relations on two arcs leave no minor
    to take, and a vertex of degree 1 lies on no cycle."""
    path = tmp_path / "pendants.json"
    path.write_text(json.dumps({"vertices": [
        {"id": v, "incident": [[f"s{v // 2}", ("out", "in")[v % 2]]]}
        for v in range(4)]}))
    for subcommand in ("alexander", "determinant"):
        r = run_cli(subcommand, str(path), "--weight", "e1=0",
                    "--weight", "e2=0")
        assert (r.returncode, r.stderr) == \
            (1, b"sginv: degenerate input: 4 relations but only 2 arcs\n")
    r = run_cli("constituents", str(path), "--invariant", "determinant")
    assert (r.returncode, r.stderr) == \
        (1, b"sginv: vertex v0 has degree 1 < 2\n")


def test_vertex_without_incidences_is_an_input_error(tmp_path):
    path = tmp_path / "bare_vertex.json"
    path.write_text('{"vertices": [{"id": 0}]}')
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert b"vertex needs 'id' and 'incident'" in r.stderr


def test_colorings():
    r = run_cli("colorings", fixture_path("trefoil.json"), "--dihedral", "3")
    assert r.stdout == b"9\n"
    r = run_cli("colorings", fixture_path("trefoil.json"), "--quandle",
                fixture_path("dihedral3.json"), "--json")
    assert json.loads(r.stdout) == {"colorings": 9}
    r = run_cli("colorings", fixture_path("trefoil.json"), "--trivial", "4")
    assert r.stdout == b"4\n"
    # one selection flag is mandatory
    assert run_cli("colorings", fixture_path("trefoil.json")).returncode == 2


@pytest.mark.parametrize("diagram, table, count", [
    ("k5.json", "r7.json", b"117649"), ("figure_eight.json",
     "affine5_3.json", b"5"), ("trefoil.json", "s4_4cycles.json", b"30")])
def test_colorings_by_table(diagram, table, count):
    """R_7 and Z_5 with t = 3 are affine in their own labels and take the
    linear count (K5 by R_7 is out of the search's reach); the 4-cycles of
    S_4 are searched."""
    r = run_cli("colorings", fixture_path(diagram), "--quandle",
                fixture_path(table), timeout=10)
    assert r.returncode == 0 and r.stdout == count + b"\n"


def test_large_orders_in_closed_form():
    """R_1000 and the trivial quandle of order 1000 are counted without a
    table: the trefoil has 1000 colorings by each (det 3 is prime to 1000,
    and the trefoil is one edge)."""
    for flag in ("--dihedral", "--trivial"):
        r = run_cli("colorings", fixture_path("trefoil.json"), flag, "1000",
                    timeout=10)
        assert r.returncode == 0 and r.stdout == b"1000\n", flag


def test_k5_dihedral_five_colorings():
    r = run_cli("colorings", fixture_path("k5.json"), "--dihedral", "5",
                timeout=10)
    assert r.returncode == 0 and r.stdout == b"15625\n"


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--dihedral", "--trivial"])
def test_bad_quandle_order_is_an_input_error(flag, order):
    r = run_cli("colorings", fixture_path("trefoil.json"), flag, order)
    assert r.returncode == 2 and r.stdout == b""
    assert b"order must be >= 1, got " + order.encode() in r.stderr


@pytest.mark.parametrize("table", [
    '{"n": 1, "op": [["a"]]}', '{"n": 2, "op": [[0, 0.5], [1, 1]]}',
    '{"n": 1, "op": [[null]]}', '{"n": 2, "op": [[0, 1], [1]]}',
    '{"n": 1, "op": [[true]]}'], ids=["string", "float", "null", "ragged",
                                     "bool"])
def test_malformed_quandle_table(tmp_path, table):
    """A table whose rows are not n integers each is an input error."""
    path = tmp_path / "q.json"
    path.write_text(table)
    r = run_cli("colorings", fixture_path("trefoil.json"), "--quandle",
                str(path))
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr.count(b"\n") == 1 and b"bad quandle table" in r.stderr


@pytest.mark.parametrize("op, message", [
    ([[0, 5], [1, 1]], "bad quandle table: op[0][1] = 5 is not in 0..1"),
    ([[0, -int("7" * 4000)], [1, 1]],
     "bad quandle table: op[0][1] = -" + "7" * 39 + " is not in 0..1"),
    ([[0, 2, 1], [0, 1, 0], [2, 2, 2]],
     "bad quandle table: the right translation by 0 (column 0 of op) is "
     "not a bijection"),
    ([[1, 0], [0, 1]], "axiom 1 fails at (0,)"),
    ([[0, 2, 1], [1, 1, 0], [2, 0, 2]], "axiom 3 fails at (0, 1, 2)"),
], ids=["out-of-range", "long-out-of-range", "not-bijective", "axiom-1",
        "axiom-3"])
def test_quandle_table_refusal_names_the_defect(tmp_path, op, message):
    """A table that is not a quandle is refused in one line naming the
    entry out of range (quoted to 40 characters), the column that is not a
    bijection, or the axiom that fails."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"n": len(op), "op": op}))
    r = run_cli("colorings", fixture_path("trefoil.json"), "--quandle",
                str(path), timeout=10)
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == f"sginv: {path}: {message}\n".encode()


def test_pcolor():
    assert run_cli("pcolor", fixture_path("trefoil.json"),
                   "--p", "3").stdout == b"colorable\n"
    assert run_cli("pcolor", fixture_path("trefoil.json"),
                   "--p", "5").stdout == b"not colorable\n"
    assert run_cli("pcolor", fixture_path("trefoil.json"),
                   "--p", "6").returncode == 2


def test_large_prime_orders():
    """An 18-digit prime --p is tested by Miller-Rabin, not by trial
    division up to its square root, and no dihedral order is factored:
    (10^9 + 7)(10^9 + 9) and 2 times a cofactor above the limit of the
    primality test are prime to the trefoil's determinant 3, so each has
    as many colorings as its order."""
    r = run_cli("pcolor", fixture_path("trefoil.json"),
                "--p", "1000000000000000003", timeout=10)
    assert r.returncode == 0 and r.stdout == b"not colorable\n"
    for n in ("1000000000000000003", "1000000016000000063",
              "4000000000000000000000000006"):
        r = run_cli("colorings", fixture_path("trefoil.json"),
                    "--dihedral", n, timeout=10)
        assert r.returncode == 0 and r.stdout == n.encode() + b"\n", n


def test_colorings_count_above_the_digit_limit():
    """A count too long for str() exits 1 with one line naming the
    interpreter's digit limit, in text and JSON mode, instead of a
    traceback."""
    order = "1" + "0" * 1000
    for flags in (("--trivial", order), ("--dihedral", order),
                  ("--trivial", order, "--json")):
        r = run_cli("colorings", fixture_path("k5.json"), *flags, timeout=10)
        assert r.returncode == 1 and r.stdout == b"", flags
        assert r.stderr.count(b"\n") == 1, flags
        assert r.stderr.startswith(b"sginv: ") and b"digits" in r.stderr
        assert str(sys.get_int_max_str_digits()).encode() in r.stderr, flags


@pytest.mark.parametrize("subcommand, flag", [("colorings", "--dihedral"),
                                              ("colorings", "--trivial"),
                                              ("pcolor", "--p")])
def test_overlong_integer_flag(subcommand, flag):
    """An integer flag with more digits than int() reads is an input error
    that names the digit limit and does not echo the value."""
    value = "7" * 5000
    r = run_cli(subcommand, fixture_path("trefoil.json"), flag, value,
                timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert b"7" * 100 not in r.stderr and len(r.stderr) < 1000
    assert (f"{flag}: the value has over {sys.get_int_max_str_digits()} "
            f"digits".encode() in r.stderr)


@pytest.mark.parametrize("subcommand, flag", [("colorings", "--dihedral"),
                                              ("colorings", "--trivial"),
                                              ("pcolor", "--p")])
def test_malformed_integer_flag_echo_is_cut(subcommand, flag):
    """A malformed integer flag under the digit limit is quoted to at most
    40 characters.  argparse writes its usage lines before the one error
    line."""
    r = run_cli(subcommand, fixture_path("trefoil.json"), flag,
                "7" * 3000 + "x", timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert len(r.stderr) < 1000 and b"7" * 100 not in r.stderr
    errors = [line for line in r.stderr.splitlines() if b"error:" in line]
    assert len(errors) == 1 and b"is not an integer" in errors[0]


@pytest.mark.parametrize("subcommand, flag, value, reason", [
    ("colorings", "--dihedral", "-" + "7" * 4000, b"must be >= 1, got -777"),
    ("colorings", "--trivial", "-" + "7" * 4000, b"must be >= 1, got -777"),
    ("pcolor", "--p", "7" * 4000, b"is not below 3317044064679887385961981"),
], ids=["dihedral", "trivial", "p"])
def test_refused_integer_flag_echo_is_cut(subcommand, flag, value, reason):
    """An integer flag that parses but is refused (an order below 1, a p
    past the exact primality test) is quoted to at most 40 characters, in
    one error line after argparse's usage lines."""
    r = run_cli(subcommand, fixture_path("trefoil.json"), flag, value,
                timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert len(r.stderr) < 1000 and b"7" * 100 not in r.stderr
    errors = [line for line in r.stderr.splitlines() if b"error:" in line]
    assert len(errors) == 1 and reason in errors[0]


def _long_document(fixture, change):
    doc = json.loads(read_fixture(fixture))
    change(doc)
    return json.dumps(doc)


LONG = "x" * 100_000


@pytest.mark.parametrize("subcommand, text, flags, reason", [
    ("validate", _long_document(
        "trefoil.json", lambda doc: doc["crossings"][0].update(over_in=LONG)),
     (), b"bad segment id 'xxx"),
    ("validate", _long_document(
        "theta_trivial.json",
        lambda doc: doc["vertices"][0]["incident"][0].__setitem__(1, LONG)),
     (), b"direction 'xxx"),
    ("validate", _long_document("trefoil.json",
                                lambda doc: doc.update({LONG: 1})),
     (), b"unknown key 'xxx"),
    ("alexander", _long_document(
        "theta_weighted.json", lambda doc: doc["weights"].update({LONG: "1"})),
     (), b"expected an integer"),
    ("alexander", _long_document(
        "theta_weighted.json",
        lambda doc: doc["weights"].update({"e" + "9" * 100_000: 1})),
     (), b"unknown edge e999"),
    ("alexander", read_fixture("theta_weighted.json"),
     ("--weight", "e" + "9" * 3000 + "=1"), b"unknown edge e999"),
    ("validate", _long_document(
        "theta_trivial.json", lambda doc: doc["vertices"][0].update(
            id=int("9" * 4000), incident=[["s0", "up"]])),
     (), b"vertex 999"),
    ("validate", _long_document(
        "trefoil.json",
        lambda doc: doc["crossings"][0].update(over_in=-int("9" * 4000))),
     (), b"negative segment id -999"),
], ids=["segment", "direction", "key", "weight-value", "weight-key",
        "weight-flag", "vertex-id", "negative-segment"])
def test_outside_input_echo_is_cut(tmp_path, subcommand, text, flags, reason):
    """An error that quotes a key, vertex id, segment id, direction or edge
    from the input quotes at most 40 characters of it."""
    path = tmp_path / "d.json"
    path.write_text(text)
    r = run_cli(subcommand, str(path), *flags, timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr.count(b"\n") == 1 and len(r.stderr) < 1000
    assert reason in r.stderr and b"9" * 100 not in r.stderr


def test_pcolor_primality_limit():
    """The least strong pseudoprime to the bases 2..37 is refused as not
    prime; at the limit of the exact test the flag is refused as well."""
    r = run_cli("pcolor", fixture_path("trefoil.json"),
                "--p", "318665857834031151167461", timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert b"318665857834031151167461 is not prime" in r.stderr
    for p in ("3317044064679887385961981", "10" + "0" * 30):
        r = run_cli("pcolor", fixture_path("trefoil.json"), "--p", p,
                    timeout=10)
        assert r.returncode == 2 and r.stdout == b""
        assert (b"--p: " + p.encode() + b" is not below 3317044064679887385961981"
                in r.stderr)


def test_colorings_long_closure(tmp_path):
    """The closure of the 2-braid sigma_1^1200 has 1,200 arcs and
    det T(2, 1200) = 1200, so p^2 dihedral-p colorings when p divides 1,200
    and p otherwise: the linear count reduces its 1,200 Fox rows, and the
    search behind --quandle tables runs as a loop, not one call per arc."""
    path = tmp_path / "t2_1200.json"
    path.write_text(serialize(catalog.braid_closure(2, [1] * 1200)))
    for p, count in (("3", b"9\n"), ("5", b"25\n"), ("7", b"7\n")):
        r = run_cli("colorings", str(path), "--dihedral", p)
        assert r.returncode == 0 and r.stdout == count, p
    r = run_cli("pcolor", str(path), "--p", "3")
    assert r.returncode == 0 and r.stdout == b"colorable\n"
    table = tmp_path / "r3.json"
    table.write_text(json.dumps({"n": 3, "op": [[(2 * y - x) % 3
                                                 for y in range(3)]
                                                for x in range(3)]}))
    r = run_cli("colorings", str(path), "--quandle", str(table))
    assert r.returncode == 0 and r.stdout == b"9\n"


def test_constituents_choice_limit():
    """K7 has 15^7 vertex choices, above the limit: refused at once with
    the count, before any extraction."""
    start = time.monotonic()
    r = run_cli("constituents", fixture_path("k7.json"), "--invariant",
                "determinant", timeout=10)
    assert time.monotonic() - start < 1.0
    assert r.returncode == 1 and r.stderr.count(b"\n") == 1
    assert b"170859375" in r.stderr and b"100000" in r.stderr
    assert r.stdout == b""


def _peak_rss_kb(*args):
    """Peak RSS of one CLI child with stdout discarded, read by a wrapper
    process whose only child it is."""
    wrapper = ("import resource, subprocess, sys; "
               "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, "
               "check=True); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    r = subprocess.run([sys.executable, "-c", wrapper] + CLI + list(args),
                       capture_output=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": "0"})
    return int(r.stdout)


def test_constituents_k5_listing(tmp_path):
    """K5's 7,776-entry listing is streamed: it does not depend on the hash
    seed, and its peak memory stays near that of validating the file."""
    path = tmp_path / "k5.json"
    path.write_text(serialize(catalog.complete_graph_moment_curve(5)))
    args = ("constituents", str(path), "--invariant", "determinant")
    first = run_cli(*args, env_extra={"PYTHONHASHSEED": "0"})
    second = run_cli(*args, env_extra={"PYTHONHASHSEED": "1"})
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(json.loads(first.stdout)["constituents"]) == 6 ** 5
    listing = _peak_rss_kb(*args)
    validate = _peak_rss_kb("validate", str(path))
    assert listing - validate <= 4 * 1024, (listing, validate)


K5_LISTING_SHA256 = ("b83e203e1f259acc9d568b0107c7b58c2503195f"
                     "4f608da63f799ae5a1b87a54")


def test_fast_exit_writes_the_whole_listing(tmp_path):
    """K5's listing to a regular file, block-buffered: the process ends in
    os._exit, so only main()'s flush writes the last buffer."""
    args = ["constituents", fixture_path("k5.json"), "--invariant",
            "determinant"]
    out = tmp_path / "out"
    with open(out, "wb") as fh:
        r = subprocess.run(CLI + args, stdout=fh, stderr=subprocess.PIPE,
                           env=_buffered_env(), timeout=60)
    assert r.returncode == 0 and r.stderr == b""
    data = out.read_bytes()
    assert len(data) == 746_528
    assert hashlib.sha256(data).hexdigest() == K5_LISTING_SHA256
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(args) == 0
    assert buf.getvalue().encode() == data


def test_fast_exit_writes_the_whole_refusal(tmp_path):
    err = tmp_path / "err"
    with open(err, "wb") as fh:
        r = subprocess.run(CLI + ["yamada", fixture_path("k7.json")],
                           stdout=subprocess.PIPE, stderr=fh,
                           env=_buffered_env(), timeout=60)
    assert r.returncode == 1 and r.stdout == b""
    assert err.read_bytes() == (
        b"sginv: estimated Yamada cost at least 1.5e+11 (widest frontier 12)"
        b" is above the limit of 3e+10\n")


@pytest.mark.parametrize("fixture, code, out", [
    ("trefoil.json", 0, b"ok\n"),
    ("broken.json", 1, b"double-head s0 (v0[0] and v0[1])\n"
                       b"dangling-segment s0 (no tail attachment)\n"),
    ("bad_syntax.json", 2, b""),
])
def test_fast_exit_runs_atexit_callbacks(fixture, code, out):
    """A callback registered before the CLI module runs as __main__ still
    runs, after stdout is flushed, and the exit code comes through.  The
    callback writes to the file descriptor, so it flushes nothing itself."""
    script = ("import atexit, os, runpy\n"
              "atexit.register(os.write, 1, b'atexit ran\\n')\n"
              "runpy.run_module('sginv.cli', run_name='__main__')\n")
    r = subprocess.run([sys.executable, "-c", script, "validate",
                        fixture_path(fixture)], capture_output=True,
                       env=_buffered_env(), timeout=60)
    assert r.returncode == code
    assert r.stdout == out + b"atexit ran\n"
    assert r.stderr.count(b"\n") == (code == 2)


@pytest.mark.parametrize("argv", [
    ["validate", "FILE"], ["yamada", "FILE"],
    ["colorings", fixture_path("trefoil.json"), "--quandle", "FILE"],
], ids=["validate", "yamada", "quandle"])
def test_non_utf8_input_is_an_input_error(tmp_path, argv):
    path = tmp_path / "d.json"
    path.write_bytes(b"\xff\xfe{}")
    r = run_cli(*[str(path) if a == "FILE" else a for a in argv], timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr == f"sginv: cannot read {path}: not UTF-8 text\n".encode()


def test_validate_listing_quotes_ids_briefly(tmp_path):
    """A 4,000-digit segment id and a duplicated vertex id: the violation
    listing on stdout and require_valid's refusal on stderr quote each id
    to 40 characters; a short bad sign still reads as the Crossing repr."""
    doc = json.loads(read_fixture("theta_trivial.json"))
    doc["vertices"][0]["incident"][0][0] = "s" + "9" * 4000
    doc["vertices"][1]["id"] = 0
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    nines = b"s" + b"9" * 40
    listing = (b"duplicate-vertex v0\n"
               b"dangling-segment s0 (no tail attachment)\n"
               b"dangling-segment " + nines + b" (no head attachment)\n")
    r = run_cli("validate", str(path), timeout=10)
    assert (r.returncode, r.stdout, r.stderr) == (1, listing, b"")
    r = run_cli("yamada", str(path), timeout=10)
    assert r.returncode == 2 and r.stdout == b""
    assert r.stderr == (f"sginv: {path}: ".encode()
                        + listing[:-1].replace(b"\n", b"; ") + b"\n")
    doc = json.loads(read_fixture("trefoil.json"))
    doc["crossings"][0]["sign"] = 2
    path.write_text(json.dumps(doc))
    r = run_cli("validate", str(path), timeout=10)
    assert r.returncode == 1 and r.stdout == (
        b"bad-sign crossing Crossing(over_in=2, over_out=3, under_in=5, "
        b"under_out=6, sign=2)\n")


def test_closed_stdout_pipe():
    """A reader that closes stdout early ends the CLI with exit code 1 and
    nothing on stderr: K5's listing (746,528 bytes) is far above a pipe
    buffer, so the CLI is still writing when the pipe closes."""
    p = subprocess.Popen(CLI + ["constituents", fixture_path("k5.json"),
                                "--invariant", "determinant"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(p.stdout.read(100)) == 100
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("fd, argv, code", [
    (1, ["validate", "trefoil.json"], 0), (1, ["validate", "broken.json"], 1),
    (1, ["yamada", "bad_syntax.json"], 2),
    (1, ["constituents", "theta_5_4.json", "--invariant", "yamada"], 0),
    (2, ["validate", "broken.json"], 1), (2, ["yamada", "bad_syntax.json"], 2),
], ids=["out-ok", "out-invalid", "out-bad-input", "out-listing", "err-invalid",
        "err-bad-input"])
def test_closed_standard_stream(fd, argv, code):
    """Started with fd 1 or fd 2 closed (`>&-`, `2>&-`), the CLI keeps its
    exit code, writes no traceback, and the other stream is unchanged."""
    argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
    r = run_cli(*argv, preexec_fn=lambda: os.close(fd))
    plain = run_cli(*argv)
    assert r.returncode == plain.returncode == code
    assert (r.stdout, r.stderr) == ((b"", plain.stderr) if fd == 1
                                    else (plain.stdout, b""))


def test_constituents_document():
    r = run_cli("constituents", fixture_path("theta_trivial.json"),
                "--invariant", "determinant")
    doc = json.loads(r.stdout)
    assert len(doc["constituents"]) == 9
    assert doc["multiset"] == [1] * 9
    r = run_cli("constituents", fixture_path("theta_trivial.json"),
                "--invariant", "determinant", "--drop-empty")
    doc = json.loads(r.stdout)
    assert len(doc["constituents"]) == 3
    assert all(e["components"] == 1 for e in doc["constituents"])


def test_group_output():
    r = run_cli("group", fixture_path("kink_pos.json"))
    assert r.stdout == b"< a1 | 1 >\n"
    r = run_cli("group", fixture_path("trefoil.json"), "--json")
    doc = json.loads(r.stdout)
    assert len(doc["generators"]) == 3 and len(doc["relators"]) == 3
    # crossing relators in crossing order, then one signed cyclic product
    # per vertex
    r = run_cli("group", fixture_path("theta_5_3.json"))
    assert r.stdout == (
        b"< a1, a2, a3, a4, a5, a6, a7, a8 | a1 a2 a1^-1 a6^-1, "
        b"a2 a3 a2^-1 a7^-1, a3 a4 a3^-1 a2^-1, a4 a5 a4^-1 a3^-1, "
        b"a5 a1 a5^-1 a4^-1, a5 a6^-1 a8^-1, a1 a7^-1 a8 >\n")


def test_cg_output():
    assert run_cli("cg", fixture_path("theta_trivial.json")).stdout == b"0\n"
    r = run_cli("cg", fixture_path("k7.json"), "--json")
    assert json.loads(r.stdout) == {"conway_gordon": 1}


def test_cg_refuses_vertex_free_components(tmp_path):
    """A closed component without vertices, a free loop or a knot, makes
    every constituent through all vertices a split link: refused, naming
    the count."""
    theta = catalog.theta_5_4()
    for name, d, count in (
            ("loops", Diagram(theta.vertices, theta.crossings, 2), b"(2)"),
            ("knot", disjoint_union(catalog.trefoil(),
                                    catalog.theta_trivial()), b"(1)")):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(d))
        r = run_cli("cg", str(path))
        assert r.returncode == 1 and r.stdout == b"", name
        assert r.stderr.count(b"\n") == 1, name
        assert b"closed components without vertices " + count in r.stderr


def test_cg_long_cycle(tmp_path):
    """The Hamiltonian search, the cycle's Fox matrix and the extraction
    are iterative: a directed 1,200-cycle, an unknot, gives Arf sum 0 and
    one constituent, a single unknot through all 1,200 vertices, below the
    recursion limit."""
    n = 1200
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"vertices": [
        {"id": i, "incident": [[f"s{(i - 1) % n}", "in"], [f"s{i}", "out"]]}
        for i in range(n)]}))
    r = run_cli("cg", str(path))
    assert r.returncode == 0 and r.stdout == b"0\n"
    d, _ = parse_document(path.read_text())
    links = enumerate_constituents(d)
    assert links == hamiltonian_constituents(d)
    [link] = links
    assert link.components == 1 and link.component_vertices == (
        frozenset(range(n)),)
    assert link.diagram == Diagram(free_loops=1)
    r = run_cli("constituents", str(path), "--invariant", "determinant")
    assert r.returncode == 0 and r.stdout.endswith(
        b'"components":1,"fingerprint":1}],"multiset":[1]}\n')


def test_yamada_long_path(tmp_path):
    """The frontier sum runs in a loop over the tiles: a crossing-free path
    of 1,200 edges, a tree whose every edge is a bridge, is worth 0."""
    n = 1200
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"vertices": [
        {"id": i, "incident": ([[f"s{i - 1}", "in"]] if i else [])
                              + ([[f"s{i}", "out"]] if i < n else [])}
        for i in range(n + 1)]}))
    r = run_cli("yamada", str(path))
    assert r.returncode == 0 and r.stdout == b"0\n"


def test_import_leaves_out_dataclasses():
    """The records are named tuples: `dataclasses` (which pulls in
    `inspect`) stays off the start-up path of every CLI run.  -S keeps
    site hooks from loading modules of their own."""
    r = subprocess.run([sys.executable, "-S", "-c", "import sys, sginv.cli; "
                        "print('dataclasses' in sys.modules)"],
                       capture_output=True)
    assert r.returncode == 0 and r.stdout == b"False\n"


def test_byte_determinism():
    for args in (("yamada", fixture_path("theta_5_4.json"), "--json"),
                 ("constituents", fixture_path("theta_trivial.json"),
                  "--invariant", "yamada"),
                 ("group", fixture_path("trefoil.json"), "--json")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0
