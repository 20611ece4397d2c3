"""Black-box CLI tests: exit codes, exact output bytes, determinism, and
the crossing cap / environment-variable interplay."""

import json
import os
import resource
import subprocess
import sys
import time

from sginv import catalog
from sginv.diagram import Diagram, serialize
from sginv.moves import disjoint_union

from helpers import fixture_path

CLI = [sys.executable, "-m", "sginv.cli"]


def run_cli(*args, env_extra=None, **kwargs):
    env = dict(os.environ)
    env.pop("SGINV_MAX_CROSSINGS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, env=env,
                          **kwargs)


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


def test_crossing_cap():
    r = run_cli("yamada", fixture_path("k7.json"))
    assert r.returncode == 1
    assert b"35 crossings" in r.stderr
    # the environment variable mirrors the flag; the flag wins
    r = run_cli("yamada", fixture_path("trefoil.json"),
                env_extra={"SGINV_MAX_CROSSINGS": "2"})
    assert r.returncode == 1
    r = run_cli("yamada", fixture_path("trefoil.json"), "--max-crossings", "3",
                env_extra={"SGINV_MAX_CROSSINGS": "2"})
    assert r.returncode == 0


def test_free_loop_cap(tmp_path):
    """A huge free-loop count is refused at once by the subcommands that
    spend work on each loop; the crossing cap bounds it."""
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
    path.write_text('{"vertices": [], "crossings": [], "free_loops": 3}')
    assert run_cli("yamada", str(path)).returncode == 0
    assert run_cli("yamada", str(path), "--max-crossings", "2").returncode == 1
    r = run_cli("cg", str(path), env_extra={"SGINV_MAX_CROSSINGS": "2"})
    assert r.returncode == 1 and b"3 free loops" in r.stderr


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


def test_pcolor():
    assert run_cli("pcolor", fixture_path("trefoil.json"),
                   "--p", "3").stdout == b"colorable\n"
    assert run_cli("pcolor", fixture_path("trefoil.json"),
                   "--p", "5").stdout == b"not colorable\n"
    assert run_cli("pcolor", fixture_path("trefoil.json"),
                   "--p", "6").returncode == 2


def test_colorings_long_closure(tmp_path):
    """The coloring search runs as a loop, not one call per arc: the closure
    of the 2-braid sigma_1^1200 has 1,200 arcs and det T(2, 1200) = 1200, so
    p^2 dihedral-p colorings when p divides 1,200 and p otherwise."""
    path = tmp_path / "t2_1200.json"
    path.write_text(serialize(catalog.braid_closure(2, [1] * 1200)))
    for p, count in (("3", b"9\n"), ("5", b"25\n"), ("7", b"7\n")):
        r = run_cli("colorings", str(path), "--dihedral", p)
        assert r.returncode == 0 and r.stdout == count, p
    r = run_cli("pcolor", str(path), "--p", "3")
    assert r.returncode == 0 and r.stdout == b"colorable\n"


def test_constituents_choice_limit():
    """K7 has 15^7 vertex choices, above the limit: refused at once with
    the count, before any extraction."""
    start = time.monotonic()
    r = run_cli("constituents", fixture_path("k7.json"), "--invariant",
                "determinant", timeout=10)
    assert time.monotonic() - start < 1.0
    assert r.returncode == 1 and r.stderr.count(b"\n") == 1
    assert b"170859375" in r.stderr and b"100000" in r.stderr


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


def test_cg_long_cycle(tmp_path):
    """The Hamiltonian search and the extraction are iterative: a directed
    1,200-cycle, an unknot, gives Arf sum 0 below the recursion limit."""
    n = 1200
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"vertices": [
        {"id": i, "incident": [[f"s{(i - 1) % n}", "in"], [f"s{i}", "out"]]}
        for i in range(n)]}))
    r = run_cli("cg", str(path))
    assert r.returncode == 0 and r.stdout == b"0\n"


def test_byte_determinism():
    for args in (("yamada", fixture_path("theta_5_4.json"), "--json"),
                 ("constituents", fixture_path("theta_trivial.json"),
                  "--invariant", "yamada"),
                 ("group", fixture_path("trefoil.json"), "--json")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0
