"""Seeded job lists for the four workloads.

Diagrams are built only through the public ``sginv`` API (catalog bases,
``moves.apply_r1_traced``/``apply_r2_traced`` with ``transport_weights``,
``catalog.braid_closure``) and written with ``diagram.serialize``; the
program under test sees only those files.

Every job carries its expected exit code and a way to know its stdout:

- ``fixed`` jobs have the same input for every seed; their stdout must equal
  the bytes recorded in ``golden.json`` for this job id.
- ``derive`` jobs compute their expected stdout from theory, using the
  recorded value of a fixed base job only where the theory relates the two
  (R2 leaves every invariant unchanged; R1 of chirality e multiplies raw
  Yamada by A^(2e)), or from the oracles in ``oracle.py``.
- ``check`` jobs are verified structurally (``group`` presentations).

With the golden seed every job's stdout is also compared with its recording.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracle

GOLDEN_SEED = 0


@dataclass
class Job:
    id: str
    args: tuple
    exit: int = 0
    fixed: bool = False
    derive: Optional[Callable] = None   # golden dict -> expected stdout bytes
    check: Optional[Callable] = None    # stdout bytes -> bool
    expected: Optional[bytes] = field(default=None, repr=False)
    golden_sha: Optional[str] = None


def dump(obj):
    """The program's ``--json`` rendering of one result object."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def text(line):
    return (line + "\n").encode()


class Corpus:
    """Builds one workload's files and jobs for one seed."""

    def __init__(self, workload, seed, workdir, root):
        from sginv import catalog, diagram, moves
        self.catalog, self.diagram, self.moves = catalog, diagram, moves
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.root = root
        self.jobs = []
        self.docs = {}   # file name -> parsed JSON document as written
        self.pins = []   # (job id, predicate on recorded stdout bytes, label)

    # -- files ----------------------------------------------------------------

    def write(self, name, d, weights=None):
        body = self.diagram.serialize(d, weights)
        return self.write_text(name, body)

    def write_text(self, name, body):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        try:
            self.docs[name] = json.loads(body)
        except ValueError:
            pass
        return os.path.relpath(path, self.root)

    # -- moves ----------------------------------------------------------------

    def r1(self, d, weights=None):
        seg = self.rng.choice(sorted(d.segment_ids()))
        chirality = self.rng.choice((1, -1))
        d2, prov = self.moves.apply_r1_traced(d, seg, chirality)
        if weights is not None:
            weights = self.moves.transport_weights(d, weights, d2, prov)
        return d2, weights, chirality

    def r2(self, d, weights=None):
        s1, s2 = self.rng.sample(sorted(d.segment_ids()), 2)
        variant = self.rng.choice(self.moves.R2_VARIANTS)
        d2, prov = self.moves.apply_r2_traced(d, s1, s2, variant)
        if weights is not None:
            weights = self.moves.transport_weights(d, weights, d2, prov)
        return d2, weights

    def inflate(self, d, moves, weights=None):
        """Apply a move string such as "R2R1"; returns (diagram, weights,
        total R1 chirality)."""
        twist = 0
        for m in moves.split("R")[1:]:
            if m == "1":
                d, weights, ch = self.r1(d, weights)
                twist += ch
            else:
                d, weights = self.r2(d, weights)
        return d, weights, twist

    def knot_word(self, strands, length, want_trivial):
        """A seeded braid word whose closure is a knot, with Alexander
        polynomial 1 (want_trivial) or with Alexander polynomial and
        determinant both different from 1."""
        while True:
            word = [self.rng.choice((1, -1)) * self.rng.randint(1, strands - 1)
                    for _ in range(length)]
            if not oracle.is_knot_word(strands, word):
                continue
            alex = oracle.burau_alexander(strands, word)
            trivial = alex == {0: 1}
            if want_trivial and trivial:
                return word, alex
            if (not want_trivial and not trivial
                    and abs(oracle.eval_at_minus_one(alex)) != 1):
                return word, alex

    def link_word(self, strands, length):
        """A seeded braid word using every generator."""
        while True:
            word = [self.rng.choice((1, -1)) * self.rng.randint(1, strands - 1)
                    for _ in range(length)]
            if {abs(g) for g in word} == set(range(1, strands)):
                return word

    # -- jobs -----------------------------------------------------------------

    def job(self, jid, *args, **kw):
        full = f"{self.workload}/{jid}"
        if any(j.id == full for j in self.jobs):
            raise ValueError(f"duplicate job id {full}")
        job = Job(full, tuple(str(a) for a in args), **kw)
        self.jobs.append(job)
        return job

    def fixed(self, jid, *args, exit=0):
        return self.job(jid, *args, exit=exit, fixed=True)

    def derived(self, jid, *args, derive, exit=0):
        return self.job(jid, *args, exit=exit, derive=derive)

    def golden_json(self, jid):
        """Decoded recorded stdout of a fixed job of this workload."""
        full = f"{self.workload}/{jid}"
        return lambda golden: json.loads(golden[full]["stdout"])

    def pin(self, jid, predicate, label):
        self.pins.append((f"{self.workload}/{jid}", predicate, label))


# -- workloads ----------------------------------------------------------------

SKEIN_BASES = ("trefoil", "figure_eight", "knot_5_2", "torus_2_5",
               "theta_5_3", "theta_5_4")

# (base, moves, normalized?) -- 6 to 8 crossings after inflation
SKEIN_INFLATIONS = (
    ("knot_5_2", "R2", False),
    ("knot_5_2", "R1", False),
    ("theta_5_4", "R1", True),
    ("theta_5_3", "R1", True),
    ("torus_2_5", "R1", False),
    ("trefoil", "R2R1", False),
    ("figure_eight", "R2", True),
)


def build_skein(c):
    paths = {}
    for name in SKEIN_BASES:
        paths[name] = c.write(name, getattr(c.catalog, name)())
        c.fixed(f"yamada:{name}", "yamada", paths[name], "--json")
    for name in ("theta_5_3", "theta_5_4"):
        c.fixed(f"constituents-yamada:{name}", "constituents", paths[name],
                "--invariant", "yamada")
        want = oracle.PINNED[("yamada_normalized", name)]
        c.pin(f"yamada:{name}", lambda out, want=want: oracle.lp_text(
            oracle.yamada_normalized(oracle.lp(json.loads(out)["yamada"])),
            "A") == want, f"criterion 10: normalized Yamada of {name}")
    for i, (name, moves, normalized) in enumerate(SKEIN_INFLATIONS):
        d, _, twist = c.inflate(getattr(c.catalog, name)(), moves)
        path = c.write(f"{name}+{moves}.{i}", d)
        base = c.golden_json(f"yamada:{name}")

        def derive(golden, base=base, twist=twist, normalized=normalized):
            raw = oracle.lp(base(golden)["yamada"])
            value = (oracle.yamada_normalized(raw) if normalized
                     else oracle.lp_shift(raw, 2 * twist))
            return dump({"yamada": oracle.lp_pairs(value)})

        flags = ("--normalized",) if normalized else ()
        c.derived(f"yamada:{name}+{moves}.{i}", "yamada", path, "--json",
                  *flags, derive=derive)


# (strands, crossings, Alexander polynomial 1?)
MINORS_CLOSURES = (
    (3, 18, False),
    (4, 15, False),
    (5, 14, False),
    (4, 17, True),
    (5, 18, True),
)
WTHETA_WEIGHTS = {"e1": 1, "e2": 1, "e3": -2}


def group_job(c, name, path):
    doc = c.docs[name]
    c.job(f"group:{name}", "group", path, "--json",
          check=lambda out: oracle.check_presentation(doc, out))


def build_minors(c):
    for strands, length, trivial in MINORS_CLOSURES:
        word, alex = c.knot_word(strands, length, trivial)
        name = f"closure{strands}x{length}{'-trivial' if trivial else ''}"
        path = c.write(name, c.catalog.braid_closure(strands, word))
        c.derived(f"alexander:{name}", "alexander", path, "--json",
                  derive=lambda g, a=alex: dump(
                      {"alexander": oracle.lp_pairs(a)}))
        c.derived(f"determinant:{name}", "determinant", path, "--json",
                  derive=lambda g, a=alex: dump(
                      {"determinant": abs(oracle.eval_at_minus_one(a))}))
        if strands == 4 and not trivial:
            group_job(c, name, path)
    theta = c.catalog.theta_trivial()
    path = c.write("theta_weighted", theta, WTHETA_WEIGHTS)
    for cmd in ("alexander", "determinant"):
        c.fixed(f"{cmd}:theta_weighted", cmd, path, "--json")
    for count in (4, 7):
        d, w = theta, dict(WTHETA_WEIGHTS)
        for _ in range(count):
            d, w = c.r2(d, w)
        name = f"theta_weighted+{count}R2"
        path = c.write(name, d, w)
        for cmd in ("alexander", "determinant"):
            base = c.golden_json(f"{cmd}:theta_weighted")
            c.derived(f"{cmd}:{name}", cmd, path, "--json",
                      derive=lambda g, base=base: dump(base(g)))
        if count == 4:
            group_job(c, name, path)


# (strands, crossings) of the seeded closures colored in `spatial`.  Larger
# random closures are left out: dihedral-3 search time on them is heavy
# tailed (4 strands, 60 crossings: up to 2.4 s; 5 strands, 80 crossings:
# 0.03 s to 111 s), see NOTES.md.
SPATIAL_CLOSURES = ((3, 40), (3, 70), (3, 100), (4, 40))


def build_spatial(c):
    k = {n: c.catalog.complete_graph_moment_curve(n) for n in (4, 5, 6, 7)}
    paths = {f"k{n}": c.write(f"k{n}", k[n]) for n in k}
    for name in ("theta_5_3", "theta_5_4"):
        paths[name] = c.write(name, getattr(c.catalog, name)())
    c.fixed("cg:k7", "cg", paths["k7"], "--json")
    c.pin("cg:k7", lambda out: json.loads(out)["conway_gordon"]
          == oracle.PINNED[("conway_gordon", "k7")], "criterion 10: K7 CG sum")
    c.fixed("cg:k6", "cg", paths["k6"], "--json")
    for name in ("k4", "k5", "theta_5_3", "theta_5_4"):
        c.fixed(f"constituents-det:{name}", "constituents", paths[name],
                "--invariant", "determinant")
    c.pin("constituents-det:theta_5_4", lambda out: sorted(
        e["fingerprint"] for e in json.loads(out)["constituents"]
        if e["components"]) == oracle.PINNED[("constituent_determinants",
                                              "theta_5_4")],
        "criterion 10: theta 5_4 constituent determinants")
    for name in ("k5", "theta_5_4"):
        c.fixed(f"colorings-d3:{name}", "colorings", paths[name],
                "--dihedral", "3", "--json")
    c.fixed("pcolor-3:k5", "pcolor", paths["k5"], "--p", "3", "--json")

    d, _ = c.r2(k[7])
    path = c.write("k7+R2", d)
    c.derived("cg:k7+R2", "cg", path, "--json", derive=lambda g: dump(
        {"conway_gordon": oracle.PINNED[("conway_gordon", "k7")]}))
    d = k[4]
    for _ in range(3):
        d, _ = c.r2(d)
    path = c.write("k4+3R2", d)
    c.derived("constituents-det:k4+3R2", "constituents", path,
              "--invariant", "determinant",
              derive=lambda g: g["spatial/constituents-det:k4"]["stdout"]
              .encode())
    for strands, length in SPATIAL_CLOSURES:
        name = f"closure{strands}x{length}"
        path = c.write(name, c.catalog.braid_closure(
            strands, c.link_word(strands, length)))
        count = oracle.dihedral_count(c.docs[name], 3)
        c.derived(f"colorings-d3:{name}", "colorings", path, "--dihedral",
                  "3", "--json", derive=lambda g, n=count: dump(
                      {"colorings": n}))
        c.derived(f"pcolor-3:{name}", "pcolor", path, "--p", "3", "--json",
                  derive=lambda g, n=count: dump({"p_colorable": n > 3}))


# Malformed inputs from the ROADMAP robustness baseline; the README promises
# exit code 2 for input errors.
PROBES = {
    "probe-short-pair": '{"vertices": [{"id": 0, "incident": [["s0"]]}], '
                        '"crossings": [], "free_loops": 0}',
    "probe-vertex-not-object": '{"vertices": [5], "crossings": [], '
                               '"free_loops": 0}',
    "probe-free-loops-string": '{"vertices": [], "crossings": [], '
                               '"free_loops": "x"}',
    "probe-free-loops-huge": '{"vertices": [], "crossings": [], '
                             '"free_loops": 1e400}',
    "probe-weight-string": '{"vertices": [{"id": 0, "incident": [["s0", '
                           '"out"], ["s0", "in"]]}], "crossings": [], '
                           '"free_loops": 0, "weights": {"e1": "x"}}',
}
BROKEN = ('{"crossings": [], "free_loops": 0, "vertices": [{"id": 0, '
          '"incident": [["s0", "in"], ["s0", "in"]]}]}')
DIHEDRAL3_TABLE = '{"n": 3, "op": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}'

SMALL_BASES = ("unknot", "trefoil", "figure_eight", "theta_trivial",
               "theta_5_3")


def build_small(c):
    p = {name: c.write(name, getattr(c.catalog, name)())
         for name in SMALL_BASES}
    p["kink_pos"] = c.write("kink_pos", c.catalog.kinked_unknot(1))
    p["kink_neg"] = c.write("kink_neg", c.catalog.kinked_unknot(-1))
    p["theta_weighted"] = c.write("theta_weighted", c.catalog.theta_trivial(),
                                  WTHETA_WEIGHTS)
    p["broken"] = c.write_text("broken", BROKEN)
    p["bad_syntax"] = c.write_text("bad_syntax", "{not json\n")
    p["dihedral3"] = c.write_text("dihedral3", DIHEDRAL3_TABLE)
    for name, body in PROBES.items():
        p[name] = c.write_text(name, body)
    missing = os.path.join(os.path.relpath(c.workdir, c.root), "missing.json")

    good = ("unknot", "kink_pos", "kink_neg", "trefoil", "figure_eight",
            "theta_trivial", "theta_weighted", "theta_5_3")
    for name in good:
        c.fixed(f"validate:{name}", "validate", p[name])
    c.fixed("validate-json:trefoil", "validate", p["trefoil"], "--json")
    c.fixed("validate:broken", "validate", p["broken"], exit=1)
    c.fixed("validate-json:broken", "validate", p["broken"], "--json", exit=1)
    c.fixed("validate:bad_syntax", "validate", p["bad_syntax"], exit=2)
    c.fixed("validate:missing", "validate", missing, exit=2)
    for name in PROBES:
        c.derived(f"validate:{name}", "validate", p[name], exit=2,
                  derive=lambda g: b"")
    c.fixed("usage:unknown-subcommand", "frobnicate", p["trefoil"], exit=2)
    c.fixed("usage:unknown-flag", "yamada", p["trefoil"], "--bogus", exit=2)
    c.fixed("usage:pcolor-not-prime", "pcolor", p["trefoil"], "--p", "4",
            exit=2)

    for name in ("unknot", "kink_pos", "kink_neg", "trefoil", "figure_eight",
                 "theta_trivial"):
        c.fixed(f"yamada:{name}", "yamada", p[name])
        c.fixed(f"yamada-json:{name}", "yamada", p[name], "--json")
    c.pin("yamada:theta_trivial", lambda out: out.decode().strip()
          == oracle.PINNED[("yamada_text", "theta_trivial")],
          "test_cli: theta_trivial Yamada text")
    for name in ("kink_pos", "trefoil"):
        c.fixed(f"yamada-normalized:{name}", "yamada", p[name],
                "--normalized", "--json")

    for name in ("trefoil", "figure_eight", "kink_pos"):
        want = oracle.PINNED[("alexander", name)]
        c.derived(f"alexander:{name}", "alexander", p[name],
                  derive=lambda g, w=want: text(w))
        c.fixed(f"alexander-json:{name}", "alexander", p[name], "--json")
        c.pin(f"alexander-json:{name}", lambda out, w=want: oracle.lp_text(
            oracle.lp(json.loads(out)["alexander"]), "t") == w,
            f"criterion 5: Alexander polynomial of {name}")
        base = c.golden_json(f"alexander-json:{name}")
        c.derived(f"determinant:{name}", "determinant", p[name],
                  derive=lambda g, base=base: text(str(abs(
                      oracle.eval_at_minus_one(oracle.lp(
                          base(g)["alexander"]))))))
    c.fixed("alexander-json:theta_weighted", "alexander", p["theta_weighted"],
            "--json")
    c.fixed("alexander:theta_trivial-unbalanced", "alexander",
            p["theta_trivial"], exit=1)
    c.fixed("alexander-weight-flag:trefoil", "alexander", p["trefoil"],
            "--weight", "e1=1", "--json")
    c.fixed("alexander-weight-flag:bad", "alexander", p["trefoil"],
            "--weight", "x=1", exit=2)
    for name in ("unknot", "theta_weighted"):
        c.fixed(f"determinant-json:{name}", "determinant", p[name], "--json")

    for q in ("3", "5"):
        for name in ("trefoil", "figure_eight"):
            c.derived(f"colorings-d{q}:{name}", "colorings", p[name],
                      "--dihedral", q, derive=lambda g, n=name, q=int(q):
                      text(str(oracle.dihedral_count(c.docs[n], q))))
    c.pin("colorings-d3:trefoil", lambda out: int(out) == oracle.PINNED[
        ("dihedral3", "trefoil")], "criterion 6: trefoil dihedral-3 count")
    c.pin("colorings-d5:trefoil", lambda out: int(out) == oracle.PINNED[
        ("dihedral5", "trefoil")], "criterion 6: trefoil dihedral-5 count")
    c.fixed("colorings-d3:theta_trivial", "colorings", p["theta_trivial"],
            "--dihedral", "3", "--json")
    c.fixed("colorings-trivial2:theta_trivial", "colorings",
            p["theta_trivial"], "--trivial", "2")
    c.fixed("colorings-table:trefoil", "colorings", p["trefoil"],
            "--quandle", p["dihedral3"], "--json")
    for q in ("3", "5"):
        for name in ("trefoil", "figure_eight"):
            colorable = oracle.dihedral_count(c.docs[name], int(q)) > int(q)
            c.derived(f"pcolor-{q}:{name}", "pcolor", p[name], "--p", q,
                      derive=lambda g, yes=colorable: text(
                          "colorable" if yes else "not colorable"))

    for inv in ("yamada", "alexander", "determinant"):
        c.fixed(f"constituents-{inv}:theta_trivial", "constituents",
                p["theta_trivial"], "--invariant", inv)
    c.fixed("constituents-det-drop:theta_5_3", "constituents", p["theta_5_3"],
            "--invariant", "determinant", "--drop-empty")
    for name in ("trefoil", "figure_eight"):
        c.fixed(f"yamada-normalized-text:{name}", "yamada", p[name],
                "--normalized")
        c.fixed(f"determinant-json:{name}", "determinant", p[name], "--json")
        c.fixed(f"colorings-table:{name}-text", "colorings", p[name],
                "--quandle", p["dihedral3"])
        c.fixed(f"colorings-trivial3:{name}", "colorings", p[name],
                "--trivial", "3", "--json")
        c.fixed(f"pcolor-3-json:{name}", "pcolor", p[name], "--p", "3",
                "--json")
    for name in ("figure_eight", "theta_5_3"):
        c.fixed(f"validate-json:{name}", "validate", p[name], "--json")
    c.fixed("alexander:theta_weighted", "alexander", p["theta_weighted"])
    c.fixed("determinant:theta_weighted", "determinant", p["theta_weighted"])
    c.fixed("group-json:theta_trivial", "group", p["theta_trivial"], "--json")
    c.fixed("group:figure_eight", "group", p["figure_eight"])
    c.fixed("cg-json:theta_5_3", "cg", p["theta_5_3"], "--json")
    c.fixed("group:trefoil", "group", p["trefoil"])
    c.fixed("group-json:trefoil", "group", p["trefoil"], "--json")
    c.fixed("group:theta_trivial", "group", p["theta_trivial"])
    c.fixed("cg:theta_trivial", "cg", p["theta_trivial"], "--json")
    c.fixed("cg:theta_5_3", "cg", p["theta_5_3"])

    # seeded small variants: derived from the fixed jobs above
    variants = (("trefoil", "R2"), ("figure_eight", "R1"), ("kink_neg", "R1"),
                ("kink_pos", "R2"), ("trefoil", "R1R1"))
    for i, (name, moves) in enumerate(variants):
        base_d = (c.catalog.kinked_unknot(1 if name == "kink_pos" else -1)
                  if name.startswith("kink") else getattr(c.catalog, name)())
        d, _, twist = c.inflate(base_d, moves)
        vname = f"{name}+{moves}.{i}"
        path = c.write(vname, d)
        base = c.golden_json(f"yamada-json:{name}")
        c.derived(f"yamada-json:{vname}", "yamada", path, "--json",
                  derive=lambda g, base=base, t=twist: dump({"yamada": (
                      oracle.lp_pairs(oracle.lp_shift(
                          oracle.lp(base(g)["yamada"]), 2 * t)))}))
        if name.startswith("kink"):
            continue
        c.derived(f"colorings-d3:{vname}", "colorings", path, "--dihedral",
                  "3", "--json", derive=lambda g, v=vname: dump(
                      {"colorings": oracle.dihedral_count(c.docs[v], 3)}))
        base = c.golden_json(f"alexander-json:{name}")
        c.derived(f"alexander-json:{vname}", "alexander", path, "--json",
                  derive=lambda g, base=base: dump(base(g)))
    d, w = c.r2(c.catalog.theta_trivial(), dict(WTHETA_WEIGHTS))
    path = c.write("theta_weighted+R2", d, w)
    for cmd, jid in (("alexander", "alexander-json:theta_weighted"),
                     ("determinant", "determinant-json:theta_weighted")):
        base = c.golden_json(jid)
        c.derived(f"{cmd}-json:theta_weighted+R2", cmd, path, "--json",
                  derive=lambda g, base=base: dump(base(g)))
    # the seed also fixes the order of the calls
    c.rng.shuffle(c.jobs)


BUILD_FUNCTIONS = {"skein": build_skein, "minors": build_minors,
            "spatial": build_spatial, "small": build_small}


def build(workload, seed, workdir, root):
    """Write the workload's input files into workdir; return the Corpus."""
    c = Corpus(workload, seed, workdir, root)
    BUILD_FUNCTIONS[workload](c)
    return c
