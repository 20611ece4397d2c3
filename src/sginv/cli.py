"""Command-line surface: ``sginv <subcommand> <file> [flags]``.

Exit codes: 0 success, 1 computation error (unbalanced weights, cost
estimate above its limit, no Hamiltonian cycle, ...), 2 input error
(unreadable or non-UTF-8 file, broken JSON, unknown flags).  Output is
deterministic: identical input and flags give byte-identical output.

`run()` is the in-process entry point and returns the exit code.  `main()`
is the process's exit: it runs `run()`, flushes, runs the `atexit`
callbacks and ends the process with `os._exit`, skipping the interpreter's
teardown.
"""

import argparse
import atexit
import json
import os
import sys
from math import gcd

from . import alexander, constituents, diagram, quandle, yamada

# free loops are read as kinked unknots, one more arc each
MAX_FREE_LOOPS = 18


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CliError(2, f"cannot read {path}: not UTF-8 text") from None


def _load(args, check=True):
    """Parse args.file; refuse a checked diagram above MAX_FREE_LOOPS."""
    try:
        d, weights = diagram.parse_document(_read(args.file), check=check)
    except diagram.DiagramError as exc:
        raise CliError(2, f"{args.file}: {exc}") from None
    if check and d.free_loops > MAX_FREE_LOOPS:
        raise CliError(1, f"diagram has {d.free_loops} free loops, above the "
                          f"limit of {MAX_FREE_LOOPS}")
    return d, weights


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload, text):
    print(_dump(payload) if args.json else text)


def _resolve_weights(d, file_weights, flag_weights):
    """The edge weights of the file overlaid by the --weight flags, 1 on
    every other edge; None (weight 1 everywhere) when neither gives one."""
    if not file_weights and not flag_weights:
        return None
    eids = set(diagram.seg_to_edge_id(diagram.derive_edges(d)).values())
    weights = {e: 1 for e in sorted(eids)}
    for source in (file_weights or {}, flag_weights):
        for eid, w in source.items():
            if eid not in eids:
                raise CliError(2, f"unknown edge {eid:.40}")
            weights[eid] = w
    return weights


def _parse_weight_flags(pairs):
    out = {}
    for raw in pairs or []:
        eid, sep, value = raw.partition("=")
        if not sep or not eid.startswith("e"):
            raise CliError(2, f"bad --weight {raw!r:.40}; expected e<k>=<int>")
        try:
            out[eid] = int(value)
        except ValueError:
            raise CliError(2, f"bad --weight {raw!r:.40}; "
                              + (_over_digit_limit(value)
                                 or "expected e<k>=<int>")) from None
    return out


def _read_quandle(path):
    try:
        doc = json.loads(_read(path))
        n, op = doc["n"], doc["op"]
        # `type` tells true from 1; from_op checks the rows
        if type(n) is not int or n != len(op):
            raise ValueError("expected n rows of n integers")
        X = quandle.FiniteQuandle.from_op(op)
    # JSONDecodeError and from_op's QuandleError are ValueErrors too
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"{path}: bad quandle table: {exc}") from None
    bad = quandle.verify_quandle(X.op)
    if bad:
        axiom, witness = bad[0]
        raise CliError(2, f"{path}: axiom {axiom} fails at {witness}")
    return X


# -- subcommand handlers ----------------------------------------------------

def _cmd_validate(args):
    d, _ = _load(args, check=False)
    issues = diagram.validate(d)
    _emit(args, {"valid": not issues, "violations": issues},
          "\n".join(issues) or "ok")
    return 0 if not issues else 1


def _cmd_yamada(args):
    d, _ = _load(args)
    poly = (yamada.yamada_normalized(d).normalized if args.normalized
            else yamada.yamada_raw(d))
    _emit(args, {"yamada": poly.to_pairs()}, str(poly))
    return 0


def _cmd_alexander(args):
    d, file_weights = _load(args)
    weights = _resolve_weights(d, file_weights, _parse_weight_flags(args.weight))
    poly = alexander.alexander_polynomial(d, weights)
    _emit(args, {"alexander": poly.to_pairs()}, str(poly))
    return 0


def _cmd_determinant(args):
    d, file_weights = _load(args)
    weights = _resolve_weights(d, file_weights, _parse_weight_flags(args.weight))
    det = alexander.graph_determinant(d, weights)
    _emit(args, {"determinant": det}, str(det))
    return 0


def _cmd_colorings(args):
    d, _ = _load(args)
    if args.quandle is None:
        n, a = (args.dihedral, -1) if args.dihedral else (args.trivial, 1)
        count = quandle.count_affine_colorings(d, n, a)
    else:
        X = _read_quandle(args.quandle)
        a = X.op[1 % X.n][0] if X.n else 0    # the empty table is searched
        if gcd(a, X.n) == 1 and X == quandle.affine_quandle(X.n, a):
            count = quandle.count_affine_colorings(d, X.n, a)
        else:
            count = quandle.count_colorings(d, X)
    try:
        text = str(count)    # json.dumps stops at the same digit limit
    except ValueError:
        raise CliError(1, f"the count has over {sys.get_int_max_str_digits()}"
                          f" digits, the limit of int to str") from None
    _emit(args, {"colorings": count}, text)
    return 0


def _cmd_pcolor(args):
    d, _ = _load(args)
    answer = quandle.is_p_colorable(d, args.p)
    _emit(args, {"p_colorable": answer},
          "colorable" if answer else "not colorable")
    return 0


def _cmd_constituents(args):
    d, _ = _load(args)
    # Every family is evaluated before the first byte goes out, so a
    # refusal or a failed fingerprint leaves stdout empty.  The listing is
    # the bytes of one sorted-key dump of {"constituents": [...], "multiset":
    # [...]}, written entry by entry; the tail after the all-int choice is
    # dumped once per family.
    families = list(constituents.constituent_families(d, args.invariant))
    tails = {}
    out = sys.stdout
    out.write('{"constituents":[')
    sep = ""
    for choice, family in families:
        components, value = family
        if components or not args.drop_empty:
            if id(family) not in tails:
                tails[id(family)] = _dump({"components": components,
                                           "fingerprint": value})[1:]
            out.write(sep + '{"choice":['
                      + ",".join(f"[{vid},[{a},{b}]]" for vid, (a, b) in choice)
                      + "]," + tails[id(family)])
            sep = ","
    values = sorted((value for _, (components, value) in families
                     if components or not args.drop_empty),
                    key=lambda v: (str(v), repr(v)))
    out.write('],"multiset":' + _dump(values) + "}\n")
    return 0


def _cmd_group(args):
    d, _ = _load(args)
    pres = alexander.wirtinger_presentation(d)
    _emit(args, {"generators": list(pres.generators),
                 "relators": [[[g, e] for g, e in rel]
                              for rel in pres.relators]}, pres.render())
    return 0


def _cmd_cg(args):
    d, _ = _load(args)
    total = constituents.conway_gordon_sum(d)
    _emit(args, {"conway_gordon": total}, str(total))
    return 0


# -- parser -----------------------------------------------------------------

def _over_digit_limit(text):
    """Why int() refused `text` if it has too many digits, else None."""
    limit = sys.get_int_max_str_digits()
    if sum(map(str.isdigit, text)) > limit:
        return f"the value has over {limit} digits, the limit of int from str"
    return None


def _int_flag(ok, message):
    """An argparse type: an integer n with ok(n), else message.format(n),
    or the message of a ValueError that ok(n) raises."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            reason = (_over_digit_limit(text)
                      or f"{text!r:.40} is not an integer")
            raise argparse.ArgumentTypeError(reason) from None
        try:
            good = ok(n)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not good:
            raise argparse.ArgumentTypeError(message.format(n))
        return n
    return parse


# reads `quandle` when --p is parsed, not when the module is imported
_prime = _int_flag(lambda n: quandle.is_prime(n), "{!s:.40} is not prime")
_order = _int_flag(lambda n: n >= 1, "order must be >= 1, got {!s:.40}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="diagram JSON file")
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of plain text")

    top = argparse.ArgumentParser(
        prog="sginv", description="spatial-graph invariants")
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check diagram wiring").set_defaults(func=_cmd_validate)

    p = sub.add_parser("yamada", parents=[common], help="Yamada polynomial")
    p.add_argument("--normalized", action="store_true",
                   help="report the unit-normalized polynomial")
    p.set_defaults(func=_cmd_yamada)

    for name, func, title in (("alexander", _cmd_alexander,
                               "Alexander polynomial"),
                              ("determinant", _cmd_determinant,
                               "determinant of the diagram")):
        p = sub.add_parser(name, parents=[common], help=title)
        p.add_argument("--weight", action="append", metavar="e<k>=<int>",
                       help="override the weight of one edge (repeatable)")
        p.set_defaults(func=func)

    p = sub.add_parser("colorings", parents=[common],
                       help="count quandle colorings")
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--dihedral", type=_order, metavar="N",
                      help="dihedral quandle R_N")
    pick.add_argument("--trivial", type=_order, metavar="N",
                      help="trivial quandle of order N")
    pick.add_argument("--quandle", metavar="TABLE.json",
                      help='explicit table {"n": ..., "op": [[...]]}')
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("pcolor", parents=[common],
                       help="Fox p-colorability")
    p.add_argument("--p", type=_prime, required=True, help="a prime")
    p.set_defaults(func=_cmd_pcolor)

    p = sub.add_parser("constituents", parents=[common],
                       help="constituent links and fingerprint")
    p.add_argument("--invariant", required=True,
                   choices=("yamada", "alexander", "determinant"))
    p.add_argument("--drop-empty", action="store_true",
                   help="omit choices that leave no closed component")
    p.set_defaults(func=_cmd_constituents)

    sub.add_parser("group", parents=[common],
                   help="fundamental group presentation"
                   ).set_defaults(func=_cmd_group)
    sub.add_parser("cg", parents=[common],
                   help="Conway-Gordon sum over Hamiltonian constituents"
                   ).set_defaults(func=_cmd_cg)
    return top


def run(argv=None):
    """Run one CLI invocation in this process and return its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        message, code = exc, exc.code
    except diagram.DiagramError as exc:
        message, code = exc, 1
    # tried only after DiagramError, so a refusal loads neither module
    except (alexander.WeightError, quandle.QuandleError) as exc:
        message, code = exc, 1
    print(f"sginv: {message}", file=sys.stderr)
    return code


def main(argv=None):
    """Run the CLI and end the process with its exit code; never returns.
    stdout and stderr are flushed and the `atexit` callbacks run, then
    `os._exit` skips the interpreter's teardown.  Usage errors and --help
    leave through argparse's SystemExit as before.  A stream closed at the
    start (`>&-`) is None in `sys`, and its output goes to the null device."""
    sys.stdout = sys.stdout or open(os.devnull, "w")
    sys.stderr = sys.stderr or open(os.devnull, "w")
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:    # the reader closed stdout; drop the rest
        code = 1
    sys.stderr.flush()
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    main()
