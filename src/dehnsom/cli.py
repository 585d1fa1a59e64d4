"""Command-line surface: compute, classify, verify, generate, report.

Exit codes: 0 on success, 1 when a requested verification fails, 2 on parse or
validation errors and on output that cannot be written. Errors go to stderr as
one JSON object per failure so scripts can consume them.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext

from . import balanced as bl
from . import complexes as cx
from . import posets as ps
from . import toric as tc
from .errors import DehnsomError, ParseError, UsageError
from .generators import generate, parse_spec
from .reports import report_from_dict
from .suite import (BALANCED, COMPLEX, IDENTITIES, POSET, as_kind, run_catalog, verify,
                    verify_all)


def _read(path: str) -> str:
    """The text of a UTF-8 input file; other bytes are a ParseError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_target(args):
    """Resolve --gen SPEC or a file path into a complex/balanced/poset object.

    A plain complex given with --colors becomes balanced; other kinds refuse --colors.
    An input that would be ignored (a file with --gen) is refused.
    """
    if args.gen is not None and args.target:
        raise ParseError("give a file path or --gen SPEC, not both")
    if args.gen is not None:
        obj, name = generate(parse_spec(args.gen)), args.gen
    elif not args.target:
        raise ParseError("provide a file path or --gen SPEC")
    else:
        text = _read(args.target)
        if text.lstrip().startswith("{"):
            obj = ps.parse_poset_json(text)
        elif any(line.lstrip().startswith("colors:") for line in text.splitlines()):
            obj = bl.parse_balanced(text)
        else:
            obj = cx.parse_facets(text)
        name = args.target
    if args.colors:
        obj = bl.validate_coloring(as_kind(obj, ("complex",), "--colors")[0],
                                   bl.parse_colors(_read(args.colors)))
    return obj, name


def _emit(args, payload, human: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


# the input kinds of each `compute` target, as in `suite.Identity.kinds`
COMPUTE_KINDS = {"f": COMPLEX, "h": COMPLEX, "euler": COMPLEX, "flag": BALANCED,
                 "toric": POSET, "defect": POSET}


def cmd_compute(args) -> int:
    what = args.what
    X = as_kind(_load_target(args)[0], COMPUTE_KINDS[what], f"compute {what}")[0]
    if what == "f":
        f = cx.f_vector(X)
        _emit(args, {"f": list(f.entries)}, f"f = {list(f.entries)}")
    elif what == "h":
        h = cx.h_vector(X)
        human = f"h = {list(h.entries)}" + ("  (impure input)" if h.impure else "")
        _emit(args, {"h": list(h.entries), "impure": h.impure}, human)
    elif what == "euler":
        chi = cx.reduced_euler_characteristic(X)
        _emit(args, {"euler": chi}, f"chi_tilde = {chi}")
    elif what == "flag":
        ff, fh = bl.flag_f_vector(X), bl.flag_h_vector(X)
        payload = {"d": X.d,
                   "flag_f": {cx.subset_label(m): v for m, v in ff.items()},
                   "flag_h": {cx.subset_label(m): v for m, v in fh.items()}}
        lines = [f"S={s}  f_S={payload['flag_f'][s]}  h_S={payload['flag_h'][s]}"
                 for s in payload["flag_f"]]
        _emit(args, payload, "\n".join(lines))
    elif what == "toric":
        pair = tc.toric_pair(X)
        payload = {"h_poly": pair.h_poly.serialize(), "g_poly": pair.g_poly.serialize(),
                   "h_indexed": {str(k): v for k, v in sorted(pair.h_indexed.items())}}
        _emit(args, payload,
              f"hhat = {pair.h_poly.serialize()}  (hhat_k: {dict(sorted(pair.h_indexed.items()))})\n"
              f"ghat = {pair.g_poly.serialize()}")
    else:
        seq = tc.defect_sequence(X)
        _emit(args, {"j": seq.j, "A": list(seq.entries)},
              f"j = {seq.j}, A = {list(seq.entries)}")
    return 0


def cmd_classify(args) -> int:
    obj = _load_target(args)[0]
    if isinstance(obj, ps.GradedPoset):
        payload = ps.classify_poset(obj, cross_check=args.check)._asdict()
        human = "\n".join(f"{k} = {v}" for k, v in payload.items())
    else:
        if args.check:
            as_kind(obj, POSET, "--check")  # refuses: --check cross-checks a poset only
        p = cx.singularity_profile(as_kind(obj, COMPLEX, "classify")[0])
        errors = [{"face": sorted(map(str, fe.face)), "epsilon": fe.epsilon} for fe in p.error_set]
        payload = {**p._asdict(), "error_set": errors}
        human = "".join(f"{k} = {v}\n" for k, v in payload.items() if k != "error_set")
        human += "\n".join(f"  eps({fe['face']}) = {fe['epsilon']}" for fe in errors)
    _emit(args, payload, human)
    return 0


def _print_reports(args, reports):
    """Print the reports; with --json, return the dicts that were printed."""
    if args.json:
        dicts = [r.to_dict() for r in reports]
        print(json.dumps(dicts))
        return dicts
    for r in reports:
        print(r.format_table())
        print()
    return None


def cmd_verify(args) -> int:
    has_input = args.target or args.colors or args.gen is not None
    if args.identity == "all" and not has_input:
        reports = run_catalog()
    else:
        obj, name = _load_target(args)
        if args.identity == "all":
            reports = verify_all(obj, name)
        else:
            reports = [verify(args.identity, obj, name)]
    # -o PATH is opened first: a PATH that cannot be written prints no report
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as out:
        dicts = _print_reports(args, reports)
        if not args.json:
            print(f"{sum(r.passed for r in reports)}/{len(reports)} reports passed")
        if out:
            out.write(json.dumps(dicts or [r.to_dict() for r in reports], indent=1))
    return 0 if all(r.passed for r in reports) else 1


def cmd_generate(args) -> int:
    obj = generate(parse_spec(args.spec))
    if isinstance(obj, ps.GradedPoset):
        text = ps.serialize_poset_json(obj) + "\n"
    else:
        text = cx.serialize_facets(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    try:
        data = json.loads(_read(args.target))
    except (ValueError, RecursionError) as exc:  # bad JSON; too deep
        raise ParseError(f"not a JSON report: {exc}") from None
    reports = [report_from_dict(item) for item in (data if isinstance(data, list) else [data])]
    _print_reports(args, reports)
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="dehnsom",
        description="Exact Dehn-Sommerville computations and verifications "
                    "for complexes and graded posets.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("target", nargs="?", help="input file (facets, balanced, or poset JSON)")
        p.add_argument("--gen", help="generator spec, e.g. 'face_poset(torus_7,true)'")
        p.add_argument("--colors", help="color-map file that makes a plain complex balanced")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("compute", help="print f/h/flag/toric vectors")
    p.add_argument("what", choices=COMPUTE_KINDS)
    add_common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("classify", help="singularity profile / poset classification")
    add_common(p)
    p.add_argument("--check", action="store_true",
                   help="cross-check min_j_sing by all three criteria")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="verify a named identity (or 'all')")
    p.add_argument("identity", choices=[*IDENTITIES, "all"])
    add_common(p)
    p.add_argument("-o", "--out", help="also save the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", help="write a catalog object")
    p.add_argument("spec", help="generator spec, e.g. 'circle_join(4,torus_7)'")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("report", help="render a saved JSON report as a table")
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = build_parser()
    try:
        if sys.stdout is None:  # started with stdout closed: print() would drop every line
            raise OSError(errno.EBADF, "stdout is closed")
        if argv and argv[0] in verbs:
            # a verb's options may come before, between or after its positionals
            args = verbs[argv[0]].parse_intermixed_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a block-buffered write can fail only here
        return code
    except DehnsomError as exc:
        return _diagnose(type(exc).__name__, exc)
    except OSError as exc:
        return _diagnose("OSError", exc)


def _diagnose(error: str, exc: Exception) -> int:
    """Write the error to stderr as JSON and return exit code 2. The write is
    best-effort: stderr may be closed (None) or the broken pipe that raised
    ``exc``, and exit code 1 means only that a verification failed."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        try:
            sys.stderr.write(json.dumps({"error": error, "message": str(exc)}) + "\n")
        except OSError:
            pass
    return 2


def run() -> None:
    """The process entry point of ``python -m dehnsom.cli`` and the ``dehnsom``
    script: ``main()``, whose ``--help`` exits by SystemExit, then both streams
    flushed and the process ended by ``os._exit``, without the interpreter's
    teardown (module cleanup and the final GC passes).

    A stream that fails at this flush turns exit 0 into exit 2; a closed one
    (None) is skipped. Exit 1 or 2 was decided by ``main()``, which has already
    flushed stdout and diagnosed a failure there.
    """
    try:
        code = main()
    except SystemExit as exc:  # --help
        code = exc.code
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError as exc:
            code = code or _diagnose("OSError", exc)
    os._exit(code)


if __name__ == "__main__":
    run()
