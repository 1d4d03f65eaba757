"""Command-line front end: build, decompose, and verify.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 usage error (unknown subcommand, bad spec, guard tripped).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .niemeier import catalog, catalog_entry
from .ratio import q_str
from .rootalgebra import generalized_chain_decompose
from .rootsys import spec_parts
from .verify import System, VerifyReport, report, resolve, run_target, TARGETS


def _parse_chain(text: str, spec: str) -> list[list[int]]:
    """A growing chain given as simple-root indices: "0,1,2" means the
    nested subsets {0} c {0,1} c {0,1,2}.  The indices are checked against
    the rank of spec, read from its parts, before anything is built."""
    l = sum(t.rank * mult for t, mult in spec_parts(resolve(spec)))
    indices = []
    for item in text.split(","):
        i = int(item) if re.fullmatch(r"-?[0-9]+", item) else None
        if not item:
            error = "has an empty index"
        elif i is None:
            error = f"has index {item!r}, which is not an integer"
        elif not 0 <= i < l:
            error = f"has index {i}, out of range for rank {l} (0 to {l - 1})"
        elif i in indices:
            error = f"repeats index {i}"
        else:
            indices.append(i)
            continue
        raise ValueError(f"--chain {text!r} {error}")
    return [indices[:i] for i in range(1, len(indices) + 1)]


def _emit(args, payload: dict, text: str):
    print(json.dumps(payload, indent=2) if args.json else text)


def _emit_judged(args, built, rep: VerifyReport, lines: list) -> int:
    """Print what was built and the report that judges it; exit by it."""
    print(json.dumps({**built.to_json(), "report": rep.to_json()}, indent=2)
          if args.json else "\n".join([*lines, rep.format_text()]))
    return 0 if rep.passed else 1


def _cmd_roots(args) -> int:
    rs = System(args.spec, args.force).rs
    payload = {
        "spec": rs.spec_string(),
        "components": [str(c) for c in rs.components],
        "l": rs.l, "N": rs.N,
        "coxeter": rs.h_per_component,
        "positive_roots": [[q_str(c) for c in r] for r in rs.positive_roots],
    }
    lines = [f"spec      {payload['spec']}",
             f"rank l    {rs.l}",
             f"N         {rs.N}",
             f"coxeter   {rs.h_per_component}"]
    if args.list_roots:
        lines += ["positive roots:"] + [
            "  (" + ", ".join(q_str(c) for c in r) + ")"
            for r in rs.positive_roots]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_algebra(args) -> int:
    system = System(args.spec, args.force)
    alg = (system.bplus if args.kind == "bplus"
           else getattr(system, args.kind).alg)
    data = alg.to_json()
    if args.json:
        print(json.dumps(data))
    else:
        print(f"{args.kind}({system.rs.spec_string()}): dimension "
              f"{alg.dim}, {len(data['products'])} nonzero basis products")
    return 0


def _cmd_decompose(args) -> int:
    """thm2.7 judges the System's chain: the default chains, or --chain's."""
    system = System(args.spec, args.force)
    if args.chain is not None:
        chain = _parse_chain(args.chain, args.spec)  # before any build
        system.chain = generalized_chain_decompose(system.A, chain)
    rep, dec = report("thm2.7", system), system.chain
    return _emit_judged(args, dec, rep, [
        f"decomposition of the identity of A({system.rs.spec_string()}):",
        f"  chain    {dec.chain_description}",
        f"  charges  {', '.join(q_str(c) for c in dec.charges)}"])


def _cmd_niemeier(args) -> int:
    if args.action == "list":
        entries = catalog()
        payload = {"entries": [
            {"name": e.name, "k": e.k, "coxeter": e.coxeter,
             "mass": q_str(e.mass), "count": e.count} for e in entries]}
        lines = [f"{e.name:10s} k={e.k:2d} h={e.coxeter or '-':>2} "
                 f"mass={q_str(e.mass)}" for e in entries]
        _emit(args, payload, "\n".join(lines))
        return 0
    entry = catalog_entry(args.name)
    if entry.is_leech:
        raise ValueError("the Leech entry carries no root-system subalgebra")
    system = System(entry.name)
    rep = report("lemma4.2", system)
    sub = system.images
    return _emit_judged(args, sub, rep, [
        f"{entry.name}: associative subalgebra of dimension "
        f"{sub.checks['dimension']} (24 + k = {24 + entry.k})",
        f"  charges  {', '.join(q_str(c) for c in sub.charges)}"])


def _cmd_verify(args) -> int:
    reports = run_target(args.target, args.spec, max_dim=args.max_dim,
                         force=args.force)
    ok = all(r.passed for r in reports)
    if args.json:
        print(json.dumps({"passed": ok,
                          "reports": [r.to_json() for r in reports]},
                         indent=2))
    else:
        for r in reports:
            print(r.format_text())
        print(f"overall: {'PASS' if ok else 'FAIL'} "
              f"({len(reports)} reports)")
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args keeps
    no state between calls."""
    p = argparse.ArgumentParser(
        prog="griess",
        description="Exact verification of root-system algebra identities")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("--force", action="store_true",
                        help="run even when 2N exceeds the size guard")

    sp = sub.add_parser("roots", help="build and print a root system")
    sp.add_argument("spec", help='e.g. "A2", "D4", "A1^24", "A2*12+E6", '
                    'or a catalog name such as "A5^4D4"')
    sp.add_argument("--list-roots", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_roots)

    sp = sub.add_parser("algebra", help="build an algebra and dump JSON")
    sp.add_argument("spec")
    sp.add_argument("--kind", choices=("A", "T", "bplus"), default="A")
    common(sp)
    sp.set_defaults(fn=_cmd_algebra)

    sp = sub.add_parser("decompose",
                        help="orthogonal idempotent decomposition")
    sp.add_argument("spec")
    sp.add_argument("--chain", default=None,
                    help='growing chain of simple-root indices, e.g. "0,1,2"')
    common(sp)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("niemeier", help="rank-24 lattice catalog")
    nsub = sp.add_subparsers(dest="action", required=True)
    nl = nsub.add_parser("list")
    nl.add_argument("--json", action="store_true")
    nl.set_defaults(fn=_cmd_niemeier, action="list")
    ns = nsub.add_parser("sub")
    ns.add_argument("name")
    ns.add_argument("--json", action="store_true")
    ns.set_defaults(fn=_cmd_niemeier, action="sub")

    sp = sub.add_parser("verify", help="run a named verification target")
    sp.add_argument("target", choices=TARGETS)
    sp.add_argument("--spec", default=None)
    sp.add_argument("--max-dim", type=int, default=8)
    common(sp)
    sp.set_defaults(fn=_cmd_verify)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """run on the command line; a reader that closes stdout early, as
    `griess niemeier list | head -2` does, ends it with exit 1 and no
    traceback."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout points at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
