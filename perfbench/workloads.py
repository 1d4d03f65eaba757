"""The benchmark's three workloads, made from a seed, and their checks.

A workload is a list of ops.  An op is one unit of work a user waits for,
run through griess's public functions.  It returns True when its result
passes, False when griess reports a failed verification whose numbers
still agree with the paper's closed forms (a known failure, counted but
not a wrong answer), and raises Mismatch when a result contradicts them.

The closed forms are computed here from the root-system types alone, so a
check never trusts the griess code it is checking.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction

from griess import cli, niemeier, rootalgebra, rootsys
from griess.algebra import StructureAlgebra

VERIFY_SPECS = ("A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "E6",
                "A1^24", "A2^12")
RANK24_ENTRIES = ("A6^4", "A8^3", "A12^2")
IDENTITY_SPECS = ("E8^2", "D12", "A16")
RANDOM_ELEMENTS = 200

SMOKE = {
    "verify_small": {"specs": ("A2", "D4", "A1^24"), "max_dim": 4},
    "rank24_chain": {"entries": ("A1^24",)},
    "identity_solve": {"specs": ("A2", "D4"), "elements": 20},
}


class Mismatch(Exception):
    """A result that contradicts the paper's closed forms."""


# -- closed forms ----------------------------------------------------------

def components(spec: str) -> list[tuple[str, int]]:
    """'A2^12+E6' -> [('A', 2)] * 12 + [('E', 6)]."""
    out = []
    for part in spec.split("+"):
        m = re.fullmatch(r"([ADE])(\d+)(?:\^(\d+))?", part)
        if m is None:
            raise ValueError(f"unsupported spec {spec!r}")
        out += [(m[1], int(m[2]))] * int(m[3] or 1)
    return out


def coxeter(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family == "D":
        return 2 * rank - 2
    return {6: 12, 7: 18, 8: 30}[rank]


def num_positive(spec: str) -> int:
    """N = sum of l h / 2 over the components."""
    return sum(r * coxeter(f, r) // 2 for f, r in components(spec))


def rank(spec: str) -> int:
    return sum(r for _, r in components(spec))


def image_rank(spec: str) -> int:
    """Rank of the map phi onto B+: the sum over components of
    l(l+1)/2 + N, because no t(a) or u(a) reaches a cross term h_c h_c'."""
    return sum(r * (r + 1) // 2 + r * coxeter(f, r) // 2
               for f, r in components(spec))


def bplus_dim(spec: str) -> int:
    """dim B+ = l(l+1)/2 + N."""
    return rank(spec) * (rank(spec) + 1) // 2 + num_positive(spec)


def chain_charges(spec: str) -> list[Fraction]:
    """Charges along the type-A chains: 1 - 6/((i+2)(i+3)) for i = 1..l,
    then the parafermion value 2l/(l+3), component by component."""
    out = []
    for family, l in components(spec):
        if family != "A":
            raise ValueError("chain charges are closed forms in type A only")
        out += [1 - Fraction(6, (i + 2) * (i + 3)) for i in range(1, l + 1)]
        out.append(Fraction(2 * l, l + 3))
    return out


def targets(spec: str) -> list[str]:
    """The verification targets run on one spec.

    The same rule as griess.verify.targets_for_spec when the benchmark was
    written, fixed here so that the workload does not change when the
    library's selection does."""
    out = ["lemma2.1", "prop2.2", "lemma2.3", "lemma2.4"]
    if all(f == "A" for f, _ in components(spec)):
        out += ["eq2.5", "lemma2.5", "lemma2.6", "thm2.7"]
    if 2 * num_positive(spec) <= 160:
        out += ["thm3.1", "cor3.2"]
    if rank(spec) == 24:
        out.append("lemma4.2")
    return out


# -- verify_small ----------------------------------------------------------

def _known_failure(target: str, spec: str | None, clauses: list) -> bool:
    """thm3.1 and cor3.2 claim that phi is onto B+, which fails for a
    direct sum: the image has rank image_rank(spec) < bplus_dim(spec).
    Such a failure is known when every failing clause reports that rank."""
    if target not in ("thm3.1", "cor3.2") or spec is None:
        return False
    r = image_rank(spec)
    if r == bplus_dim(spec):
        return False
    kernel = str(2 * num_positive(spec) - r)
    return all(c["passed"] or f"rank {r}" in c["counterexample"]
               or c["counterexample"] == kernel for c in clauses)


def _cli_verify(argv: list[str]) -> bool:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code == 2:
        raise Mismatch(f"usage error: {err.getvalue().strip()}")
    payload = json.loads(out.getvalue())
    target = argv[1]
    spec = argv[argv.index("--spec") + 1] if "--spec" in argv else None
    reports = payload["reports"]
    if len(reports) != 1 or not reports[0]["target"].startswith(target) \
            or not reports[0]["clauses"]:
        raise Mismatch(f"expected one non-empty {target} report")
    clauses = reports[0]["clauses"]
    passed = all(c["passed"] for c in clauses)
    if reports[0]["passed"] != passed or payload["passed"] != passed \
            or code != (0 if passed else 1):
        raise Mismatch("verdict, clauses and exit code disagree")
    if passed:
        return True
    if _known_failure(target, spec, clauses):
        return False
    bad = next(c for c in clauses if not c["passed"])
    raise Mismatch(f"{bad['description']} [{bad['counterexample']}]")


def verify_small(seed: int, smoke: bool = False) -> list:
    """Every target on many small systems, through the CLI, shuffled."""
    cfg = SMOKE["verify_small"] if smoke else {"specs": VERIFY_SPECS,
                                               "max_dim": 8}
    argvs = [["verify", t, "--spec", s, "--json"]
             for s in cfg["specs"] for t in targets(s)]
    argvs += [["verify", "formula4.1", "--max-dim", str(cfg["max_dim"]),
               "--json"],
              ["verify", "table1", "--json"], ["verify", "table2", "--json"]]
    random.Random(seed).shuffle(argvs)
    return [(" ".join(a[1:-1]), lambda a=a: _cli_verify(a)) for a in argvs]


# -- rank24_chain ----------------------------------------------------------

def _lemma_4_2(name: str) -> bool:
    entry = niemeier.catalog_entry(name)
    rep = niemeier.lemma_4_2_subalgebra(entry)
    dim = 24 + len(components(name))
    if len(rep.idempotents) != dim or rep.checks.get("dimension") != dim:
        raise Mismatch(f"{len(rep.idempotents)} idempotents, expected {dim}")
    if rep.checks.get("associative") is not True:
        raise Mismatch("span not reported associative")
    got = [Fraction(str(c)) for c in rep.charges]
    if got != chain_charges(name):
        raise Mismatch(f"charges {got} differ from the closed forms")
    return True


def rank24_chain(seed: int, smoke: bool = False) -> list:
    """Lemma 4.2 on rank-24 type-A entries, in seed order."""
    names = list(SMOKE["rank24_chain"]["entries"] if smoke
                 else RANK24_ENTRIES)
    random.Random(seed).shuffle(names)
    return [(f"lemma4.2 {n}", lambda n=n: _lemma_4_2(n)) for n in names]


# -- identity_solve --------------------------------------------------------

def _identity(spec: str, state: dict) -> bool:
    rs = rootsys.build(spec)
    ra, rt = rootalgebra.build_A(rs), rootalgebra.build_T(rs)
    ident_a, ident_t = ra.alg.find_identity(), rt.alg.find_identity()
    if ident_a is None or ident_a != rootalgebra.delta(ra):
        raise Mismatch("identity of A differs from delta")
    if ident_t is None or ident_t != rootalgebra.epsilon(rt):
        raise Mismatch("identity of T differs from epsilon")
    # One Coxeter number per spec here: delta = 1/(4h) on all 2N vectors,
    # epsilon = 1/(2h+4) on all N t-vectors.
    h = {coxeter(f, r) for f, r in components(spec)}.pop()
    n = num_positive(spec)
    for got, coeff, size in ((ident_a, Fraction(1, 4 * h), 2 * n),
                             (ident_t, Fraction(1, 2 * h + 4), n)):
        if len(got.coeffs) != size or \
                {Fraction(str(c)) for c in got.coeffs.values()} != {coeff}:
            raise Mismatch(f"identity is not {coeff} on {size} vectors")
    if ident_a.central_charge() != rank(spec):
        raise Mismatch("c(delta) != l")
    state.update(alg=ra.alg, delta=ident_a)
    return True


def _roundtrip(state: dict) -> bool:
    table = state["alg"].to_json()
    back = StructureAlgebra.from_json(json.loads(json.dumps(table)))
    if back.to_json() != table:
        raise Mismatch("JSON round trip changed the table")
    return True


def _products(state: dict, inputs: list) -> bool:
    alg, one = state["alg"], state["delta"]
    xs = [alg.element(c) for c in inputs]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        if one * x != x:
            raise Mismatch(f"delta * x != x for x = {x!r}")
        if x * y != y * x:
            raise Mismatch(f"x * y != y * x for x = {x!r}, y = {y!r}")
    state.clear()  # free this system's algebra before the next one
    return True


def _sparse(rng: random.Random, dim: int) -> dict:
    return {rng.randrange(dim): Fraction(rng.choice((-1, 1))
                                         * rng.randint(1, 9),
                                         rng.randint(1, 6))
            for _ in range(4)}


def identity_solve(seed: int, smoke: bool = False) -> list:
    """Identity solve, JSON round trip and random products on large
    systems; the random elements come from the seed."""
    cfg = SMOKE["identity_solve"] if smoke else {"specs": IDENTITY_SPECS,
                                                 "elements": RANDOM_ELEMENTS}
    rng = random.Random(seed)
    ops = []
    for spec in cfg["specs"]:
        state: dict = {}
        inputs = [_sparse(rng, 2 * num_positive(spec))
                  for _ in range(cfg["elements"])]
        ops += [(f"identity {spec}",
                 lambda s=spec, st=state: _identity(s, st)),
                (f"json {spec}", lambda st=state: _roundtrip(st)),
                (f"products {spec}",
                 lambda st=state, i=inputs: _products(st, i))]
    return ops


WORKLOADS = {"verify_small": verify_small, "rank24_chain": rank24_chain,
             "identity_solve": identity_solve}
