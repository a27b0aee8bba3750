"""Command-line front end.

Exit status: 0 for any computed verdict (including "fail" and exception
findings), 2 for usage errors (an unparsable request, or one the math
refuses: a non-prime p, a d or e that does not divide q^m - 1, a g that is
not a divisor spec of x^m - 1) and a corrupt factor cache file, 3 when
factoring or size budgets are exceeded.  Output is byte-deterministic for
a fixed request and cache state; exact rationals serialize as
{"num": "...", "den": "..."} and big integers as decimal strings, so
nothing is lost to parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import chars, gf, search, sieve
from .errors import CorruptCache, NotPrime, SizeBudgetExceeded, UnfactoredCofactor
from .fqpoly import factor_xm1
from .numtheory import FactorCache, factorize, multiplicative_stats

BIG = 1 << 53


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > BIG else obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def emit(args, payload, text_lines):
    if args.json:
        sys.stdout.write(json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cache(args):
    path = args.cache or os.environ.get("FFPN_CACHE")
    return FactorCache(path) if path else None


def _fmt_frac(x, digits=5):
    if x is None:
        return "-"
    return f"{float(x):.{digits}f}"


def cmd_factor_int(args):
    f = factorize(args.n, hints=args.hint or None, cache=_cache(args))
    s = multiplicative_stats(f)
    payload = {
        "n": f.n,
        "factors": [[p, e] for p, e in f.factors],
        "probable": list(f.probable),
        "omega": s.omega,
        "W": s.W,
        "phi": s.phi,
        "theta": s.theta,
        "radical": s.radical,
    }
    fact_str = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors) or "1"
    lines = [
        f"n = {f.n} = {fact_str}",
        f"omega = {s.omega}   W = {s.W}   phi = {s.phi}   theta = {s.theta}   radical = {s.radical}",
    ]
    if f.probable:
        lines.append("probable primes (not deterministically certified): " + ", ".join(map(str, f.probable)))
    emit(args, payload, lines)
    return 0


def cmd_factor_poly(args):
    pf = factor_xm1(args.q, args.m)
    payload = {
        "q": args.q,
        "m": args.m,
        "m0": pf.m0,
        "a": pf.a,
        "multiplicity": pf.multiplicity,
        "factors": [{"degree": f.degree, "coeffs": list(f.coeffs), "render": f.render()} for f in pf.factors],
    }
    lines = [f"x^{args.m} - 1 over F_{args.q}: (x^{pf.m0} - 1)^{pf.multiplicity}"]
    for f in pf.factors:
        lines.append(f"  ({f.render()})^{pf.multiplicity}   degree {f.degree}")
    emit(args, payload, lines)
    return 0


def cmd_check(args):
    res = sieve.basic_condition(args.q, args.m, cache=_cache(args))
    bound = res["W_bound"]
    if "unsplit_digits" in res:
        digits = res["unsplit_digits"]
        noun = "cofactor" if len(digits) == 1 else "cofactors"
        bound += f" (unsplit {noun}: {', '.join(map(str, digits))} digits)"
    lines = [
        f"(q, m) = ({args.q}, {args.m})",
        f"lhs q^(m/2) = {res['lhs']:.6g}",
        f"rhs 3 W^2 Omega = {res['rhs']}",
        f"W bound: {bound}",
        f"verdict: {res['verdict']}",
    ]
    emit(args, res, lines)
    return 0


def _parse_g(spec):
    if spec == "all":
        return "all"
    if spec == "1":
        return 1
    return tuple(int(x) for x in spec.split(","))


def _report_lines(rep):
    c = rep.config
    return [
        f"(q, m) = ({c.q}, {c.m})   d = {c.d} (primes {list(c.d_primes)})",
        f"remaining primes ({c.n}): {list(c.remaining_primes)}",
        f"g factor indices: {list(c.g_indices)}   remaining degrees ({c.k}): {list(c.remaining_degrees)}",
        f"Delta = {rep.Delta} = {_fmt_frac(rep.Delta)}",
        f"Lambda = {_fmt_frac(rep.Lambda)}",
        f"lhs q^(m/2) = {rep.lhs:.6g}   rhs 3 W(d)^2 Omega(g) Lambda = {_fmt_frac(rep.rhs, 3)}",
        f"verdict: {rep.verdict}",
    ]


def cmd_sieve(args):
    rep = sieve.sieve_report(args.q, args.m, args.d, _parse_g(args.g), cache=_cache(args))
    emit(args, rep.to_dict(), _report_lines(rep))
    return 0


def cmd_auto_sieve(args):
    rep = sieve.auto_sieve(args.q, args.m, cache=_cache(args))
    emit(args, rep.to_dict(), _report_lines(rep))
    return 0


_TABLE_COLS = ["(q,m)", "d", "n", "g", "k", "Lambda", "q^(m/2)", "rhs", "verdict", "flags"]


def cmd_table(args):
    rows = sieve.reproduce_table(args.which, cache=_cache(args))
    lines = ["{:>8} {:>6} {:>3} {:>12} {:>3} {:>10} {:>12} {:>12} {:>8} {}".format(*_TABLE_COLS)]
    for r in rows:
        flags = []
        if not r["n_matches"]:
            flags.append(f"n: printed {r['n_printed']} vs {r['n']}")
        if not r["k_matches"]:
            flags.append(f"k: printed {r['k_printed']} vs {r['k']}")
        if not r["lambda_matches"]:
            flags.append(f"Lambda: printed {r['Lambda_printed']} vs {_fmt_frac(r['Lambda'])}")
        if not r["qm2_matches"]:
            flags.append(f"q^(m/2): printed {r['qm2_printed']} vs {r['lhs']:.6g}")
        if not r["rhs_matches"]:
            flags.append(f"rhs: printed {r['rhs_printed']} vs {_fmt_frac(r['rhs'], 3)}")
        lines.append(
            "{:>8} {:>6} {:>3} {:>12} {:>3} {:>10} {:>12.6g} {:>12} {:>8} {}".format(
                f"({r['q']},{r['m']})",
                r["d"],
                r["n"],
                r["g_printed"][:12],
                r["k"],
                _fmt_frac(r["Lambda"]),
                r["lhs"],
                _fmt_frac(r["rhs"], 3),
                r["verdict"],
                "; ".join(flags) if flags else "consistent",
            )
        )
    emit(args, rows, lines)
    return 0


def _tower(args):
    return gf.build_extension(args.p, args.r, args.m)


def cmd_enumerate(args):
    t = _tower(args)
    elems = search.enumerate_primitive_normal(t)
    payload = {
        "p": args.p,
        "r": args.r,
        "m": args.m,
        "count": len(elems),
        "elements": [{"code": e.code, "render": e.render()} for e in elems],
    }
    lines = [f"{len(elems)} primitive normal elements of F_{t.Q} over F_{t.q}:"]
    lines += [f"  {e.render()}" for e in elems]
    emit(args, payload, lines)
    return 0


def cmd_count(args):
    t = _tower(args)
    n = search.exact_count(t, (args.a, args.b, args.c), args.e1, args.e2, _parse_g(args.g))
    payload = {"count": n, "e1": args.e1, "e2": args.e2, "g": args.g, "f": [args.a, args.b, args.c]}
    emit(args, payload, [f"count = {n}"])
    return 0


def cmd_witness(args):
    t = _tower(args)
    f = search.QuadraticSpec.from_codes(t, args.a, args.b, args.c)
    w = search.find_witness(t, f)
    payload = {
        "f": [args.a, args.b, args.c],
        "f_render": f.render(),
        "witness": None if w is None else {"code": w.code, "render": w.render()},
    }
    lines = [f"f = {f.render()}"]
    lines.append("no witness" if w is None else f"witness: {w.render()}")
    emit(args, payload, lines)
    return 0


def cmd_resolve_pair(args):
    rep = search.resolve_pair(
        args.q,
        args.m,
        budget=args.budget,
        threads=args.threads,
        checkpoint_path=args.checkpoint,
    )
    d = rep.to_dict()
    lines = [
        f"(q, m) = ({args.q}, {args.m})   status: {rep.status}",
        f"quadratics checked: {rep.quadratics_checked}   probes: {rep.probes_done}   elapsed: {rep.elapsed:.2f}s",
        f"bad quadratics: {len(rep.bad_quadratics)}",
    ]
    for t3 in rep.bad_quadratics[:20]:
        lines.append(f"  bad f codes (a, b, c) = {tuple(t3)}")
    if len(rep.bad_quadratics) > 20:
        lines.append(f"  ... and {len(rep.bad_quadratics) - 20} more")
    emit(args, d, lines)
    return 0


def cmd_char_audit(args):
    if args.quadratics < 1:
        raise ValueError(f"--quadratics must be at least 1, not {args.quadratics}")
    t = _tower(args)
    ortho = chars.orthogonality_audit(t)
    audit = chars.weil_audit(t, quadratics=args.quadratics, seed=args.seed)
    payload = {
        "orthogonality_worst": ortho,
        "weil_checked": audit["checked"],
        "weil_violations": len(audit["violations"]),
        "worst": audit["worst"],
    }
    w = audit["worst"]
    lines = [
        f"orthogonality worst |sum| = {ortho:.3e}",
        f"weil audit: {audit['checked']} sums, {len(audit['violations'])} violations",
        f"worst margin {w['margin']:.6f} at (d1={w['d1']}, d2={w['d2']}, h={w['h']}), |S| = {w['abs_S']:.6f} vs bound {w['bound']:.6f}",
    ]
    emit(args, payload, lines)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ffpn",
        description="Primitive normal elements with primitive quadratic images: "
        "conditions, counts, and exhaustive verification over characteristic-3 fields.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--cache", help="factor cache file (default: $FFPN_CACHE)")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized audits")
    ap.add_argument("--threads", type=int, default=os.cpu_count(), help="thread cap for sweeps")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("factor-int", help="factor n and report omega/W/phi/theta")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--hint", type=int, action="append", help="known prime factor (repeatable)")
    s.set_defaults(func=cmd_factor_int)

    s = sub.add_parser("factor-poly", help="factor x^m - 1 over F_q")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=cmd_factor_poly)

    s = sub.add_parser("check", help="basic condition q^(m/2) > 3 W^2 Omega")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("sieve", help="sieve condition for a (d, g) choice")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--g", default="all", help="'all', '1', or factor indices like 0,2")
    s.set_defaults(func=cmd_sieve)

    s = sub.add_parser("auto-sieve", help="best (d, g) configuration")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=cmd_auto_sieve)

    s = sub.add_parser("table", help="reproduce a published decision table")
    s.add_argument("--which", type=int, choices=(1, 2), required=True)
    s.set_defaults(func=cmd_table)

    for name, fn, extra in (
        ("enumerate", cmd_enumerate, ()),
        ("count", cmd_count, ("f", "e")),
        ("witness", cmd_witness, ("f",)),
        ("char-audit", cmd_char_audit, ("audit",)),
    ):
        s = sub.add_parser(name)
        s.add_argument("--p", type=int, required=True)
        s.add_argument("--r", type=int, default=1)
        s.add_argument("--m", type=int, required=True)
        if "f" in extra:
            s.add_argument("--a", type=int, required=True, help="code of a")
            s.add_argument("--b", type=int, required=True, help="code of b")
            s.add_argument("--c", type=int, required=True, help="code of c")
        if "e" in extra:
            s.add_argument("--e1", type=int, required=True)
            s.add_argument("--e2", type=int, required=True)
            s.add_argument("--g", default="all")
        if "audit" in extra:
            s.add_argument("--quadratics", type=int, default=100)
        s.set_defaults(func=fn)

    s = sub.add_parser("resolve-pair", help="full coefficient sweep for (q, m)")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument(
        "--budget",
        type=int,
        default=search.RESOLVE_BUDGET,
        help="probe budget; a probe is one (f, alpha) primitivity test of a "
        "plain scan trying each f's primitive-normal alpha in dlog order up to "
        "its first witness; a whole sweep of Q = 2187, (3,7) or (2187,1), counts 2.09e10 "
        "(default %(default)s)",
    )
    s.add_argument("--checkpoint", help="JSON checkpoint path (resumable)")
    s.set_defaults(func=cmd_resolve_pair)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UnfactoredCofactor, SizeBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (CorruptCache, NotPrime, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
