"""Command-line interface.

    wplus verify <p> [--json]
    wplus scan <a> <b> [--jobs N] [--out FILE] [--basis-only]
    wplus ssing <p>
    wplus hilbert <D>
    wplus basis <p> [--prec N]

Exit codes for verify: 0 all checks pass, 1 falsifier triggered, 2 good
basis hypothesis unmet (or usage error), 3 internal error (in the text
report too, when H cannot be factored for its "H factors" line).  basis
exits 2, a usage error, when --prec does not pass the pivots.  The cache
directory comes from WPLUS_CACHE or ~/.cache/wplus.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import Config
from .errors import PrecisionError, WplusError
from .fppoly import is_prime
from .report import _poly_str


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wplus",
        description="Divisor polynomials of Weierstrass points on the "
                    "Atkin-Lehner quotient of X_0(p), verified mod p.")
    parser.add_argument("--cache-dir", help="override the cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cache")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full verification for one prime")
    v.add_argument("p", type=int)
    v.add_argument("--json", action="store_true", help="emit a JSON report")

    s = sub.add_parser("scan", help="verify every prime in a range")
    s.add_argument("pmin", type=int)
    s.add_argument("pmax", type=int)
    s.add_argument("--jobs", type=int, default=1, metavar="N")
    s.add_argument("--out", metavar="FILE", help="write aggregate JSON here")
    s.add_argument("--basis-only", action="store_true",
                   help="stop after the good basis and wt(infinity)")

    ss = sub.add_parser("ssing", help="print the supersingular polynomial")
    ss.add_argument("p", type=int)

    h = sub.add_parser("hilbert", help="print a Hilbert class polynomial")
    h.add_argument("D", type=int)

    b = sub.add_parser("basis", help="print the good basis of S_2^+(p)")
    b.add_argument("p", type=int)
    b.add_argument("--prec", type=int,
                   help="q-expansion precision (default: (p + 1)//6 + 12, "
                        "the precision verify builds and caches)")
    return parser


def _config(args, **kwargs):
    if args.cache_dir:
        kwargs["cache_dir"] = args.cache_dir
    return Config(use_cache=not args.no_cache, **kwargs)


def _require_prime(value, parser):
    if not is_prime(value) or value < 5:
        parser.error(f"{value} is not a prime >= 5")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        _require_prime(args.p, parser)
        from .pipeline import verify_prime
        cfg = _config(args)
        report = verify_prime(args.p, cfg)
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2))
            return report.exit_code
        try:
            lines = report.text_lines()
        except WplusError as exc:
            print(f"wplus: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines))
        return report.exit_code

    if args.command == "scan":
        if args.jobs < 1:
            parser.error(f"--jobs must be >= 1, not {args.jobs}")
        from .pipeline import scan_primes
        cfg = _config(args, jobs=args.jobs)
        agg = scan_primes(args.pmin, args.pmax, cfg,
                          basis_only=args.basis_only)
        blob = json.dumps(agg, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
            s = agg["summary"]
            print(f"scanned {s['count']} primes: {s['ok']} ok, "
                  f"{s['falsified']} falsified, "
                  f"{s['not_good_basis']} without a good basis, "
                  f"{s['errors']} errors -> {args.out}")
        else:
            print(blob)
        bad = agg["summary"]["falsified"] + agg["summary"]["errors"]
        return 1 if bad else 0

    if args.command == "ssing":
        _require_prime(args.p, parser)
        from .supersingular import ORACLE_BOUND, ss_oracle, ss_polys
        from .level1 import weight_profile
        split = ss_polys(args.p)
        fac = " * ".join(
            f"({_poly_str(f.coeffs)})" + (f"^{e}" if e > 1 else "")
            for f, e in split.S_p.factor())
        s_p, s_l, s_q = (_poly_str(f.coeffs)
                         for f in (split.S_p, split.S_l, split.S_q))
        print(f"S_{args.p} = {fac}  (mod {args.p})")
        print(f"  = {s_p}")
        print(f"S_l = {s_l}   (roots in the prime field)")
        print(f"S_q = {s_q}   (conjugate quadratic pairs)")
        m = weight_profile(args.p - 1).m
        print(f"route: divisor polynomial of E_(p-1) mod p at precision {m + 4}")
        if args.p <= ORACLE_BOUND:
            agree = ss_oracle(args.p) == split.S_p
            print(f"point-counting oracle agreement: {agree}")
        return 0

    if args.command == "hilbert":
        from .supersingular import class_poly
        try:
            data = class_poly(args.D)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"H_{args.D}(x) = {_poly_str(data.H_D)}")
        print(f"class number h(-{args.D}) = {data.h}")
        print(f"reduced forms: {data.reduced_forms}")
        print(f"float precision: {data.float_precision_bits} bits")
        return 0

    if args.command == "basis":
        _require_prime(args.p, parser)
        from .modsym import good_basis, pivot_precision
        from .pipeline import _cache_for
        prec = pivot_precision(args.p) if args.prec is None else args.prec
        try:
            gb = good_basis(args.p, prec, cache=_cache_for(_config(args)))
        except PrecisionError as exc:
            parser.error(str(exc))
        from .weierstrass import basis_heads
        print(f"p = {args.p}: genus of X_0(p) = {gb.genus_x0}, "
              f"quotient genus = {gb.g}")
        print(f"pivots: {gb.pivots}, wt(infinity) = {gb.wt_infinity()}, "
              f"p-integral: {gb.p_integral}")
        for i, head in enumerate(basis_heads(gb, 10)):
            print(f"  f_{i + 1} = " + head)
        return 0

    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
