"""Command-line interface.

    wplus verify <p> [--json]
    wplus scan <a> <b> [--jobs N] [--out FILE] [--basis-only]
    wplus ssing <p>
    wplus hilbert <D>
    wplus basis <p> [--prec N]

Exit codes for verify: 0 all checks pass, 1 falsifier triggered, 2 good
basis hypothesis unmet (or usage error), 3 internal error.  The cache
directory comes from WPLUS_CACHE or ~/.cache/wplus.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import Config
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
    b.add_argument("--prec", type=int, default=0,
                   help="q-expansion precision (default: Sturm bound + 10)")
    return parser


def _config(args, **kwargs):
    cfg = Config(**kwargs)
    if args.cache_dir:
        cfg.cache_dir = args.cache_dir
        cfg.__post_init__()
    if args.no_cache:
        cfg.use_cache = False
    return cfg


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
        else:
            print("\n".join(report.text_lines()))
        return report.exit_code

    if args.command == "scan":
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
            f"({_poly_str(f)})" if e == 1 else f"({_poly_str(f)})^{e}"
            for f, e in split.S_p.factor())
        print(f"S_{args.p} = {fac}  (mod {args.p})")
        print(f"  = {_poly_str(split.S_p)}")
        print(f"S_l = {_poly_str(split.S_l)}   (roots in the prime field)")
        print(f"S_q = {_poly_str(split.S_q)}   (conjugate quadratic pairs)")
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
        terms = []
        for i in range(data.h, -1, -1):
            c = data.H_D[i]
            if c:
                mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
                terms.append(f"{c}{mono}" if not mono or abs(c) != 1 else
                             (mono if c == 1 else f"-{mono}"))
        print(f"H_{args.D}(x) = " + " + ".join(terms).replace("+ -", "- "))
        print(f"class number h(-{args.D}) = {data.h}")
        print(f"reduced forms: {data.reduced_forms}")
        print(f"float precision: {data.float_precision_bits} bits")
        return 0

    if args.command == "basis":
        _require_prime(args.p, parser)
        from .modsym import good_basis
        from .cache import DiskCache, NullCache
        cfg = _config(args)
        cache = DiskCache(cfg.cache_dir) if cfg.use_cache else NullCache()
        prec = args.prec or (args.p + 1) // 6 + 10
        gb = good_basis(args.p, prec, cache=cache)
        from .weierstrass import _series_head
        print(f"p = {args.p}: genus of X_0(p) = {gb.genus_x0}, "
              f"quotient genus = {gb.g}")
        print(f"pivots: {gb.pivots}, wt(infinity) = {gb.wt_infinity()}, "
              f"p-integral: {gb.p_integral}")
        for i, f in enumerate(gb.forms):
            print(f"  f_{i + 1} = " + _series_head(f, 10))
        return 0

    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
