"""Verification report: everything one prime's run produced, JSON-stable.

verify_prime fills one VerificationReport per prime: the basis, the
supersingular split and the class-polynomial checks, then, through
weierstrass.extract_Fp, the congruence chain's checks and polynomials.
settle() sets the status from what was filled in, by one rule.  The
factors of H, which the text report prints, are formed only when first read
(h_factorization), since no check and no JSON field reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import WplusError


#: checks that are observational (reported, never flip the status)
OBSERVATIONAL_CHECKS = {"gcd_H_Sp_is_1"}


@dataclass
class VerificationReport:
    """Outcome of the full divisor-polynomial verification for one prime.

    ``checks`` maps check names to booleans; ``polys`` holds the mod-p
    polynomials as FpPoly (S_p, S_l, S_q, H_p_mod_p, F_p, H).  ``status``
    is one of ok / falsified / not_good_basis / error: settle() sets one
    of the first three, and verify_prime sets falsified or error when a
    stage raises.
    """

    p: int
    g_p: int = 0
    g_plus: int = 0
    pivots: list = field(default_factory=list)
    wt_inf: int = 0
    good_basis: bool = False
    sigma: int = 0
    epsilon_rho: int = 0
    epsilon_i: int = 0
    polys: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)
    status: str = "ok"
    error: str = ""
    basis_heads: list = field(default_factory=list)
    wronskian_head: list = field(default_factory=list)

    SCHEMA = 1
    POLY_KEYS = ("S_p", "S_l", "S_q", "H_p_mod_p", "F_p", "H")

    @property
    def all_checks_pass(self):
        return all(self.checks.values())

    @property
    def exit_code(self):
        if self.status == "ok":
            return 0
        if self.status == "falsified":
            return 1
        if self.status == "not_good_basis":
            return 2
        return 3

    def settle(self):
        """Set the status from the basis and the checks: not_good_basis
        without a p-integral basis, falsified when a check outside
        OBSERVATIONAL_CHECKS fails, ok otherwise."""
        if not self.good_basis:
            self.status = "not_good_basis"
        elif any(not v for k, v in self.checks.items()
                 if k not in OBSERVATIONAL_CHECKS):
            self.status = "falsified"
        else:
            self.status = "ok"

    @cached_property
    def h_factorization(self):
        """The factors of H that the text report prints: (coefficients of a
        monic irreducible factor, multiplicity) pairs in FpPoly.factor's
        sorted order, which no RNG changes; [] unless H has positive degree.
        Factored on first read, since no check and no JSON field reads it.
        A failure raises WplusError naming this stage."""
        h = self.polys.get("H")
        if h is None or h.degree() < 1:
            return []
        try:
            factors = h.factor()
        except Exception as exc:
            raise WplusError(f"factoring H for the text report: "
                             f"{type(exc).__name__}: {exc}") from exc
        return [([int(c) for c in f.coeffs], e) for f, e in factors]

    def to_json_dict(self):
        polys = {}
        for key in self.POLY_KEYS:
            poly = self.polys.get(key)
            polys[key] = [int(c) for c in poly.coeffs] if poly is not None else None
        return {
            "schema": self.SCHEMA,
            "p": self.p,
            "g_p": self.g_p,
            "g_plus": self.g_plus,
            "pivots": list(self.pivots),
            "wt_inf": self.wt_inf,
            "good_basis": self.good_basis,
            "polys": polys,
            "checks": dict(self.checks),
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
            "status": self.status,
            "error": self.error,
        }

    def text_lines(self):
        """Human-readable summary, in the order basis / Wronskian / divisor
        polynomial / supersingular polynomial / F_p / H and its factors
        (h_factorization, which this factors on the first call)."""
        out = [f"p = {self.p}: X_0(p) genus {self.g_p}, quotient genus {self.g_plus}"]
        out.append(f"pivots = {self.pivots}, wt(infinity) = {self.wt_inf}, "
                   f"good basis: {self.good_basis}")
        for i, head in enumerate(self.basis_heads):
            out.append(f"  f_{i + 1} = {head}")
        if self.wronskian_head:
            out.append(f"  wronskian = {self.wronskian_head[0]}")
        shown = {k: _poly_str(f.coeffs) for k, f in self.polys.items()}
        for key in ("S_p", "S_l", "S_q"):
            if key in shown:
                out.append(f"  {key} = {shown[key]}")
        if "H_p_mod_p" in shown:
            out.append(f"  H_p mod p = {shown['H_p_mod_p']} "
                       f"(sigma = {self.sigma})")
        if self.g_plus >= 2 and "F_p" in shown:
            out.append(f"  epsilon_rho = {self.epsilon_rho}, "
                       f"epsilon_i = {self.epsilon_i}")
            out.append(f"  F_p mod p = {shown['F_p']}")
            out.append(f"  H = {shown['H']}")
            if self.h_factorization:
                out.append(f"  H factors: {self.h_factorization}")
        failed = [k for k, v in self.checks.items() if not v]
        out.append(f"checks: {len(self.checks) - len(failed)}/{len(self.checks)} pass"
                   + (f", FAILED: {failed}" if failed else ""))
        out.append(f"status: {self.status}")
        return out


def _poly_str(coeffs):
    """The polynomial with these coefficients, constant term first, as
    the reports print it: highest degree first, a unit coefficient left
    out of x and x^i, a negative term joined by " - "."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = int(coeffs[i])
        if not c:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if mono and c in (1, -1):
            terms.append(mono if c == 1 else f"-{mono}")
        else:
            terms.append(f"{c}{mono}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"
