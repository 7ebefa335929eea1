"""Verification report: everything one prime's run produced, JSON-stable."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of the full divisor-polynomial verification for one prime.

    ``checks`` maps check names to booleans; ``polys`` holds the mod-p
    polynomials as FpPoly (S_p, S_l, S_q, H_p_mod_p, F_p, H).  ``status``
    is one of ok / falsified / not_good_basis / error.
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
    h_factorization: list = field(default_factory=list)

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
        polynomial / supersingular polynomial / F_p / H."""
        out = [f"p = {self.p}: X_0(p) genus {self.g_p}, quotient genus {self.g_plus}"]
        out.append(f"pivots = {self.pivots}, wt(infinity) = {self.wt_inf}, "
                   f"good basis: {self.good_basis}")
        for i, head in enumerate(self.basis_heads):
            out.append(f"  f_{i + 1} = {head}")
        if self.wronskian_head:
            out.append(f"  wronskian = {self.wronskian_head[0]}")
        for key in ("S_p", "S_l", "S_q"):
            if key in self.polys:
                out.append(f"  {key} = {_poly_str(self.polys[key])}")
        if "H_p_mod_p" in self.polys:
            out.append(f"  H_p mod p = {_poly_str(self.polys['H_p_mod_p'])} "
                       f"(sigma = {self.sigma})")
        if self.g_plus >= 2 and "F_p" in self.polys:
            out.append(f"  epsilon_rho = {self.epsilon_rho}, "
                       f"epsilon_i = {self.epsilon_i}")
            out.append(f"  F_p mod p = {_poly_str(self.polys['F_p'])}")
            out.append(f"  H = {_poly_str(self.polys['H'])}")
            if self.h_factorization:
                out.append(f"  H factors: {self.h_factorization}")
        failed = [k for k, v in self.checks.items() if not v]
        out.append(f"checks: {len(self.checks) - len(failed)}/{len(self.checks)} pass"
                   + (f", FAILED: {failed}" if failed else ""))
        out.append(f"status: {self.status}")
        return out


def _poly_str(poly):
    if poly is None:
        return "?"
    if poly.is_zero():
        return "0"
    terms = []
    for i in range(poly.degree(), -1, -1):
        c = int(poly.coeffs[i])
        if not c:
            continue
        if i == 0:
            terms.append(f"{c}")
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(terms)
