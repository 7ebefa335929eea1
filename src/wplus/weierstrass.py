"""Wronskians, level-1 lifts, and the mod-p divisor polynomial of the
Weierstrass points of the Atkin-Lehner quotient curve.

The chain: lift each good-basis form f_i to a weight-(p+1) level-1 cusp form
b_i = Delta^d Etilde P_i(j) mod p on the cross-check window; read the
divisor polynomial of the theta-Wronskian W of the lifts (weight g(g+p))
off the Wronskian of the P_i on the j-line; take the square-case
correction; divide out the elliptic-point and linear-supersingular factors
exactly; the remaining polynomial H_1 must be a perfect square H^2, and

    F_p(x) = S_q(x)^{g^2 - g} * H(x)^2  (mod p).

Every division is checked exact and every forced parity is checked even;
any failure is a falsifier, not an input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (InexactDivisionError, NoLiftError, ParityViolationError,
                     PrecisionError, ZeroWronskianError)
from .fppoly import FpPoly, legendre
from .level1 import (Level1Context, divisor_degree, divisor_polynomial,
                     gp_exponents, gp_poly, miller_basis_mod,
                     square_divisor_exponents, weight_profile)
from .report import VerificationReport
from .series import FpSeries, QExpansion


def theta(f):
    """q d/dq on a series; preserves precision and congruences."""
    return f.theta()


def series_matrix_determinant(mat):
    """Determinant of a square matrix of series, by Gaussian elimination
    over the Laurent-series field with minimal-valuation pivoting."""
    g = len(mat)
    m = [row[:] for row in mat]
    det = None
    neg = False
    for col in range(g):
        best = None
        for r in range(col, g):
            e = m[r][col]
            if not e.is_zero() and (best is None
                                    or e.valuation < m[best][col].valuation):
                best = r
        if best is None:
            raise ZeroWronskianError(
                "matrix column vanished to working precision")
        if best != col:
            m[col], m[best] = m[best], m[col]
            neg = not neg
        piv = m[col][col]
        det = piv if det is None else det * piv
        for r in range(col + 1, g):
            e = m[r][col]
            if e.is_zero():
                continue
            factor = e / piv
            for cc in range(col, g):
                m[r][cc] = m[r][cc] - factor * m[col][cc]
    return -det if neg else det


def wronskian(forms):
    """Theta-Wronskian det[theta^i f_j] and its leading coefficient.

    The derivative rows use theta = q d/dq, which absorbs the 2*pi*i powers
    of the analytic Wronskian; for forms f_j = q^{c_j} + ... the leading
    coefficient is the Vandermonde determinant of the c_j.
    """
    g = len(forms)
    if g == 0:
        raise ValueError("empty basis")
    rows = [forms]
    for _ in range(g - 1):
        rows.append([theta(f) for f in rows[-1]])
    det = series_matrix_determinant([list(r) for r in rows])
    lead = det.coefficient(det.valuation)
    return det, lead


def vandermonde(pivots):
    """prod_{j < k} (c_k - c_j)."""
    v = 1
    for j in range(len(pivots)):
        for k in range(j + 1, len(pivots)):
            v *= pivots[k] - pivots[j]
    return v


def lift_to_level1(f, p, miller_cusp=None):
    """Weight-(p+1) level-1 cusp form congruent to f mod p.

    f is a weight-2 level-p form reduced mod p; the lift is read off the
    reduced echelon Miller cusp basis at the pivot coefficients, and the
    residual must vanish through the whole shared precision (it always
    does, the lift exists for every p-integral weight-2 form).
    """
    if isinstance(f, QExpansion):
        f = f.reduce_mod(p)
    if miller_cusp is None:
        miller_cusp = miller_basis_mod(p + 1, p, f.precision)[1:]
    prec = min(f.precision, min(h.precision for h in miller_cusp))
    if prec < len(miller_cusp) + 2:
        raise PrecisionError(
            f"shared precision {prec} cannot determine a weight-{p + 1} lift")
    lift = FpSeries.zero(p, prec, weight=p + 1)
    for t, h in enumerate(miller_cusp, start=1):
        c = f.coefficient(t)
        if c:
            lift = lift + h.truncate(prec).scale(c)
    if not lift.agrees_with(f, upto=prec):
        raise NoLiftError(
            f"no weight-{p + 1} level-1 lift mod {p}: residual nonzero")
    return lift


def polynomial_wronskian(polys):
    """Wronskian det[P_j^(r)] of polynomials P_1, ..., P_g over F_p.

    theta_x = x d/dx acts on the derivatives triangularly with diagonal x^r,
    so the theta-Wronskian of the P_j read as series in x is
    x^(g(g-1)/2) W_x(P).  Its degree is at most sum deg P_j, so series known
    through that degree determine it exactly.
    """
    p = polys[0].p
    n = sum(f.degree() for f in polys) + 1
    det, _ = wronskian([FpSeries(p, list(f.coeffs) + [0] * (n - len(f.coeffs)),
                                 0, n) for f in polys])
    if det.precision < n:
        raise PrecisionError(
            f"polynomial Wronskian known below x^{det.precision}, "
            f"its degree can reach {n - 1}")
    return FpPoly(p, det.coefficients(n)[len(polys) * (len(polys) - 1) // 2:])


def wronskian_divisor_polynomial(lifts, p):
    """Divisor polynomial F(W, x) of the theta-Wronskian W of weight-(p+1)
    level-1 lifts mod p, and the leading coefficient of W, on the j-line.

    Each lift is b_i = E P_i(j) with E = Delta^d Etilde, Etilde = E_4^a E_6^b
    of weight p + 1, and P_i = F(b_i, x).  Since W(h f) = h^g W(f), and by
    the chain rule with theta j = -E_4^2 E_6 / Delta,
    W = (-1)^(g(g-1)/2) Delta^e E_4^A E_6^B W_x(P)(j) with A = g a + g(g-1)
    and B = g b + g(g-1)/2.  Writing E_4^A E_6^B as
    Etilde_W (j Delta)^s ((j - 1728) Delta)^t, Etilde_W = E_4^(a_W) E_6^(b_W)
    of the weight k_W = g(g + p) of W (the weights make s and t integers),
    gives F(W, x) = monic(x^s (x - 1728)^t W_x(P)), and the leading
    coefficient of W is (-1)^(g(g-1)/2) times that of W_x(P).
    """
    g = len(lifts)
    profile = weight_profile(p + 1)
    d, (a, b) = profile.m, profile.etilde_exponents
    ctx = Level1Context(2 * d + 4, p=p)
    wx = polynomial_wronskian([divisor_polynomial(f.truncate(f.valuation + d + 2),
                                                  ctx) for f in lifts])
    half = g * (g - 1) // 2
    a_w, b_w = weight_profile(g * (g + p)).etilde_exponents
    s = (g * a + 2 * half - a_w) // 3
    t = (g * b + half - b_w) // 2
    fw = FpPoly.x(p) ** s * FpPoly.linear(p, 1728) ** t * wx
    return fw.monic(), (-1) ** half * wx.leading() % p


@dataclass
class ExtractionExponents:
    """Exponents of x and (x - 1728) cleared during the extraction."""

    p: int
    g: int
    k_tilde: int
    k_star: int
    eps_rho: int
    eps_i: int
    alpha_rho: int
    alpha_i: int
    delta_rho: int
    delta_i: int


def elliptic_exponents(p, g):
    """All elliptic-point exponents for the extraction at (p, g >= 2).

    eps_i = (g^2+g)(1 + (-1/p))/4 and eps_rho = ((g^2+g)(1 + (-3/p)) - k*)/3
    with k* = g(g+1)(p+1) mod 3; integrality of eps_rho and evenness of the
    combined x / (x-1728) exponents in the extraction are re-validated and
    raise ParityViolationError when broken.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    gg = g * g + g
    k_tilde = g * (g + 1) * (p + 1)
    k_star = k_tilde % 3
    num_i = gg * (1 + legendre(-1, p))
    if num_i % 4:
        raise ParityViolationError("eps_i is not an integer")
    eps_i = num_i // 4
    num_rho = gg * (1 + legendre(-3, p)) - k_star
    if num_rho % 3:
        raise ParityViolationError("eps_rho is not an integer")
    eps_rho = num_rho // 3
    alpha_rho = 1 if p % 3 == 2 else 0
    alpha_i = 1 if p % 4 == 3 else 0
    delta_rho, delta_i = square_divisor_exponents(g * (g + p))
    gx, g1728 = gp_exponents(g, p)
    a = gx + delta_rho - eps_rho
    b = g1728 + delta_i - eps_i
    if a % 2 or b % 2:
        raise ParityViolationError(
            f"elliptic exponents not even: x^{a}, (x-1728)^{b}")
    return ExtractionExponents(p, g, k_tilde, k_star, eps_rho, eps_i,
                               alpha_rho, alpha_i, delta_rho, delta_i)


def required_basis_precision(pivots):
    """q-expansion precision of the good basis needed by the chain: the
    cross-check window sum(c) + max(24, 4g)."""
    return sum(pivots) + max(24, 4 * len(pivots))


#: relative precision K of the exact Wronskian head: each basis form f_j is
#: cut at q^(c_j + K), which fixes the exact determinant below q^(sum c + K)
_HEAD_TERMS = 12


def cross_check_wronskian_congruence(basis, lifts, p, prec=None):
    """Check the lifts against the reduced basis forms, and an exact head of
    the rational Wronskian against the mod-p one.

    Each lift b_j must agree with the reduction of f_j coefficientwise
    through the window (the forms cut at ``prec``).  Reduction
    Z_(p)[[q]] -> F_p[[q]] is a ring map that commutes with theta, so equal
    inputs give equal Wronskians: the reduction of the exact Wronskian
    det[theta^i f_j] of the p-integral basis forms is the Wronskian of the
    reduced forms, and that of the lifts, through the window.

    The exact rational Wronskian is formed on a head only: each f_j is cut at
    q^(c_j + K), K = _HEAD_TERMS, which fixes the determinant below
    q^(sum c + K).  The one mod-p Wronskian is that of the reduced head cut.
    The leading coefficients of both must be the Vandermonde determinant V
    of the pivots, V must be a p-unit (so the normalized Wronskian det / V
    is p-integral whenever the basis is), and the exact head must reduce to
    the mod-p one.

    Returns (ok, exact head of the Wronskian, V).
    """
    forms = basis.forms
    if prec is not None:
        forms = [f.truncate(min(prec, f.precision)) for f in forms]
    window = min(f.precision for f in forms)
    v = vandermonde(basis.pivots)
    lifts_ok = len(lifts) == len(forms) and all(
        b.agrees_with(f.reduce_mod(p), upto=window)
        for f, b in zip(forms, lifts))
    head = [f.truncate(min(c + _HEAD_TERMS, f.precision))
            for f, c in zip(forms, basis.pivots)]
    det, lead = wronskian(head)
    red_det, red_lead = wronskian([f.reduce_mod(p) for f in head])
    ok = (v % p != 0 and lead == v and red_lead == v % p and lifts_ok
          and det.reduce_mod(p).agrees_with(red_det))
    return ok, det, v


def extract_Fp(p, basis, split, rng=None):
    """Run the congruence chain for one prime; returns a VerificationReport
    with the chain checks filled in (the caller merges CM and oracle checks).

    basis: GoodBasis with p-integral coefficients through the cross-check
    window (required_basis_precision); split: SupersingularSplit for p.
    """
    report = VerificationReport(p=p)
    report.g_p = basis.genus_x0
    report.g_plus = basis.g
    report.pivots = list(basis.pivots)
    report.wt_inf = basis.wt_infinity()
    report.good_basis = basis.p_integral
    report.polys["S_p"] = split.S_p
    report.polys["S_l"] = split.S_l
    report.polys["S_q"] = split.S_q
    g = basis.g

    if not basis.p_integral:
        report.status = "not_good_basis"
        return report

    if g < 2:
        # no Weierstrass points on a curve of genus < 2
        report.polys["F_p"] = FpPoly.one(p)
        report.polys["H"] = FpPoly.one(p)
        for name in ("degree_identity", "gcd_H_Sp_is_1", "exact_divisions",
                     "square_extraction"):
            report.checks[name] = True
        report.status = "ok"
        return report

    exps = elliptic_exponents(p, g)
    report.epsilon_rho = exps.eps_rho
    report.epsilon_i = exps.eps_i
    report.checks["alpha_match"] = (exps.alpha_rho == split.alpha_rho
                                    and exps.alpha_i == split.alpha_i)

    window = required_basis_precision(basis.pivots)
    if basis.precision < window:
        raise PrecisionError(
            f"basis precision {basis.precision} < required {window}")

    # lifts to level 1 mod p on the cross-check window, and the divisor
    # polynomial of their theta-Wronskian, normalized monic
    miller_cusp = miller_basis_mod(p + 1, p, window)[1:]
    lifts = [lift_to_level1(f.truncate(window), p, miller_cusp)
             for f in basis.forms]
    fw, lead = wronskian_divisor_polynomial(lifts, p)
    v = vandermonde(basis.pivots)
    report.checks["vandermonde_lead"] = (lead == v % p and v % p != 0)
    report.checks["wronskian_valuation"] = (
        fw.degree() == divisor_degree(g * (g + p)) - sum(basis.pivots))

    xpoly = FpPoly.x(p)
    x1728 = FpPoly.linear(p, 1728)
    fw2 = xpoly ** exps.delta_rho * x1728 ** exps.delta_i * fw * fw

    gpol = gp_poly(g, p)
    gg = g * g + g
    report.checks["gp_divides_Sl"] = _divides(gpol, split.S_l ** gg)

    numerator = gpol * fw2
    denominator = (xpoly ** exps.eps_rho * x1728 ** exps.eps_i
                   * (xpoly ** exps.alpha_rho * x1728 ** exps.alpha_i) ** gg
                   * split.S_tilde_l ** (2 * g))
    try:
        h1 = numerator.exact_div(denominator)
        report.checks["exact_divisions"] = True
    except InexactDivisionError:
        report.checks["exact_divisions"] = False
        report.status = "falsified"
        return report
    try:
        h = h1.sqrt()
        report.checks["square_extraction"] = True
    except Exception:
        report.checks["square_extraction"] = False
        report.status = "falsified"
        return report

    f_p = split.S_q ** (g * g - g) * h * h
    report.polys["F_p"] = f_p
    report.polys["H"] = h
    report.checks["degree_identity"] = bool(
        f_p.degree() == 2 * (g ** 3 - g - report.wt_inf))
    report.checks["gcd_H_Sp_is_1"] = bool(h.gcd(split.S_p).is_one())
    if h.degree() > 0:
        report.h_factorization = [
            ([int(c) for c in fac.coeffs], e) for fac, e in h.factor(rng)]

    # assembled divisor polynomial of the averaged Wronskian, both routes
    f_wtilde = split.S_tilde ** (g * g - g) * fw2 * gpol
    lhs = (xpoly ** exps.eps_rho * x1728 ** exps.eps_i * f_p
           * split.S_l ** (g * (g + 1)))
    report.checks["theorem_assembly"] = lhs == f_wtilde
    report.polys["F_wtilde"] = f_wtilde

    # the mod-p Wronskian congruence and p-integrality of the exact one
    ok_cross, det_exact, v_exact = cross_check_wronskian_congruence(
        basis, lifts, p, prec=window)
    report.checks["wronskian_congruence"] = ok_cross
    w_exact = det_exact.scale(Fraction(1, v_exact))
    report.checks["wronskian_p_integral"] = (
        basis.p_integral and v_exact % p != 0 and w_exact.is_p_integral(p))
    report.wronskian_head = [_series_head(w_exact, 6)]

    if not report.checks["theorem_assembly"] or not ok_cross:
        report.status = "falsified"
    return report


def _divides(a, b):
    """True iff a divides b in F_p[x]."""
    if a.is_zero():
        return b.is_zero()
    return (b % a).is_zero()


def _series_head(f, nterms=8):
    parts = []
    shown = 0
    n = f.valuation
    while shown < nterms and n < f.precision:
        c = f.coefficient(n)
        if c:
            mono = "q" if n == 1 else f"q^{n}"
            if c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}{mono}"
            parts.append(term)
            shown += 1
        n += 1
    return (" + ".join(parts).replace("+ -", "- ")
            + f" + O(q^{min(n, f.precision)})")
