"""Wronskians, level-1 lifts, and the mod-p divisor polynomial of the
Weierstrass points of the Atkin-Lehner quotient curve.

The chain runs on int64 residue matrices, one row per form: reduce the good
basis mod p at its precision, from its integer numerator rows with one
modular inverse of each form's denominator; lift each form f_i to a
weight-(p+1) level-1 cusp form b_i = Delta^d Etilde P_i(j) mod p, one
product of its coefficients with the Miller cusp basis; peel all divisor
polynomials P_i off the lifts in one elimination; read the divisor
polynomial of the theta-Wronskian W of the lifts (weight g(g+p)) off the
Wronskian W_x(P) of the P_i on the j-line, computed by evaluation at roots
of unity in F_{p^2}, one batched elimination and interpolation; take H by
one exact division, x^u (x - 1728)^v F(W) / S~_l^g, whose square is F(W)^2
with the square-case correction made and the elliptic-point and
linear-supersingular factors divided out (extract_Fp), and

    F_p(x) = S_q(x)^{g^2 - g} * H(x)^2  (mod p).

The assembly of the averaged Wronskian is checked in closed form, by three
identities of low degree (theorem_assembly); no g^2-th power is formed.

The cross-check compares the lifts with the reduced forms, and an exact
head of the Wronskian, by Bareiss elimination over Z[q]/(q^K) on the
numerator rows with their denominators D_j, with the head of the one mod-p
Wronskian, W = lead D F(W)(j), expanded from the top K coefficients of
F(W) (level1.divisor_expansion).  The exact head stays on integers over one
denominator (ExactHead), and the report prints it from them.
Every division is checked exact and every forced parity is checked even;
any failure is a falsifier, not an input error.  extract_Fp writes what the
chain finds into the report that verify_prime is filling and sets no
status: a failed check stays in report.checks, and report.settle() reads
it as a falsifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, prod

import numpy as np

from .errors import (ConsistencyError, InexactDivisionError, NoLiftError,
                     ParityViolationError, PrecisionError,
                     ZeroWronskianError)
from .fppoly import Fp2, FpPoly, legendre
# divisor_polynomial stays importable from this module
from .level1 import (divisor_degree, divisor_expansion,
                     divisor_polynomial,  # noqa: F401
                     divisor_polynomials, gp_exponents, gp_poly,
                     miller_basis_mod, monomials_mod,
                     square_divisor_exponents, weight_profile)
from .linalg import exact_matmul


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
    coefficient is the Vandermonde determinant of the c_j.  The chain forms
    its exact Wronskian head by integer_wronskian, and the mod-p Wronskian
    only on the j-line (wronskian_divisor_polynomial); this series route
    serves the tests as their oracle.
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


def lift_to_level1(forms, p, miller=None):
    """Weight-(p+1) level-1 cusp forms congruent mod p to weight-2 forms of
    level p.

    forms holds the residues of q^0 .. q^(n-1) of one reduced form, or of
    several, one per row (GoodBasis.residues); miller is
    miller_basis_mod(p + 1, p, n), built when None.  The lift of f is
    sum_t a_t(f) h_t over the Miller cusp rows h_1 .. h_d, so the lifts are
    the one product F[..., 1:d+1] @ M[1:] mod p (linalg.exact_matmul), on
    the window the two share.  It must equal the forms there (it always
    does: every p-integral weight-2 form of level p is congruent to a
    level-1 form of weight p + 1), else NoLiftError.  Returns the lifts'
    int64 residues on that window.
    """
    if miller is None:
        miller = miller_basis_mod(p + 1, p, forms.shape[-1])
    d = len(miller) - 1
    n = min(forms.shape[-1], miller.shape[1])
    if n < d + 2:
        raise PrecisionError(
            f"shared precision {n} cannot determine a weight-{p + 1} lift")
    lifts = exact_matmul(forms[..., 1:d + 1], miller[1:, :n]) % p
    if not np.array_equal(lifts, forms[..., :n]):
        raise NoLiftError(
            f"no weight-{p + 1} level-1 lift mod {p}: residual nonzero")
    return lifts.astype(np.int64)


#: evaluation points per block in polynomial_wronskian: a block holds g^2
#: values and a (g - 1)^2 elimination update per point, so blocks bound the
#: temporaries, which for all 1680 points at p = 1009 (g = 37) would take
#: tens of MB
_BLOCK_POINTS = 32


def polynomial_wronskian(polys):
    """Wronskian det[P_j^(r)] of polynomials P_1, ..., P_g over F_p, by
    evaluation and interpolation (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 5 and 10).

    Every term of the determinant has degree at most
    B = sum deg P_j - g(g-1)/2.  The points are the powers of an element
    zeta of order N, the least divisor of p^2 - 1 above B, in F_{p^2} (they
    lie in F_p when N divides p - 1).  The derivative coefficients are in
    F_p, so the g^2 entries at a block of points are two products with the
    parts of the Vandermonde block [zeta^(nk)], and a block's share of the
    inverse DFT of length N, which returns the coefficients, is one
    Fp2.matvec: all of them by linalg.exact_matmul, exact at any p.  One
    elimination runs over the block at once (Fp2.det).

    Raises OverflowError from Fp2, before the F_{p^2} arithmetic, when one
    of its int64 sums could wrap; ZeroWronskianError when the Wronskian is
    0; ConsistencyError, which is no falsifier, when a coefficient leaves
    F_p or lies above B.
    """
    p, g = polys[0].p, len(polys)
    width = max(f.degree() for f in polys) + 1
    # entries[r, j] holds the coefficients of P_j^(r), low degree first
    entries = np.zeros((g, g, width), dtype=np.int64)
    for j, f in enumerate(polys):
        entries[0, j, :len(f.coeffs)] = f.coeffs
    scale = np.arange(1, width, dtype=np.int64) % p
    for r in range(1, g):
        entries[r, :, :-1] = entries[r - 1, :, 1:] * scale % p
    return _determinant_by_interpolation(
        entries, p, sum(f.degree() for f in polys) - g * (g - 1) // 2)


def _determinant_by_interpolation(entries, p, bound):
    """det of the g x g matrix of polynomials over F_p whose (r, j) entry
    has the coefficients entries[r, j], given that the determinant has
    degree at most bound; see polynomial_wronskian."""
    g, _, width = entries.shape
    order = p * p - 1
    n_points = next((n for n in range(max(bound, 0) + 1, order + 1)
                     if order % n == 0), None)
    if n_points is None:
        raise ValueError(f"degree bound {bound} exceeds the {order} points "
                         f"of F_{p}^2")
    field = Fp2(p)
    pw_re, pw_im = field.roots_of_unity(n_points)
    flat = entries.reshape(g * g, width)
    exps = np.arange(width, dtype=np.int64)
    every = np.arange(n_points, dtype=np.int64)
    coeffs = np.zeros(n_points, dtype=np.int64), np.zeros(n_points,
                                                           dtype=np.int64)
    for start in range(0, n_points, _BLOCK_POINTS):
        block = every[start:start + _BLOCK_POINTS]
        forward = np.outer(exps, block) % n_points
        mats = tuple((exact_matmul(flat, pw[forward]) % p).astype(np.int64)
                     .T.reshape(-1, g, g) for pw in (pw_re, pw_im))
        values = field.det(mats)
        back = -np.outer(block, every) % n_points
        part = field.matvec(values, (pw_re[back], pw_im[back]))
        coeffs = tuple((c + d) % p for c, d in zip(coeffs, part))
    scale = pow(n_points, -1, p)
    re, im = (c * scale % p for c in coeffs)
    if not (re.any() or im.any()):
        raise ZeroWronskianError(
            f"determinant vanished at all {n_points} points")
    if im.any() or re[bound + 1:].any():
        raise ConsistencyError(
            f"interpolated determinant has coefficients outside F_{p} or "
            f"above its degree bound {bound}")
    return FpPoly(p, re[:bound + 1])


def wronskian_divisor_polynomial(lifts, p, monos=None):
    """Divisor polynomial F(W, x) of the theta-Wronskian W of weight-(p+1)
    level-1 lifts mod p, and the leading coefficient of W, on the j-line.

    The lifts are rows of residues, as lift_to_level1 returns them; monos
    is monomials_mod(p + 1, p, n) on their window n, built when None.  Each
    lift is b_i = E P_i(j) with E = Delta^d Etilde, Etilde = E_4^a E_6^b of
    weight p + 1, and P_i = F(b_i, x).  Since W(h f) = h^g W(f), and by
    the chain rule with theta j = -E_4^2 E_6 / Delta,
    W = (-1)^(g(g-1)/2) Delta^e E_4^A E_6^B W_x(P)(j) with A = g a + g(g-1)
    and B = g b + g(g-1)/2.  Writing E_4^A E_6^B as
    Etilde_W (j Delta)^s ((j - 1728) Delta)^t, Etilde_W = E_4^(a_W) E_6^(b_W)
    of the weight k_W = g(g + p) of W (the weights make s and t integers),
    gives F(W, x) = monic(x^s (x - 1728)^t W_x(P)), and the leading
    coefficient of W is (-1)^(g(g-1)/2) times that of W_x(P).
    """
    g = len(lifts)
    a, b = weight_profile(p + 1).etilde_exponents
    wx = polynomial_wronskian(divisor_polynomials(lifts, p + 1, p, monos))
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


def _truncated_product(a, b):
    """Products of series over Z cut to the K terms of the last axis, over
    the broadcast leading axes of the int object arrays a and b."""
    terms = a.shape[-1]
    out = a * b[..., :1]
    for m in range(1, terms):
        out[..., m:] += a[..., :terms - m] * b[..., m:m + 1]
    return out


def _exact_quotient(num, den):
    """num / den in Z[q]/(q^K), entrywise over the leading axes of num, for a
    series den with a nonzero constant term.  The quotient is unique;
    ConsistencyError unless every coefficient of it is an integer."""
    out = np.empty_like(num)
    for n in range(num.shape[-1]):
        acc = num[..., n] - (out[..., :n] * den[n:0:-1]).sum(axis=-1)
        if (acc % den[0]).any():
            raise ConsistencyError(
                f"inexact Bareiss division at q^{n}: remainder mod {den[0]}")
        out[..., n] = acc // den[0]
    return out


def _bareiss_det(mat):
    """Determinant of a g x g matrix over Z[q]/(q^K), given as an int object
    array of shape (g, g, K), by Bareiss's fraction-free elimination
    (Math. Comp. 22, 1968) with no pivot search, in place.

    Step k replaces each entry m_ij below and right of the pivot m_kk by
    (m_kk m_ij - m_ik m_kj) / m_(k-1)(k-1), a (k + 2)-minor of the input, so
    every division is exact.  Each one is checked, and each pivot must have
    a nonzero constant term, a leading minor of the constant terms (all but
    the last pivot divide the next step); ConsistencyError otherwise.  A
    division by a series with constant term +-1 cannot leave a remainder, so
    a fault before it shows only in the result.
    """
    g = mat.shape[0]
    prev = None
    for k in range(g):
        piv = mat[k, k]
        if piv[0] == 0:
            raise ConsistencyError(f"Bareiss pivot {k} has constant term 0")
        if k + 1 < g:
            rest = (_truncated_product(piv, mat[k + 1:, k + 1:])
                    - _truncated_product(mat[k + 1:, k:k + 1],
                                         mat[k:k + 1, k + 1:]))
            mat[k + 1:, k + 1:] = (rest if prev is None
                                   else _exact_quotient(rest, prev))
        prev = piv
    return prev


@dataclass(frozen=True)
class ExactHead:
    """A head of a series over Q on integers: the coefficient of
    q^(valuation + n) is num[n] / den for n < len(num), with num a tuple of
    ints and den > 0."""

    num: tuple
    den: int
    valuation: int

    @property
    def precision(self):
        return self.valuation + len(self.num)

    def least_denominator(self):
        """The least common denominator of the coefficients."""
        return self.den // gcd(self.den, *self.num)

    def reduce_mod(self, p):
        """(residues, valuation) of the head mod p, for den prime to p: the
        int64 residues of the coefficients of q^valuation .. q^(precision-1).
        """
        inv = pow(self.den, -1, p)
        return (np.array([c * inv % p for c in self.num], dtype=np.int64),
                self.valuation)


def integer_wronskian(rows, dens, valuations):
    """Exact theta-Wronskian det[theta^i f_j] of forms with rational
    coefficients, through relative precision K, by fraction-free elimination
    over Z[q]/(q^K).  Form j is f_j = q^(c_j) u_j, c_j = valuations[j],
    with u_j = (rows[j, 0] + rows[j, 1] q + ...) / D_j + O(q^K), D_j =
    dens[j] and rows a g x K integer array; returns the ExactHead of the
    Wronskian, of valuation sum c and relative precision K.

    theta^i (q^c u) = q^c (theta + c)^i u.  The rows theta^i are traded for
    the binomial rows C(theta, i), a triangular change with diagonal 1/i!,
    so the entries C(theta + c_j, i) D_j u_j are integer series whose minors
    are far shorter integers than those of (theta + c_j)^i D_j u_j, and the
    Wronskian is
    q^(sum c) prod_(i<g) i! det / prod D_j.  The constant terms of the matrix
    are C(c_j, i) D_j lead(f_j); its leading k x k minors are
    prod D_j lead(f_j) V(c_0, ..., c_(k-1)) / prod_(i<k) i!, nonzero for
    distinct c_j, so Bareiss's elimination needs no pivot search
    (_bareiss_det).  Raises ConsistencyError if an elimination check fails.
    """
    g, terms = len(rows), rows.shape[1]
    mat = np.empty((g, g, terms), dtype=object)
    mat[0] = rows
    shifts = np.array([[c + n for n in range(terms)] for c in valuations],
                      dtype=object)
    for i in range(1, g):
        # C(x, i) = C(x, i - 1) (x - i + 1) / i, exactly
        mat[i] = mat[i - 1] * (shifts - (i - 1)) // i
    scale = prod(factorial(i) for i in range(g))
    return ExactHead(tuple(int(c) * scale for c in _bareiss_det(mat)),
                     prod(dens), sum(valuations))


#: relative precision K of the exact Wronskian head: each basis form f_j is
#: cut at q^(c_j + K), which fixes the exact determinant below q^(sum c + K);
#: integer_wronskian eliminates over Z[q]/(q^K)
_HEAD_TERMS = 12


def cross_check_wronskian_congruence(basis, lifts, fw, lead):
    """Check the lifts against the reduced basis forms, and an exact head of
    the rational Wronskian against the mod-p one on the j-line.

    Each lift b_j (a row of residues, as lift_to_level1 returns them) must
    agree with the reduction of f_j coefficientwise through the window they
    share (the basis precision, in extract_Fp).  Reduction
    Z_(p)[[q]] -> F_p[[q]] is a ring map that commutes with theta, and a
    coefficient of det[theta^i f_j] below q^(sum c + K) sums products of
    a_j(n_j) with c_j <= n_j < c_j + K; so on a window of at least
    max c + K, below q^(sum c + K), the reduction of the exact Wronskian of
    the p-integral basis forms is the Wronskian of the reduced forms and
    that of the lifts.

    The exact Wronskian is formed on a head only: each f_j is cut at
    q^(c_j + K), K = _HEAD_TERMS, which fixes the determinant below
    q^(sum c + K).  It is computed on integers (integer_wronskian): with
    each column the numerator row of f_j over its denominator D_j from the
    basis and q^(c_j) taken out, Bareiss's elimination over Z[q]/(q^K) on
    the binomial rows checks every division exact.  The one mod-p Wronskian
    is that of the lifts on the j-line, W = lead D F(W)(j) with
    D = Delta^m Etilde of the weight g(g + p) of W and fw = F(W), lead as
    wronskian_divisor_polynomial returns them; its head from q^(sum c) on
    reads only the top K coefficients of F(W) (level1.divisor_expansion),
    so it shares no arithmetic with the Bareiss kernel.  The leading
    coefficient of the exact head must be the Vandermonde determinant V of
    the pivots, V must be a p-unit (so the normalized Wronskian det / V is
    p-integral whenever the basis is), and the exact head must reduce to
    the mod-p one, in valuation (deg F(W) = m - sum c) and in each of its
    K coefficients.

    Returns (ok, ExactHead of the Wronskian, V).
    """
    p, g = basis.p, basis.g
    v = vandermonde(basis.pivots)
    reduced = basis.residues()
    n = min(reduced.shape[1], lifts.shape[1])
    lifts_ok = len(lifts) == g and np.array_equal(
        lifts[:, :n], reduced[:, :n])
    cuts = np.array(basis.pivots)[:, None] + np.arange(
        min(_HEAD_TERMS, basis.precision - max(basis.pivots)))
    det = integer_wronskian(np.take_along_axis(basis.num, cuts, axis=1),
                            basis.den, basis.pivots)
    # det.den = prod D_j is a p-unit: basis.residues has checked each D_j
    exact_det, exact_val = det.reduce_mod(p)
    k_w = g * (g + p)
    ok = (v % p != 0 and det.num[0] == v * det.den and lifts_ok
          and divisor_degree(k_w) - fw.degree() == exact_val)
    if ok:
        head, _ = divisor_expansion(fw, k_w, len(exact_det))
        ok = np.array_equal(exact_det, lead * head % p)
    return ok, det, v


def theorem_assembly(split, elliptic, h, numerator, denominator):
    """The assembled identity of the averaged Wronskian, in closed form.

    With g the genus, E = x^alpha_rho (x - 1728)^alpha_i (elliptic), and
    num, den, N (numerator) and D (denominator) as in extract_Fp, the
    identity is

        x^eps_rho (x - 1728)^eps_i F_p S_l^(g^2+g) = F_W~,
        F_p = S_q^(g^2-g) H^2,  F_W~ = S~^(g^2-g) num.

    This checks three identities of low degree in its place:
      (i) S~ = S~_l S_q,  (ii) S_l = E S~_l,  (iii) H D = N.
    For a monic H, (iii) is H^2 den = num: as num / den = (N / D)^2, the
    latter is (H D)^2 = N^2, so H D = +-N in the integral domain F_p[x],
    and both are monic.  They imply the identity: its left side is then
    x^eps_rho (x - 1728)^eps_i S_q^(g^2-g) H^2 E^(g^2+g) S~_l^(g^2+g) =
    H^2 den (S~_l S_q)^(g^2-g) = num S~^(g^2-g), the right side.
    Conversely, when the split's E is this E (the alpha_match check), (i)
    and (ii) hold: ss_polys forms S_p = E S~, then S_q = S_p / S_l and
    S~_l = S_l / E by exact divisions, which gives (ii), and (i) by
    cancelling E.  The identity then reads H^2 den S~^(g^2-g) =
    num S~^(g^2-g); S~ is monic, so nonzero, and it cancels to (iii).  So
    both forms agree whenever alpha_match holds, and without it
    verify_prime reports falsified either way; neither F(W)^2 nor a power
    of degree about g^2 deg S_p is formed.  The expanded product stays in
    the tests as this check's oracle.
    """
    return (split.S_tilde == split.S_tilde_l * split.S_q
            and split.S_l == elliptic * split.S_tilde_l
            and h * denominator == numerator)


def extract_Fp(report, basis, split):
    """Run the congruence chain for one prime, writing its checks, F_p, H,
    the epsilons and the Wronskian head into report, the
    VerificationReport that verify_prime fills; the status is left to
    report.settle().

    basis: GoodBasis, p-integral, read at its own precision P >= max c + K,
    K = _HEAD_TERMS (PrecisionError otherwise); split: SupersingularSplit.

    P = (p + 1)//6 + 12, as verify_prime builds it, holds all the chain
    reads.  The head: c_j <= (p + 1)/6 by the Sturm bound (sturm_pivots),
    so c_j + K <= P.  The lifts: the divisor polynomials need
    c_j + m(p+1) + 2 terms of each, and are peeled off the whole window.
    w_p swaps the cusps, so q is a local parameter at infinity on X_0^+(p)
    and the c_j are gaps there: c_j <= 2g - 1 <= g(X_0(p)) <= (p + 1)/12
    by Riemann-Hurwitz, and m(p+1) <= (p + 1)/12, so
    c_j + m(p+1) + 2 <= (p + 1)//6 + 2 < P.  p-integrality is decided
    through the Sturm bound, the same at P as on any longer window; and
    lifts that agree with the forms through P >= max c + K are what the
    cross-check's W(f) = W(b) below q^(sum c + K) needs.

    H is the monic square root of num / den, with
    num = x^gx (x - 1728)^g1728 x^delta_rho (x - 1728)^delta_i F(W)^2
    (gp_exponents) and den = x^eps_rho (x - 1728)^eps_i E^(g^2+g) S~_l^(2g).
    With g^2 + g even, and gx + delta_rho - eps_rho and
    g1728 + delta_i - eps_i even (elliptic_exponents), u and v in
    num / den = x^(2u) (x - 1728)^(2v) (F(W) / S~_l^g)^2 are integers
    (square_extraction), and num / den = (N / D)^2 with the monic
        N = x^max(u,0) (x - 1728)^max(v,0) F(W),
        D = x^max(-u,0) (x - 1728)^max(-v,0) S~_l^g.
    In the unique factorization domain F_p[x], D^2 divides N^2 exactly
    when D divides N (exact_divisions), and the monic square root is then
    H = N / D: F(W)^2, num, den and a square root are never formed.
    """
    p, g = basis.p, basis.g

    if g < 2:
        # no Weierstrass points on a curve of genus < 2
        report.polys["F_p"] = FpPoly.one(p)
        report.polys["H"] = FpPoly.one(p)
        for name in ("degree_identity", "gcd_H_Sp_is_1", "exact_divisions",
                     "square_extraction"):
            report.checks[name] = True
        return

    exps = elliptic_exponents(p, g)
    report.epsilon_rho = exps.eps_rho
    report.epsilon_i = exps.eps_i
    report.checks["alpha_match"] = (exps.alpha_rho == split.alpha_rho
                                    and exps.alpha_i == split.alpha_i)

    window = basis.precision
    if window < max(basis.pivots) + _HEAD_TERMS:
        raise PrecisionError(
            f"basis precision {window} < max(c) + {_HEAD_TERMS} = "
            f"{max(basis.pivots) + _HEAD_TERMS}")

    # lifts to level 1 mod p at the basis precision, one lift_to_level1
    # product per form against one Miller basis, and the divisor
    # polynomial of their theta-Wronskian, normalized monic; the Miller
    # basis and the divisor polynomials share one set of monomial rows
    monos = monomials_mod(p + 1, p, max(window, divisor_degree(p + 1) + 2))
    miller = miller_basis_mod(p + 1, p, window, monos)
    lifts = np.array([lift_to_level1(f, p, miller)
                      for f in basis.residues()])
    fw, lead = wronskian_divisor_polynomial(lifts, p, monos)
    vdm = vandermonde(basis.pivots)
    report.checks["vandermonde_lead"] = (lead == vdm % p and vdm % p != 0)
    report.checks["wronskian_valuation"] = (
        fw.degree() == divisor_degree(g * (g + p)) - sum(basis.pivots))

    # gp_poly checks its product form against the closed form gp_exponents,
    # which u and v read
    gp_poly(g, p)
    gx, g1728 = gp_exponents(g, p)
    gg = g * g + g
    report.checks["gp_divides_Sl"] = gp_divides_power(g, p, split.S_l)

    twice_u = gx + exps.delta_rho - exps.eps_rho - gg * exps.alpha_rho
    twice_v = g1728 + exps.delta_i - exps.eps_i - gg * exps.alpha_i
    if twice_u % 2 or twice_v % 2:
        report.checks["square_extraction"] = False
        return
    u, v = twice_u // 2, twice_v // 2
    xpoly = FpPoly.x(p)
    x1728 = FpPoly.linear(p, 1728)
    elliptic = xpoly ** exps.alpha_rho * x1728 ** exps.alpha_i
    numerator = xpoly ** max(u, 0) * x1728 ** max(v, 0) * fw
    denominator = (xpoly ** max(-u, 0) * x1728 ** max(-v, 0)
                   * split.S_tilde_l ** g)
    try:
        h = numerator.exact_div(denominator)
    except InexactDivisionError:
        report.checks["exact_divisions"] = False
        return
    # in the order the JSON and text reports list them
    report.checks["exact_divisions"] = True
    report.checks["square_extraction"] = True

    f_p = split.S_q ** (g * g - g) * h * h
    report.polys["F_p"] = f_p
    report.polys["H"] = h
    report.checks["degree_identity"] = bool(
        f_p.degree() == 2 * (g ** 3 - g - basis.wt_infinity()))
    report.checks["gcd_H_Sp_is_1"] = bool(h.gcd(split.S_p).is_one())

    # the assembled identity of the averaged Wronskian, in closed form
    report.checks["theorem_assembly"] = theorem_assembly(
        split, elliptic, h, numerator, denominator)

    # the exact Wronskian head against the j-line one, and p-integrality of
    # the exact one
    ok_cross, det_exact, v_exact = cross_check_wronskian_congruence(
        basis, lifts, fw, lead)
    report.checks["wronskian_congruence"] = ok_cross
    w_exact = ExactHead(det_exact.num, det_exact.den * v_exact,   # W / V
                        det_exact.valuation)
    report.checks["wronskian_p_integral"] = (
        basis.p_integral and v_exact % p != 0
        and w_exact.least_denominator() % p != 0)
    report.wronskian_head = [_series_head(w_exact, 6)]


def _root_multiplicity(f, r):
    """Multiplicity of r as a root of the nonzero polynomial f over F_p."""
    m = 0
    while f.degree() > 0 and f.evaluate(r) == 0:
        f = f.exact_div(FpPoly.linear(f.p, r))
        m += 1
    return m


def gp_divides_power(g, p, s_l):
    """Whether gp = x^a (x - 1728)^b (gp_poly) divides S_l^(g^2 + g) in
    F_p[x].  By unique factorization this holds exactly when
    a <= (g^2 + g) m_0 and b <= (g^2 + g) m_1728, m_r the multiplicity of r
    as a root of S_l (1728 is a unit mod p >= 5), so the power is never
    formed."""
    a, b = gp_exponents(g, p)
    gg = g * g + g
    return (a <= gg * _root_multiplicity(s_l, 0)
            and b <= gg * _root_multiplicity(s_l, 1728))


def _term(c, den, n):
    """The term (c / den) q^n as the report prints it, c / den in lowest
    terms."""
    k = gcd(c, den)
    a, b = c // k, den // k
    mono = "q" if n == 1 else f"q^{n}"
    if b == 1 and a in (1, -1):
        return mono if a == 1 else f"-{mono}"
    return (f"{a}" if b == 1 else f"{a}/{b}") + mono


def _series_head(head, nterms=8):
    """The first nterms nonzero terms of an ExactHead, then O(q^N) with N
    the exponent after the last term shown, or the precision."""
    parts = []
    n = head.valuation
    for c in head.num:
        if len(parts) == nterms:
            break
        if c:
            parts.append(_term(c, head.den, n))
        n += 1
    return " + ".join(parts).replace("+ -", "- ") + f" + O(q^{n})"


def basis_heads(basis, nterms=8):
    """The printed head of each form of a GoodBasis."""
    return [_series_head(ExactHead(tuple(row), d, 0), nterms)
            for row, d in zip(basis.num.tolist(), basis.den)]
