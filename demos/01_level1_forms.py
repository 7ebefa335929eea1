"""
Level-1 modular forms and divisor polynomials
=============================================

Exact q-expansions of the classical level-1 forms, the Miller echelon
basis, and the polynomial F(f, x) in x = j that records where a form
vanishes away from the elliptic points.
"""

from wplus import delta, divisor_polynomial, eisenstein, j_function, miller_basis
from wplus.level1 import divisor_polynomials
from wplus.series import residue_matrix

# The Eisenstein series have exact rational coefficients built from
# Bernoulli numbers, and the discriminant comes out of them.  j comes from
# the same formulas on integers, as the list c(-1), c(0), c(1), ...
e4 = eisenstein(4, 8)
e6 = eisenstein(6, 8)
print("E_4  =", [e4.coefficient(n) for n in range(4)], "...")
print("E_6  =", [e6.coefficient(n) for n in range(4)], "...")

d = delta(8)
print("Delta =", [d.coefficient(n) for n in range(1, 5)], "(from q^1)")

print("j    =", j_function(2), "(from q^-1)")

# Dividing a weight-k form by Delta^m(k) and the elliptic-point clearing
# factor leaves a polynomial in j: the divisor polynomial.
print("F(Delta, x)  =", divisor_polynomial(delta(16)))
print("F(E_4^3, x)  =", divisor_polynomial(eisenstein(4, 16) ** 3))

# The Miller basis of M_k is integral and echelonized: h_i = q^i + O(q^{d+1}).
basis = miller_basis(24, 8)
print(f"dim M_24 = {len(basis)}")
for i, h in enumerate(basis):
    print(f"  h_{i} =", [h.coefficient(n) for n in range(4)], "...")

# Reducing a weight-(p-1) Eisenstein series mod p and extracting its divisor
# polynomial produces the supersingular polynomial with the elliptic
# j-invariants removed -- the bridge used throughout the package.  Over F_p
# a form is a row of residues, and divisor_polynomials peels every row of a
# matrix at once.
e66 = residue_matrix([eisenstein(66, 30)], 67, 30)
print("E_66 reduces to 1 mod 67:", e66[0, :6].tolist())
print("F(E_66, x) mod 67 =", divisor_polynomials(e66, 66, 67)[0])
