"""
Modular symbols and the echelon basis of the invariant cusp forms
=================================================================

Weight-2 modular symbols for Gamma_0(p) present the cusp forms exactly over
Q.  Since every form of prime level is new, the Atkin-Lehner involution
acts on the cuspidal subspace as -U_p, and its +1 eigenspace corresponds to
the quotient curve.  For one cyclic vector x of that eigenspace, each
coordinate of T_n x read as the coefficient of q^n is a form; echelonizing
these gives the unique basis f_i = q^{c_i} + ... with increasing pivots.
"""

from wplus import ModSymSpace, good_basis
from wplus.weierstrass import basis_heads

space = ModSymSpace(67)
print("p = 67: quotient dimension", space.dim, " genus of X_0(67) =", space.genus)

gb = good_basis(67, 12)
print("dimension of the +1 eigenspace:", gb.g)
print("pivots:", gb.pivots, " p-integral:", gb.p_integral)
for i, head in enumerate(basis_heads(gb)):
    print(f"  f_{i + 1} =", head)

# The cusp of the quotient curve is a Weierstrass point exactly when the
# pivots are not 1..g.  For p = 67 they are; p = 109 is the first prime
# where a pivot is skipped.
print("\nwt(infinity) at 67:", gb.wt_infinity())
gb109 = good_basis(109, 30)
print("p = 109: pivots", gb109.pivots, "-> wt(infinity) =", gb109.wt_infinity())

# The genus-0 quotients (the small "moonshine" primes) have empty bases.
print("\nquotient genus at p = 71:", good_basis(71, 10).g)
