"""Products in F_p[x] by Kronecker substitution on Python ints (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 8), the oracle of
`fppoly.convolve_mod`.

Each polynomial, its coefficients reduced into [0, p), is packed into one
integer with coefficient i at bit i * width, where 2^width exceeds every
coefficient of the product over Z.  One multiplication of Python ints then
holds that product, slot by slot, without carries between slots; unpacking
and reducing mod p gives the product in F_p[x].  It shares no code with the
package and no arithmetic with `np.convolve`.
"""


def kronecker_product(a, b, p, n=None):
    """The coefficients, low degree first, of a * b mod p, for coefficient
    lists a and b: the first n, zero-padded, or all of them when n is
    None."""
    a = [int(c) % p for c in a]
    b = [int(c) % p for c in b]
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    mask = (1 << width) - 1

    def pack(coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out << width | c
        return out

    product = pack(a) * pack(b)
    out = [(product >> (i * width) & mask) % p
           for i in range(len(a) + len(b) - 1)]
    if n is None:
        return out
    return (out + [0] * n)[:n]
