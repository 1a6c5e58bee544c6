"""The exact character ring and the Demazure / Freudenthal character pipelines.

A character polynomial is a finitely supported map from weights to nonzero
integer coefficients.  The Demazure operator is applied monomial by
monomial through its closed form, so no power-series division appears
anywhere; the Freudenthal recursion is an independent route to the same
multiplicities and is kept free of Demazure-operator code.
"""

from __future__ import annotations

from itertools import product

from . import weyl
from .linalg import mat_vec
from .root_data import (
    GeneralizedCartanMatrix,
    RootVector,
    Weight,
    _require_finite,
    dominant_weight,
    pairing_root_root,
    pairing_weight_root,
    positive_roots,
)


class CharacterPolynomial:
    """Finitely supported integer linear combination of formal weight exponentials."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        data: dict[Weight, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for weight, coeff in items:
            weight = tuple(weight)
            if len(weight) != n:
                raise ValueError(f"exponent {weight} has size {len(weight)}, expected {n}")
            total = data.get(weight, 0) + coeff
            if total:
                data[weight] = total
            elif weight in data:
                del data[weight]
        self._terms = data

    @classmethod
    def monomial(cls, weight: Weight, coeff: int = 1) -> "CharacterPolynomial":
        return cls(len(weight), [(tuple(weight), coeff)])

    def coefficient(self, weight: Weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def coefficient_sum(self) -> int:
        return sum(self._terms.values())

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        """Terms sorted by exponent in descending lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def support(self) -> set[Weight]:
        return set(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "CharacterPolynomial") -> "CharacterPolynomial":
        if self.n != other.n:
            raise ValueError("cannot add characters over different ranks")
        out = dict(self._terms)
        for w, c in other._terms.items():
            total = out.get(w, 0) + c
            if total:
                out[w] = total
            elif w in out:
                del out[w]
        return CharacterPolynomial(self.n, out)

    def __sub__(self, other: "CharacterPolynomial") -> "CharacterPolynomial":
        return self + other.scaled(-1)

    def scaled(self, c: int) -> "CharacterPolynomial":
        if c == 0:
            return CharacterPolynomial(self.n)
        return CharacterPolynomial(self.n, {w: c * v for w, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharacterPolynomial)
                and self.n == other.n and self._terms == other._terms)

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return f"CharacterPolynomial({self.n}, 0 terms)"
        head = ", ".join(f"{c}*e{list(w)}" for w, c in self.sorted_terms()[:4])
        more = "" if len(self._terms) <= 4 else f", ... ({len(self._terms)} terms)"
        return f"CharacterPolynomial({self.n}, {head}{more})"


def canonical_serialize(poly: CharacterPolynomial) -> str:
    """One term per line, "c*e[m1,...,mn]", descending lexicographic exponents."""
    return "\n".join(
        f"{c}*e[{','.join(str(x) for x in w)}]" for w, c in poly.sorted_terms())


def demazure_op(gcm: GeneralizedCartanMatrix, poly: CharacterPolynomial,
                i: int) -> CharacterPolynomial:
    """Demazure operator D_i by its closed form on monomials.

    With m = <mu, alpha_i^vee>:  m >= 0 gives the string from e(mu) down to
    e(s_i mu); m = -1 gives 0; m <= -2 gives minus the interior string.
    """
    alpha = gcm.simple_root(i)
    terms: list[tuple[Weight, int]] = []
    for mu, c in poly._terms.items():
        m = mu[i]
        if m >= 0:
            for k in range(m + 1):
                terms.append((tuple(x - k * a for x, a in zip(mu, alpha)), c))
        elif m <= -2:
            for k in range(1, -m):
                terms.append((tuple(x + k * a for x, a in zip(mu, alpha)), -c))
    return CharacterPolynomial(gcm.n, terms)


def demazure_character(gcm: GeneralizedCartanMatrix, lam: Weight,
                       word) -> CharacterPolynomial:
    """Demazure character: D_{i1} ... D_{ik} e(lam) along a reduced word.

    The input word is canonicalized to the reduced word of its element, so
    non-reduced input is accepted.
    """
    lam = dominant_weight(gcm, lam)
    reduced = weyl.reduced_word(gcm, word)
    poly = CharacterPolynomial.monomial(lam)
    for i in reversed(reduced):
        poly = demazure_op(gcm, poly, i)
    return poly


def freudenthal_character(gcm: GeneralizedCartanMatrix, lam: Weight) -> CharacterPolynomial:
    """Weight multiplicities of the irreducible module by the Freudenthal recursion.

    Independent of the Demazure-operator route; used as the multiplicity
    oracle throughout the tests.
    """
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    n = gcm.n
    lowest = weyl.act(gcm, weyl.longest_element(gcm), lam)
    beta_max = gcm.root_coords(tuple(l - w for l, w in zip(lam, lowest)))
    positives = positive_roots(gcm)

    # (lam, alpha) and (gamma, alpha) contractions, all integers
    lam_dot = {alpha: pairing_weight_root(gcm, lam, alpha) for alpha in positives}
    root_rows = {alpha: tuple(pairing_root_root(gcm, _unit(n, i), alpha) for i in range(n))
                 for alpha in positives}

    mult: dict[RootVector, int] = {(0,) * n: 1}
    box = sorted(product(*(range(b + 1) for b in beta_max)), key=lambda b: (sum(b), b))
    for beta in box:
        if sum(beta) == 0:
            continue
        rhs = 0
        for alpha in positives:
            row = root_rows[alpha]
            k = 1
            while True:
                gamma = tuple(b - k * a for b, a in zip(beta, alpha))
                if any(g < 0 for g in gamma):
                    break
                m = mult.get(gamma, 0)
                if m:
                    rhs += m * (lam_dot[alpha] - sum(g * r for g, r in zip(gamma, row)))
                k += 1
        if rhs == 0:
            continue
        rhs *= 2
        # |lam+rho|^2 - |mu+rho|^2 for mu = lam - beta
        denom = (2 * sum(gcm.symmetrizer[j] * (lam[j] + 1) * beta[j] for j in range(n))
                 - pairing_root_root(gcm, beta, beta))
        assert denom > 0, f"nonpositive Freudenthal denominator at {beta}"
        quotient, remainder = divmod(rhs, denom)
        assert remainder == 0, f"non-integral multiplicity at {beta}"
        mult[beta] = quotient

    terms = [(tuple(l - c for l, c in zip(lam, gcm.weight_of_root(beta))), m)
             for beta, m in mult.items()]
    return CharacterPolynomial(n, terms)


def _unit(n: int, i: int) -> RootVector:
    return tuple(1 if j == i else 0 for j in range(n))


def map_character(folding, poly: CharacterPolynomial) -> CharacterPolynomial:
    """Push a folded-side character through the weight lift, exponent by exponent.

    ``folding`` only needs a ``weight_lift`` attribute (n rows, one column
    per folded node); coefficients are untouched and the map is injective
    on supports.
    """
    lift = folding.weight_lift
    n_folded = len(lift[0])
    if poly.n != n_folded:
        raise ValueError(f"character rank {poly.n} does not match folded rank {n_folded}")
    terms = [(mat_vec(lift, w), c) for w, c in poly._terms.items()]
    return CharacterPolynomial(len(lift), terms)
