"""The folded route: Demazure characters and the weight lift.

The Demazure operator is applied monomial by monomial through its closed
form, so no power-series division appears anywhere.  ``map_character``
pushes a character of the folded side through the weight lift, exponent by
exponent.  Nothing here reaches the word model: the two routes meet only
in the root layer (``root_data``, ``linalg``, ``errors``, ``weyl``).
"""

from __future__ import annotations

from . import weyl
from .root_data import (
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    Weight,
    dominant_weight,
)


def canonical_serialize(poly: CharacterPolynomial) -> str:
    """One term per line, "c*e[m1,...,mn]", descending lexicographic exponents.

    >>> print(canonical_serialize(CharacterPolynomial(2, [((-1, 0), 3), ((0, 2), -1)])))
    -1*e[0,2]
    3*e[-1,0]
    """
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


def map_character(folding, poly: CharacterPolynomial) -> CharacterPolynomial:
    """Push a folded-side character through the weight lift, exponent by exponent.

    ``folding`` only needs ``n_folded`` and ``node_orbit`` (node -> orbit);
    the lift of a folded weight reads entry ``node_orbit[i]`` at node i, as
    ``folding.unfold_weight`` does.  Coefficients are untouched and the map
    is injective on supports.
    """
    if poly.n != folding.n_folded:
        raise ValueError(f"character rank {poly.n} does not match folded rank {folding.n_folded}")
    node_orbit = folding.node_orbit
    terms = [(tuple(w[k] for k in node_orbit), c) for w, c in poly._terms.items()]
    return CharacterPolynomial(len(node_orbit), terms)
