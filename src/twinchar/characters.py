"""The folded route: Demazure characters and the weight lift.

The Demazure operator is applied monomial by monomial through its closed
form, so no power-series division appears anywhere.  Demazure characters
follow Demazure's recursion chi_w = D_i chi_{s_i w} on the extremal weight
w(lam), which keys their bounded cache; no reduced word is formed.
``map_character`` pushes a character of the folded side through the weight
lift, exponent by exponent.  Nothing here reaches the word model: the two
routes meet only in the root layer (``root_data``, ``linalg``, ``errors``,
``weyl``).
"""

from __future__ import annotations

from . import weyl
from .errors import NoDescentFound
from .root_data import (
    BoundedCache,
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    Weight,
    dominant_weight,
    weyl_word,
)

# the most characters the cache (gcm, lam, w(lam)) -> chi_w(lam) holds before it drops
# the oldest: about three times the largest benchmark pool's 355 extremal weights
CACHE_CHARACTERS = 1024
_characters = BoundedCache(CACHE_CHARACTERS)


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
    """Demazure character of the element of any word, reduced or not, at lam; checked."""
    return demazure_core(gcm, dominant_weight(gcm, lam), weyl_word(gcm, word))


def demazure_core(gcm: GeneralizedCartanMatrix, lam: Weight, word) -> CharacterPolynomial:
    """``demazure_character`` on a dominant weight tuple and a checked word.

    chi_w(lam) depends only on mu = w(lam), one unchecked walk of the word.
    A miss peels the smallest i with mu_i < 0, a left descent of the
    shortest element of w W_lam, so chi_w = D_i chi_{s_i w}; it peels down
    to the first cached weight or to mu = lam, where the character is
    e(lam), then applies one Demazure operator per step back up, caching
    each character it passes.
    """
    key = (gcm, lam, tuple(weyl._walk(gcm, reversed(word), list(lam))))
    peeled = []
    while (poly := _characters.get(key)) is None and key[2] != lam:
        mu = key[2]
        i = next((k for k, m in enumerate(mu) if m < 0), None)
        if i is None:
            raise NoDescentFound(f"the weight {mu} is dominant but not {lam}")
        peeled.append((key, i))
        key = (gcm, lam, tuple(x - mu[i] * a for x, a in zip(mu, gcm.simple_root(i))))
    if poly is None:
        poly = CharacterPolynomial.monomial(lam)
    for key, i in reversed(peeled):
        poly = demazure_op(gcm, poly, i)
        _characters.add(key, poly)
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
