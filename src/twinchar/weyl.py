"""Weyl group words, canonical reduced words and the commuting subgroup.

A Weyl element w is represented by the integer vector x = w^-1(rho) in
fundamental-weight coordinates, with rho = (1, ..., 1).  W acts freely on
the orbit of rho, so two words name the same element exactly when their
vectors agree.

Descent rule: x_i = <rho, (w alpha_i)^vee> is negative exactly when i is
a right descent of w, that is l(w s_i) < l(w).  The canonical reduced word
peels the smallest right descent (x <- s_i x, which is w <- w s_i) until
x = rho, at O(n) integer work per letter, and reads the peeled letters
backwards; ``folding.fold_word`` on the identity fold returns it.

This vector is the only representation of a Weyl element: ``element_of``
returns it, ``enumerate_weyl`` runs its breadth-first search on it,
``is_in_w_tilde`` and ``folding.fold_word`` read commutation with a
diagram automorphism off it, and ``root_data._longest_word``, the one
test of finite type, grows ``longest_element`` on it.  Only the word
model walks w(rho) instead, in the one walk that also gives its module's
content.  Matrices appear only in the tests, as an independent reference.
"""

from __future__ import annotations

from .errors import InvalidInput, NoDescentFound
from .root_data import (
    GeneralizedCartanMatrix,
    Weight,
    _require_finite,
    _walk,
    int_at_least,
    int_tuple,
    is_symmetric_weight,
    weyl_word,
)

Word = tuple[int, ...]


def act(gcm: GeneralizedCartanMatrix, word: Word, lam: Weight) -> Weight:
    """The image w(lam) of an integral weight under the element of the word.

    >>> from twinchar.root_data import cartan_matrix
    >>> act(cartan_matrix("A2"), (0, 1), (1, 0))
    (-1, 1)
    """
    word, lam = weyl_word(gcm, word), int_tuple(lam, "weight")
    if len(lam) != gcm.n:
        raise InvalidInput(f"weight {lam} has size {len(lam)}, expected {gcm.n}")
    return tuple(_walk(gcm, reversed(word), list(lam)))


def element_of(gcm: GeneralizedCartanMatrix, word: Word) -> Weight:
    """The vector w^-1(rho) that represents the element of the word.

    Two words name the same element exactly when their vectors agree.

    >>> from twinchar.root_data import cartan_matrix
    >>> a2 = cartan_matrix("A2")
    >>> element_of(a2, (0, 1))
    (1, -2)
    >>> element_of(a2, (0, 1, 0)) == element_of(a2, (1, 0, 1))
    True
    """
    return tuple(_walk(gcm, weyl_word(gcm, word), list(gcm.rho())))


def _word_of_rho_vector(gcm: GeneralizedCartanMatrix, x: Weight) -> Word:
    """Canonical reduced word of the element w with w^-1(rho) = x.

    Peels the smallest right descent, the smallest negative coordinate, until
    x is dominant.  Precondition: x is in the orbit of rho, where the peel
    ends after l(w) steps; outside the Tits cone it would never end.
    """
    x = list(x)
    letters = []
    while True:
        i = next((k for k, c in enumerate(x) if c < 0), None)
        if i is None:
            break
        letters.append(i)
        _walk(gcm, (i,), x)
    if tuple(x) != gcm.rho():
        raise NoDescentFound(f"descent peeling ended at {tuple(x)}, not at rho")
    return tuple(reversed(letters))


def longest_element(gcm: GeneralizedCartanMatrix) -> Word:
    """Reduced word of the longest element, by ``root_data._longest_word``, the one
    test of finite type; an infinite Weyl group raises NotFiniteType.

    >>> from twinchar.root_data import cartan_matrix
    >>> longest_element(cartan_matrix("A2"))
    (0, 1, 0)
    """
    return _require_finite(gcm)


def is_in_w_tilde(gcm: GeneralizedCartanMatrix, word: Word, perm: tuple[int, ...]) -> bool:
    """True iff the element commutes with the automorphism action on weights.

    The automorphism fixes rho and W acts freely on the orbit of rho, so w
    commutes with it exactly when w^-1 does, that is when the vector
    w^-1(rho) of ``element_of`` is fixed by the permutation.
    """
    perm = int_tuple(perm, "automorphism")
    if sorted(perm) != list(range(gcm.n)):
        raise InvalidInput(f"automorphism {list(perm)} is not a bijection of 0..{gcm.n - 1}")
    return is_symmetric_weight(element_of(gcm, word), perm)


def enumerate_weyl(gcm: GeneralizedCartanMatrix,
                   max_length: int | None = None) -> list[tuple[Word, Weight]]:
    """All Weyl elements up to max_length as (breadth-first shortest word, element_of vector).

    Breadth-first over x <- s_i x (w <- w s_i), trying letters in increasing
    order, so each element keeps the first shortest word that reaches it.
    That word need not be the canonical one of ``folding.fold_word`` on the
    identity fold: for A3 the breadth-first word (0, 2) has the canonical
    word (2, 0).
    With ``max_length=None`` the matrix must be of finite type
    (``gcm.finite``), else NotFiniteType is raised; the result is sorted by
    (length, word).

    >>> from twinchar.root_data import cartan_matrix
    >>> [word for word, _ in enumerate_weyl(cartan_matrix("A2"))]
    [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
    """
    if max_length is not None:
        int_at_least(max_length, 0, "length cap")
    else:
        _require_finite(gcm)
    rho = gcm.rho()
    found: dict[Weight, Word] = {rho: ()}
    frontier: list[tuple[Word, Weight]] = [((), rho)]
    depth = 0
    while frontier and (max_length is None or depth < max_length):
        depth += 1
        fresh = []
        for word, x in frontier:
            for i in range(gcm.n):
                y = tuple(_walk(gcm, (i,), list(x)))
                if y not in found:
                    found[y] = word + (i,)
                    fresh.append((word + (i,), y))
        frontier = fresh
    return sorted(((w, x) for x, w in found.items()), key=lambda t: (len(t[0]), t[0]))


def parse_word(text: str) -> Word:
    """Parse comma-separated integers (a word, weight or automorphism), e.g. "1,2,1".

    The empty string is the empty tuple (the identity word).
    """
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"cannot parse comma-separated integers {text!r}") from exc


def format_word(word: Word) -> str:
    return ",".join(str(i) for i in word)
