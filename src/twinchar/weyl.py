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
returns it, ``enumerate_weyl`` runs its breadth-first search on it, and
``is_in_w_tilde`` and ``folding.fold_word`` read commutation with a
diagram automorphism off it.  Only the word model walks w(rho) instead,
in the one walk that also gives its module's content.  Matrices appear
only in the tests, as an independent reference.
"""

from __future__ import annotations

from .errors import InvalidInput, NoDescentFound, NotFiniteType
from .root_data import (
    GeneralizedCartanMatrix,
    Weight,
    _require_finite,
    int_at_least,
    is_symmetric_weight,
    weyl_word,
)

Word = tuple[int, ...]


def _walk(gcm: GeneralizedCartanMatrix, letters, x: list[int]) -> list[int]:
    """x <- s_i(x) in place for each letter i in turn, unchecked: the caller validates."""
    roots = gcm.roots
    for i in letters:
        c = x[i]
        if c:
            for k, a in roots[i]:
                x[k] -= c * a
    return x


def _apply(gcm: GeneralizedCartanMatrix, word, lam: Weight, inverse: bool = False) -> list[int]:
    """w(lam) as a list; w^-1(lam) when inverse (the letters then act first to last)."""
    word = weyl_word(gcm, word)
    if len(lam) != gcm.n:
        raise InvalidInput(f"weight {tuple(lam)} has size {len(lam)}, expected {gcm.n}")
    return _walk(gcm, word if inverse else reversed(word), list(lam))


def act(gcm: GeneralizedCartanMatrix, word: Word, lam: Weight) -> Weight:
    """The image w(lam) of a weight under the element of the word.

    >>> from twinchar.root_data import cartan_matrix
    >>> act(cartan_matrix("A2"), (0, 1), (1, 0))
    (-1, 1)
    """
    return tuple(_apply(gcm, word, lam))


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
    return tuple(_apply(gcm, word, gcm.rho(), inverse=True))


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


def _length_bound(gcm: GeneralizedCartanMatrix) -> int:
    """n max(n, 15): at least the positive roots of any finite root system of rank n.

    That is 120 for E8 and n^2 for B_n and C_n, the most of any rank, and
    the bound is superadditive, so it covers a sum of components too.  A
    finite-type walk that passes it has met a matrix whose ``finite`` is wrong.
    """
    return gcm.n * max(gcm.n, 15)


def longest_element(gcm: GeneralizedCartanMatrix) -> Word:
    """Reduced word of the longest element, grown by smallest-index ascents.

    An ascent of w is a positive coordinate of w^-1(rho); the longest
    element is the one without ascents.  Its length is the number of
    positive roots, so a word longer than ``_length_bound`` raises
    NotFiniteType.

    >>> from twinchar.root_data import cartan_matrix
    >>> longest_element(cartan_matrix("A2"))
    (0, 1, 0)
    """
    _require_finite(gcm)
    bound = _length_bound(gcm)
    x = list(gcm.rho())
    letters = []
    while True:
        i = next((k for k, c in enumerate(x) if c > 0), None)
        if i is None:
            return tuple(letters)
        if len(letters) == bound:
            raise NotFiniteType(f"no longest element of length at most {bound}: "
                                "the Weyl group is not finite")
        letters.append(i)
        _walk(gcm, (i,), x)


def is_in_w_tilde(gcm: GeneralizedCartanMatrix, word: Word, perm: tuple[int, ...]) -> bool:
    """True iff the element commutes with the automorphism action on weights.

    The automorphism fixes rho and W acts freely on the orbit of rho, so w
    commutes with it exactly when w^-1 does, that is when the vector
    w^-1(rho) of ``element_of`` is fixed by the permutation.
    """
    if len(perm) != gcm.n:
        raise InvalidInput(f"automorphism size {len(perm)} does not match rank {gcm.n}")
    return is_symmetric_weight(_apply(gcm, word, gcm.rho(), inverse=True), perm)


def enumerate_weyl(gcm: GeneralizedCartanMatrix,
                   max_length: int | None = None) -> list[tuple[Word, Weight]]:
    """All Weyl elements up to max_length as (breadth-first shortest word, element_of vector).

    Breadth-first over x <- s_i x (w <- w s_i), trying letters in increasing
    order, so each element keeps the first shortest word that reaches it.
    That word need not be the canonical one of ``folding.fold_word`` on the
    identity fold: for A3 the breadth-first word (0, 2) has the canonical
    word (2, 0).
    With ``max_length=None`` the group must be finite, and an element longer
    than ``_length_bound`` raises NotFiniteType; the result is sorted by
    (length, word).

    >>> from twinchar.root_data import cartan_matrix
    >>> [word for word, _ in enumerate_weyl(cartan_matrix("A2"))]
    [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
    """
    if max_length is not None:
        int_at_least(max_length, 0, "length cap")
    if max_length is None and not gcm.finite:
        raise NotFiniteType("cannot enumerate an infinite Weyl group without a length cap")
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
        if fresh and max_length is None and depth > _length_bound(gcm):
            raise NotFiniteType(f"an element of length {depth} passes {_length_bound(gcm)}: "
                                "the Weyl group is not finite")
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
