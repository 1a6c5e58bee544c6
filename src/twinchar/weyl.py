"""Weyl group words, canonical reduced words and the commuting subgroup.

A Weyl element w is represented by the integer vector x = w^-1(rho) in
fundamental-weight coordinates, with rho = (1, ..., 1).  W acts freely on
the orbit of rho, so two words name the same element exactly when their
vectors agree.

Descent rule: x_i = <rho, (w alpha_i)^vee> is negative exactly when i is
a right descent of w, that is l(w s_i) < l(w).  The canonical reduced word
peels the smallest right descent (x <- s_i x, which is w <- w s_i) until
x = rho, at O(n) integer work per letter, and reads the peeled letters
backwards.

Integer matrices (``element_of``, ``reflection_matrix``, ``enumerate_weyl``)
remain for enumerating a group and as an independent reference in tests.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidInput, NoDescentFound, NotFiniteType
from .linalg import identity_matrix, mat_mul
from .root_data import GeneralizedCartanMatrix, Weight, is_finite_type, is_symmetric_weight

Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def _check_letter(gcm: GeneralizedCartanMatrix, i: int) -> None:
    if not 0 <= i < gcm.n:
        raise InvalidInput(f"letter {i} out of range for rank {gcm.n}")


@lru_cache(maxsize=None)
def reflection_matrix(gcm: GeneralizedCartanMatrix, i: int) -> Matrix:
    """Matrix of s_i on weight coordinates: identity with column i replaced by e_i - alpha_i."""
    _check_letter(gcm, i)
    alpha = gcm.simple_root(i)
    n = gcm.n
    return tuple(
        tuple((1 if k == l else 0) - (alpha[k] if l == i else 0) for l in range(n))
        for k in range(n)
    )


def element_of(gcm: GeneralizedCartanMatrix, word: Word) -> Matrix:
    """Product of simple-reflection matrices; a homomorphism from words to matrices."""
    m = identity_matrix(gcm.n)
    for i in word:
        m = mat_mul(m, reflection_matrix(gcm, i))
    return m


@lru_cache(maxsize=None)
def _simple_roots(gcm: GeneralizedCartanMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    # per letter i, the nonzero (k, a_ki): alpha_i in weight coordinates
    return tuple(tuple((k, row[i]) for k, row in enumerate(gcm.entries) if row[i])
                 for i in range(gcm.n))


def _reflect(roots, x: list[int], i: int) -> None:
    """x <- s_i(x) in place: subtract <x, alpha_i^vee> alpha_i."""
    c = x[i]
    if c:
        for k, a in roots[i]:
            x[k] -= c * a


def _apply(gcm: GeneralizedCartanMatrix, letters, lam: Weight) -> list[int]:
    """s_{l_k} ... s_{l_1}(lam) as a list: the letters act first to last."""
    if len(lam) != gcm.n:
        raise InvalidInput(f"weight {tuple(lam)} has size {len(lam)}, expected {gcm.n}")
    roots = _simple_roots(gcm)
    x = list(lam)
    for i in letters:
        _check_letter(gcm, i)
        _reflect(roots, x, i)
    return x


def act(gcm: GeneralizedCartanMatrix, word: Word, lam: Weight) -> Weight:
    """The image w(lam) of a weight under the element of the word.

    >>> from twinchar.root_data import cartan_matrix
    >>> act(cartan_matrix("A2"), (0, 1), (1, 0))
    (-1, 1)
    """
    return tuple(_apply(gcm, reversed(word), lam))


def rho_vector(gcm: GeneralizedCartanMatrix, word: Word) -> Weight:
    """The vector w^-1(rho) that represents the element of the word."""
    return tuple(_apply(gcm, word, gcm.rho()))


def word_of_rho_vector(gcm: GeneralizedCartanMatrix, x: Weight) -> Word:
    """Canonical reduced word of the element w with w^-1(rho) = x (finite type only).

    Peels the smallest right descent, the smallest negative coordinate, until
    x is dominant.  Raises NoDescentFound when x is not in the orbit of rho.
    """
    if not is_finite_type(gcm):
        raise NotFiniteType("reduced words need a finite-type Cartan matrix")
    roots = _simple_roots(gcm)
    x = list(x)
    letters = []
    while True:
        i = next((k for k, c in enumerate(x) if c < 0), None)
        if i is None:
            break
        letters.append(i)
        _reflect(roots, x, i)
    if tuple(x) != gcm.rho():
        raise NoDescentFound(f"descent peeling ended at {tuple(x)}, not at rho")
    return tuple(reversed(letters))


def reduced_word(gcm: GeneralizedCartanMatrix, word: Word) -> Word:
    """Canonical reduced word of the element of any word (finite type only).

    >>> from twinchar.root_data import cartan_matrix
    >>> reduced_word(cartan_matrix("A2"), (0, 1, 0, 0, 1))
    (0,)
    """
    return word_of_rho_vector(gcm, rho_vector(gcm, word))


def length(gcm: GeneralizedCartanMatrix, word: Word) -> int:
    return len(reduced_word(gcm, word))


def longest_element(gcm: GeneralizedCartanMatrix) -> Word:
    """Reduced word of the longest element, grown by smallest-index ascents.

    An ascent of w is a positive coordinate of w^-1(rho); the longest
    element is the one without ascents.

    >>> from twinchar.root_data import cartan_matrix
    >>> longest_element(cartan_matrix("A2"))
    (0, 1, 0)
    """
    if not is_finite_type(gcm):
        raise NotFiniteType("longest element needs a finite-type Cartan matrix")
    roots = _simple_roots(gcm)
    x = list(gcm.rho())
    letters = []
    while True:
        i = next((k for k, c in enumerate(x) if c > 0), None)
        if i is None:
            return tuple(letters)
        letters.append(i)
        _reflect(roots, x, i)


def is_in_w_tilde(gcm: GeneralizedCartanMatrix, word: Word, perm: tuple[int, ...]) -> bool:
    """True iff the element commutes with the automorphism action on weights.

    The automorphism fixes rho and W acts freely on the orbit of rho, so w
    commutes with it exactly when w(rho) is fixed by the permutation.
    """
    if len(perm) != gcm.n:
        raise InvalidInput(f"automorphism size {len(perm)} does not match rank {gcm.n}")
    return is_symmetric_weight(_apply(gcm, reversed(word), gcm.rho()), perm)


def enumerate_weyl(gcm: GeneralizedCartanMatrix,
                   max_length: int | None = None) -> list[tuple[Word, Matrix]]:
    """All Weyl elements up to max_length with canonical shortest words, BFS order.

    With ``max_length=None`` the group must be finite; the result is sorted
    by (length, word).
    """
    if max_length is None and not is_finite_type(gcm):
        raise NotFiniteType("cannot enumerate an infinite Weyl group without a length cap")
    ident = identity_matrix(gcm.n)
    found: dict[Matrix, Word] = {ident: ()}
    frontier: list[tuple[Word, Matrix]] = [((), ident)]
    depth = 0
    while frontier and (max_length is None or depth < max_length):
        depth += 1
        fresh = []
        for word, m in frontier:
            for i in range(gcm.n):
                m2 = mat_mul(m, reflection_matrix(gcm, i))
                if m2 not in found:
                    found[m2] = word + (i,)
                    fresh.append((word + (i,), m2))
        frontier = fresh
    return sorted(((w, m) for m, w in found.items()), key=lambda t: (len(t[0]), t[0]))


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
