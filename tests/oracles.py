"""Word-model oracles used only by the tests: contents, the form and word profiles."""

from twinchar.word_model import _pair, f_action, highest_weight_vector


def word_content(n, word):
    counts = [0] * n
    for letter in word:
        if not 0 <= letter < n:
            raise ValueError(f"letter {letter} out of range for rank {n}")
        counts[letter] += 1
    return tuple(counts)


def shapovalov_pair(gcm, lam, w1, w2):
    """Contravariant form of two lowering words applied to the highest vector.

    Zero across different contents; otherwise the memoized recursion of the
    word model.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if word_content(gcm.n, w1) != word_content(gcm.n, w2):
        return 0
    return _pair(gcm, tuple(lam), w1, w2)


def vector_of_word(gcm, lam, word):
    """Pairing profile of f_{w_1} ... f_{w_k} applied to the highest vector."""
    v = highest_weight_vector(gcm, lam)
    for letter in reversed(tuple(word)):
        v = f_action(gcm, letter, v)
    return v
