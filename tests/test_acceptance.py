"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact (integers and Fractions); the printed timings are
informative, the assertions are not time-based.
"""

import random
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from twinchar import harness
from twinchar.characters import (
    CharacterPolynomial,
    demazure_character,
    demazure_op,
    freudenthal_character,
    map_character,
)
from twinchar.errors import NotTauStable
from twinchar.folding import fold, unfold_weight, unfold_word, validate_automorphism
from twinchar.linalg import mat_mul
from twinchar.root_data import cartan_matrix, validate_gcm, weyl_dimension
from twinchar.weyl import (
    element_of,
    enumerate_weyl,
    is_in_w_tilde,
    longest_element,
)
from twinchar.word_model import (
    content_word_count,
    demazure_subspaces,
    shapovalov_pair,
    tau_twist,
    twining_character,
    twining_trace,
    vector_of_word,
    weight_below,
    weight_space,
)

FAMILIES = {
    "A2-flip": ("A2", (1, 0)),
    "A3-flip": ("A3", (2, 1, 0)),
    "A4-flip": ("A4", (3, 2, 1, 0)),
    "D4-triality": ("D4", (2, 1, 3, 0)),
    "D4-swap": ("D4", (0, 1, 3, 2)),
}

EXPECTED_FOLDED = {
    "A2-flip": ((2,),),
    "A3-flip": ((2, -1), (-2, 2)),
    # scale sits on the column orbit, so the mixed-orbit case is the
    # transpose of the equal-scale reading
    "A4-flip": ((2, -2), (-1, 2)),
    "D4-triality": ((2, -1), (-3, 2)),
    "D4-swap": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
}


def folded_data(name):
    label, perm = FAMILIES[name]
    gcm = cartan_matrix(label)
    auto, orbit_data = validate_automorphism(gcm, perm)
    return gcm, auto, orbit_data, fold(gcm, auto.perm)


def report(number, elapsed, detail):
    print(f"\nACCEPTANCE CRITERION {number}: PASS ({elapsed:.2f} s) {detail}")


def test_criterion_1_folding_battery():
    start = time.perf_counter()
    for name, expected in EXPECTED_FOLDED.items():
        t0 = time.perf_counter()
        gcm, auto, orbit_data, data = folded_data(name)
        assert data.folded.entries == expected, name

        # representative independence of every folded entry
        for k, orbit_k in enumerate(orbit_data.orbits):
            for l, orbit_l in enumerate(orbit_data.orbits):
                values = {orbit_data.scale(l) * sum(gcm.entries[i][j] for j in orbit_l)
                          for i in orbit_k}
                assert values == {data.folded.entries[k][l]}, (name, k, l)

        # intertwining of the weight lift with every folded reflection
        for k in range(data.n_folded):
            lhs = mat_mul(element_of(gcm, data.orbit_words[k]), data.weight_lift)
            rhs = mat_mul(data.weight_lift, element_of(data.folded, (k,)))
            assert lhs == rhs, (name, k)

        # expanded-word image has exactly the folded group's cardinality and
        # equals the commuting subgroup
        folded_elements = enumerate_weyl(data.folded)
        images = {element_of(gcm, unfold_word(data, what))
                  for what, _ in folded_elements}
        commuting = {m for word, m in enumerate_weyl(gcm)
                     if is_in_w_tilde(gcm, word, auto.perm)}
        assert len(images) == len(folded_elements) and images == commuting, name
        per_family = time.perf_counter() - t0
        assert per_family < 60, f"{name} took {per_family:.1f} s"
    report(1, time.perf_counter() - start,
           f"5 foldings, folded matrices and all folding invariants verified")


def test_criterion_2_verification_battery():
    start = time.perf_counter()
    # the two routes must stay structurally disjoint above the root layer
    src = Path(__file__).resolve().parent.parent / "src" / "twinchar"
    word_model_src = (src / "word_model.py").read_text()
    characters_src = (src / "characters.py").read_text()
    for forbidden in ("from .folding", "from twinchar.folding", "import folding"):
        assert forbidden not in word_model_src
        assert forbidden not in characters_src
    for forbidden in ("from .word_model", "from twinchar.word_model", "import word_model"):
        assert forbidden not in characters_src

    summary = harness.run_battery()
    counts = summary.counts
    assert counts["unequal"] == 0, [r for r in summary.records
                                    if r["status"] == "unequal"]
    assert counts["equal"] >= 90
    # every family must contribute verified instances
    for name in FAMILIES:
        ran = [r for r in summary.records
               if r["key"].startswith(name) and r["status"] == "equal"]
        assert ran, f"family {name} verified no instance"
    elapsed = time.perf_counter() - start
    report(2, elapsed,
           f"{counts['equal']} instances equal, 0 unequal, "
           f"{counts['skipped']} above the word cap")
    assert elapsed < 600


def test_criterion_3_longest_element_regression():
    start = time.perf_counter()
    frozen = {("A2-flip", (1,)): 2, ("D4-triality", (0, 1)): 7}
    seen = {}
    for name, (label, perm) in FAMILIES.items():
        _, _, _, data = folded_data(name)
        w0_hat = longest_element(data.folded)
        identity = tuple(range(data.folded.n))
        for lam_hat in _battery_lambda_hats(name):
            rhs = map_character(data, demazure_character(data.folded, lam_hat, w0_hat))
            dim = weyl_dimension(data.folded, lam_hat)
            assert rhs.coefficient_sum() == dim, (name, lam_hat)
            seen[(name, lam_hat)] = dim
            # the left side over the folded data with the trivial twist is
            # the ordinary character
            plain = twining_character(data.folded, lam_hat, w0_hat, identity)
            assert plain == freudenthal_character(data.folded, lam_hat), (name, lam_hat)
    for key, value in frozen.items():
        assert seen[key] == value, key
    report(3, time.perf_counter() - start,
           f"{len(seen)} longest-element instances, dims include "
           f"A2-flip(1)->2 and D4-triality(0,1)->7")


def _battery_lambda_hats(name):
    for family in harness.default_families():
        if family.name == name:
            return family.lambda_hats
    raise KeyError(name)


def test_criterion_4_demazure_formula_cross_check():
    start = time.perf_counter()
    checked = 0
    for label in ("A2", "B2"):
        gcm = cartan_matrix(label)
        words = [w for w, _ in enumerate_weyl(gcm)]
        for lam in product(range(3), repeat=2):
            for word in words:
                expected = demazure_character(gcm, lam, word)
                subs = demazure_subspaces(gcm, lam, word)
                dims = CharacterPolynomial(
                    gcm.n, [(weight_below(gcm, lam, beta), sub.dimension)
                            for beta, sub in subs.items()])
                assert dims == expected, (label, lam, word)
                checked += 1
    elapsed = time.perf_counter() - start
    report(4, elapsed, f"{checked} (type, weight, word) Demazure cross-checks")
    assert elapsed < 120


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    pairs = []
    for name in FAMILIES:
        _, _, _, data = folded_data(name)
        for lam_hat in _battery_lambda_hats(name):
            pairs.append((data.gcm, unfold_weight(data, lam_hat)))
    checked = skipped = 0
    seen = set()
    for gcm, lam in pairs:
        if (gcm.entries, lam) in seen:
            continue
        seen.add((gcm.entries, lam))
        freud = freudenthal_character(gcm, lam)
        assert freud.coefficient_sum() == weyl_dimension(gcm, lam), lam
        for mu, mult in freud.sorted_terms():
            if not gcm.is_dominant(mu):
                continue
            beta = gcm.root_coords(tuple(l - m for l, m in zip(lam, mu)))
            if content_word_count(beta) > 1500:
                skipped += 1
                continue
            assert weight_space(gcm, lam, beta).dimension == mult, (lam, mu)
            checked += 1
    elapsed = time.perf_counter() - start
    report(5, elapsed,
           f"{len(seen)} modules, {checked} dominant weight spaces ranked "
           f"({skipped} above the Gram size cut), totals = Weyl dims")
    assert elapsed < 60


def test_criterion_6_operator_properties():
    start = time.perf_counter()
    rng = random.Random(20260808)

    def random_sparse(n):
        terms = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 4))]
        return CharacterPolynomial(n, terms)

    for label in ("A2", "A3", "A4", "B2", "C3", "D4", "G2"):
        gcm = cartan_matrix(label)
        for _ in range(200):
            poly = random_sparse(gcm.n)
            i = rng.randrange(gcm.n)
            once = demazure_op(gcm, poly, i)
            assert demazure_op(gcm, once, i) == once, label

    braid_specs = [("A2", (0, 1, 0), (1, 0, 1)),
                   ("B2", (0, 1, 0, 1), (1, 0, 1, 0)),
                   ("G2", (0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0))]
    for label, left, right in braid_specs:
        gcm = cartan_matrix(label)
        for _ in range(40):
            mono = CharacterPolynomial.monomial(
                tuple(rng.randint(-3, 3) for _ in range(gcm.n)))
            lhs = rhs = mono
            for i in reversed(left):
                lhs = demazure_op(gcm, lhs, i)
            for i in reversed(right):
                rhs = demazure_op(gcm, rhs, i)
            assert lhs == rhs, label

    independence_checks = 0
    for label in ("A2", "A3", "B2", "G2"):
        gcm = cartan_matrix(label)
        lam = (1,) * gcm.n
        for word, m in enumerate_weyl(gcm, max_length=4):
            if len(word) > 4:
                continue
            expected = demazure_character(gcm, lam, word)
            for candidate in product(range(gcm.n), repeat=len(word)):
                if element_of(gcm, candidate) == m:
                    assert demazure_character(gcm, lam, candidate) == expected
                    independence_checks += 1
    elapsed = time.perf_counter() - start
    report(6, elapsed,
           f"idempotence 200x7 types, braid A2/B2/G2, "
           f"{independence_checks} reduced-word agreements")
    assert elapsed < 60


def test_criterion_7_twist_properties():
    start = time.perf_counter()
    rng = random.Random(97)
    for name, (label, perm) in FAMILIES.items():
        gcm, auto, _, data = folded_data(name)
        lam = unfold_weight(data, (1,) * data.n_folded)
        # 100 sampled pairs: isometry and finite order of the twist
        for _ in range(100):
            size = rng.randint(1, 4)
            y1 = tuple(rng.randrange(gcm.n) for _ in range(size))
            y2 = tuple(rng.randrange(gcm.n) for _ in range(size))
            r1 = tuple(auto.perm[l] for l in y1)
            r2 = tuple(auto.perm[l] for l in y2)
            assert shapovalov_pair(gcm, lam, r1, r2) == \
                shapovalov_pair(gcm, lam, y1, y2), (name, y1, y2)
        for _ in range(10):
            size = rng.randint(1, 4)
            y = tuple(rng.randrange(gcm.n) for _ in range(size))
            v = vector_of_word(gcm, lam, y)
            cycled = v
            for _ in range(auto.order):
                cycled = tau_twist(auto.perm, cycled)
            assert cycled.coords == v.coords and cycled.content == v.content

    # traces are integers on every stable content of a verified instance
    gcm, auto, _, data = folded_data("A3-flip")
    lam = unfold_weight(data, (1, 1))
    word = unfold_word(data, (0, 1))
    for beta, sub in demazure_subspaces(gcm, lam, word).items():
        if all(beta[auto.perm[l]] == beta[l] for l in range(gcm.n)):
            assert isinstance(twining_trace(sub, auto.perm), int)

    # stability witness: one simple reflection outside the commuting subgroup
    a2 = cartan_matrix("A2")
    subs = demazure_subspaces(a2, (1, 1), (0,))
    with pytest.raises(NotTauStable):
        for sub in subs.values():
            twining_trace(sub, (1, 0))
    elapsed = time.perf_counter() - start
    report(7, elapsed, "isometry 100 pairs x 5 foldings, twist order, "
                       "integer traces, instability witness raised")
    assert elapsed < 60


def test_criterion_8_mutation_sensitivity():
    start = time.perf_counter()
    # (a) corrupt one entry of the folded matrix (keeping it finite type)
    bad_folded = validate_gcm([[2, -1], [-1, 2]])
    flipped = []
    for what, _ in enumerate_weyl(validate_gcm([[2, -1], [-2, 2]])):
        prep = harness.prepare(harness.parse_instance(
            {"gcm": "A3", "automorphism": [2, 1, 0],
             "lambda_hat": [1, 1], "w_hat": list(what)}))
        bad = replace(prep, folding=replace(prep.folding, folded=bad_folded))
        flipped.append(not harness.verify_prepared(bad).equal)
    assert any(flipped), "no battery instance noticed the corrupted folded matrix"

    # (b) corrupt one expansion word (swap in a commuting but wrong lift)
    prep = harness.prepare(harness.parse_instance(
        {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}))
    bad = replace(prep, w=(1,))
    assert not harness.verify_prepared(bad).equal

    # (c) sanity: the untouched instances are all equal
    good = harness.run_battery(harness.BatteryConfig(
        families=(harness.BatteryFamily("A3-flip", "A3", (2, 1, 0), ((1, 1),)),)))
    assert good.counts["unequal"] == 0
    report(8, time.perf_counter() - start,
           f"corrupted folded matrix flipped {sum(flipped)}/8 instances, "
           "corrupted expansion flipped its instance")
