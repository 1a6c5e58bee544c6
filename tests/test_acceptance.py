"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact (integers and Fractions); the printed timings are
informative, the assertions are not time-based.
"""

import ast
import random
import time
from itertools import product
from pathlib import Path

import pytest

from twinchar import harness, word_model
from twinchar.characters import demazure_character, demazure_op, map_character
from twinchar.errors import NotTauStable
from twinchar.folding import fold, unfold_weight, unfold_word
from twinchar.root_data import CharacterPolynomial, cartan_matrix, validate_gcm, weyl_dimension
from twinchar.weyl import (
    element_of,
    enumerate_weyl,
    is_in_w_tilde,
    longest_element,
)
from twinchar.word_model import (
    demazure_subspaces,
    twining_character,
    weight_below,
)

from oracles import (
    FOLDED,
    content_word_count,
    freudenthal_character,
    is_dominant,
    lift_matrix,
    mat_mul,
    matrix_of,
    root_coords,
    shapovalov_pair,
    tau_twist,
    vector_of_word,
    weight_space,
)

FAMILIES = {family.name: family for family in harness.default_families()}


def folded_data(name):
    family = FAMILIES[name]
    data = fold(cartan_matrix(family.gcm), family.automorphism)
    return data.gcm, data.auto, data


def report(number, elapsed, detail):
    print(f"\nACCEPTANCE CRITERION {number}: PASS ({elapsed:.2f} s) {detail}")


def test_criterion_1_folding_battery():
    start = time.perf_counter()
    for name in FAMILIES:
        t0 = time.perf_counter()
        gcm, auto, data = folded_data(name)
        assert data.folded.entries == FOLDED[name], name

        # representative independence of every folded entry
        for k, orbit_k in enumerate(data.orbits):
            for l, orbit_l in enumerate(data.orbits):
                values = {(2 // data.row_sums[l]) * sum(gcm.entries[i][j] for j in orbit_l)
                          for i in orbit_k}
                assert values == {data.folded.entries[k][l]}, (name, k, l)

        # intertwining of the weight lift with every folded reflection
        lift = lift_matrix(data)
        for k in range(data.n_folded):
            lhs = mat_mul(matrix_of(gcm, data.orbit_words[k]), lift)
            rhs = mat_mul(lift, matrix_of(data.folded, (k,)))
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


ROOT_LAYER = {"root_data", "linalg", "errors"}


def import_closure(*modules):
    """The twinchar modules reachable from the given ones by their imports.

    Relative and absolute imports both count; a name imported from the
    package itself that is not a module counts as ``__init__``, which
    imports every module.
    """
    src = Path(__file__).resolve().parent.parent / "src" / "twinchar"
    seen, todo = set(), list(modules)
    while todo:
        name = todo.pop()
        if not (src / f"{name}.py").exists():
            name = "__init__"
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ("twinchar" if node.level else "", node.module)))
                # "from . import x" and "from twinchar import x" name x in the package
                targets = ([f"{module}.{a.name}" for a in node.names]
                           if module == "twinchar" else [module])
            else:
                continue
            todo += [t.split(".")[1] for t in targets if t.startswith("twinchar.")]
    return seen


def test_criterion_2_routes_share_only_the_root_layer():
    # the two routes must stay structurally disjoint above the root layer,
    # or their agreement could come from code they share
    direct = import_closure("word_model")
    folded = import_closure("characters", "folding")
    assert direct & folded <= ROOT_LAYER, direct & folded
    # the word model factors w itself: it reads the root layer and no Weyl group code
    assert direct == ROOT_LAYER | {"word_model"}, direct
    assert not direct & {"characters", "folding"}, direct
    assert "word_model" not in folded, folded


def test_criterion_2_verification_battery():
    start = time.perf_counter()
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
    for name, family in FAMILIES.items():
        _, _, data = folded_data(name)
        w0_hat = longest_element(data.folded)
        identity = tuple(range(data.folded.n))
        for lam_hat in family.lambda_hats:
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
                    gcm.n, [(weight_below(gcm, lam, beta), dim) for beta, dim in subs.items()])
                assert dims == expected, (label, lam, word)
                checked += 1
    elapsed = time.perf_counter() - start
    report(4, elapsed, f"{checked} (type, weight, word) Demazure cross-checks")
    assert elapsed < 120


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    pairs = []
    for name, family in FAMILIES.items():
        _, _, data = folded_data(name)
        for lam_hat in family.lambda_hats:
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
            if not is_dominant(mu):
                continue
            beta = root_coords(gcm, tuple(l - m for l, m in zip(lam, mu)))
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
    for name in FAMILIES:
        gcm, auto, data = folded_data(name)
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
    gcm, auto, data = folded_data("A3-flip")
    lam = unfold_weight(data, (1, 1))
    word = unfold_word(data, (0, 1))
    twined = twining_character(gcm, lam, word, auto.perm)
    for beta in demazure_subspaces(gcm, lam, word):
        if all(beta[auto.perm[l]] == beta[l] for l in range(gcm.n)):
            assert isinstance(twined.coefficient(weight_below(gcm, lam, beta)), int)

    # stability witness: one simple reflection outside the commuting subgroup
    a2 = cartan_matrix("A2")
    demazure_subspaces(a2, (1, 1), (0,))
    module = word_model._modules[a2, (1, 1), word_model._walked(a2, (1, 1), (0,))[0]]
    with pytest.raises(NotTauStable):
        module.twist((1, 0))
    elapsed = time.perf_counter() - start
    report(7, elapsed, "isometry 100 pairs x 5 foldings, twist order, "
                       "integer traces, instability witness raised")
    assert elapsed < 60


def test_criterion_8_mutation_sensitivity():
    start = time.perf_counter()
    # (a) corrupt one entry of the folded matrix (keeping it finite type)
    bad_folded = validate_gcm([[2, -1], [-1, 2]])
    flipped = []
    for what, _ in enumerate_weyl(validate_gcm(FOLDED["A3-flip"])):
        prep = harness.prepare(harness.parse_instance(
            {"gcm": "A3", "automorphism": [2, 1, 0],
             "lambda_hat": [1, 1], "w_hat": list(what)}))
        bad = prep._replace(folding=prep.folding._replace(folded=bad_folded))
        flipped.append(not harness.verify_prepared(bad).equal)
    assert any(flipped), "no battery instance noticed the corrupted folded matrix"

    # (b) corrupt one expansion word (swap in a commuting but wrong lift)
    prep = harness.prepare(harness.parse_instance(
        {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}))
    bad = prep._replace(w=(1,))
    assert not harness.verify_prepared(bad).equal

    # (c) sanity: the untouched instances are all equal
    good = harness.run_battery(harness.BatteryConfig(
        families=(harness.BatteryFamily("A3-flip", "A3", (2, 1, 0), ((1, 1),)),)))
    assert good.counts["unequal"] == 0
    report(8, time.perf_counter() - start,
           f"corrupted folded matrix flipped {sum(flipped)}/8 instances, "
           "corrupted expansion flipped its instance")


def test_corrupted_folded_matrix_misses_the_warm_lift():
    # the lift of a folded character is cached under the folded matrix itself: after a
    # warm battery, which holds every lift of part (a) of criterion 8, the corrupted
    # folded matrix still misses and flips a verdict
    harness.run_battery()
    bad_folded = validate_gcm([[2, -1], [-1, 2]])
    flipped = []
    for what, _ in enumerate_weyl(validate_gcm(FOLDED["A3-flip"])):
        prep = harness.prepare(harness.parse_instance(
            {"gcm": "A3", "automorphism": [2, 1, 0],
             "lambda_hat": [1, 1], "w_hat": list(what)}))
        assert harness.verify_prepared(prep).equal
        bad = prep._replace(folding=prep.folding._replace(folded=bad_folded))
        flipped.append(not harness.verify_prepared(bad).equal)
    assert any(flipped), "the warm lift hid the corrupted folded matrix"
