"""Expansion formulae, their inversion, and the summation identity suite."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from juhlkit import exact_core, juhl_core, suites
from juhlkit.exact_core import compositions_of, factorial, m_coeff, n_coeff, partial_sums
from juhlkit.free_algebra import NCPoly
from juhlkit.juhl_core import (
    QExpansion,
    apply_operator_expansion,
    expand_P_explicit,
    expand_P_recursive,
    expand_Q_explicit,
    expand_Q_recursive,
    kcoeff,
    kcoeff_closed_form,
    krattenthaler_identity,
    telescope_check,
    verify_kidenb,
)
from juhlkit.nc_series import iterate_L_full


def test_expand_P_base_cases():
    assert expand_P_explicit(1) == NCPoly({(1,): 1})
    assert expand_P_recursive(1) == NCPoly({(1,): 1})
    paneitz = NCPoly({(2,): 1, (1, 1): 1})
    assert expand_P_explicit(2) == paneitz
    assert expand_P_recursive(2) == paneitz


def test_expand_P_order_three():
    assert expand_P_explicit(3) == NCPoly({(3,): 1, (1, 2): 2, (2, 1): 2, (1, 1, 1): 1})


def test_expand_P_term_count():
    for n in range(1, 9):
        assert len(expand_P_explicit(n)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 12))
def test_P_explicit_equals_recursive(n):
    assert expand_P_explicit(n) == expand_P_recursive(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_P_expansion_reversal_symmetric(n):
    expansion = expand_P_explicit(n)
    for word, coeff in expansion.items():
        assert expansion.coeff(tuple(reversed(word))) == coeff


@pytest.mark.parametrize("n", range(1, 8))
def test_P_explicit_matches_series_iteration(n):
    # iteration in the x-generators, rescaled by x_M = M-generator/(M-1)!^2
    full = iterate_L_full(n)
    explicit = expand_P_explicit(n)
    for comp in compositions_of(n):
        denom = 1
        for e in comp:
            denom *= factorial(e - 1) ** 2
        assert explicit.coeff(comp) == full.coeff(tuple(reversed(comp))) / denom


def test_expand_Q_base_case():
    assert expand_Q_explicit(1) == QExpansion({((), 1): 4})
    assert expand_Q_recursive(1) == QExpansion({((), 1): 4})


def test_expand_Q_order_two_and_three():
    assert expand_Q_explicit(2) == QExpansion({((), 2): 32, ((1,), 1): 4})
    assert expand_Q_explicit(3) == QExpansion(
        {((), 3): 768, ((1,), 2): 64, ((2,), 1): 8, ((1, 1), 1): 4}
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_Q_pure_W_coefficient(n):
    assert expand_Q_explicit(n).coeff(((), n)) == factorial(n) * factorial(n - 1) * 4**n


@pytest.mark.parametrize("n", range(1, 11))
def test_Q_explicit_equals_recursive(n):
    assert expand_Q_explicit(n) == expand_Q_recursive(n)


def _m_recursion_reference(n, top, head, last):
    # the composition-by-composition sum that the table regroups
    acc = top
    for comp in compositions_of(n)[1:]:
        prod = NCPoly.one()
        for part in comp[:-1]:
            prod = prod * head(part)
        acc = acc + prod * last(comp[-1]) * (-m_coeff(comp))
    return acc


@pytest.mark.parametrize("n", range(1, 10))
def test_m_recursion_table_equals_composition_sum_for_P(n):
    top = NCPoly.from_word((n,))
    args = (n, top, expand_P_recursive, expand_P_recursive)
    assert juhl_core._m_recursion(*args) == _m_recursion_reference(*args)


@pytest.mark.parametrize("n", range(1, 9))
def test_m_recursion_table_equals_composition_sum_for_Q(n):
    top = QExpansion({((), n): factorial(n) * factorial(n - 1) * 4**n})
    args = (n, top, expand_P_explicit, expand_Q_explicit)
    assert juhl_core._m_recursion(*args) == _m_recursion_reference(*args)


@pytest.mark.parametrize("n", range(1, 11))
def test_m_recursion_on_free_letters_gives_every_m_coeff(n):
    # one letter per part, a different alphabet for the last part: each
    # composition I then owns the word it maps to, whose coefficient is -m_I
    def letter(k):
        return NCPoly.from_word((k,))

    def last_letter(k):
        return NCPoly.from_word((k + n,))

    expected = NCPoly({
        (*comp[:-1], comp[-1] + n): -m_coeff(comp) for comp in compositions_of(n)[1:]
    })
    assert juhl_core._m_recursion(n, NCPoly.zero(), letter, last_letter) == expected


_AWKWARD = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))


def _awkward(k):
    # coprime denominators on words that overlap under concatenation:
    # (1,) + (1, 1) and (1, 1) + (1,) are one word
    return NCPoly({(1,): _AWKWARD[k % 3], (1, 1): _AWKWARD[(k + 1) % 3], (k + 1,): _AWKWARD[(k + 2) % 3]})


def _awkward_last(k):
    return _awkward(k) * Fraction(-3, 7)


@pytest.mark.parametrize("n", range(1, 8))
def test_m_recursion_on_awkward_heads_equals_composition_sum(n):
    top = NCPoly({(n,): Fraction(5, 6), (1, 1): Fraction(-1, 9)})
    got = juhl_core._m_recursion(n, top, _awkward, _awkward_last)
    assert got == _m_recursion_reference(n, top, _awkward, _awkward_last)
    assert all(type(c) is Fraction and c for _, c in got.items())
    # a top that cancels every term of the sum leaves nothing stored
    assert juhl_core._m_recursion(n, top - got, _awkward, _awkward_last) == NCPoly.zero()


def test_m_recursion_at_order_one_returns_top():
    def forbidden(_):
        raise AssertionError("order one has no composition with two parts")

    top = QExpansion({((2,), 1): Fraction(-2, 5), ((), 3): Fraction(7, 4)})
    got = juhl_core._m_recursion(1, top, forbidden, forbidden)
    assert type(got) is QExpansion
    assert got == top


def test_P_recursive_uses_no_n_coefficient(monkeypatch):
    def forbidden(*_):
        raise AssertionError("the recursive P expansion reached an n-coefficient")

    for name in ("n_coeff", "n_int"):
        monkeypatch.setattr(exact_core, name, forbidden)
        monkeypatch.setattr(juhl_core, name, forbidden, raising=False)
    expand_P_recursive.cache_clear()
    expand_P_explicit.cache_clear()
    try:
        assert len(expand_P_recursive(7)) == 2**6
    finally:
        expand_P_recursive.cache_clear()


def test_cached_expansions_are_never_mutated():
    # a term map keeps the dict it is built from, and the recursions read
    # the cached lower orders: no sum or product may write into them; nor
    # may the explicit Q, which scales the cached explicit P, nor the
    # backends suite, which reads them and their right quotients
    cached = (expand_P_explicit, expand_Q_explicit, expand_P_recursive, expand_Q_recursive)

    def clear():
        for f in cached:
            f.cache_clear()

    clear()
    for n in range(1, 10):
        expand_P_recursive(n)
        expand_Q_recursive(n)
    held = [(f, b, f(b)) for f in cached[:3] for b in range(1, 10)]
    for _, _, tmap in held:
        # the same arithmetic on a cached map as its first operand
        _ = (tmap + tmap - tmap, -tmap * 3, NCPoly.one() * tmap)
    assert all(report.passed for report in suites.run_suites(["backends"], 6))
    try:
        for f, n, tmap in held:
            clear()
            assert tmap == f(n), (f.__name__, n)
    finally:
        clear()


def _q_reference(n):
    # (-1)^N Q_{2N} term by term from exact_core.n_int, not from the explicit P
    terms = {}
    for comp in compositions_of(n):
        a = comp[-1]
        terms[(comp[:-1], a)] = exact_core.n_int(comp) * factorial(a) * factorial(a - 1) * 4**a
    return QExpansion(terms)


@pytest.mark.parametrize("n", range(1, 11))
def test_explicit_Q_is_the_n_ratio_sum(n):
    assert expand_Q_explicit(n) == _q_reference(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_Q_expansion_homogeneous(n):
    assert expand_Q_explicit(n).weights() == {n}


@pytest.mark.parametrize("n", range(1, 9))
def test_Q_terms_are_pairs_in_composition_order(n):
    q = expand_Q_explicit(n)
    keys = [key for key, _ in q.sorted_terms()]
    assert keys == sorted(keys, key=lambda k: (len(k[0]) + 1, k[0] + (k[1],)))
    assert sorted(keys) == sorted(key for key, _ in q.items())
    for (word, a), _ in q.items():
        assert type(word) is tuple and type(a) is int


def test_apply_operator_expansion_prepends_words():
    p = NCPoly({(2,): Fraction(1, 2)})
    q = QExpansion({((1,), 3): 4})
    assert apply_operator_expansion(p, q) == QExpansion({((2, 1), 3): 2})
    p = NCPoly({(2,): Fraction(1, 2), (): 3})
    q = QExpansion({((1,), 3): 4, ((), 2): -1})
    assert apply_operator_expansion(p, q) == QExpansion(
        {((2, 1), 3): 2, ((2,), 2): Fraction(-1, 2), ((1,), 3): 12, ((), 2): -3}
    )
    # the two M2*M2(W4) terms cancel
    p = NCPoly({(1,): 1, (1, 1): 1})
    q = QExpansion({((1,), 2): 1, ((), 2): -1})
    assert apply_operator_expansion(p, q) == QExpansion({((1,), 2): -1, ((1, 1, 1), 2): 1})


def test_qexpansion_rejects_bad_keys():
    with pytest.raises(ValueError):
        QExpansion({((1,), 0): 1})
    with pytest.raises(ValueError):
        QExpansion({((0,), 1): 1})


def test_krattenthaler_identity_hand_values():
    assert krattenthaler_identity((1, 1), [(0, 0)]) == [(0, 0)]
    assert krattenthaler_identity((2, 1), [(1, 2)]) == [(6, 6)]


def test_krattenthaler_identity_grid():
    grid = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 3))
    for total in range(2, 6):
        for comp in compositions_of(total):
            if len(comp) < 2:
                continue
            for x in grid:
                for y in grid:
                    [(lhs, rhs)] = krattenthaler_identity(comp, [(x, y)])
                    assert lhs == rhs, (comp, x, y)


def test_krattenthaler_identity_needs_length_two():
    with pytest.raises(ValueError):
        krattenthaler_identity((3,), [(0, 0)])


@pytest.mark.parametrize(
    "point, detail",
    [((True, 1), "X must be rational, got True"), ((0, 0.5), "Y must be rational, got 0.5"),
     (("1/3", 0), "X must be rational, got '1/3'")],
    ids=["bool", "float", "str"],
)
def test_krattenthaler_identity_takes_int_or_fraction_points(point, detail):
    # the scalar rule of the backends and of the term maps' coefficients
    with pytest.raises(ValueError, match=re.escape(detail)):
        krattenthaler_identity((1, 2), [(0, 0), point])


def test_kidenb_single_entry_is_minus_K1():
    for k1 in range(1, 6):
        for b in range(1, 5):
            [(lhs, rhs)] = verify_kidenb((k1,), [b])
            assert lhs == rhs == -k1


def test_kidenb_hand_value():
    [(lhs, rhs)] = verify_kidenb((1, 1), [1])
    assert lhs == rhs == -1


def test_kidenb_exhaustive_small():
    for total in range(1, 7):
        for comp in compositions_of(total):
            for b in range(1, 7):
                [(lhs, rhs)] = verify_kidenb(comp, [b])
                assert lhs == rhs, (comp, b)


def test_kcoeff_smallest_instances():
    assert kcoeff((1,), [1]) == [0]
    assert kcoeff((1, 1), [1]) == [0]
    assert kcoeff_closed_form((1,), [1]) == [0]
    assert kcoeff_closed_form((1, 1), [1]) == [0]


def test_kcoeff_vanishes_both_paths():
    for total in range(1, 6):
        for comp in compositions_of(total):
            for b in range(1, 4):
                assert kcoeff(comp, [b]) == [0], (comp, b)
                assert kcoeff_closed_form(comp, [b]) == [0], (comp, b)


def test_telescope_empty_sum_case():
    lhs, rhs = telescope_check((4, 7))
    assert lhs == 0
    assert rhs == 0


def test_telescope_hand_value():
    lhs, rhs = telescope_check((1, 1, 1))
    assert lhs == rhs == Fraction(1, 3)


def test_telescope_randomized():
    rng = random.Random(99)
    for _ in range(50):
        s = rng.randint(1, 6)
        comp = tuple(rng.randint(1, 5) for _ in range(s + 1))
        lhs, rhs = telescope_check(comp)
        assert lhs == rhs, comp


def test_telescope_needs_two_entries():
    with pytest.raises(ValueError):
        telescope_check((3,))


# Plain-Fraction reference copies of the subset sums, one Fraction operation
# per factor, to pin the integer kernels of juhl_core against.


def _subsets_as_blocks(comp):
    s = len(comp)
    for size in range(s):
        for cuts in combinations(range(1, s), size):
            bounds = (0, *cuts, s)
            yield cuts, [comp[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


def _krattenthaler_lhs_reference(comp, x, y):
    s, total = len(comp), sum(comp)
    lhs = Fraction(0)
    for cuts, blocks in _subsets_as_blocks(comp):
        weights = [sum(b) for b in blocks]
        term = Fraction((-1) ** len(weights))
        for w in weights[:-1]:
            term *= w
        term *= weights[-1] + x
        for a in cuts:
            term *= comp[a - 1] + comp[a] + (y if a == s - 1 else 0)
        for head in partial_sums(weights)[:-1]:
            term /= head * (total - head)
        lhs += term
    return lhs


def _kidenb_lhs_reference(comp, b):
    total = sum(comp)
    lhs = Fraction(0)
    for cuts, blocks in _subsets_as_blocks(comp):
        weights = [sum(bk) for bk in blocks]
        term = Fraction((-1) ** len(weights))
        for w in weights:
            term *= w
        for a in cuts:
            term *= comp[a - 1] + comp[a]
        for head in partial_sums(weights)[:-1]:
            term /= head * (total - head + b)
        lhs += term
    return lhs


def _kcoeff_reference(comp, b, outer_m=m_coeff, n=n_coeff):
    # outer_m weighs m_{(K,b)} and the outer m's; the block m's stay m_coeff
    total = outer_m(comp + (b,))
    for p in range(len(comp)):
        head, tail = comp[:p], comp[p:]
        inner = Fraction(0)
        for _, blocks in _subsets_as_blocks(tail):
            term = n(tuple(sum(bk) for bk in blocks) + (b,))
            for block in blocks:
                term *= m_coeff(block)
            inner += term
        total += outer_m(head + (sum(tail) + b,)) * inner
    return total


def _kcoeff_closed_form_reference(comp, b, m=m_coeff):
    s, total = len(comp), sum(comp)
    prefactor = Fraction(factorial(total + b) * factorial(total + b - 1), factorial(b - 1) ** 2)
    for e in comp:
        prefactor /= factorial(e) * factorial(e - 1)
    for u, v in zip(comp, comp[1:]):
        prefactor /= u + v
    tail = [Fraction(sum(comp[p:]) + b) for p in range(s)] + [Fraction(b)]
    rsum = 1 / (tail[0] * tail[1])
    for p in range(1, s):
        rsum += (comp[p - 1] + comp[p]) / (tail[p - 1] * tail[p] * tail[p + 1])
    return m(comp + (b,)) + (-1) ** (s + 1) * prefactor * rsum


def _telescope_reference(comp):
    s = len(comp) - 1
    suffix = [Fraction(sum(comp[p - 1 :])) for p in range(1, s + 2)]
    lhs = Fraction(0)
    for p in range(1, s):
        lhs += (comp[p - 1] + comp[p]) / (suffix[p - 1] * suffix[p] * suffix[p + 1])
    return lhs, Fraction(1, comp[s] * (comp[s - 1] + comp[s])) - 1 / (suffix[0] * suffix[1])


def _weighted_m_ratio(c):
    # m_J reweighted by (len J + J_1): the sums then no longer vanish
    num, den = exact_core.m_ratio(c)
    return num * (len(c) + c[0]), den


def _weighted_outer_ms(comp, bs, plain=juhl_core._outer_ms):
    # each outer m_(K_1..K_p, |L|+b) reweighted as _weighted_m_ratio does
    return [
        [(num * (p + 1 + (comp[0] if p else sum(comp) + b)), den) for p, (num, den) in enumerate(row)]
        for b, row in zip(bs, plain(comp, bs))
    ]


def _weighted(mp):
    # m_(K,b) through m_ratio and the outer m's through their prefix products
    mp.setattr(juhl_core, "m_ratio", _weighted_m_ratio)
    mp.setattr(juhl_core, "_outer_ms", _weighted_outer_ms)


def _weighted_m_coeff(c):
    return m_coeff(c) * (len(c) + c[0])


small_comps = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6).map(tuple)
grid_values = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@given(comp=small_comps.filter(lambda c: len(c) > 1), x=grid_values, y=grid_values)
@settings(max_examples=80, deadline=None)
def test_krattenthaler_identity_matches_fraction_reference(comp, x, y):
    [(lhs, rhs)] = krattenthaler_identity(comp, [(x, y)])
    assert lhs == _krattenthaler_lhs_reference(comp, x, y)
    assert lhs == rhs


@given(comp=small_comps, b=st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_verify_kidenb_matches_fraction_reference(comp, b):
    [(lhs, rhs)] = verify_kidenb(comp, [b])
    assert lhs == _kidenb_lhs_reference(comp, b)
    assert lhs == rhs


@given(comp=small_comps, b=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_kcoeff_matches_fraction_reference(comp, b):
    assert kcoeff(comp, [b]) == [_kcoeff_reference(comp, b)] == [0]
    # kcoeff vanishes, so also compare a literal double sum that does not
    with pytest.MonkeyPatch.context() as mp:
        _weighted(mp)
        weighted = kcoeff(comp, [b])
    assert weighted == [_kcoeff_reference(comp, b, outer_m=_weighted_m_coeff)]


@st.composite
def with_repeats(draw, values):
    # a list drawn from a small pool, so that values repeat
    pool = draw(st.lists(values, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@given(comp=small_comps.filter(lambda c: len(c) > 1), points=with_repeats(st.tuples(grid_values, grid_values)))
@settings(max_examples=60, deadline=None)
def test_krattenthaler_identity_batch_matches_fraction_reference(comp, points):
    sides = krattenthaler_identity(comp, points)
    assert len(sides) == len(points)
    for (x, y), (lhs, rhs) in zip(points, sides):
        assert lhs == _krattenthaler_lhs_reference(comp, x, y) == rhs
        assert krattenthaler_identity(comp, [(x, y)]) == [(lhs, rhs)]


@given(comp=small_comps, bs=with_repeats(st.integers(min_value=1, max_value=12)))
@settings(max_examples=60, deadline=None)
def test_verify_kidenb_batch_matches_fraction_reference(comp, bs):
    sides = verify_kidenb(comp, bs)
    assert len(sides) == len(bs)
    for b, (lhs, rhs) in zip(bs, sides):
        assert lhs == _kidenb_lhs_reference(comp, b) == rhs
        assert verify_kidenb(comp, [b]) == [(lhs, rhs)]


@given(comp=small_comps, bs=with_repeats(st.integers(min_value=1, max_value=6)))
@settings(max_examples=40, deadline=None)
def test_kcoeff_batch_matches_fraction_reference(comp, bs):
    assert kcoeff(comp, bs) == [_kcoeff_reference(comp, b) for b in bs] == [0] * len(bs)
    assert kcoeff_closed_form(comp, bs) == [_kcoeff_closed_form_reference(comp, b) for b in bs] == [0] * len(bs)
    # kcoeff's outer m's are prefix products, each the m_ratio of its composition
    for b, row in zip(bs, juhl_core._outer_ms(comp, bs), strict=True):
        assert len(row) == len(comp)
        for p, pair in enumerate(row):
            assert Fraction(*pair) == Fraction(*exact_core.m_ratio(comp[:p] + (sum(comp[p:]) + b,))), (p, b)
    # both paths read m_{(K,b)} through m_ratio, and kcoeff its outer m's through
    # _outer_ms (its inner sums share verify_kidenb's walk), so reweighting them
    # compares sums that do not vanish
    with pytest.MonkeyPatch.context() as mp:
        _weighted(mp)
        weighted = kcoeff(comp, bs)
        weighted_closed = kcoeff_closed_form(comp, bs)
    assert weighted == [_kcoeff_reference(comp, b, outer_m=_weighted_m_coeff) for b in bs]
    assert weighted_closed == [_kcoeff_closed_form_reference(comp, b, m=_weighted_m_coeff) for b in bs]


@given(comp=small_comps, b=st.integers(min_value=1, max_value=6), x=grid_values, y=grid_values)
@settings(max_examples=60, deadline=None)
def test_kernel_pairs_match_fraction_references(comp, b, x, y):
    # each private kernel returns unreduced integer pairs; read as Fractions
    # they are the plain-Fraction references (the kcoeff sums reweighted so
    # that they do not vanish)
    if len(comp) > 1:
        [(lhs, rhs)] = juhl_core._krattenthaler_sides(comp, [(x, y)])
        assert Fraction(*lhs) == _krattenthaler_lhs_reference(comp, x, y) == Fraction(*rhs)
        lhs, rhs = juhl_core._telescope_sides(comp)
        assert (Fraction(*lhs), Fraction(*rhs)) == _telescope_reference(comp)
    [(lhs, rhs)] = juhl_core._kidenb_sides(comp, [b])
    assert Fraction(*lhs) == _kidenb_lhs_reference(comp, b) == Fraction(*rhs)
    with pytest.MonkeyPatch.context() as mp:
        _weighted(mp)
        [literal] = juhl_core._kcoeff(comp, [b])
        [closed] = juhl_core._kcoeff_closed_form(comp, [b])
    assert Fraction(*literal) == _kcoeff_reference(comp, b, outer_m=_weighted_m_coeff)
    assert Fraction(*closed) == _kcoeff_closed_form_reference(comp, b, m=_weighted_m_coeff)


def test_kcoeff_walks_each_tail_once(monkeypatch):
    # compositions that share a suffix share its X = Y walk: over the
    # krattenthaler suite at order 8, each distinct (tail, bs) is walked
    # once, and each cached result is the uncached walk's
    plain = juhl_core._kidenb_sums
    walks = []

    def counting(comp, bs):
        walks.append((tuple(comp), tuple(bs)))
        return plain(comp, bs)

    monkeypatch.setattr(juhl_core, "_kidenb_sums", counting)
    juhl_core._tail_sums.cache_clear()
    assert all(report.passed for report in suites.run_suites(["krattenthaler"], 8))
    assert len(walks) == len(set(walks))
    tails = [(tail, bs) for tail, bs in walks if len(bs) == 5]  # kcoeff's b = 1..5; verify_kidenb reads 10
    info = juhl_core._tail_sums.cache_info()
    assert info.misses == len(tails) and info.hits > len(tails)
    for tail, bs in tails:
        assert juhl_core._tail_sums(tail, bs) == tuple(plain(tail, list(bs))), tail



@pytest.mark.parametrize(
    "call",
    [
        lambda empty: krattenthaler_identity((1, 2), empty),
        lambda empty: verify_kidenb((1, 2), empty),
        lambda empty: kcoeff((1, 2), empty),
        lambda empty: kcoeff_closed_form((1, 2), empty),
    ],
    ids=["krattenthaler_identity", "verify_kidenb", "kcoeff", "kcoeff_closed_form"],
)
@pytest.mark.parametrize("empty", [[], (), range(0)], ids=["list", "tuple", "range"])
def test_identities_reject_an_empty_parameter_sequence(call, empty):
    # an empty list of sides would let a check pass without comparing anything
    with pytest.raises(ValueError, match="need at least one"):
        call(empty)
