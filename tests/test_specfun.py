import functools
import importlib.util
import math
import pathlib
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoment import specfun
from netmoment.field import _FAR_FIELD_ROWS, _finite_part
from netmoment.quad import MAX_POWER
from netmoment.specfun import (DomainError, STRUVE_MAX_ARG, TailIntegralKind,
                               bessel_j0, bessel_j1, bessel_j1_prime, bessel_j2,
                               ring_trig_integral, sin_cos_components,
                               sin_cos_components_quadrature, sin_cos_taylor,
                               struve_h0, struve_h1, tail_integral,
                               tail_integral_quadrature, tail_recursion_rhs)
from oracles import (COS_TAYLOR_SHAPES, SIN_TAYLOR_SHAPES, bessel_series_frac_per_term,
                     euler_sum_list, exact_series_coefficients, high_precision_ring_fd,
                     ring_angle_rule_unfolded, ring_forms_tabulated, sin_cos_taylor_tabulated,
                     struve_series_frac_per_term, tail_integrals_tabulated,
                     tail_recursion_rhs_tabulated)

RHO_SET = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0)


def test_bessel_values_at_zero():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j1(0.0) == 0.0
    assert bessel_j1_prime(0.0) == 0.5


def test_bessel_against_reference_series():
    with mp.workdps(40):
        for x in np.linspace(0.0, 50.0, 161):
            assert abs(bessel_j0(x) - float(mp.besselj(0, x))) < 1e-12
            assert abs(bessel_j1(x) - float(mp.besselj(1, x))) < 1e-12


def test_j0_derivative_is_minus_j1():
    rng = np.random.default_rng(11)
    h = 1e-3  # five-point stencil: truncation O(h^4), rounding O(eps/h)
    for x in rng.uniform(0.2, 45.0, 20):
        der = (-bessel_j0(x + 2 * h) + 8 * bessel_j0(x + h)
               - 8 * bessel_j0(x - h) + bessel_j0(x - 2 * h)) / (12 * h)
        assert der == pytest.approx(-bessel_j1(x), abs=1e-10)


def test_j0_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0 > bessel_j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(bessel_j0(0.5 * (lo + hi))) < 1e-10


@pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_j1_prime, bessel_j2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_bessel_rejects_nonfinite_x(fn, bad):
    # inf used to raise a bare "math domain error" and NaN to return NaN
    with pytest.raises(DomainError, match=re.escape(f"{fn.__name__} needs finite x, got {bad}")):
        fn(bad)


_BESSEL_REFERENCES = {
    bessel_j0: lambda x: mp.besselj(0, x),
    bessel_j1: lambda x: mp.besselj(1, x),
    bessel_j1_prime: lambda x: mp.besselj(1, x, derivative=1),
    bessel_j2: lambda x: mp.besselj(2, x),
}


@pytest.mark.parametrize("fn", list(_BESSEL_REFERENCES))
def test_bessel_accepts_the_series_cap(fn):
    with mp.workdps(40):
        for x in (-STRUVE_MAX_ARG, STRUVE_MAX_ARG):
            assert abs(fn(x) - float(_BESSEL_REFERENCES[fn](x))) < 1e-12, x


@pytest.mark.parametrize("fn", list(_BESSEL_REFERENCES))
@pytest.mark.parametrize("bad", [50.000001, -60.0])
def test_bessel_refuses_beyond_the_series_cap(fn, bad):
    # bessel_j0(60.0) used to return -0.0915 from a large-argument form
    with pytest.raises(DomainError, match=re.escape(f"{fn.__name__} needs |x| <= 50.0, got {bad}")):
        fn(bad)


def test_bessel_functions_round_the_exact_series_once(monkeypatch):
    # J_n is the series that the closed forms read, rounded once, at every |x| <= 50
    for x in (1e-300, 0.3, 4.0, 17.9, 18.1, 30.0, 49.5):
        for n, fn in enumerate((bessel_j0, bessel_j1, bessel_j2)):
            want = float(specfun._bessel_series_frac(Fraction(x), n))
            assert fn(x).hex() == want.hex(), (n, x)
            assert fn(-x).hex() == ((-1) ** n * want).hex(), (n, x)

    def broken(*args):
        raise AssertionError("exact series reached")

    monkeypatch.setattr(specfun, "_alternating_series", broken)
    for fn in _BESSEL_REFERENCES:
        with pytest.raises(AssertionError, match="exact series reached"):
            fn(30.0)


def test_bessel_j1_prime_keeps_its_limit_at_subnormal_x():
    # J1(x) used to round to 0 before the division: 5e-324 gave 1.0 and
    # 1e-310 gave 0.5000000000000246
    for x in (5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-160):
        assert bessel_j1_prime(x) == 0.5, x


def _dyadic_arguments():
    rng = np.random.default_rng(2024)
    xs = [Fraction(float(x)) for x in rng.uniform(0.0, 50.0, 12)]
    # p / 2^e in (0, 50]
    xs += [Fraction(int(rng.integers(1, 50 * 2**e + 1)), 2**e) for e in (0, 3, 11, 24, 40)]
    return xs + [Fraction(0), Fraction(1e-9), Fraction(50)]


@pytest.mark.parametrize("tol_exp", [22, 30])
def test_integer_series_equal_per_term_fraction_series(tol_exp):
    # same rational as the per-term Fraction sum, so the same stop term and bits
    for x in _dyadic_arguments():
        for n in (0, 1, 2):
            assert (specfun._bessel_series_frac(x, n, tol_exp)
                    == bessel_series_frac_per_term(x, n, tol_exp)), (x, n)
        for n in (0, 1):
            assert (specfun._struve_series_frac(x, n, tol_exp)
                    == struve_series_frac_per_term(x, n, tol_exp)), (x, n)


def test_struve_values_at_zero():
    assert struve_h0(0.0) == 0.0
    assert struve_h1(0.0) == 0.0


def test_struve_large_argument_limit():
    assert abs(struve_h1(40.0) - 2.0 / math.pi) < 0.1


def test_struve_against_extended_precision_series():
    with mp.workdps(50):
        for x in (1.0, 7.0, 23.0, 50.0):
            assert abs(struve_h0(x) - float(mp.struveh(0, x))) < 1e-10
            assert abs(struve_h1(x) - float(mp.struveh(1, x))) < 1e-10


def test_struve_domain_enforced():
    with pytest.raises(DomainError):
        struve_h0(-0.5)
    with pytest.raises(DomainError):
        struve_h1(STRUVE_MAX_ARG + 1.0)


def test_tail_integrals_match_quadrature():
    for kind in TailIntegralKind:
        for rho in RHO_SET:
            closed = tail_integral(kind, rho)
            ref = tail_integral_quadrature(kind, rho)
            assert closed == pytest.approx(ref, rel=1e-8), (kind, rho)


def test_tail_quadrature_shares_no_code_with_closed_forms(monkeypatch):
    # the quadrature route must still run with every Bessel routine of the
    # closed forms broken, so a fault there cannot hide on both sides
    closed = {kind: tail_integral(kind, 1.0) for kind in TailIntegralKind}

    def broken(*args, **kwargs):
        raise AssertionError("closed-form Bessel code reached from the quadrature route")

    # values cached by earlier calls would pass without running the quadrature
    specfun._tail_quadratures.cache_clear()
    for name in ("_exact_series", "_alternating_series", "_bessel_series_ratio",
                 "_bessel_series_frac", "_struve_series_frac", "_bessel_j",
                 "bessel_j0", "bessel_j1", "bessel_j2"):
        monkeypatch.setattr(specfun, name, broken)
    for kind, want in closed.items():
        assert tail_integral_quadrature(kind, 1.0) == pytest.approx(want, rel=1e-8), kind


def test_bessel_integral_against_mpmath():
    # one call for all orders over the whole range, and one per panel batch
    # of nodes; the node count follows each call's input
    xs = np.linspace(0.0, 400.0, 1601)
    orders = (0, 1, 2)
    calls = [specfun._bessel_integral(orders, xs)]
    for batch in (specfun._FIRST_BATCH, specfun._BATCH):
        size = batch * len(specfun._GL_NODES)
        calls.append(np.concatenate([specfun._bessel_integral(orders, xs[i:i + size])
                                     for i in range(0, xs.size, size)], axis=1))
    with mp.workdps(30):
        for n in orders:
            ref = np.array([float(mp.besselj(n, x)) for x in xs])
            for values in calls:
                assert np.max(np.abs(values[n] - ref)) < 1e-14, n


def test_tail_quadrature_resolves_small_lower_limit():
    # the steep x^-7 factor at rho = 0.5 needs the graded first panel
    for kind in TailIntegralKind:
        closed = tail_integral(kind, 0.5)
        assert tail_integral_quadrature(kind, 0.5) == pytest.approx(closed, rel=1e-12), kind


def _panel_integrals(rows, a, tol):
    """_integrate_panels of the rows as one group: values, integrand calls, panels used.

    The panels used are the 20-node rules on [a, a + L pi], L the width of
    the last `_euler_sums` call (the stopping checkpoint + 1, or the panel
    cap); each piece of the graded first panel counts as one.
    """
    nodes, widths = [], []
    euler_sums = specfun._euler_sums

    def f(x):
        nodes.append(x)
        return np.stack([row(x) for row in rows])

    def recorded(panels):
        widths.append(panels.shape[-1])
        return euler_sums(panels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_euler_sums", recorded)
        values = specfun._integrate_panels(f, a, math.pi, tol)
    x = np.concatenate(nodes)
    used = np.count_nonzero(x < a + widths[-1] * math.pi) // len(specfun._GL_NODES)
    return values, len(nodes), used


_PANEL_ROWS = (lambda x: np.sin(x) / x, lambda x: np.sin(x) / x**4,
               lambda x: np.cos(x), lambda x: x)


def test_panel_group_runs_as_long_as_its_slowest_row():
    # rows that stop at different panels alone, one never (it runs to the panel
    # cap); a group stops with its slowest row, and each grouped value stays
    # within 1e-13 of the row's own integral (8.3e-14 seen on the cos row,
    # grouped to the cap).  The first panel has four pieces at a = 0.3, so a
    # row that stops at checkpoint i used i + 4 rules.
    alone = [_panel_integrals([row], 0.3, 1e-13) for row in _PANEL_ROWS]
    assert [used for *_, used in alone] == [44, 40, 24, 403]
    for group, panels in ((_PANEL_ROWS, 403), (_PANEL_ROWS[:2], 44)):
        together, _, used = _panel_integrals(group, 0.3, 1e-13)
        assert used == panels
        for value, ((lone,), *_) in zip(together, alone):
            assert value == pytest.approx(lone, rel=1e-13, abs=0.0)


def test_panels_are_evaluated_in_batches(monkeypatch):
    # the capped group calls its integrand once for the graded first panel,
    # once for panels 1-16 and once per 8 panels after them: 50 calls, where
    # one call per panel made 403
    _, calls, _ = _panel_integrals(_PANEL_ROWS, 0.3, 1e-13)
    assert calls <= 50
    # one run of the identity table, from an empty cache, makes 67 batch calls
    # (37 for the 6 tail groups, one per rho, and 30 for the 6 ring groups,
    # two trigs at three scales), where one call per panel made 1011
    gauss_legendre = specfun._gauss_legendre
    batches = []
    monkeypatch.setattr(specfun, "_gauss_legendre",
                        lambda f, edges: batches.append(len(edges) - 1) or gauss_legendre(f, edges))
    specfun._tail_quadratures.cache_clear()
    for _, check in specfun.IDENTITIES.values():
        check()
    assert len(batches) == 67


@pytest.mark.parametrize("rho", [0.5, 0.7, 1.0, 2.0, 3.0, 5.0, 10.0, 12.0, 25.0])
def test_tail_kinds_match_one_row_integrals(rho):
    # a kind integrated with the other six stays within 1e-13 of its own
    # one-row integral (3.8e-14 seen); the group is computed once per rho
    specfun._tail_quadratures.cache_clear()
    for kind, (n, p) in specfun._TAIL_INTEGRANDS.items():
        (lone,), *_ = _panel_integrals([lambda x: specfun._bessel_integral((n,), x)[0] / x**p],
                                       rho, specfun._TAIL_TOL)
        assert tail_integral_quadrature(kind, rho) == pytest.approx(lone, rel=1e-13, abs=0.0), \
            (kind, rho)
    assert specfun._tail_quadratures.cache_info().misses == 1


@pytest.mark.parametrize("length", [1, 7, 39, 40, 41, 97, 400])
def test_euler_sums_match_pairwise_averages_to_rounding(length):
    # the binomial weights in one product sum the last 40 partial sums in
    # another order than the pairwise averages, so each row sits within
    # 4 eps times the sum of their magnitudes of the list transform; each row
    # still has the bits of a call on that row alone
    rng = np.random.default_rng(length)
    panels = rng.normal(size=(4, length)) * np.exp(rng.normal(scale=5.0, size=(4, length)))
    together = specfun._euler_sums(panels).tolist()
    for row, value in zip(panels, together):
        assert value.hex() == specfun._euler_sums(row[None]).tolist()[0].hex()
        partial_sums = np.cumsum(row[-min(length, 40):])
        bound = 4 * np.finfo(float).eps * np.sum(np.abs(partial_sums))
        assert abs(value - euler_sum_list(row.tolist())) <= bound


def test_tail_reduction_identity():
    for n in (1, 2, 3):
        kind = {1: TailIntegralKind.J1_OVER_X_P3,
                2: TailIntegralKind.J1_OVER_X_P5,
                3: TailIntegralKind.J1_OVER_X_P7}[n]
        for rho in (0.7, 3.0, 12.0):
            lhs = tail_integral(kind, rho)
            rhs = tail_recursion_rhs(n, rho)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [1.0, 2.5, True, np.float64(2.0), "1", 0, 4])
def test_tail_recursion_rejects_non_integer_or_out_of_range_n(n):
    # a float n leaked float arithmetic into the exact form, and True was n = 1
    with pytest.raises(DomainError, match=re.escape(f"integer n in {{1, 2, 3}}, got {n!r}")):
        tail_recursion_rhs(n, 3.0)


def test_tail_recursion_accepts_numpy_integer_n():
    assert tail_recursion_rhs(np.int64(2), 3.0).hex() == tail_recursion_rhs(2, 3.0).hex()


def test_closed_forms_build_the_exact_series_once_per_rho(monkeypatch):
    # every closed form at one rho reads one cached set of J0, J1, (pi/2)H0 and
    # (pi/2)H1, with the bits of the values built afresh for each call
    rho = 2.7
    closed_forms = [functools.partial(tail_integral, kind) for kind in TailIntegralKind]
    fresh = []
    for fn in closed_forms:
        specfun._exact_series.cache_clear()
        fresh.append(fn(rho).hex())
    calls = []
    for name in ("_bessel_series_frac", "_struve_series_frac"):
        monkeypatch.setattr(specfun, name, lambda *a, _f=getattr(specfun, name):
                            calls.append(a) or _f(*a))
    specfun._exact_series.cache_clear()
    assert [fn(rho).hex() for fn in closed_forms] == fresh
    assert len(calls) == 4


# lower limits in [1e-3, 50]: from where the hand forms cancel heavily up to
# the Struve cap, dyadic and not
EXACT_RHOS = (1e-3, 4e-3, 0.1, 0.5, 0.7, 1.0, 2.7, 3.0, 7.25, 12.0, 18.3, 25.0,
              33.3, 49.0, 50.0)


@pytest.mark.parametrize("rho", EXACT_RHOS)
def test_tail_forms_equal_the_hand_forms(rho):
    # the forms derived from int J0 alone are the hand-typed rationals, so the
    # public floats keep the bits the hand forms gave
    r = Fraction(rho)
    hand = tail_integrals_tabulated(r)
    for kind, (i, p) in specfun._TAIL_INTEGRANDS.items():
        assert specfun._value(specfun._tail_form(i, p), r) == hand[kind.value], kind
        assert tail_integral(kind, rho).hex() == float(hand[kind.value]).hex(), kind
    # the right side of the reduction identity is summed in floats, a second route
    for n in (1, 2, 3):
        want = tail_recursion_rhs_tabulated(n, r)
        assert abs(tail_recursion_rhs(n, rho) - want) <= 1e-13 * abs(want), n


@pytest.mark.parametrize("rho", EXACT_RHOS)
def test_ring_forms_equal_the_hand_forms(rho):
    r = Fraction(rho)
    hand = ring_forms_tabulated(r)
    assert set(hand) == set(specfun._RING_SHAPES)
    for shape, want in hand.items():
        assert specfun._value(specfun._ring_form(*shape), r) == want, shape


def _laurent(form, order: int) -> dict[int, Fraction]:
    """{power: coefficient} of a form expanded in rho, through rho^order."""
    series = exact_series_coefficients(order - min(k for _, k in form))
    out: dict[int, Fraction] = {}
    for (f, k), c in form.items():
        for power, s in series[f].items():
            if power + k <= order:
                out[power + k] = out.get(power + k, 0) + c * s
    return out


# every even-b shape (a, b, n) with odd n <= 15 and e = n - 2 - a - b >= 1:
# today's eight ring shapes and the terms of the orders past today's ladder
BRIDGE_SHAPES = [(a, b, n) for n in range(3, 16, 2) for b in range(0, n, 2) for a in range(n)
                 if n - 2 - a - b >= 1]


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_ring_forms_expand_onto_the_finite_part_rule(n):
    # the Laurent expansion in rho of each generated ring form carries the
    # ring Taylor data: the coefficient of rho^(q-e) is
    # -(-1)^(q//2) _finite_part(q, a, b, n) / (2 q!) for q = a (mod 2), the
    # other parity vanishes except at q = e, and nothing lies below rho^-e
    assert len(BRIDGE_SHAPES) == 140 and set(specfun._RING_SHAPES) <= set(BRIDGE_SHAPES)
    for a, b, _ in [shape for shape in BRIDGE_SHAPES if shape[2] == n]:
        e = n - 2 - a - b
        series = _laurent(specfun._ring_form(a, b, n), MAX_POWER + 2 - e)
        assert min(power for power, c in series.items() if c) >= -e, (a, b, n)
        for q in range(MAX_POWER + 3):
            got = series.get(q - e, 0)
            if (q - a) % 2 == 0:
                want = -(-1) ** (q // 2) * _finite_part(q, a, b, n) / (2 * math.factorial(q))
                assert got == want, (a, b, n, q)
            elif q != e:
                assert got == 0, (a, b, n, q)


def test_closed_forms_reject_rho_beyond_struve_cap():
    # tail_recursion_rhs used to return a value at rho = 120 that tail_integral refuses
    for fn in (lambda rho: tail_integral(TailIntegralKind.J1_OVER_X_P1, rho),
               lambda rho: tail_recursion_rhs(1, rho)):
        fn(STRUVE_MAX_ARG)
        with pytest.raises(DomainError, match=re.escape("rho <= 50.0, got 120.0")):
            fn(120.0)


def test_deep_tail_is_tiny():
    assert abs(tail_integral(TailIntegralKind.J1_OVER_X_P7, 30.0)) < 1e-8


def test_tail_integral_domain():
    with pytest.raises(DomainError):
        tail_integral(TailIntegralKind.J0_TOTAL, 0.0)
    with pytest.raises(DomainError):
        tail_integral(TailIntegralKind.J0_TOTAL, -2.0)


def test_tail_integral_rejects_unknown_kind():
    for kind in ("j0_total", None, 3):
        with pytest.raises(DomainError, match=re.escape(f"unknown tail integral kind {kind!r}")):
            tail_integral(kind, 1.0)


def test_tail_integral_quadrature_rejects_unknown_kind():
    # the string used to raise a bare KeyError from the integrand table
    for kind in ("j0_total", None, 3, [TailIntegralKind.J0_TOTAL]):
        for fn in (tail_integral, tail_integral_quadrature):
            with pytest.raises(DomainError,
                               match=re.escape(f"unknown tail integral kind {kind!r}")):
                fn(kind, 1.0)


def test_tail_functions_reject_nonfinite_rho():
    for bad in (math.nan, math.inf, -math.inf):
        for fn in (lambda rho: tail_integral(TailIntegralKind.J0_TOTAL, rho),
                   lambda rho: tail_integral_quadrature(TailIntegralKind.J0_TOTAL, rho),
                   lambda rho: tail_recursion_rhs(1, rho)):
            with pytest.raises(DomainError, match="rho"):
                fn(bad)


def test_identity_table_names_tolerances_and_rows():
    # names and order are the benchmark's; the tolerances are written here, so
    # an edit to the table cannot loosen them unnoticed
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert list(specfun.IDENTITIES) == list(workloads.SPECFUN_CHECKS)
    tolerances = [tol for tol, _ in specfun.IDENTITIES.values()]
    assert tolerances == ([1e-8] * 7 + [1e-10] * 3
                          + [1e-12, 1e-10, 1e-10, 1e-9, 0.0, 1e-6, 1e-4])
    for name, (tol, check) in specfun.IDENTITIES.items():
        assert check() <= tol, name


def test_nan_error_fails_its_identity_row(monkeypatch):
    # a NaN error must not be dropped by the worst-error fold of a check
    tail_rows = [name for name in specfun.IDENTITIES if name.startswith(("tail:", "recursion:"))]
    sources = [
        ("bessel_j0", lambda x: math.nan,
         ["bessel:j0-derivative", "bessel:j0-envelope", "bessel:j0-ring-representation"]),
        ("tail_integral", lambda kind, rho: math.nan, tail_rows),
        ("sin_cos_components", lambda k1, radius: dict.fromkeys(specfun._RING_SHAPES, math.nan),
         ["ring:sin-cos-closed-forms", "ring:taylor-low-orders"]),
        ("_angles", lambda n: (np.full(n, math.nan), np.full(n, math.nan)),
         ["ring:odd-symmetry-vanishing", "bessel:j0-ring-representation",
          "bessel:j1-ring-representation"]),
    ]
    assert len(tail_rows) == 10
    for source, nan, names in sources:
        with monkeypatch.context() as patch:
            patch.setattr(specfun, source, nan)
            for name in names:
                _, check = specfun.IDENTITIES[name]
                assert math.isnan(check()), (source, name)


def _scaled_value(monkeypatch):
    # every closed form, read through the one exact evaluation of a form
    value = specfun._value
    monkeypatch.setattr(specfun, "_value",
                        lambda form, rho: value(form, rho) * Fraction(1001, 1000))


def _scaled_series(monkeypatch):
    # every exact series, and so every float J_n and every closed form
    series = specfun._alternating_series

    def scaled(*args):
        num, den = series(*args)
        return num * 1000001, den * 1000000

    monkeypatch.setattr(specfun, "_alternating_series", scaled)


def _changed_bessel(n, change):
    # J_n alone: J0' = -J1 and the envelope hold under a factor common to J0 and J1
    def patch(monkeypatch):
        bessel_j = specfun._bessel_j
        monkeypatch.setattr(specfun, "_bessel_j",
                            lambda m, x: change(bessel_j(m, x)) if m == n else bessel_j(m, x))
    return patch


def _stretched_angles(monkeypatch):
    # the angle rule with step 2 pi / (n + 1): its nodes no longer close the circle
    def angles(n):
        theta = 2.0 * math.pi * np.arange(n) / (n + 1)
        return np.cos(theta), np.sin(theta)

    monkeypatch.setattr(specfun, "_angles", angles)


# identity row -> a perturbation of what it checks that must fail it
_MUTATIONS = {
    **{name: _scaled_value for name in specfun.IDENTITIES
       if name.startswith(("tail:", "recursion:", "ring:sin-cos", "ring:taylor"))},
    "bessel:j0-ring-representation": _scaled_series,
    "bessel:j1-ring-representation": _scaled_series,
    "bessel:j0-derivative": _changed_bessel(1, lambda v: v * (1 + 1e-6)),
    "bessel:j0-envelope": _changed_bessel(0, lambda v: v + 0.1),
    "ring:odd-symmetry-vanishing": _stretched_angles,
}


def test_every_identity_row_has_a_mutation():
    assert sorted(_MUTATIONS) == sorted(specfun.IDENTITIES)


@pytest.mark.parametrize("name", list(_MUTATIONS))
def test_identity_row_fails_under_its_mutation(name, monkeypatch):
    tol, check = specfun.IDENTITIES[name]
    # cached values would hide the mutation, and values cached under it would
    # leak into later tests
    specfun._exact_series.cache_clear()
    specfun._tail_quadratures.cache_clear()
    _MUTATIONS[name](monkeypatch)
    try:
        err = check()
    finally:
        specfun._exact_series.cache_clear()
    assert not err <= tol, (name, err)


def test_tail_integral_rho_derivative():
    # d/drho of the 1/x^3 tail is -J1(rho)/rho^3
    for rho in (0.8, 2.5, 7.0):
        h = 1e-4
        fd = (tail_integral(TailIntegralKind.J1_OVER_X_P3, rho + h)
              - tail_integral(TailIntegralKind.J1_OVER_X_P3, rho - h)) / (2 * h)
        assert fd == pytest.approx(-bessel_j1(rho) / rho**3, abs=1e-6)


def test_odd_symmetry_draws_are_the_generators_draws():
    # the row drew these from default_rng(12345), in this call order; the table
    # keeps numpy.random out of verify-specfun, and this keeps it the same data
    rng = np.random.default_rng(12345)
    drawn = [(float(rng.uniform(-10, 10)), int(rng.integers(0, 4)), int(rng.integers(0, 4)))
             for _ in range(20)]
    assert specfun._ODD_SYMMETRY_DRAWS == tuple(drawn)
    assert all(list(map(type, triple)) == [float, int, int]
               for triple in specfun._ODD_SYMMETRY_DRAWS)


@given(st.floats(-10, 10), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_odd_symmetry_ring_integrals_vanish(alpha, m, n):
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    w = 2.0 * math.pi / 4096
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    vals = (
        np.sum(np.cos(alpha * cos_t) * cos_t ** (2 * m + 1) * sin_t**n) * w,
        np.sum(np.cos(alpha * cos_t) * cos_t**m * sin_t ** (2 * n + 1)) * w,
        np.sum(np.sin(alpha * cos_t) * cos_t**m * sin_t ** (2 * n + 1)) * w,
        np.sum(np.sin(alpha * cos_t) * cos_t ** (2 * m) * sin_t**n) * w,
    )
    assert max(abs(v) for v in vals) < 1e-12


def test_bessel_ring_representations():
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    cos_t = np.cos(theta)
    for x in np.linspace(0.0, 40.0, 41):
        j0 = float(np.mean(np.cos(x * cos_t)))
        j1 = float(np.mean(np.sin(x * cos_t) * cos_t))
        assert abs(j0 - bessel_j0(x)) < 1e-10
        assert abs(j1 - bessel_j1(x)) < 1e-10


def test_bessel_asymptotic_envelope():
    for x in np.linspace(5.0, 50.0, 91):
        approx = math.sqrt(2.0 / (math.pi * x)) * math.cos(x - math.pi / 4)
        assert abs(bessel_j0(x) - approx) <= x**-1.5


def test_j2_recurrence_consistency():
    for x in (1e-6, 0.005, 0.3, 4.0, 22.0):
        with mp.workdps(40):
            assert bessel_j2(x) == pytest.approx(float(mp.besselj(2, x)), abs=1e-12)


def test_sin_cos_components_match_quadrature():
    for (k1, radius) in ((0.05, 1.0), (0.2, 2.0), (0.5, 3.0)):
        closed = sin_cos_components(k1, radius)
        ref = sin_cos_components_quadrature(k1, radius)
        assert set(closed) == set(ref) == set(specfun._RING_SHAPES)
        for shape, got in closed.items():
            assert got == pytest.approx(ref[shape], rel=1e-6)


def test_ring_shapes_are_the_even_b_far_field_shapes():
    # a term odd in x2 has a zero transform on the x1 axis
    even_b = [shape for shape in _FAR_FIELD_ROWS if shape[1] % 2 == 0]
    assert list(specfun._RING_SHAPES) == even_b
    assert set(even_b) == set(SIN_TAYLOR_SHAPES + COS_TAYLOR_SHAPES)


def test_taylor_table_is_keyed_by_order_and_ring_shape():
    table = sin_cos_taylor(2.0)
    assert list(table) == list(range(MAX_POWER + 1))
    for q, row in table.items():
        # odd orders are the sin integrals' (odd a), even orders the cos integrals'
        assert set(row) == {s for s in specfun._RING_SHAPES if s[0] % 2 == q % 2}, q


def test_sin_component_vanishes_at_small_k1():
    radius = 2.0
    vals = [abs(sin_cos_components(k1, radius)[(1, 0, 5)]) for k1 in (1e-3, 1e-4, 1e-5)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] == pytest.approx(2 * math.pi**2 * 1e-5 / radius, rel=1e-3)


def test_cos_component_limit_is_2pi_over_radius():
    radius = 3.0
    assert sin_cos_components(1e-7, radius)[(0, 0, 3)] == pytest.approx(
        2 * math.pi / radius, rel=1e-5)


def test_sin_cos_components_domain():
    with pytest.raises(DomainError):
        sin_cos_components(0.0, 1.0)
    with pytest.raises(DomainError):
        sin_cos_components(10.0, 1.0)  # rho beyond the Struve cap


def test_sin_cos_components_reject_k1_out_of_float_range():
    # at 1e-200 the form overflowed into a bare OverflowError, and at 1e-100 the
    # prefactor underflowed, so (3, 0, 9), about 1e-99, read 0.0
    for k1 in (1e-300, 1e-200, 1e-100):
        with pytest.raises(DomainError, match=re.escape(f"k1 = {k1!r}")):
            sin_cos_components(k1, 1.0)
    # a tiny radius at a moderate k1 takes the form itself past the float range
    with pytest.raises(DomainError, match="float range"):
        sin_cos_components(1.0, 1e-200)
    assert sin_cos_components(1e-30, 1.0)[(3, 0, 9)] == pytest.approx(4.934802200544679e-30,
                                                                     rel=1e-12)


def test_taylor_table_header_values():
    radius = 2.0
    table = sin_cos_taylor(radius)
    assert table[1][(1, 0, 5)] == pytest.approx(0.5 * (2 * math.pi) ** 2 / radius, rel=1e-15)
    assert table[0][(0, 0, 3)] == pytest.approx(2 * math.pi / radius, rel=1e-15)


def test_taylor_table_against_high_precision_differences():
    radius = 1.3
    rng = np.random.default_rng(5)
    sin_groups = tuple(rng.uniform(-1, 1, 4))
    cos_groups = tuple(rng.uniform(-1, 1, 4))
    fd_sin, fd_cos = high_precision_ring_fd(radius, (sin_groups, cos_groups), dps=80)
    table = sin_cos_taylor(radius)
    for order, row in table.items():
        groups, shapes, fd = ((sin_groups, SIN_TAYLOR_SHAPES, fd_sin) if order % 2
                              else (cos_groups, COS_TAYLOR_SHAPES, fd_cos))
        contracted = sum(c * row[s] for c, s in zip(groups, shapes))
        assert contracted == pytest.approx(fd[order], rel=1e-4), order


@pytest.mark.parametrize("radius", [1.7, 3.3e-3, 2.0, 0.25, 40.0])
def test_taylor_table_bitwise_equals_tabulated_rows(radius):
    """The finite-part rule reproduces the hand-tabulated rows to the last bit."""
    table = sin_cos_taylor(radius)
    tabulated = sin_cos_taylor_tabulated(radius)
    want = {q: dict(zip(shapes, row))
            for trig, shapes in (("sin", SIN_TAYLOR_SHAPES), ("cos", COS_TAYLOR_SHAPES))
            for q, row in tabulated[trig].items()}
    assert sorted(table) == sorted(want)
    for q, row in want.items():
        assert ({s: v.hex() for s, v in table[q].items()}
                == {s: v.hex() for s, v in row.items()}), q


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_taylor_table_rejects_nonpositive_or_nonfinite_radius(radius):
    with pytest.raises(DomainError, match=re.escape(f"radius > 0, got {radius}")):
        sin_cos_taylor(radius)


_K1_RADIUS_FUNCTIONS = {
    "sin_cos_components": sin_cos_components,
    "sin_cos_components_quadrature": sin_cos_components_quadrature,
    "ring_trig_integral": lambda k1, radius: ring_trig_integral("sin", 1, 0, 3, k1, radius),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_K1_RADIUS_FUNCTIONS))
def test_ring_functions_reject_bad_k1_and_radius(name, bad):
    fn = _K1_RADIUS_FUNCTIONS[name]
    with pytest.raises(DomainError, match=re.escape(f"{name} needs finite k1 > 0, got {bad}")):
        fn(bad, 1.0)
    with pytest.raises(DomainError,
                       match=re.escape(f"{name} needs finite radius > 0, got {bad}")):
        fn(0.1, bad)


def test_ring_trig_integral_smoke():
    # the first sin component by its defining double integral
    val = ring_trig_integral("sin", 1, 0, 3, 0.2, 2.0)
    assert val == pytest.approx(sin_cos_components(0.2, 2.0)[(1, 0, 5)], rel=1e-9)


@pytest.mark.parametrize("powers, name", [
    ((1.5, 0, 3), "cos_pow"), ((-2, 0, 3), "cos_pow"), ((True, 0, 3), "cos_pow"),
    ((1, 0.5, 3), "sin_pow"), ((1, -1, 3), "sin_pow"), ((1, False, 3), "sin_pow"),
    ((1, 0, math.nan), "inv_pow"), ((1, 0, -1), "inv_pow"), ((1, 0, 0), "inv_pow"),
    ((1, 0, 2.0), "inv_pow"), ((1, 0, True), "inv_pow"),
])
def test_ring_trig_integral_rejects_bad_powers(powers, name):
    # cos_pow = 1.5 or inv_pow = NaN gave NaN, cos_pow = -2 gave 3.6e30 and the
    # divergent inv_pow = -1 gave 2.81
    least = 1 if name == "inv_pow" else 0
    bad = powers[("cos_pow", "sin_pow", "inv_pow").index(name)]
    with pytest.raises(DomainError, match=re.escape(f"integer {name} >= {least}, got {bad!r}")):
        ring_trig_integral("sin", *powers, 0.2, 1.0)


def test_ring_trig_integral_rejects_unknown_trig():
    for trig in ("tan", "Sin", ""):
        with pytest.raises(DomainError, match=re.escape(f"'sin' or 'cos', got {trig!r}")):
            ring_trig_integral(trig, 0, 0, 2, 0.2, 2.0)


def test_ring_quadrature_term_shapes(monkeypatch):
    # (trig, cos power, sin power, radial inverse power) of the eight components,
    # written out here, not read from the far-field term shapes; the calls follow
    # the derived shapes' order, so the two lists are compared as sets
    want = [("sin", 1, 0, 3), ("sin", 1, 0, 5), ("sin", 3, 0, 5), ("sin", 1, 2, 5),
            ("cos", 0, 0, 2), ("cos", 0, 0, 4), ("cos", 2, 0, 4), ("cos", 0, 2, 4)]
    calls = []

    def grouped(trig, powers, k1, radius):
        calls.extend((trig, a, b, p) for a, b, p in powers)
        return [0.0] * len(powers)

    monkeypatch.setattr(specfun, "_ring_trig_integrals", grouped)
    sin_cos_components_quadrature(0.2, 2.0)
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize("k1, radius", [(0.05, 1.0), (0.2, 2.0), (0.5, 3.0)])
def test_ring_quadrature_components_match_lone_ring_integrals(k1, radius):
    # sharing panels within a trig keeps each component within 1e-13 of a
    # lone call (6.9e-14 seen over the three scales of verify-specfun)
    grouped = sin_cos_components_quadrature(k1, radius)
    for (a, b, n), value in grouped.items():
        lone = ring_trig_integral("sin" if a % 2 else "cos", a, b, n - a - b - 1, k1, radius)
        assert value == pytest.approx(lone, rel=1e-13, abs=0.0), (a, b, n)


@pytest.mark.parametrize("k1, radius", [(0.05, 1.0), (0.2, 2.0), (0.5, 3.0)])
def test_ring_trig_integral_folds_the_angle_rule(k1, radius):
    # the rule folded onto [0, pi/2] gives exactly 0.0 where its weight
    # (1 + (-1)^b)(1 + s (-1)^a) vanishes, s = +1 for cos and -1 for sin, and
    # elsewhere the value of the rule over all 256 nodes of the circle, both
    # integrated over the same radial panels.  They differ by roundoff only:
    # under 1e-13 relative, or 1e-14 where cancellation leaves a small value
    # (cos, 0, 4, 1 at k1 = 0.5: 4.4e-3, 9.5e-16 apart; against a 40-digit sum
    # of the 256-node rule the fold is off by 1.8e-16, the unfolded sum 4.4e-16)
    for trig, s in (("sin", -1), ("cos", 1)):
        for a in range(5):
            for b in range(5):
                for p in (1, 3):
                    value = ring_trig_integral(trig, a, b, p, k1, radius)
                    if (1 + (-1) ** b) * (1 + s * (-1) ** a) == 0:
                        assert value == 0.0, (trig, a, b, p)
                        continue
                    (ref,) = specfun._integrate_panels(
                        functools.partial(ring_angle_rule_unfolded, trig, a, b, p, k1),
                        radius, 0.5 / k1, specfun._RING_TOL)
                    assert value == pytest.approx(ref, rel=1e-13, abs=1e-14), (trig, a, b, p)


def test_bessel_j1_prime_against_mpmath():
    with mp.workdps(40):
        for x in (-37.5, -3.0, 1e-3, 0.7, 4.2, 17.9, 18.1, 49.0):
            assert abs(bessel_j1_prime(x) - float(mp.besselj(1, x, derivative=1))) < 1e-12, x
