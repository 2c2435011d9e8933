"""Array kernels against the per-point matrix path, by property.

Every distance kernel takes an array of cos^2 (or of phases) and must agree,
point by point, with evolving the state matrix and measuring it through
:mod:`mpemba_qsim.metrics`, within TOL.  Two known errors of that reference
widen the trace comparison by exactly their measured size: it clamps
eigenvalues below EIGENVALUE_CLIP to 0, and its log-gamma binomial
populations carry rounding of order eps * ln C(n, k) (about 1e-14 at n = 170).

The same kernels are also checked against the bounds of their metric and
for growth with cos^2, the direction in which every curve here relaxes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpemba_qsim import metrics, oscillator, tls
from mpemba_qsim.oscillator import Coherent, Fock, Thermal
from mpemba_qsim.schedules import Ramp
from mpemba_qsim.states import BathThermal, BlochVector, ZERO_TEMPERATURE

from conftest import bloch_vectors

TOL = 1e-15
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

# cos^2 grids always hold the endpoints 0 and 1 exactly
cos2_grids = st.lists(st.floats(0.0, 1.0), max_size=6).map(
    lambda values: np.array([0.0, 1.0, *values])
)


def matrix_distances(rho: np.ndarray, ground: np.ndarray) -> tuple[float, float, float]:
    """Trace and HS distance through metrics, and the trace mass the clip drops."""
    w = np.linalg.eigvalsh(rho - ground)
    dropped = 0.5 * float(np.sum(np.abs(w[np.abs(w) < metrics.EIGENVALUE_CLIP])))
    return metrics.trace_distance(rho, ground), metrics.hs_distance(rho, ground), dropped


def fock_population_error(n: int, cos2: float) -> float:
    """Trace-norm error of the matrix path's binomial populations."""
    exact = [math.comb(n, k) * cos2**k * (1.0 - cos2) ** (n - k) for k in range(n + 1)]
    return 0.5 * float(np.sum(np.abs(oscillator.binomial_populations(n, cos2, n + 1) - exact)))


def check_oscillator(state, cos2: np.ndarray, dim: int) -> None:
    trace = oscillator.trace_distance_closed(state, cos2)
    hs = oscillator.hs_distance_closed(state, cos2)
    assert trace.shape == hs.shape == cos2.shape
    ground = oscillator.ground_state(dim)
    for c, got_trace, got_hs in zip(cos2.tolist(), trace, hs):
        rho = oscillator.evolve_closed_form(state, c, dim=dim)
        ref_trace, ref_hs, dropped = matrix_distances(rho, ground)
        if isinstance(state, Fock):
            dropped += fock_population_error(state.n, c)
        assert abs(got_trace - ref_trace) <= TOL + dropped, (state, c)
        assert abs(got_hs - ref_hs) <= TOL, (state, c)


def check_qubit(value: float, rho: np.ndarray, target: np.ndarray) -> None:
    ref, _, dropped = matrix_distances(rho, target)
    assert abs(value - ref) <= TOL + dropped


@SETTINGS
@given(nbar=st.floats(0.0, 3.0), cos2=cos2_grids)
def test_thermal_matches_matrix_path(nbar, cos2):
    # 150 levels leave a tail below 0.75^150 ~ 1e-19 of the untruncated state
    check_oscillator(Thermal(nbar), cos2, 150)


@SETTINGS
@given(
    alpha=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    cos2=cos2_grids,
)
def test_coherent_matches_matrix_path(alpha, cos2):
    check_oscillator(Coherent(alpha), cos2, 40)


@pytest.mark.parametrize("n", [0, 1, 3, 20, 170])
@SETTINGS
@given(cos2=cos2_grids)
def test_fock_matches_matrix_path(n, cos2):
    check_oscillator(Fock(n), cos2, n + 2)


def test_fock_hs_endpoints_are_exact():
    cos2 = np.array([0.0, 1.0])
    for n in (1, 3, 20, 170):
        assert oscillator.hs_distance_closed(Fock(n), cos2).tolist() == [0.0, math.sqrt(2.0)]
    assert oscillator.hs_distance_closed(Fock(0), cos2).tolist() == [0.0, 0.0]


def test_scalar_input_gives_float():
    for law in (oscillator.trace_distance_closed, oscillator.hs_distance_closed):
        for state in (Thermal(1.0), Coherent(0.5), Fock(3)):
            assert type(law(state, 0.25)) is float
    assert type(tls.jcm_trace_distance(BlochVector(0.1, 0.2, 0.3), 0.25)) is float


@SETTINGS
@given(r=bloch_vectors(), beta=st.sampled_from([0.1, 1.0]), cos2=cos2_grids)
def test_jcm_series_matches_matrix_path(r, beta, cos2):
    bath = BathThermal(beta)
    phi = np.arccos(np.sqrt(cos2))
    rho_ee, rho_eg = tls.jcm_thermal_series(r, tls.jcm_bath_sums(bath, phi))
    got = metrics.traceless_qubit_distance(rho_ee, rho_eg)
    for p, value in zip(phi, got):
        check_qubit(value, tls.jcm_thermal_components(r, bath, float(p)), tls.ground_state())


@SETTINGS
@given(r=bloch_vectors(), cos2=cos2_grids)
def test_jcm_zero_temperature_law_matches_matrix_path(r, cos2):
    got = tls.jcm_trace_distance(r, cos2)
    for c, value in zip(cos2, got):
        rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, math.acos(math.sqrt(c)))
        check_qubit(value, rho, tls.ground_state())


@SETTINGS
@given(r=bloch_vectors(), beta=st.sampled_from([math.inf, 0.1, 1.0]), cos2=cos2_grids)
def test_pair_components_match_matrix_path(r, beta, cos2):
    bath = BathThermal(beta)
    rho_ee, _, rho_eg = tls.tls_pair_components(r, bath, cos2)
    got = metrics.traceless_qubit_distance(rho_ee - bath.p_excited, rho_eg)
    if bath.is_zero_temperature:
        assert np.max(np.abs(got - tls.jcm_trace_distance(r, cos2))) <= TOL
    target = np.diag([bath.p_excited, bath.p_ground]).astype(complex)
    for c, value in zip(cos2, got):
        check_qubit(value, tls.tls_pair_evolve(r, bath, float(c)), target)


def test_series_blocks_match_single_phase_sums():
    # 1000 phases span several SERIES_CHUNK_CELLS blocks at 324 levels
    r = BlochVector(0.3, -0.4, 0.5)
    bath = BathThermal(0.1)
    phi = np.linspace(0.0, 0.5 * math.pi, 1000)
    rho_ee, rho_eg = tls.jcm_thermal_series(r, tls.jcm_bath_sums(bath, phi))
    single = [tls.jcm_thermal_series(r, tls.jcm_bath_sums(bath, float(p))) for p in phi]
    assert np.array_equal(rho_ee, [s[0] for s in single])
    assert np.array_equal(rho_eg, [s[1] for s in single])


@pytest.mark.parametrize(
    "phi",
    [
        # half of the default ramp grid sits on the pi/2 plateau
        Ramp(1.0).phase(np.linspace(0.0, 2.0, 20001)),
        np.random.default_rng(3).permutation(np.repeat(np.linspace(0.0, 1.5, 400), 3)),
        np.linspace(0.0, 1.5, 21).reshape(3, 7),
    ],
    ids=["ramp-grid", "shuffled-duplicates", "shape-3x7"],
)
def test_bath_sums_match_single_phase_sums(phi):
    bath = BathThermal(0.1)
    got = tls.jcm_bath_sums(bath, phi)
    single = {}
    for p in phi.flat:
        if p not in single:
            single[p] = tls.jcm_bath_sums(bath, p)
    for k, sums in enumerate(got):
        assert sums.shape == phi.shape
        assert np.array_equal(sums, np.vectorize(lambda p: single[p][k])(phi))


def test_bath_sums_match_the_series_at_40_digits():
    """pop_up, pop_dn and coh against the same truncated series summed in mpmath."""
    mp = pytest.importorskip("mpmath")
    phis = [0.0, 1e-8, 0.3, 1.0, 0.5 * math.pi]
    for beta in (0.1, 1.0):
        bath = BathThermal(beta)
        got = tls.jcm_bath_sums(bath, phis)
        levels = len(tls._bath_weights(bath))
        with mp.workdps(40):
            b = mp.mpf(beta)
            w = [mp.exp(-b * n) * (1 - mp.exp(-b)) for n in range(levels)]
            for i, phi in enumerate(phis):
                p = mp.mpf(phi)
                exact = (
                    sum(wn * mp.cos(p * mp.sqrt(n + 1)) ** 2 for n, wn in enumerate(w)),
                    sum(wn * mp.sin(p * mp.sqrt(n)) ** 2 for n, wn in enumerate(w)),
                    sum(wn * mp.cos(p * mp.sqrt(n + 1)) * mp.cos(p * mp.sqrt(n)) for n, wn in enumerate(w)),
                )
                for k, value in enumerate(exact):
                    assert abs(got[k][i] - value) <= 2e-15 * abs(value), (beta, phi, k)


ARRAY_LAWS = [
    lambda c: oscillator.trace_distance_closed(Thermal(1.0), c),
    lambda c: oscillator.trace_distance_closed(Coherent(1.0), c),
    lambda c: oscillator.trace_distance_closed(Fock(3), c),
    lambda c: oscillator.hs_distance_closed(Thermal(1.0), c),
    lambda c: oscillator.hs_distance_closed(Coherent(1.0), c),
    lambda c: oscillator.hs_distance_closed(Fock(3), c),
    lambda c: tls.jcm_trace_distance(BlochVector(0.5, 0.5, 0.5), c),
    lambda c: tls.tls_pair_components(BlochVector(0.5, 0.5, 0.5), BathThermal(1.0), c),
]


@pytest.mark.parametrize("law", ARRAY_LAWS)
@SETTINGS
@given(
    cos2=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    bad=st.one_of(
        st.just(math.nan),
        st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
        st.floats(min_value=1.0, exclude_min=True, allow_nan=False),
    ),
    at=st.integers(0, 8),
)
def test_bad_cos2_in_an_array_is_rejected(law, cos2, bad, at):
    cos2.insert(at % (len(cos2) + 1), bad)
    with pytest.raises(ValueError):
        law(np.array(cos2))


# Neighbouring samples of a kernel are separate floating-point evaluations, so
# a non-decreasing law can step down between them by a few ulp (measured: up
# to 4.4e-16 on adjacent doubles).  The one real decrease, Fock(12) HS below,
# falls by 3.7e-7 per 0.001 of cos^2.
ROUNDOFF = 2e-15
sorted_cos2 = st.lists(st.floats(0.0, 1.0), max_size=10).map(
    lambda values: np.array(sorted({0.0, 1.0, *values}))
)
oscillator_states = st.one_of(
    st.floats(0.0, 50.0).map(Thermal),
    st.floats(0.0, 5.0).map(Coherent),
    st.integers(0, 11).map(Fock),
)


def pair_distance(r, bath, cos2):
    """Distance of the qubit-pair state to its bath-thermal fixed point, as the CLI writes it."""
    rho_ee, _, rho_eg = tls.tls_pair_components(r, bath, cos2)
    return metrics.traceless_qubit_distance(rho_ee - bath.p_excited, rho_eg)


def assert_in_range_and_non_decreasing(values, upper):
    assert np.all((values >= 0.0) & (values <= upper))
    assert np.all(np.diff(values) >= -ROUNDOFF)


@SETTINGS
@given(state=oscillator_states, cos2=sorted_cos2)
def test_oscillator_laws_bounded_and_non_decreasing_in_cos2(state, cos2):
    assert_in_range_and_non_decreasing(oscillator.trace_distance_closed(state, cos2), 1.0)
    assert_in_range_and_non_decreasing(oscillator.hs_distance_closed(state, cos2), math.sqrt(2.0))


@SETTINGS
@given(r=bloch_vectors(), beta=st.floats(0.01, 800.0), cos2=sorted_cos2)
def test_qubit_laws_bounded_and_non_decreasing_in_cos2(r, beta, cos2):
    assert_in_range_and_non_decreasing(tls.jcm_trace_distance(r, cos2), 1.0)
    assert_in_range_and_non_decreasing(pair_distance(r, BathThermal(beta), cos2), 1.0)


def test_fock_hs_distance_dips_from_n_12():
    # the same check catches the real dip of the Fock(12) HS law
    cos2 = np.linspace(0.40, 0.50, 101)
    assert np.all(np.diff(oscillator.hs_distance_closed(Fock(11), cos2)) > 0.0)
    dips = np.diff(oscillator.hs_distance_closed(Fock(12), cos2)) < -ROUNDOFF
    assert dips.any() and np.ptp(cos2[:-1][dips]) < 0.05


def test_fock_hs_slope_sign_at_40_digits():
    """dD^2/dc of the binomial law: positive for n = 11, negative near c = 0.447 for n = 12."""
    mp = pytest.importorskip("mpmath")

    def d2(n, c):
        p = [mp.binomial(n, k) * c**k * (1 - c) ** (n - k) for k in range(n + 1)]
        return sum(pk**2 for pk in p[1:]) + (1 - p[0]) ** 2

    with mp.workdps(40):
        slope_11 = min(mp.diff(lambda c: d2(11, c), mp.mpf(i) / 100) for i in range(1, 100))
        slope_12 = mp.diff(lambda c: d2(12, c), mp.mpf("0.447"))
    assert slope_11 > 0.017
    assert -8.1e-4 < slope_12 < -7.9e-4


def test_fock_hs_distance_keeps_its_digits_at_small_cos2():
    """Relative error against the binomial law at 400 digits, down to cos2 = 1e-150.

    1 - p_0 is of order n * cos2, so forming it as a float difference loses
    it entirely below cos2 ~ 1e-17.  Below ~1e-154 cos2**2 underflows.
    """
    mp = pytest.importorskip("mpmath")
    cos2 = np.concatenate([10.0 ** -np.arange(150.0, 0.0, -7.0), [0.3, 0.5, 0.9, 1.0 - 1e-9]])
    for n in (1, 3, 20, 171):
        got = oscillator.hs_distance_closed(Fock(n), cos2)
        with mp.workdps(400):
            for c, value in zip(cos2, got):
                c = mp.mpf(float(c))
                p = [mp.binomial(n, k) * c**k * (1 - c) ** (n - k) for k in range(n + 1)]
                exact = mp.sqrt(sum(pk**2 for pk in p[1:]) + (1 - p[0]) ** 2)
                assert abs(value - exact) <= 1e-13 * exact, (n, float(c))


def test_distance_laws_against_60_digit_references_at_the_extremes():
    """Relative error of every zero-temperature law against mpmath at 60 digits.

    Cases whose exact value lies below the smallest normal float are skipped.
    The coherent laws are checked where |alpha|^2 c is subnormal or underflows
    too (coherent:1e-150 at c = 1e-150 gives 1e-225), since they take the root
    term by term there.
    """
    mp = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny
    cos2 = [0.0, 1e-300, 1e-150, 1e-17, 1e-8, 0.3, 0.5, 1.0 - 1e-8, 1.0 - 2.0**-53, 1.0]
    nbars = [1e-300, 1e-150, 1e-8, 0.5, 3.0, 1e8, 1e150, 1e300]
    alphas = [1e-150, 1e-75, 1e-8, 0.3, 1.0, 5.0, 30.0]
    blochs = [
        BlochVector(0.0, 0.0, 1.0),
        BlochVector(0.5, 0.5, 0.5),
        BlochVector(1.0, 0.0, 0.0),
        BlochVector(0.6, 0.0, -0.8),
        BlochVector(0.3, -0.4, 0.1),
    ]
    worst = {}

    underflowed = []

    def check(law, got, exact, product=None):
        if exact < tiny:
            return
        if product is not None and product < tiny:
            underflowed.append(law)
        worst[law] = max(worst.get(law, 0.0), float(abs(got - exact) / exact))

    with mp.workdps(60):
        for c in cos2:
            cm = mp.mpf(c)
            for nbar in nbars:
                m = mp.mpf(nbar) * cm
                check("thermal trace", oscillator.trace_distance_closed(Thermal(nbar), c),
                      m / (m + 1), m)
                check("thermal hs", oscillator.hs_distance_closed(Thermal(nbar), c),
                      m * mp.sqrt(2 / ((2 * m + 1) * (m + 1))), m)
            for alpha in alphas:
                x = mp.mpf(alpha) ** 2 * cm
                check("coherent trace", oscillator.trace_distance_closed(Coherent(alpha), c),
                      mp.sqrt(-mp.expm1(-x)), x)
                check("coherent hs", oscillator.hs_distance_closed(Coherent(alpha), c),
                      mp.sqrt(-2 * mp.expm1(-x)), x)
            for n in (1, 3, 20, 171, 500):
                exact = 1 if c == 1.0 else -mp.expm1(n * mp.log1p(-cm))
                check("fock trace", oscillator.trace_distance_closed(Fock(n), c), exact)
            s = mp.fsub(1, cm, exact=True)
            for n in (171, 500):
                pops = oscillator.binomial_populations(n, c, n + 1)
                for k in range(n + 1):
                    exact = mp.binomial(n, k) * cm**k * s ** (n - k)
                    check(f"binomial populations {n}", pops[k], exact)
            for r in blochs:
                up = (1 + mp.mpf(r.rz)) / 2
                perp2 = mp.mpf(r.rx) ** 2 + mp.mpf(r.ry) ** 2
                check("jcm trace", tls.jcm_trace_distance(r, c), mp.sqrt(up**2 * cm**2 + perp2 * cm / 4))
    bounds = {law: 1e-11 if law.startswith("binomial") else 1e-15 for law in worst}
    assert len(worst) == 8
    # |alpha|^2 c below tiny: alpha 1e-150 at c = 1e-300, 1e-150, 1e-17 and
    # 1e-8, alpha 1e-75 at c = 1e-300 and alpha 1e-8 at c = 1e-300
    assert sorted(underflowed) == ["coherent hs"] * 6 + ["coherent trace"] * 6
    assert {law: err for law, err in worst.items() if err > bounds[law]} == {}, worst
