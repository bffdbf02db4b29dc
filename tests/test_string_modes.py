import json
import math
import sys

import numpy as np
import pytest

from cliffstring import cli, string_modes
from cliffstring.fixtures import random_complex_hermitian, random_spectrum
from cliffstring.minkowski import EPS, eta4, sigma4_complex
from cliffstring.string_modes import (
    ModeSpectrum,
    NonpositiveTimeError,
    PhysicalConstants,
    charge_density_coefficients,
    charge_quadrature,
    coordinates,
    current_density,
    divergence_residual,
    emission_bound,
    endpoint_flux,
    eom_residual,
    redshift,
    spectrum_from_json,
    spectrum_to_json,
)

rng = np.random.default_rng(31415)

POINTS = [(t, s) for t in (0.3, 0.9, 1.7) for s in (0.35, 1.1, 2.2, 2.9)]


@pytest.fixture(scope="module")
def spectrum():
    return random_spectrum(np.random.default_rng(2024), max_mode=3)


def current_scale(ms):
    return max(
        1.0,
        max(float(np.max(np.abs(c))) for t, s in POINTS for c in current_density(ms, t, s)),
    )


# -- conservation ------------------------------------------------------------


def test_divergence_vanishes_and_converges(spectrum):
    scale = current_scale(spectrum)
    res_h = divergence_residual(spectrum, POINTS, h=1e-3)
    res_2h = divergence_residual(spectrum, POINTS, h=2e-3)
    assert res_h <= 1e-6 * scale
    assert abs(res_2h / res_h - 4.0) <= 0.5


def test_matched_stencil_cancels_movers_exactly(spectrum):
    """Equal-order tau and sigma stencils annihilate each null mover pairwise,

    so a matched second-order divergence is pure round-off; this is why the
    library's residual deliberately mixes stencil orders.
    """
    h = 1e-3
    worst = 0.0
    for tau, sigma in POINTS:
        d_tau = (
            current_density(spectrum, tau + h, sigma)[0]
            - current_density(spectrum, tau - h, sigma)[0]
        ) / (2 * h)
        d_sigma = (
            current_density(spectrum, tau, sigma + h)[1]
            - current_density(spectrum, tau, sigma - h)[1]
        ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(d_tau + d_sigma))))
    assert worst <= 1e-10 * current_scale(spectrum)


def test_endpoint_flux_vanishes(spectrum):
    assert endpoint_flux(spectrum, (0.3, 0.9, 1.7)) <= 1e-12 * current_scale(spectrum)


# -- charges -----------------------------------------------------------------


def test_charge_coefficients_against_fft(spectrum):
    """Fourier-analyze J^tau over a full sigma period and compare mode by mode."""
    n_sig = 64
    tau = 0.7
    sigmas = 2 * np.pi * np.arange(n_sig) / n_sig
    samples = np.array([current_density(spectrum, tau, s)[0] for s in sigmas])
    four = np.fft.fft(samples, axis=0) / n_sig
    coeffs = charge_density_coefficients(spectrum)
    c = {
        n: coeffs[n] * np.exp(-1j * n * tau) / np.pi
        for n in coeffs
    }
    assert np.max(np.abs(four[0] - c[0])) <= 1e-12
    for n in range(1, 8):
        want = 0.5 * (c.get(n, 0.0) + c.get(-n, 0.0))
        assert np.max(np.abs(four[n] - want)) <= 1e-12
        assert np.max(np.abs(four[n_sig - n] - want)) <= 1e-12


def test_quadrature_charge_equals_zero_mode_coefficient(spectrum):
    m0 = charge_density_coefficients(spectrum)[0]
    for tau in (0.0, 0.6, 2.1):
        got = charge_quadrature(spectrum, tau, n_sigma=512)
        assert np.max(np.abs(got - m0)) <= 1e-8 * max(1.0, float(np.max(np.abs(m0))))


@pytest.mark.parametrize("n_sigma", [16, 512, 1000])
def test_quadrature_over_an_array_of_tau_is_each_tau_alone(spectrum, n_sigma):
    taus = np.array([[0.0, 0.3, 0.9], [1.7, 2.1, -4.5]])
    got = charge_quadrature(spectrum, taus, n_sigma=n_sigma)
    assert got.shape == (2, 3, 2, 2)
    for index in np.ndindex(taus.shape):
        alone = charge_quadrature(spectrum, taus[index], n_sigma=n_sigma)
        assert alone.shape == (2, 2)
        assert np.array_equal(got[index], alone)
        assert np.array_equal(np.signbit(got[index].view(float)), np.signbit(alone.view(float)))
    assert np.array_equal(charge_quadrature(spectrum, taus[0], n_sigma=n_sigma), got[0])
    assert charge_quadrature(spectrum, [0.9], n_sigma=n_sigma).shape == (1, 2, 2)


def test_charge_coefficients_are_symmetric(spectrum):
    for n, m in charge_density_coefficients(spectrum).items():
        assert np.max(np.abs(m - m.T)) == 0.0


# -- coordinates --------------------------------------------------------------


def test_coordinates_hermitian_and_even(spectrum):
    for tau, sigma in POINTS:
        x = coordinates(spectrum, tau, sigma)
        assert np.max(np.abs(x - x.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
        assert np.max(np.abs(x - coordinates(spectrum, tau, -sigma))) == 0.0


def test_endpoint_slope_vanishes(spectrum):
    # X is built from cos(n sigma): a centered difference across sigma = 0
    # cancels identically (cos is bit-exactly even), and across sigma = pi it
    # cancels up to argument round-off, far below any truncation order
    h = 1e-4
    for tau in (0.2, 1.3):
        gap0 = coordinates(spectrum, tau, h) - coordinates(spectrum, tau, -h)
        assert np.max(np.abs(gap0)) == 0.0
        gap_pi = coordinates(spectrum, tau, np.pi + h) - coordinates(
            spectrum, tau, np.pi - h
        )
        assert np.max(np.abs(gap_pi)) <= 1e-12


def test_free_string_obeys_tau_squared_law():
    k = random_complex_hermitian(rng)
    c0 = random_complex_hermitian(rng)
    ms = ModeSpectrum(k, c0, {}, PhysicalConstants(1.3, 0.8, 1.0))
    x1 = coordinates(ms, 1.0, 0.4) - c0
    x2 = coordinates(ms, 2.0, 0.4) - c0
    assert np.max(np.abs(x2 - 4.0 * x1)) <= 1e-12
    assert np.max(np.abs(coordinates(ms, 1.0, 0.4) - coordinates(ms, 1.0, 2.9))) == 0.0


def test_single_mode_standing_wave_closed_form():
    k = random_complex_hermitian(rng)
    c0 = random_complex_hermitian(rng)
    anm = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    consts = PhysicalConstants(1.0, 1.0, 1.0)
    ms = ModeSpectrum(
        k,
        c0,
        {1: (np.zeros((2, 2)), anm), -1: (np.zeros((2, 2)), anm.conj().T)},
        consts,
    )
    kup = EPS @ k @ EPS.T
    for sigma in (0.0, 0.7, 2.4):
        mid = -8.0 * np.cos(sigma) * (anm + anm.conj().T)
        want = c0 + kup @ mid.T @ kup
        got = coordinates(ms, 0.0, sigma)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_equations_of_motion_converge(spectrum):
    res_h = eom_residual(spectrum, POINTS, h=1e-3)
    res_2h = eom_residual(spectrum, POINTS, h=2e-3)
    assert res_h <= 1e-5 * current_scale(spectrum)
    assert abs(res_2h / res_h - 4.0) <= 0.5


def test_equations_of_motion_trip_on_broken_coordinates(spectrum, monkeypatch):
    xscale = max(1.0, max(float(np.max(np.abs(coordinates(spectrum, t, s)))) for t, s in POINTS))

    def broken(ms, tau, sigma):
        bump = np.cos(3 * np.asarray(tau))[..., None, None] * np.eye(2)
        return coordinates(ms, tau, sigma) + bump

    monkeypatch.setattr(string_modes, "coordinates", broken)
    assert eom_residual(spectrum, POINTS, h=1e-3) > 1e-2 * xscale


def test_equations_of_motion_ignore_translation(spectrum):
    moved = ModeSpectrum(spectrum.K, spectrum.C0 + 1e4 * np.eye(2), spectrum.modes)
    assert eom_residual(moved, POINTS, h=1e-3) == eom_residual(spectrum, POINTS, h=1e-3)


def test_array_evaluation_matches_point_calls(spectrum):
    tau, sigma = np.meshgrid((0.0, 0.4, 1.7), np.linspace(-1.0, np.pi, 7), indexing="ij")
    x = coordinates(spectrum, tau, sigma)
    jt, js = current_density(spectrum, tau, sigma)
    assert x.shape == jt.shape == js.shape == tau.shape + (2, 2)
    for idx in np.ndindex(tau.shape):
        t, s = float(tau[idx]), float(sigma[idx])
        assert np.array_equal(x[idx], coordinates(spectrum, t, s))
        pair = current_density(spectrum, t, s)
        assert np.array_equal(jt[idx], pair[0])
        assert np.array_equal(js[idx], pair[1])
        assert pair[0].shape == (2, 2)


# -- momentum -----------------------------------------------------------------


def _momentum(ms):
    """p^mu = 1/2 tr(sigma^mu K), real for Hermitian K."""
    return 0.5 * np.einsum("mab,ba->m", sigma4_complex(), ms.K)


def test_mass_shell_holds_for_any_spectrum(spectrum):
    p = _momentum(spectrum).real
    want = float(np.linalg.det(spectrum.K).real)
    assert abs(p @ eta4() @ p - want) <= 1e-12


def test_momentum_is_minkowski_vector_of_zero_mode(spectrum):
    # K is the sum of p^mu sigma^mu: the zero mode packs a real four-vector
    p = _momentum(spectrum)
    assert np.max(np.abs(p.imag)) <= 1e-15
    assert np.max(np.abs(np.einsum("m,mab->ab", p.real, sigma4_complex()) - spectrum.K)) <= 1e-15


# -- validation ----------------------------------------------------------------


def test_pairing_violation_rejected():
    k = random_complex_hermitian(rng)
    anm = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    with pytest.raises(ValueError):
        ModeSpectrum(k, k, {1: (np.zeros((2, 2)), anm), -1: (np.zeros((2, 2)), anm)})


def test_mode_index_whose_square_is_no_float_rejected():
    """The mode sums divide by n^2, so n^2 must stay in the float range."""
    k = np.eye(2, dtype=complex)
    largest = math.isqrt(int(sys.float_info.max))
    ms = ModeSpectrum(k, k, {largest: (k, np.zeros((2, 2)))})
    assert np.all(np.isfinite(coordinates(ms, np.array([0.5]), np.array([0.3]))))
    with pytest.raises(ValueError, match="mode index too large"):
        ModeSpectrum(k, k, {largest + 1: (k, np.zeros((2, 2)))})


def test_zero_mode_index_rejected():
    k = random_complex_hermitian(rng)
    with pytest.raises(ValueError):
        ModeSpectrum(k, k, {0: (k, k)})


def test_non_hermitian_amplitude_rejected():
    k = random_complex_hermitian(rng)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        ModeSpectrum(k, k, {2: (bad, bad)})


@pytest.mark.parametrize("bad", ["K", "C0", "A", "Anm"])
def test_nonfinite_spectrum_rejected(bad):
    k = random_complex_hermitian(rng)
    anm = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    parts = {"K": k.copy(), "C0": k.copy(), "A": np.zeros((2, 2), complex), "Anm": anm}
    parts[bad][0, 0] = np.nan
    modes = {1: (parts["A"], parts["Anm"]), -1: (parts["A"], parts["Anm"].conj().T)}
    with pytest.raises(ValueError, match="finite"):
        ModeSpectrum(parts["K"], parts["C0"], modes)


@pytest.mark.parametrize("consts", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.nan)])
def test_nonfinite_constants_rejected(consts):
    with pytest.raises(ValueError, match="finite"):
        PhysicalConstants(*consts)


# -- redshift ------------------------------------------------------------------


def test_redshift_exact_values():
    assert redshift(3.0, 3.0) == 0.0
    assert redshift(1.0, 4.0) == 1.0
    assert redshift(2.0, 8.0) == 1.0
    assert abs(redshift(1.0, 2.25) - 0.5) <= 1e-15


def test_redshift_input_validation():
    with pytest.raises(NonpositiveTimeError):
        redshift(0.0, 1.0)
    with pytest.raises(NonpositiveTimeError):
        redshift(1.0, -2.0)
    with pytest.raises(ValueError):
        redshift(4.0, 1.0)


def test_emission_bound_concrete_value():
    assert emission_bound(0.01, 2.0, 1.0) == 0.01 / 8.0


def test_emission_bound_small_z_linearization():
    for z in (0.002, 0.005, 0.01):
        for p in (0.5, 1.0, 2.0):
            linear = 0.04 / (2.0 * p * z)
            assert abs(emission_bound(0.04, p, z) - linear) <= 0.01 * linear


def test_emission_bound_monotone_in_z():
    zs = (0.1, 0.5, 1.0, 2.0)
    bounds = [emission_bound(1.0, 1.0, z) for z in zs]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


# -- serialization --------------------------------------------------------------


def test_spectrum_json_roundtrip(spectrum):
    back = spectrum_from_json(spectrum_to_json(spectrum))
    assert np.array_equal(back.K, spectrum.K)
    assert np.array_equal(back.C0, spectrum.C0)
    assert set(back.modes) == set(spectrum.modes)
    for n in spectrum.modes:
        assert np.array_equal(back.modes[n][0], spectrum.modes[n][0])
        assert np.array_equal(back.modes[n][1], spectrum.modes[n][1])
    assert back.constants == spectrum.constants


def test_spectrum_json_documented_shape():
    obj = {
        "K": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "C0": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "modes": [],
        "ell": 2.0,
        "m": 0.5,
    }
    ms = spectrum_from_json(obj)
    assert np.array_equal(ms.K, np.eye(2))
    assert ms.constants.ell == 2.0 and ms.constants.m == 0.5


@pytest.mark.parametrize("max_mode", [3, 8])
@pytest.mark.parametrize("seed", [0, 4])
def test_spectrum_and_its_json_round_trip_evaluate_alike(seed, max_mode):
    """The CLI reads every spectrum from JSON, so a fixture must give the
    same X and J in memory as after its round trip, bit for bit."""
    ms = random_spectrum(np.random.default_rng(seed), max_mode=max_mode)
    back = spectrum_from_json(json.loads(json.dumps(spectrum_to_json(ms))))
    tau, sigma = np.meshgrid(np.linspace(0.0, 6.0, 7), np.linspace(-1.0, 4.0, 11))
    assert np.array_equal(coordinates(back, tau, sigma), coordinates(ms, tau, sigma))
    for got, want in zip(current_density(back, tau, sigma), current_density(ms, tau, sigma)):
        assert np.array_equal(got, want)


# -- the per-mode reference ------------------------------------------------------


def reference_current_density(ms, tau, sigma):
    """current_density as a loop over modes: a complex exp and a 2x2 product
    per mode at every point, the evaluator's form before its mode sums
    became (points x modes) contractions."""
    c = ms.constants
    tau = np.asarray(tau, dtype=float)[..., None, None]
    sigma = np.asarray(sigma, dtype=float)[..., None, None]
    shape = np.broadcast_shapes(tau.shape, sigma.shape)[:-2]
    t_tau = t_sigma = np.zeros(shape + (2, 2), complex)
    plus, minus = tau + sigma, tau - sigma
    for n, (a, anm) in ms.modes.items():
        left = a + anm * np.exp(-1j * n * plus)
        right = a + anm * np.exp(-1j * n * minus)
        t_tau = t_tau + (left + right) / n
        t_sigma = t_sigma + (right - left) / n
    kr = ms.K @ EPS.T
    g_tau, g_sigma = kr @ t_tau.mT, kr @ t_sigma.mT
    pref = 2j * c.ell / c.m
    return pref * (g_tau + g_tau.mT), pref * (g_sigma + g_sigma.mT)


def reference_coordinates(ms, tau, sigma):
    """coordinates as a loop over modes, in its form before the contractions."""
    c = ms.constants
    tau = np.asarray(tau, dtype=float)[..., None, None]
    sigma = np.asarray(sigma, dtype=float)[..., None, None]
    shape = np.broadcast_shapes(tau.shape, sigma.shape)[:-2]
    kup = EPS @ ms.K @ EPS.T
    mid = np.broadcast_to(ms.K * tau**2, shape + (2, 2))
    for n, (a, anm) in ms.modes.items():
        mid = mid + 8.0 / n**2 * (a - anm * np.exp(-1j * n * tau) * np.cos(n * sigma))
    return ms.C0 + (np.float64(c.ell) / np.float64(c.m) ** 3) * (kup @ mid.mT @ kup)


def unit_spectrum(seed, n):
    """Modes +-n at unit amplitude: K, C0 and A_(+-n) from
    random_complex_hermitian at scale 1, A_(n,-n) uniform in [-1, 1] + i [-1, 1],
    without random_spectrum's 1/n^2 damping."""
    rng = np.random.default_rng(seed)
    k, c0, a_pos, a_neg = (random_complex_hermitian(rng) for _ in range(4))
    anm = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    return ModeSpectrum(k, c0, {-n: (a_neg, anm.conj().T), n: (a_pos, anm)})


# The spectra the contractions are held to: random_spectrum seeds 0-19 at
# max_mode 3 and 8, and unit-amplitude modes +-2 and +-10 over seeds 0-4.
SPECTRA = ([("random", seed, max_mode) for max_mode in (3, 8) for seed in range(20)]
           + [("unit", seed, n) for n in (2, 10) for seed in range(5)])


def case_id(case):
    return "-".join(map(str, case))


def spectrum_of(case):
    kind, seed, size = case
    if kind == "unit":
        return unit_spectrum(seed, size)
    return random_spectrum(np.random.default_rng(seed), max_mode=size)


# The worldsheet points string-modes evaluates: the (4, 513) CSV grid, the
# (3, 513) charge quadrature and the 12 check points, as (tau, sigma) pairs.
_SIGMA_512 = np.linspace(0.0, np.pi, 513)
GRIDS = {
    "csv": (np.array([[0.0], [0.5 * np.pi], [np.pi], [1.5 * np.pi]]), _SIGMA_512),
    "quadrature": (np.array(string_modes._TAUS)[:, None], _SIGMA_512),
    "checks": tuple(np.array([(t, s) for t in string_modes._TAUS for s in string_modes._SIGMAS]).T),
}

def agreement(ms, tau, sigma):
    """The largest entry gap allowed to the per-mode reference, relative to
    the reference's largest entry (of J^tau and J^sigma together for the
    current).  The reference rounds tau +- sigma before it multiplies by n,
    so a phase of argument n (tau +- sigma) is off by up to |n| |tau +- sigma|
    units of round-off: the bound is 4 units per radian of the largest
    argument, plus 4."""
    largest = max(map(abs, ms.modes)) * float(np.max(np.abs(tau) + np.abs(sigma)))
    return 4 * np.finfo(float).eps * (1.0 + largest)


def relative_gap(got, want):
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / float(
        max(np.max(np.abs(w)) for w in want))


@pytest.mark.parametrize("case", SPECTRA, ids=case_id)
def test_mode_sums_agree_with_the_per_mode_reference(case):
    ms = spectrum_of(case)
    for tau, sigma in GRIDS.values():
        bound = agreement(ms, tau, sigma)
        current, want = current_density(ms, tau, sigma), reference_current_density(ms, tau, sigma)
        assert [j.shape for j in current] == [j.shape for j in want]
        assert relative_gap(current, want) <= bound
        assert relative_gap([coordinates(ms, tau, sigma)],
                            [reference_coordinates(ms, tau, sigma)]) <= bound


# -- the CLI's checks on these spectra ---------------------------------------------


def _failed_checks(tmp_path, ms):
    """The names of the string-modes checks that fail on ms, at the default grid."""
    fix, report = tmp_path / "s.json", tmp_path / "r.json"
    fix.write_text(json.dumps(spectrum_to_json(ms)))
    code = cli.main(["string-modes", "--spectrum", str(fix), "--report", str(report)])
    failed = {name for name, check in json.loads(report.read_text())["checks"].items()
              if not check["pass"]}
    assert code == (3 if failed else 0)
    return failed


# The checks that failed on each unit-amplitude spectrum with the per-mode
# evaluators: the finite-difference residuals grow like n^3 |A_(n,-n)|, past
# their fixed tolerances (ROADMAP item 8).  Every random_spectrum case passed
# all eight.
UNIT_SPECTRUM_FAILURES = {
    ("unit", 0, 2): {"divergence"},
    ("unit", 3, 2): {"divergence"},
    ("unit", 0, 10): {"divergence"},
    ("unit", 1, 10): {"divergence", "eom"},
    ("unit", 2, 10): {"divergence"},
    ("unit", 3, 10): {"divergence"},
    ("unit", 4, 10): {"divergence"},
}


@pytest.mark.parametrize("case", SPECTRA, ids=case_id)
def test_string_modes_pass_flags_are_kept(tmp_path, case):
    assert _failed_checks(tmp_path, spectrum_of(case)) == UNIT_SPECTRUM_FAILURES.get(case, set())
