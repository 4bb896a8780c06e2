"""Matrix compressions, spectra, and quadratic forms."""
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import dblquad, quad
from scipy.special import gammainc, gammaln

from focklab import (
    AnnularSector,
    Disc,
    FockFunction,
    HermitianMatrix,
    PolarGrid,
    RadialRule,
    RadialSymbol,
    SampledSymbol,
    SimpleSymbol,
    assemble,
    coherent,
    integrate_region,
    jacobi_eigenvalues,
    operator_norm,
    radial_assemble,
    random_region,
    random_symbol,
    random_unit,
    rayleigh,
    region_compression,
    symbol_norm_bound,
    top_eigenpair,
    verify_norm_bound,
)
from focklab.experiments import NORM_SLACK
from focklab import toeplitz, tridiagonal
from focklab.fock import weighted_basis_matrix
from focklab.quadrature import gauss_legendre
from focklab.symbols import discretize
from plane_oracles import eval_weighted, grid, radii, seeded_radials, weights
from test_special import _decimal_gammainc

TWO_PI = 2.0 * math.pi


def _entry_oracle_sector(sector, m, n):
    """dblquad of e_n conj(e_m) e^{-pi r^2} over the sector, in polar form."""
    pref = math.exp(
        0.5 * ((n + m) * math.log(math.pi)
               - math.lgamma(n + 1) - math.lgamma(m + 1))
    )
    k = n - m

    def integrand(factor):
        return lambda theta, r: (
            pref * r ** (n + m + 1) * math.exp(-math.pi * r * r) * factor(k * theta)
        )

    re = dblquad(integrand(math.cos), sector.r_inner, sector.r_outer,
                 sector.theta_start, sector.theta_end,
                 epsabs=1e-13, epsrel=1e-13)[0]
    im = dblquad(integrand(math.sin), sector.r_inner, sector.r_outer,
                 sector.theta_start, sector.theta_end,
                 epsabs=1e-13, epsrel=1e-13)[0]
    return complex(re, im)


class TestAssembleSimple:
    def test_origin_disc_diagonal(self):
        for x in (0.5, 1.0, 2.0):
            radius = math.sqrt(x / math.pi)
            sym = SimpleSymbol(((Disc(0.0, radius), 1.0),))
            mat = assemble(sym, 31).data
            n = np.arange(31)
            oracle = gammainc(n + 1.0, x)
            assert np.max(np.abs(np.diag(mat).real - oracle)) < 1e-13
            off = mat - np.diag(np.diag(mat))
            assert np.max(np.abs(off)) == 0.0

    def test_sector_entries_against_dblquad(self):
        sector = AnnularSector(0.3, 1.2, 0.4, 2.1)
        sym = SimpleSymbol(((sector, 1.0),))
        mat = assemble(sym, 6).data
        for m, n in ((0, 0), (0, 1), (1, 2), (2, 5), (3, 3)):
            oracle = _entry_oracle_sector(sector, m, n)
            assert abs(mat[m, n] - oracle) < 1e-10

    def test_full_annulus_additivity(self):
        # the diagonal-only fast path must agree with two generic half sectors
        full = assemble(
            SimpleSymbol(((AnnularSector(0.5, 1.5, 0.0, TWO_PI), 1.0),)), 20
        ).data
        half1 = assemble(
            SimpleSymbol(((AnnularSector(0.5, 1.5, 0.0, math.pi), 1.0),)), 20
        ).data
        half2 = assemble(
            SimpleSymbol(((AnnularSector(0.5, 1.5, math.pi, TWO_PI), 1.0),)), 20
        ).data
        assert np.max(np.abs(full - (half1 + half2))) < 1e-13

    def test_off_center_disc_entries(self):
        center = 0.6 - 0.4j
        disc = Disc(center, 0.7)
        mat = assemble(SimpleSymbol(((disc, 1.0),)), 8).data

        def integrand(fn):
            return lambda theta, rho: fn(
                complex(
                    center.real + rho * math.cos(theta),
                    center.imag + rho * math.sin(theta),
                )
            ) * rho

        def entry(m, n):
            pref = math.exp(
                0.5 * ((n + m) * math.log(math.pi)
                       - math.lgamma(n + 1) - math.lgamma(m + 1))
            )

            def g(z):
                return pref * z**n * np.conj(z) ** m * math.exp(-math.pi * abs(z) ** 2)

            re = dblquad(integrand(lambda z: g(z).real), 0.0, 0.7, 0.0, TWO_PI,
                         epsabs=1e-13, epsrel=1e-13)[0]
            im = dblquad(integrand(lambda z: g(z).imag), 0.0, 0.7, 0.0, TWO_PI,
                         epsabs=1e-13, epsrel=1e-13)[0]
            return complex(re, im)

        for m, n in ((0, 0), (0, 1), (1, 3)):
            assert abs(mat[m, n] - entry(m, n)) < 1e-10

    def test_mixed_symbol_hermitian(self):
        sym = SimpleSymbol(
            (
                (Disc(0.4 + 0.1j, 0.5), 0.8),
                (AnnularSector(1.2, 1.8, 0.2, 1.9), -0.6),
            )
        )
        mat = assemble(sym, 12)
        assert np.array_equal(mat.data, mat.data.conj().T)
        assert mat.dimension == 12

    def test_validation(self):
        sym = SimpleSymbol(((Disc(0.0, 1.0), 1.0),))
        with pytest.raises(ValueError):
            assemble(sym, 0)
        radial = RadialSymbol.disc(1.0)
        assert np.array_equal(assemble(radial, 4).data, radial_assemble(radial, 4).data)
        with pytest.raises(TypeError):
            assemble("nope", 4)


def _sampled(fn, radial_count=40, angular_count=64):
    values = fn(grid((RadialRule.gauss_laguerre(radial_count), angular_count)))
    return SampledSymbol(values, float(np.max(np.abs(values))))


class TestAssembleSampled:
    def test_constant_one_is_identity(self):
        sym = _sampled(lambda z: np.ones(z.shape))
        mat = assemble(sym, 12).data
        assert np.max(np.abs(mat - np.eye(12))) < 1e-12

    def test_against_direct_grid_sum(self):
        sym = _sampled(lambda z: np.exp(-np.abs(z) ** 2) * (1.0 + 0.3 * np.cos(np.angle(z))))
        trunc = 6
        mat = assemble(sym, trunc).data

        m_ang = sym.values.shape[1]
        z = grid((sym.radial, m_ang))
        w_bare = weights(sym.radial)
        ref = np.zeros((trunc, trunc), dtype=np.complex128)
        for n in range(trunc):
            en = math.exp(0.5 * (n * math.log(math.pi) - math.lgamma(n + 1))) * z**n
            for m in range(trunc):
                em = math.exp(0.5 * (m * math.log(math.pi) - math.lgamma(m + 1))) * z**m
                # e^{-t} lives in the bare weights; integrand is phi e_n conj(e_m)
                g = sym.values * en * np.conj(em)
                ref[m, n] = np.dot(w_bare, np.sum(g, axis=1) / m_ang)
        ref = 0.5 * (ref + ref.conj().T)
        assert np.max(np.abs(mat - ref)) < 1e-14

    def test_resolution_guards(self):
        sym = _sampled(lambda z: np.ones(z.shape), radial_count=10, angular_count=16)
        with pytest.raises(ValueError, match="radial node count"):
            assemble(sym, 11)
        with pytest.raises(ValueError, match="angular count"):
            assemble(sym, 9)
        assemble(sym, 8)  # 2*8-1 = 15 <= 16 resolves


def _laguerre_diagonal(symbol, truncation):
    """gamma_n = (1/n!) int phi(sqrt(t/pi)) t^n e^{-t} dt on a Gauss-Laguerre
    rule of max(80, N + 16) nodes: the quadrature that the gaussian's closed
    form replaced, kept as its independent check."""
    rul = RadialRule.gauss_laguerre(max(80, truncation + 16))
    n = np.arange(truncation)[:, None]
    t = rul.nodes[None, :]
    moments = np.exp(n * np.log(t) - t - gammaln(n + 1.0) + np.log(rul.scaled_weights))
    return moments @ symbol.profile(radii(rul))


def _interval_quad_diagonal(radii, values, n):
    """gamma_n of a table profile by scipy quad on each knot interval."""
    def integrand(r, a, slope):
        t = math.pi * r * r
        return (a + slope * r) * TWO_PI * r * math.exp(n * math.log(t) - t - math.lgamma(n + 1))

    total = 0.0
    for r0, r1, v0, v1 in zip(radii[:-1], radii[1:], values[:-1], values[1:]):
        slope = (v1 - v0) / (r1 - r0)
        total += quad(integrand, r0, r1, args=(v0 - slope * r0, slope),
                      epsabs=1e-16, epsrel=1e-13, limit=200)[0]
    return total


class TestRadialAssemble:
    def test_disc_oracle(self):
        for x in (0.5, 1.0, 2.0):
            radius = math.sqrt(x / math.pi)
            mat = radial_assemble(RadialSymbol.disc(radius), 51).data
            n = np.arange(51)
            assert np.max(np.abs(np.diag(mat).real - gammainc(n + 1.0, x))) < 1e-12

    def test_gaussian_oracle(self):
        mat = radial_assemble(RadialSymbol.gaussian(), 41).data
        n = np.arange(41)
        oracle = (math.pi / (math.pi + 1.0)) ** (n + 1.0)
        assert np.max(np.abs(np.diag(mat).real - oracle)) < 1e-12

    def test_gaussian_on_laguerre_order_252(self):
        # The closed form against Gauss-Laguerre quadrature; N = 236 puts the
        # oracle on K = 252 nodes, where a float64 polish of the rule leaves
        # entry 0 off by 2.95e-14.
        sym = RadialSymbol.gaussian()
        for truncation in (1, 40, 120, 236, 240):
            mat = radial_assemble(sym, truncation).data
            oracle = _laguerre_diagonal(sym, truncation)
            assert np.max(np.abs(np.diag(mat).real - oracle)) < 1e-14

    def test_annulus_is_disc_increment(self):
        ann = radial_assemble(RadialSymbol.annulus(0.4, 1.1), 30).data
        outer = radial_assemble(RadialSymbol.disc(1.1), 30).data
        inner = radial_assemble(RadialSymbol.disc(0.4), 30).data
        assert np.max(np.abs(ann - (outer - inner))) < 1e-13

    def test_table_oracle(self):
        radii = [0.0, 0.5, 1.0, 1.5]
        values = [1.0, -0.3, 0.4, 0.0]
        sym = RadialSymbol.table(radii, values)
        mat = radial_assemble(sym, 25).data
        for n in (0, 1, 7, 24):
            ref = quad(
                lambda r: (
                    np.interp(r, radii, values)
                    * (math.pi * r * r) ** n
                    * math.exp(-math.pi * r * r)
                    * TWO_PI * r / math.exp(math.lgamma(n + 1))
                ),
                0.0, 1.5, points=[0.5, 1.0], limit=200, epsabs=1e-13, epsrel=1e-13,
            )[0]
            assert abs(mat[n, n].real - ref) < 1e-12

    @pytest.mark.parametrize("radii, values", [
        ([0.0, 1.0, 1.0001, 2.0], [1.0, 1.0, -1.0, 0.0]),
        ([0.0, 2.0, 2.000001, 2.5], [0.0, 1.0, -1.0, 0.0]),
    ])
    def test_steep_table_on_panels(self, radii, values):
        # A closed form a P(n+1, .) + b Gamma(n+3/2)/Gamma(n+1) P(n+3/2, .) per
        # knot interval cancels on these narrow intervals (errors 5.9e-12 and
        # 6.7e-9 against 30-digit arithmetic); the panels stay near 1e-15.
        mat = radial_assemble(RadialSymbol.table(radii, values), 41).data
        for n in (0, 5, 12, 20, 40):
            assert abs(mat[n, n].real - _interval_quad_diagonal(radii, values, n)) < 1e-14

    def test_matrix_is_diagonal(self):
        mat = radial_assemble(RadialSymbol.gaussian(), 10).data
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) == 0.0

    def test_gaussian_truncation_limit(self):
        # no cap on N: the ratio of neighbours is pi/(pi+1) throughout, and
        # the first 240 entries match the largest Laguerre oracle
        oracle = _laguerre_diagonal(RadialSymbol.gaussian(), 240)
        for truncation in (241, 1000):
            gamma = np.diag(radial_assemble(RadialSymbol.gaussian(), truncation).data).real
            assert np.all(np.abs(np.diff(np.log(gamma)) - math.log(math.pi / (math.pi + 1.0)))
                          < 1e-12)
            assert np.max(np.abs(gamma[:240] - oracle)) < 1e-14

    def test_compact_truncation_limit(self):
        # a disc's ring diagonal does not depend on N, so N = 1017 (past the
        # old cap of 1016) and 2000 work to the same accuracy as small N
        for truncation in (1017, 2000):
            gamma = np.diag(radial_assemble(RadialSymbol.disc(0.8), truncation).data).real
            closed = gammainc(np.arange(truncation) + 1.0, math.pi * 0.64)
            assert np.max(np.abs(gamma - closed)) < 1e-15, truncation

    @pytest.mark.parametrize("symbol", [
        RadialSymbol.disc(0.8, 0.75),
        RadialSymbol.annulus(0.4, 1.3, -0.5),
        RadialSymbol.table([0.0, 0.5, 0.9, 1.4, 2.0], [0.7, -0.4, 0.9, -0.2, 0.0]),
    ], ids=["disc", "annulus", "table"])
    def test_compact_diagonal_independent_of_truncation(self, symbol):
        # the same panels at every N; the entries are not bit-equal across N
        # only because the moment product is blocked differently
        reference = np.diag(radial_assemble(symbol, 2000).data).real
        for truncation in (1, 57, 240, 1017):
            gamma = np.diag(radial_assemble(symbol, truncation).data).real
            assert np.max(np.abs(gamma - reference[:truncation])) < 1e-15, truncation

    def test_wide_disc(self):
        # radius 16: a single order-64 Gauss-Legendre panel over [0, 16] put
        # the norm at 1.00000041, a false violation of the bound 1
        disc = RadialSymbol.disc(16.0)
        gamma = np.diag(radial_assemble(disc, 40).data).real
        assert np.max(np.abs(gamma - gammainc(np.arange(40) + 1.0, 256.0 * math.pi))) < 1e-12
        assert verify_norm_bound(disc, 40).holds

    def test_validation(self):
        with pytest.raises(TypeError):
            radial_assemble(SimpleSymbol(((Disc(0.0, 1.0), 1.0),)), 4)
        with pytest.raises(ValueError):
            radial_assemble(RadialSymbol.disc(1.0), 0)


def _quadrature_disc_gram(disc, truncation, radial_order, angular_order):
    """Disc compression by quadrature: Gauss-Legendre in the disc radius
    crossed with a uniform angular rule about the disc center, through the
    weighted basis so nothing overflows. Accumulated over blocks of radial
    nodes to bound memory."""
    rho, w_rho = gauss_legendre(radial_order, 0.0, disc.radius)
    ring = np.exp(1j * TWO_PI * np.arange(angular_order) / angular_order)
    gram = np.zeros((truncation, truncation), dtype=complex)
    for i in range(0, radial_order, 16):
        z = disc.center + rho[i:i + 16, None] * ring[None, :]
        w = weighted_basis_matrix(truncation, z.reshape(-1))
        omega = np.repeat(w_rho[i:i + 16] * rho[i:i + 16] * (TWO_PI / angular_order),
                          angular_order)
        gram += (np.conj(w) * omega) @ w.T
    return gram


def _quadrature_sector_gram(sector, truncation, radial_order, angular_order):
    """Sector compression by quadrature: Gauss-Legendre in r on [r_inner,
    r_outer] crossed with Gauss-Legendre on the arc, through the weighted
    basis, accumulated over blocks of radial nodes."""
    r, w_r = gauss_legendre(radial_order, sector.r_inner, sector.r_outer)
    theta, w_t = gauss_legendre(angular_order, sector.theta_start, sector.theta_end)
    ring = np.exp(1j * theta)
    gram = np.zeros((truncation, truncation), dtype=complex)
    for i in range(0, radial_order, 16):
        z = r[i:i + 16, None] * ring[None, :]
        w = weighted_basis_matrix(truncation, z.reshape(-1))
        omega = np.outer(w_r[i:i + 16] * r[i:i + 16], w_t).reshape(-1)
        gram += (np.conj(w) * omega) @ w.T
    return gram


def _quadrature_gram(region, truncation):
    """Test-local quadrature compression of any region at doubled orders."""
    if isinstance(region, Disc):
        return _quadrature_disc_gram(region, truncation, *_doubled_orders(truncation))
    return _quadrature_sector_gram(region, truncation, *_doubled_orders(truncation))


def _doubled_orders(truncation):
    """Twice the quadrature orders the disc gram used at this truncation."""
    return 2 * max(64, truncation + 8), 2 * max(128, 2 * truncation + 16)


class TestRegionCompression:
    @pytest.mark.parametrize("radius", [0.3, 1.2, 2.0])
    @pytest.mark.parametrize("modulus", [0.5, 2.1, 3.6, 5.7, 8.0])
    def test_off_center_disc_against_quadrature(self, modulus, radius):
        # One gram at the doubled orders of N = 128; its leading blocks are
        # the compressions at the smaller truncations.
        angle = 1.7 * modulus + 0.4
        disc = Disc(modulus * complex(math.cos(angle), math.sin(angle)), radius)
        gram = _quadrature_disc_gram(disc, 128, *_doubled_orders(128))
        for n in (1, 20, 96, 128):
            got = region_compression(disc, n)
            assert np.max(np.abs(got - gram[:n, :n])) < 1e-12

    def test_far_disc_where_the_column_recurrence_fails(self):
        disc = Disc(4.0 + 4.0j, 1.2)
        gram = _quadrature_disc_gram(disc, 100, *_doubled_orders(100))
        assert np.max(np.abs(region_compression(disc, 100) - gram)) < 1e-12

    def test_coherent_state_concentration(self):
        # W_c e_0 is the coherent state at c, so its mass on D(c, r) is the
        # centered disc's first diagonal entry 1 - e^{-pi r^2}.
        for center, radius in ((0.7 + 0.3j, 0.6), (-2.5 + 1.0j, 1.5)):
            f = coherent(center, 96)
            g = region_compression(Disc(center, radius), 96)
            mass = float(np.real(np.vdot(f.coeffs, g @ f.coeffs)))
            assert abs(mass + math.expm1(-math.pi * radius**2)) < 1e-12

    @pytest.mark.parametrize("region", [
        Disc(0.0, 0.8),
        AnnularSector(0.0, 0.8, 0.0, TWO_PI),
        AnnularSector(0.4, 1.3, -1.0, TWO_PI - 1.0),
        AnnularSector(1.1, 1.5, 0.3, 0.3 + TWO_PI),
    ])
    def test_centred_ring_closed_form(self, region):
        # diag(P(n+1, pi r_out^2) - P(n+1, pi r_in^2)) from the ring core
        r_in, r_out = (0.0, region.radius) if isinstance(region, Disc) else \
            (region.r_inner, region.r_outer)
        for n in (1, 17, 32, 48):
            k = np.arange(1.0, n + 1.0)
            expect = gammainc(k, math.pi * r_out**2) - gammainc(k, math.pi * r_in**2)
            got = region_compression(region, n)
            assert np.max(np.abs(got - np.diag(expect))) < 1e-15

    @pytest.mark.parametrize("n", [1, 17, 48])
    @pytest.mark.parametrize("region", [
        Disc(0.0, 0.8),
        AnnularSector(0.4, 1.3, 0.0, TWO_PI),
        AnnularSector(0.2, 1.1, 0.5, 2.9),
        AnnularSector(0.6, 1.4, 5.0, 5.0 + 2.5),
        Disc(1.1 - 0.7j, 0.9),
    ], ids=["centred-disc", "annulus", "sector", "wrapping-sector", "off-centre-disc"])
    def test_is_the_one_piece_symbol(self, region, n):
        # one dispatcher: a region compresses exactly as the symbol 1_region,
        # before assemble's Hermitian averaging (A + A^H) / 2, which moves an
        # off-centre disc's entries by an ulp
        got = HermitianMatrix(region_compression(region, n)).data
        assert np.array_equal(got, assemble(SimpleSymbol(((region, 1.0),)), n).data)

    def test_validation(self):
        with pytest.raises(ValueError):
            region_compression(Disc(1.0, 1.0), 0)
        with pytest.raises(TypeError):
            region_compression("nope", 4)


@functools.lru_cache(maxsize=None)
def _hermite_section_eigh(size):
    return scipy.linalg.eigh_tridiagonal(np.zeros(size), np.sqrt(np.arange(1.0, size)))


def _full_spectrum_displaced_disc(disc, truncation):
    """The off-centre disc from every eigenpair of the a + a^* section, in
    complex arithmetic: W = U V e^{i |alpha| mu} V^T U^*, U = diag(e^{i m
    (arg alpha - pi/2)}), and W diag(P(k+1, pi r^2)) W^*, with the section
    size and column count of toeplitz._displaced_disc."""
    alpha = math.sqrt(math.pi) * disc.center.conjugate()
    x = math.pi * disc.radius**2
    cols = math.ceil(x + 12.0 * math.sqrt(x + 1.0) + 40.0)
    size = 64 * math.ceil((math.sqrt(max(truncation, cols)) + abs(alpha) + 3.0) ** 2 / 64.0)
    mu, v = _hermite_section_eigh(size)
    phase = abs(alpha) * mu
    w = (v[:truncation] * np.exp(1j * phase)) @ v[:cols].T
    psi = math.atan2(alpha.imag, alpha.real) - 0.5 * math.pi
    w *= np.exp(1j * psi * np.arange(truncation))[:, None]
    w *= np.exp(-1j * psi * np.arange(cols))[None, :]
    return (w * gammainc(np.arange(1.0, cols + 1.0), x)) @ w.conj().T


class TestDisplacedDisc:
    def test_half_spectrum_against_the_full_one(self):
        # radii 0.2 and 2 take K = 53 and 97 columns, so K < N and K > N
        # both occur; the random radii add even K (58, 76, 78, ...), and N
        # takes both parities too
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 20, 57, 96, 128):
            for radius in (0.2, 2.0, *rng.uniform(0.2, 2.0, size=2)):
                modulus, angle = rng.uniform(0.0, 8.0), rng.uniform(0.0, TWO_PI)
                center = modulus * complex(math.cos(angle), math.sin(angle))
                disc = Disc(center, radius)
                got = toeplitz._displaced_disc(disc, n)
                # each form is within about 1.5e-15 of a 30-digit evaluation
                # of the same sum on such discs, so they may differ by twice that
                assert np.max(np.abs(got - _full_spectrum_displaced_disc(disc, n))) <= 3e-15

    def test_coherent_state_residual(self):
        # W_c e_0 is the coherent state at c: its mass on D(c, r) is
        # 1 - e^{-pi r^2}. On these discs the full-spectrum form's residuals
        # have median 6.7e-16, max 2.2e-15 and mean +5.9e-16; the
        # half-spectrum form's 3.6e-16, 2.1e-15 and +2.4e-16.
        rng = np.random.default_rng(2026)
        residuals = []
        for _ in range(300):
            n = int(rng.integers(60, 101))
            modulus, angle = 2.0 * math.sqrt(rng.uniform()), rng.uniform(0.0, TWO_PI)
            center = modulus * complex(math.cos(angle), math.sin(angle))
            radius = rng.uniform(0.2, 2.0)
            f = coherent(center, n)
            g = toeplitz._displaced_disc(Disc(center, radius), n)
            residuals.append(float(np.real(np.vdot(f.coeffs, g @ f.coeffs)))
                             + math.expm1(-math.pi * radius**2))
        residuals = np.abs(residuals)
        assert np.median(residuals) <= 5.6e-16
        assert np.max(residuals) <= 2.5e-15

    @pytest.mark.parametrize("size", [64, 128, 192, 320])
    def test_half_spectrum_matches_lapack(self, size):
        # the eigenpairs LAPACK's stebz and stein gave before, with no LAPACK
        # call now: every vector entry within 3e-15 (a vector's sign is
        # free), the nodes within 1e-14, and the vectors orthonormal
        mu, even, odd = toeplitz._hermite_eigh(size)
        ref_mu, ref_v = scipy.linalg.eigh_tridiagonal(
            np.zeros(size), np.sqrt(np.arange(1.0, size)), select="i",
            select_range=(size // 2, size - 1), lapack_driver="stebz")
        v = np.empty((size, size // 2))
        v[0::2], v[1::2] = even, odd
        assert np.max(np.abs(mu - ref_mu)) <= 1e-14
        assert np.max(np.abs(v.T @ v - np.eye(size // 2))) <= 3e-15
        v *= np.sign(np.sum(v * ref_v, axis=0))
        assert np.max(np.abs(v - ref_v)) <= 3e-15

    @pytest.mark.parametrize("size", [64, 128, 192, 320])
    def test_half_spectrum_matches_hermite_rows_oracle(self, size):
        # built afresh on the shared recurrence, the table has the bits of
        # the construction on the oracle
        toeplitz._hermite_eigh.cache_clear()
        for got, old in zip(toeplitz._hermite_eigh(size), _hermite_eigh_oracle(size)):
            assert np.array_equal(got, old)

    @pytest.mark.parametrize("size", [64, 192, 320])
    def test_half_spectrum_is_an_eigendecomposition(self, size):
        # the positive nodes with their even and odd rows, and the mirror
        # images diag((-1)^m) v for the negative nodes, diagonalize the section
        mu, even, odd = toeplitz._hermite_eigh(size)
        assert len(mu) == size // 2 and np.all(mu > 0.0) and np.all(np.diff(mu) > 0.0)
        v = np.empty((size, size // 2))
        v[0::2], v[1::2] = even, odd
        off = np.sqrt(np.arange(1.0, size))
        xv = np.zeros_like(v)
        xv[:-1] += off[:, None] * v[1:]
        xv[1:] += off[:, None] * v[:-1]
        assert np.max(np.abs(xv - v * mu)) <= 1e-13 * math.sqrt(size)
        full = np.concatenate([v * (-1.0) ** np.arange(size)[:, None], v], axis=1)
        assert np.max(np.abs(full.T @ full - np.eye(size))) <= 1e-13
        for table in (mu, even, odd):
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_float64_rows_normalize_without_overflow(self):
        # where long double is float64 the rows are built in float64: at size
        # 768 their squares overflow in 20-odd columns, and _unit_columns
        # still gives the long-double table's vectors
        size = 768
        mu, even, odd = toeplitz._hermite_eigh(size)
        rows = tridiagonal._polynomial_rows(mu, np.exp(-mu * mu / 8), np.zeros(size),
                                            np.sqrt(np.arange(1.0, size + 1.0)), size)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(rows * rows, axis=0)).any()
        v = toeplitz._unit_columns(rows)
        ref = np.empty((size, size // 2))
        ref[0::2], ref[1::2] = even, odd
        assert np.max(np.abs(v - ref)) <= 1e-14

    def test_size_beyond_long_double_range_raises(self):
        # refused before anything is built
        assert toeplitz._HERMITE_MAX_SIZE >= 1385
        with pytest.raises(ValueError, match="exponent range"):
            toeplitz._hermite_eigh(toeplitz._HERMITE_MAX_SIZE + 1)


def _hermite_rows(x, count):
    """p_m(x) e^{-x^2/8} for m = 0 .. count-1 by sqrt(m+1) p_{m+1} = x p_m -
    sqrt(m) p_{m-1}, p_0 = 1, written out: the recurrence _hermite_eigh used
    before it took its rows from tridiagonal._polynomial_rows, kept as an
    oracle."""
    root = np.sqrt(np.arange(count + 1, dtype=x.dtype))
    rows = np.empty((count, len(x)), dtype=x.dtype)
    rows[0] = np.exp(-x * x / 8)
    prev = np.zeros_like(x)
    for m in range(count - 1):
        rows[m + 1] = (x * rows[m] - root[m] * prev) / root[m + 1]
        prev = rows[m]
    return rows


def _hermite_eigh_oracle(size):
    """_hermite_eigh(size) by the same steps on the _hermite_rows oracle."""
    off = np.sqrt(np.arange(1.0, size))
    x = tridiagonal._multisection(np.zeros(size), off, size,
                                  np.arange(size // 2, size)).astype(np.longdouble)
    rows = _hermite_rows(x, size + 1)
    x -= rows[size] / (np.sqrt(np.longdouble(size)) * rows[size - 1])
    v = toeplitz._unit_columns(_hermite_rows(x, size))
    return x.astype(np.float64), v[0::2].astype(np.float64), v[1::2].astype(np.float64)


def _gather_from_scratch(radial, angular, n):
    """_gather_moments with its scale and mask built at exactly n."""
    d = (radial @ angular.view(np.float64)).view(np.complex128)
    idx = np.arange(n)
    upper = d[idx[:, None] + idx[None, :], idx[None, :] - idx[:, None]]
    out = np.where(np.greater.outer(idx, idx), upper.T.conj(), upper)
    lgam = gammaln(np.arange(1.0, n + 0.5, 0.5))
    lf = gammaln(idx + 1.0)
    out *= np.exp(lgam[idx[:, None] + idx[None, :]] - 0.5 * np.add.outer(lf, lf))
    return out


class TestGatherTables:
    def test_bit_identical_to_a_build_at_each_size(self):
        rng = np.random.default_rng(96)
        toeplitz._gather_tables.cache_clear()
        for n in (96, 40, 130):
            radial = rng.standard_normal((2 * n - 1, 3))
            angular = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
            got = toeplitz._gather_moments(radial, angular, n)
            assert np.array_equal(got, _gather_from_scratch(radial, angular, n))
        # one build each at the sizes 128, 64 and 192; N = 100 reads size 128
        toeplitz._gather_moments(radial[:199], np.ascontiguousarray(angular[:, :100]), 100)
        assert toeplitz._gather_tables.cache_info()[:2] == (1, 3)

    def test_tables_are_read_only(self):
        scale, lower = toeplitz._gather_tables(64)
        with pytest.raises(ValueError):
            scale[0, 0] = 0.0
        with pytest.raises(ValueError):
            lower[0, 0] = True


def _must_not_run(*args, **kwargs):
    raise AssertionError("called on a path that should not need it")


def _random_mixed_symbol(rng):
    """Random SimpleSymbol on disjoint radial bands, one kind per band: a
    centered disc (innermost band only), a full annulus, one or two partial
    sectors whose arcs may wrap past 2pi, or an off-center disc inside the
    band. Coefficients are uniform in [-1, 1]."""
    edges = np.cumsum(rng.uniform(0.25, 0.6, size=int(rng.integers(2, 6))))
    edges = np.concatenate([[0.0], edges])
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        kind = rng.choice(["disc", "annulus", "sector", "sectors", "off-center"])
        if kind == "disc" and a == 0.0:
            pieces.append(Disc(0.0, b))
        elif kind in ("disc", "annulus"):
            pieces.append(AnnularSector(a, b, 0.0, TWO_PI))
        elif kind == "off-center":
            angle = rng.uniform(0.0, TWO_PI)
            center = 0.5 * (a + b) * complex(math.cos(angle), math.sin(angle))
            pieces.append(Disc(center, 0.45 * (b - a)))
        else:
            start = rng.uniform(0.0, TWO_PI)
            split = rng.uniform(0.5, TWO_PI - 0.5)
            pieces.append(AnnularSector(a, b, start, start + split))
            if kind == "sectors":
                pieces.append(AnnularSector(a, b, start + split, start + TWO_PI - 0.2))
    return SimpleSymbol(tuple((region, float(rng.uniform(-1.0, 1.0))) for region in pieces))


class TestCentredCompression:
    def test_mixed_symbols_against_quadrature(self):
        # One oracle at N = 48 per symbol; its leading blocks are the
        # compressions at the smaller truncations. Six random symbols, then
        # the two shapes that leave a part out: off-center discs alone (no
        # centered matrix) and a centered disc with a full annulus (no
        # sector pass, only the diagonal).
        rng = np.random.default_rng(404)
        symbols = [_random_mixed_symbol(rng) for _ in range(6)]
        symbols += [
            SimpleSymbol(((Disc(0.9 + 0.4j, 0.5), 0.8), (Disc(-1.1 - 0.7j, 0.6), -0.6))),
            SimpleSymbol(((Disc(0.0, 0.7), -0.9), (AnnularSector(0.7, 1.4, 0.0, TWO_PI), 0.5))),
        ]
        kinds = set()
        for sym in symbols:
            oracle = sum(c * _quadrature_gram(region, 48) for region, c in sym.pieces)
            for n in (1, 2, 17, 48):
                got = assemble(sym, n).data
                assert np.max(np.abs(got - oracle[:n, :n])) < 1e-12
            for region, _ in sym.pieces:
                if isinstance(region, Disc):
                    kinds.add("centered" if region.center == 0 else "off-center")
                else:
                    kinds.add("full" if region.full_span else "partial")
                    if region.theta_end > TWO_PI:
                        kinds.add("wrapping")
        assert kinds == {"centered", "off-center", "full", "partial", "wrapping"}

    @pytest.mark.parametrize("edges", [
        [(0.4, 1.3)],                          # distinct radii: no accumulation
        [(0.0, 0.7), (1.1, 1.6), (0.2, 0.5)],
        [(0.4, 1.3), (0.4, 1.3), (1.3, 2.0)],  # shared radii: accumulated
        [(0.0, 0.7), (0.7, 1.2), (0.0, 1.2)],
    ])
    def test_per_radius_sums_like_add_at(self, edges):
        # both ways of forming the sums give the bits of np.add.at into
        # zeros, a -0.0 term included
        rng = np.random.default_rng(len(edges))
        values = rng.normal(size=(len(edges), 5)) + 1j * rng.normal(size=(len(edges), 5))
        values[0, 1] = -0.0
        x, sums = toeplitz._per_radius(edges, values)
        radii = [r for _, r in edges] + [r for r, _ in edges]
        assert x == list(dict.fromkeys(math.pi * r**2 for r in radii))
        at = [x.index(math.pi * r**2) for r in radii]
        ref = np.zeros((len(x), 5), dtype=complex)
        np.add.at(ref, at, np.concatenate([values, -values]))
        for got, want in ((sums.real, ref.real), (sums.imag, ref.imag)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_empty_symbol(self):
        for n in (1, 7):
            assert np.array_equal(assemble(SimpleSymbol(()), n).data, np.zeros((n, n)))

    def test_truncation_one(self):
        # G[0, 0] = span / (2pi) * (e^{-pi r_in^2} - e^{-pi r_out^2})
        sector = AnnularSector(0.4, 1.3, 5.9, 5.9 + 2.2)
        expect = 2.2 / TWO_PI * (math.exp(-math.pi * 0.16) - math.exp(-math.pi * 1.69))
        assert abs(region_compression(sector, 1)[0, 0] - expect) < 1e-15
        sym = SimpleSymbol(((sector, -0.5), (Disc(0.0, 0.3), 2.0)))
        expect = -0.5 * expect - 2.0 * math.expm1(-math.pi * 0.09)
        assert abs(assemble(sym, 1).data[0, 0] - expect) < 1e-15

    def test_radial_discretization_is_diagonal(self):
        # 4,096 full annuli: the off-diagonal entries vanish exactly, and the
        # diagonal is the step profile's, by quadrature on each cell.
        table = RadialSymbol.table([0.0, 0.6, 1.2, 1.9], [0.9, -0.5, 0.3, 0.0])
        approx, _ = discretize(table, 4096, 1)
        mat = assemble(approx, 48).data
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
        ref = _step_diagonal(approx.radii, approx.values[:, 0], 48)
        assert np.max(np.abs(mat - np.diag(ref))) < 1e-13


def _step_diagonal(edges, heights, truncation):
    """gamma_n = int phi(r) (pi r^2)^n e^{-pi r^2} / n! 2pi r dr, n <
    truncation, for the step profile phi = heights[j] on edges[j] <= r <
    edges[j+1], by order-64 Gauss-Legendre on each step."""
    x, w = gauss_legendre(64, -1.0, 1.0)
    half = 0.5 * np.diff(edges)[:, None]
    r = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    t = (math.pi * r * r).ravel()
    mass = (half * w * TWO_PI * r * heights[:, None]).ravel()
    return np.array([np.dot(np.exp(n * np.log(t) - t - gammaln(n + 1.0)), mass)
                     for n in range(truncation)])


def _polar_cells(grid):
    """Oracle for a PolarGrid: the SimpleSymbol with one AnnularSector piece
    per cell (j, i), radial index outer, with coefficient values[j, i]."""
    r, t = grid.radii.tolist(), grid.theta_edges.tolist()
    return SimpleSymbol(tuple(
        (AnnularSector(r[j], r[j + 1], t[i], t[i + 1]), float(grid.values[j, i]))
        for j in range(len(r) - 1) for i in range(len(t) - 1)
    ))


_RADIAL_PROFILES = {
    "gaussian": RadialSymbol.gaussian(),
    "table": RadialSymbol.table([0.0, 0.6, 1.2, 1.9], [0.9, -0.5, 0.3, 0.0]),
    "annulus": RadialSymbol.annulus(0.35, 1.3, -0.7),
}


class TestPolarGridCompression:
    def _check_against_cells(self, grid):
        oracle = _polar_cells(grid)
        for n in (1, 17, 48):
            got = assemble(grid, n).data
            assert np.max(np.abs(got - assemble(oracle, n).data)) < 1e-14
        assert math.isclose(grid.l1_norm(), oracle.l1_norm(), rel_tol=1e-15)
        assert math.isclose(grid.linf_norm(), oracle.linf_norm(), rel_tol=1e-15)

    @pytest.mark.parametrize("angular", [1, 3])
    @pytest.mark.parametrize("radial", [1, 2, 7, 64, 4096])
    @pytest.mark.parametrize("kind", sorted(_RADIAL_PROFILES))
    def test_radial_grid_matches_cells(self, kind, radial, angular):
        grid, _ = discretize(_RADIAL_PROFILES[kind], radial, angular)
        self._check_against_cells(grid)

    @pytest.mark.parametrize("cells", [2, 3, 8, 16])
    def test_sampled_grid_matches_cells(self, cells):
        sym = _sampled(lambda z: np.exp(-np.abs(z) ** 2) * np.cos(np.angle(z) + 0.4)
                       + 0.2 * np.sin(2.0 * np.angle(z)))
        grid, _ = discretize(sym, cells, cells)
        self._check_against_cells(grid)

    def test_partial_grid_off_origin_matches_cells(self):
        rng = np.random.default_rng(11)
        grid = PolarGrid([0.3, 0.7, 0.8, 1.6], [2.0, 3.1, 4.5, 2.0 + TWO_PI],
                         rng.uniform(-1.0, 1.0, size=(3, 3)))
        self._check_against_cells(grid)
        ring = PolarGrid([0.3, 0.7, 1.6], [0.5, 0.5 + TWO_PI], [[0.4], [-1.2]])
        self._check_against_cells(ring)
        arc = PolarGrid([0.3, 0.7, 1.6], [0.5, 2.0], [[0.4], [-1.2]])
        self._check_against_cells(arc)

    def test_no_per_cell_work(self, monkeypatch):
        # Edges checked by the grid itself: no disjointness sweep, and the
        # compression is fed from the arrays, not sorted piece by piece.
        from focklab import symbols
        monkeypatch.setattr(symbols, "disjoint", _must_not_run)
        monkeypatch.setattr(toeplitz, "_per_radius", _must_not_run)
        for angular in (1, 3):
            grid, _ = discretize(_RADIAL_PROFILES["table"], 256, angular)
            assert assemble(grid, 20).dimension == 20


def _random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def _bisected_sizes(monkeypatch):
    """The sizes of the lead blocks Jacobi bisects, one entry per round,
    collected from tridiagonal._sturm_counts."""
    sizes = []
    counts = tridiagonal._sturm_counts

    def spy(d, e2, x):
        sizes.append(len(d))
        return counts(d, e2, x)

    monkeypatch.setattr(tridiagonal, "_sturm_counts", spy)
    return sizes


def _criterion7_sections():
    """The 50 random_symbol sections of acceptance criterion 7 (seed 2027,
    N = 60) and the first 12 of them nudged by one ulp, entry for entry."""
    rng = np.random.default_rng(2027)
    sections = [assemble(random_symbol(rng), 60).data for _ in range(50)]
    return sections + [np.nextafter(a.real, np.inf) + 1j * a.imag for a in sections[:12]]


def _deep_split_matrix():
    """V diag(lambda) V^H with lambda from 1 down to 1e-40 (N = 60): its lead
    block is small and most eigenvalues come from the tail."""
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60)))
    return (v * np.logspace(0.0, -40.0, 60)) @ v.conj().T


def _reference_tridiagonal(a):
    """The Householder stage written with numpy.linalg.norm and np.outer,
    the reference toeplitz._tridiagonal must match bit for bit."""
    a = a.copy()
    size = a.shape[0]
    e = np.zeros(max(size - 1, 0))
    for j in range(size - 2):
        x = a[j + 1:, j]
        e[j] = norm = float(np.linalg.norm(x))
        if norm <= 2.0**-500:
            continue
        lead = abs(x[0])
        v = x.copy()
        v[0] += (v[0] / lead if lead else 1.0) * norm
        v /= math.sqrt(2.0 * norm * (norm + lead))
        b = a[j + 1:, j + 1:]
        p = b @ v
        q = 2.0 * (p - np.vdot(v, p).real * v)
        b -= np.outer(v, q.conj()) + np.outer(q, v.conj())
    if size > 1:
        e[-1] = abs(a[-1, -2])
    return a.diagonal().real, e


def _reference_sturm_counts(d, e2, x):
    """The Sturm count one row at a time over all points, with a running
    count, the reference tridiagonal._sturm_counts must match exactly."""
    count = np.zeros(x.shape, dtype=np.intp)
    q = np.ones_like(x)
    for d_i, e2_i in zip(d, np.r_[0.0, e2]):
        q = (d_i - x) - e2_i / q
        q[q == 0.0] = -2.0**-900
        count += q < 0.0
    return count


class TestSpectra:
    def test_operator_norm_diagonal(self):
        mat = HermitianMatrix(np.diag([1.0, -4.0, 2.5]).astype(complex))
        assert math.isclose(operator_norm(mat), 4.0, rel_tol=1e-11)

    def test_operator_norm_zero(self):
        assert operator_norm(HermitianMatrix(np.zeros((3, 3), dtype=complex))) == 0.0

    def test_symmetric_spectrum_norm(self):
        # +1 on the upper half of the unit disc, -1 on the lower half: odd
        # under rotation by pi, so the spectrum is exactly symmetric, and the
        # eigenvalues +-lambda must not cancel in the reported norm.
        sym = SimpleSymbol(
            (
                (AnnularSector(0.0, 1.0, 0.0, math.pi), 1.0),
                (AnnularSector(0.0, 1.0, math.pi, TWO_PI), -1.0),
            )
        )
        mat = assemble(sym, 60)
        eig_norm = float(np.max(np.abs(np.linalg.eigvalsh(mat.data))))
        assert abs(operator_norm(mat) - 0.683246591459) < 1e-11
        assert math.isclose(operator_norm(mat), eig_norm, rel_tol=1e-12)
        assert math.isclose(verify_norm_bound(sym, 60).lhs, eig_norm, rel_tol=1e-12)
        lam, _ = top_eigenpair(mat)
        assert math.isclose(abs(lam), eig_norm, rel_tol=1e-12)

    def test_methods_agree(self):
        rng = np.random.default_rng(11)
        for a in (_random_hermitian(rng, 24),
                  np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)):
            np_norm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
            assert math.isclose(operator_norm(a), np_norm, rel_tol=1e-12)
            assert math.isclose(operator_norm(a, method="jacobi"), np_norm, rel_tol=1e-11)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_non_finite_rejected(self):
        # a NaN Hermitian defect once passed the check: the norm read nan,
        # top_eigenpair gave (nan, [nan, nan]) and Jacobi hit its sweep limit
        nan_matrix = np.array([[1.0, np.nan], [np.nan, 1.0]])
        inf_matrix = np.array([[1.0, np.inf], [np.inf, 1.0]])
        for solve in (operator_norm, top_eigenpair, jacobi_eigenvalues,
                      lambda a: operator_norm(a, method="jacobi")):
            for a in (nan_matrix, inf_matrix):
                with pytest.raises(ValueError, match="finite"):
                    solve(a)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            operator_norm(np.eye(2, dtype=complex), method="lanczos")

    def test_jacobi_against_lapack(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 5, 17, 40, 61):
            a = _random_hermitian(rng, n)
            got = jacobi_eigenvalues(a)
            expect = np.linalg.eigvalsh(a)
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(got - expect)) < 1e-11 * scale

    def test_jacobi_every_eigenvalue(self):
        # all 50 sections of acceptance criterion 7 and the first 12 nudged
        # by one ulp, entry for entry; then pivots of 1e-290 across a gap of
        # 1e10 (tau = 5e299), alone and inside a 3 x 3 matrix whose lead
        # block is bisected
        rng = np.random.default_rng(2027)
        sections = [assemble(random_symbol(rng), 60).data for _ in range(50)]
        sections += [np.nextafter(a.real, np.inf) + 1j * a.imag for a in sections[:12]]
        for a in sections:
            assert np.max(np.abs(jacobi_eigenvalues(a) - np.linalg.eigvalsh(a))) <= 1e-14
        for a in (np.array([[0.0, 1e-290], [1e-290, 1e10]]),
                  np.array([[0.0, 1e-290, 1.0], [1e-290, 1e10, 0.0], [1.0, 0.0, 1.0]])):
            expect = np.linalg.eigvalsh(a)
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(jacobi_eigenvalues(a) - expect)) <= 1e-12 * scale

    def test_tridiagonal_form(self):
        # the Householder stage: real couplings e >= 0, and the tridiagonal
        # matrix they form has A's eigenvalues
        for a in (assemble(random_symbol(np.random.default_rng(2027)), 60).data,
                  _random_hermitian(np.random.default_rng(29), 61)):
            d, e = toeplitz._tridiagonal(a)
            assert d.dtype == e.dtype == np.float64 and np.all(e >= 0.0)
            t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            gap = np.abs(np.linalg.eigvalsh(t) - np.linalg.eigvalsh(a))
            assert np.max(gap) <= 1e-14 * np.linalg.norm(a)

    def test_jacobi_deep_split(self, monkeypatch):
        # V diag(lambda) V^H, lambda from 1 down to 1e-40: the tridiagonal
        # couplings fall below the split budget early, Jacobi bisects a small
        # lead block, and the tail's diagonal entries are its eigenvalues
        rng = np.random.default_rng(5)
        v, _ = np.linalg.qr(rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60)))
        lam = np.logspace(0.0, -40.0, 60)
        sizes = _bisected_sizes(monkeypatch)
        got = jacobi_eigenvalues((v * lam) @ v.conj().T)
        assert 0 < max(sizes) <= 30
        assert np.max(np.abs(got - lam[::-1])) <= 1e-14

    def test_jacobi_dense_no_split(self, monkeypatch):
        # a random dense matrix at odd N = 61: no coupling is small, so all
        # 61 rows are the lead block, bisected whole at its odd size
        a = _random_hermitian(np.random.default_rng(29), 61)
        sizes = _bisected_sizes(monkeypatch)
        got = jacobi_eigenvalues(a)
        assert set(sizes) == {61}
        assert np.max(np.abs(got - np.linalg.eigvalsh(a))) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("a, rotated", [
        ([[2.5]], set()),                              # lead 1: no round
        ([[0.0, 1e-290], [1e-290, 1e10]], set()),      # coupling split off: lead 1
        ([[1.0, 1j], [-1j, 3.0]], {2}),
        ([[0.0, 0.0], [0.0, -2.0]], set()),          # zero coupling: lead 1
        ([[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 0.0]], {3}),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], {3}),  # eigenvalue 0 kept
    ])
    def test_jacobi_padding(self, monkeypatch, a, rotated):
        # N = 1, 2 and 3 lead blocks: a block of any size is bisected as it
        # is (`rotated` is the set of lead sizes bisected), and N values come
        # back, the matrix's own zeros included
        a = np.array(a, dtype=complex)
        sizes = _bisected_sizes(monkeypatch)
        got = jacobi_eigenvalues(a)
        assert set(sizes) == rotated
        expect = np.linalg.eigvalsh(a)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-14 * max(1.0, float(np.max(np.abs(expect))))

    def test_jacobi_repeated_eigenvalues(self):
        # V diag(2, 2, 2, -1, -1, 0.5) V^H: each eigenvalue comes back as
        # often as it occurs
        rng = np.random.default_rng(37)
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        lam = np.array([2.0, 2.0, 2.0, -1.0, -1.0, 0.5])
        got = jacobi_eigenvalues((v * lam) @ v.conj().T)
        assert np.max(np.abs(got - np.sort(lam))) <= 1e-14

    def test_jacobi_point_on_eigenvalue(self, monkeypatch):
        # Scaled by 1/16, this tridiagonal matrix has the Gershgorin bracket
        # [-1/2, 9/16], so the first round's points are -1/2 + p/16 and p = 8
        # lands on its eigenvalue 0, where the first pivot is d_0 - 0 = 0:
        # the zero-pivot guard runs, and nothing divides by zero
        a = np.array([[0.0, 8.0, 0.0], [8.0, 0.5, 0.5], [0.0, 0.5, 0.0]])
        points = []
        counts = tridiagonal._sturm_counts

        def spy(d, e2, x):
            points.append(x)
            return counts(d, e2, x)

        monkeypatch.setattr(tridiagonal, "_sturm_counts", spy)
        with np.errstate(divide="raise", invalid="raise"):
            got = jacobi_eigenvalues(a)
        assert 0.0 in points[0]
        expect = np.linalg.eigvalsh(a)
        assert np.max(np.abs(got - expect)) <= 1e-14 * float(np.max(np.abs(expect)))

    def test_jacobi_round_count(self, monkeypatch):
        # Its largest entry in [1/2, 1), this real tridiagonal matrix is
        # bisected as it is: the Gershgorin bracket is [-1, 1], and the
        # rounds are the fewest that take its width 2 below 4 eps. A zero
        # matrix has a bracket of width 0: zeros after no round.
        a = np.diag([0.5, -0.25, 0.75]) + np.diag([0.5, 0.25], 1) + np.diag([0.5, 0.25], -1)
        width, target = 2.0, 4.0 * np.finfo(float).eps
        rounds = next(r for r in range(64) if width / 17.0**r <= target)
        sizes = _bisected_sizes(monkeypatch)
        got = jacobi_eigenvalues(a)
        assert len(sizes) == rounds
        assert np.max(np.abs(got - np.linalg.eigvalsh(a))) <= 1e-14
        sizes.clear()
        assert np.array_equal(jacobi_eigenvalues(np.zeros((4, 4))), np.zeros(4))
        assert sizes == []

    def test_jacobi_without_lapack(self, monkeypatch):
        # every LAPACK eigensolver or factorization numpy and scipy offer for
        # this, made to raise: the Jacobi path still solves a criterion-7
        # section and a random matrix of odd size, and assembles and norms an
        # off-centre disc, whose Weyl translation is built afresh, the
        # gaussian, and a sampled symbol on a Gauss-Laguerre rule built afresh
        # and its discretized grid
        section = assemble(random_symbol(np.random.default_rng(2027)), 60)
        dense = _random_hermitian(np.random.default_rng(31), 61)
        disc = SimpleSymbol(((Disc(1 + 0.5j, 0.56), 1.0),))
        disc_section = assemble(disc, 40)
        cases = [(section, np.linalg.eigvalsh(section.data), 1e-14),
                 (dense, np.linalg.eigvalsh(dense), 1e-13 * np.linalg.norm(dense))]
        disc_norm = float(np.max(np.abs(np.linalg.eigvalsh(disc_section.data))))
        values = np.random.default_rng(7).uniform(-1.0, 1.0, (24, 48))

        def sampled():
            return SampledSymbol(values, 1.0)

        def grid():
            return discretize(sampled(), 16, 8)[0]

        built = [(RadialSymbol.gaussian, 40), (sampled, 24), (grid, 24)]
        sections = [assemble(make(), n) for make, n in built]
        norms = [float(np.max(np.abs(np.linalg.eigvalsh(a.data)))) for a in sections]

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK was called")

        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "solve", "inv",
                     "cholesky", "lstsq", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, name, lapack)
        for name in ("eigh", "eigh_tridiagonal", "eigvalsh_tridiagonal"):
            monkeypatch.setattr(scipy.linalg, name, lapack)
        for a, expect, tol in cases:
            got = jacobi_eigenvalues(a)
            assert np.max(np.abs(got - expect)) <= tol
            assert operator_norm(a, method="jacobi") == float(np.max(np.abs(got)))
        toeplitz._hermite_eigh.cache_clear()
        rebuilt = assemble(disc, 40)
        assert toeplitz._hermite_eigh.cache_info().misses == 1
        assert np.array_equal(rebuilt.data, disc_section.data)
        assert abs(operator_norm(rebuilt, method="jacobi") - disc_norm) <= 1e-14
        RadialRule.gauss_laguerre.cache_clear()
        for (make, n), expect, norm in zip(built, sections, norms):
            got = assemble(make(), n)
            assert np.array_equal(got.data, expect.data)
            assert abs(operator_norm(got, method="jacobi") - norm) <= 1e-14
        assert RadialRule.gauss_laguerre.cache_info().misses == 1

    @pytest.mark.parametrize("a", [
        [[0.0, 1e200], [1e200, 0.0]],     # ||A||_F overflows
        [[0.0, 1e-200], [1e-200, 0.0]],   # ||A||_F underflows
        [[0.0, 1e160], [1e160, 1.0]],     # overflows, with an O(1) diagonal
    ])
    def test_jacobi_extreme_scales(self, a):
        # these once gave [0, 0], [0, 0] and [0, 1]
        a = np.array(a)
        expect = np.linalg.eigvalsh(a)
        got = jacobi_eigenvalues(a)
        assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect))
        assert math.isclose(operator_norm(a, method="jacobi"), operator_norm(a),
                            rel_tol=1e-14)

    def test_jacobi_rounds_fixed_up_front(self, monkeypatch):
        # the number of rounds is fixed before the first one, so counts that
        # carry no information end after as many rounds as true ones do
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        sizes = _bisected_sizes(monkeypatch)
        jacobi_eigenvalues(a)
        rounds = len(sizes)
        monkeypatch.setattr(tridiagonal, "_sturm_counts", lambda d, e2, x: np.zeros(x.shape, int))
        sizes = _bisected_sizes(monkeypatch)
        assert jacobi_eigenvalues(a).shape == (2,)
        assert 0 < len(sizes) == rounds

    def test_top_eigenpair_residual(self):
        rng = np.random.default_rng(7)
        a = _random_hermitian(rng, 15)
        lam, v = top_eigenpair(a)
        assert math.isclose(abs(lam), float(np.max(np.abs(np.linalg.eigvalsh(a)))),
                            rel_tol=1e-12)
        assert float(np.linalg.norm(a @ v - lam * v)) < 1e-12
        assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=1e-12)

    def test_top_eigenpair_negative_dominant(self):
        a = np.diag([-3.0, 1.0]).astype(complex)
        lam, v = top_eigenpair(a)
        assert math.isclose(lam, -3.0, rel_tol=1e-12)
        assert abs(abs(v[0]) - 1.0) < 1e-10


_DIAGONAL_SIZES = (1, 7, 32, 48, 120)


def _lapack_norm(a) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


class TestDiagonalNorm:
    """operator_norm reads a diagonal matrix's norm off its diagonal, with
    the bits LAPACK's eigvalsh gives."""

    @pytest.mark.parametrize("n", _DIAGONAL_SIZES)
    def test_radial_sections(self, n):
        for symbol in seeded_radials():
            a = radial_assemble(symbol, n)
            assert operator_norm(a) == _lapack_norm(a.data)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_ring_grids(self, m):
        for symbol in seeded_radials():
            grid, _ = discretize(symbol, m * m, 1)
            for n in _DIAGONAL_SIZES:
                a = assemble(grid, n)
                assert np.count_nonzero(a.data - np.diag(np.diag(a.data))) == 0
                assert operator_norm(a) == _lapack_norm(a.data)

    def test_centred_disc_and_full_annulus(self):
        sym = SimpleSymbol(((Disc(0.0, 0.8), 1.5), (AnnularSector(1.0, 1.7, 0.0, TWO_PI), -0.6)))
        for n in _DIAGONAL_SIZES:
            a = assemble(sym, n)
            assert np.count_nonzero(a.data - np.diag(np.diag(a.data))) == 0
            assert operator_norm(a) == _lapack_norm(a.data)

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-146, 1.0, 1e146, 1e300])
    def test_scaled_random_diagonals(self, scale):
        # a dense diagonal reads max |d| exactly at every scale: with
        # eigvalsh's bits at 0 and 1, and at 1e+-146, about the edges of the
        # range LAPACK leaves unscaled, and 1e+-300, outside it, through the
        # power-of-two rescaling that keeps them
        rng = np.random.default_rng(17)
        for n in _DIAGONAL_SIZES:
            for _ in range(20):
                a = np.diag(rng.uniform(-1.0, 1.0, size=n) * scale).astype(complex)
                assert operator_norm(a) == float(np.max(np.abs(np.diag(a))))
                if scale in (0.0, 1.0):
                    assert operator_norm(a) == _lapack_norm(a)

    def test_dense_norm_exact_under_power_of_two_scaling(self):
        # eigvalsh alone read 2^600 A as 4.0 * 2^600, where A reads
        # 3.9999999999999982; inside LAPACK's unscaled range the bits are
        # eigvalsh's, and 2^k A reads 2^k times A's norm at every k here
        def times(m, k):  # 2^k m, exactly
            return np.ldexp(m.view(np.float64), k).view(complex)

        a = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, -3.0]])
        assert operator_norm(a) == _lapack_norm(a) == 3.9999999999999982
        assert operator_norm(times(a, 600)) == 2.0**600 * operator_norm(a)
        for m in (a, _random_hermitian(np.random.default_rng(29), 30)):
            norm = operator_norm(m)
            for k in range(-900, 901, 20):
                assert operator_norm(times(m, k)) == math.ldexp(norm, k)

    def test_diagonal_makes_no_solver_call(self, monkeypatch):
        calls = []
        solve = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        section = radial_assemble(RadialSymbol.gaussian(), 32)
        expect = float(np.max(np.abs(np.diag(section.data).real)))
        assert operator_norm(section) == expect
        assert calls == []
        # a dense array keeps no diagonal: one solver call, with the same bits
        a = section.data.copy()
        assert operator_norm(a) == expect
        assert calls == [(32, 32)]
        a[3, 5] = a[5, 3] = 1e-300
        assert operator_norm(a) == expect
        assert calls == [(32, 32)] * 2
        # outside LAPACK's unscaled range a dense matrix is solved again,
        # scaled by a power of two, and reads max |d| exactly; eigvalsh
        # alone reads 1.9999999999999997e-300
        tiny = np.diag([1e-300, -2e-300]).astype(complex)
        assert operator_norm(tiny) == 2e-300
        assert len(calls) == 4


def _ring_reference(radii, values, n):
    """sum_j v_j (P(k+1, x_{j+1}) - P(k+1, x_j)), k < n, x = pi r^2: the
    diagonal of rings with values v between consecutive radii, from
    scipy.special.gammainc."""
    p = gammainc(np.arange(1, n + 1)[None, :], math.pi * np.asarray(radii)[:, None] ** 2)
    return np.asarray(values) @ (p[1:] - p[:-1])


class TestRingDiagonal:
    """Ring diagonals (centered discs, full annuli, one-column full-span
    grids) from one product of Poisson weights, against gammainc."""

    @pytest.mark.parametrize("rings", [1, 16, 256, 4096])
    def test_ring_grids_against_gammainc(self, rings):
        for symbol in seeded_radials():
            grid, _ = discretize(symbol, rings, 1)
            ref = _ring_reference(grid.radii, grid.values[:, 0], 120)
            for n in (1, 17, 48, 120):
                got = assemble(grid, n).data
                assert np.max(np.abs(got.diagonal() - ref[:n])) < 1e-14

    def test_disc_and_annulus_against_gammainc(self):
        sym = SimpleSymbol(((Disc(0.0, 0.8), 1.5), (AnnularSector(1.0, 1.7, 0.0, TWO_PI), -0.6)))
        ref = _ring_reference([0.0, 0.8, 1.0, 1.7], [1.5, 0.0, -0.6], 120)
        for n in (1, 17, 48, 120):
            got = assemble(sym, n).data.diagonal()
            assert np.max(np.abs(got - ref[:n])) < 1e-15


def _decimal_ring_diagonal(r_inner, r_outer, n):
    """P(k+1, pi r_outer^2) - P(k+1, pi r_inner^2), k < n, from the 40-digit
    _decimal_gammainc."""
    def column(r):
        if r == 0.0:
            return np.zeros(n)
        table = _decimal_gammainc(n, math.pi * r * r)
        return np.array([table[float(k + 1)] for k in range(n)])
    return column(r_outer) - column(r_inner)


class TestRadialRings:
    """A radial disc or annulus is assembled as the ring it is, the path of
    a centred Disc or a full AnnularSector, in Loader's Poisson weights."""

    @pytest.mark.parametrize("radius", [5.0, 10.0, 20.0, 30.0])
    def test_wide_rings_against_40_digits(self, radius):
        # every n up to pi R^2 + 12 R + 40, well past the peak of P(n+1, .);
        # the log-domain weights were up to 6.2e-12 off at R = 30, and the
        # norm read up to 4.9e-12 above linf
        n = int(math.pi * radius**2 + 12.0 * radius + 40.0)
        for symbol, r_inner in ((RadialSymbol.disc(radius), 0.0),
                                (RadialSymbol.annulus(radius / 2, radius), radius / 2)):
            gamma = radial_assemble(symbol, n)
            ref = _decimal_ring_diagonal(r_inner, radius, n)
            assert np.max(np.abs(gamma._diagonal - ref)) <= 4e-15
            norm = operator_norm(gamma)
            if symbol.kind == "disc":
                assert norm <= symbol.linf
            else:
                assert norm <= symbol.linf * (1.0 + 2.0**-51)

    def test_disc_bound_holds_without_slack(self):
        # margin -1.16e-12 before: it held only through NORM_SLACK
        assert verify_norm_bound(RadialSymbol.disc(20.0), 1340).margin >= 0.0

    @pytest.mark.parametrize("r_inner, r_outer, height", [
        (0.0, 0.8, 0.75), (0.0, 5.0, -2.0), (0.0, 20.0, 1.0),
        (0.5, 1.5, 1.0), (0.4, 1.3, -0.5), (10.0, 20.0, 3.0),
    ])
    def test_same_bits_as_the_simple_symbol(self, r_inner, r_outer, height):
        if r_inner == 0.0:
            radial, regions = RadialSymbol.disc(r_outer, height), [Disc(0.0, r_outer)]
        else:
            radial, regions = RadialSymbol.annulus(r_inner, r_outer, height), []
        regions.append(AnnularSector(r_inner, r_outer, 0.0, TWO_PI))
        for n in (1, 40, 700):
            gamma = radial_assemble(radial, n)._diagonal
            for region in regions:
                assert np.array_equal(gamma, assemble(SimpleSymbol(((region, height),)), n)._diagonal)

    def test_cap_radius(self):
        # at the largest support radius every weight below N = 64 underflows,
        # and each entry is the height itself
        gamma = radial_assemble(RadialSymbol.disc(1e4), 64)._diagonal
        assert np.all(gamma == 1.0)

    def test_zero_weight_rings_dropped(self, monkeypatch):
        # a discretized annulus has 2 nonzero ring weights among 4,097: only
        # those reach the weight table, and the diagonal is unchanged
        grid, _ = discretize(RadialSymbol.annulus(0.5, 1.5), 4096, 1)
        widths = []
        weight = toeplitz.poisson_weight

        def spy(k, x, log_w=0.0):
            widths.append(np.shape(x))
            return weight(k, x, log_w)

        monkeypatch.setattr(toeplitz, "poisson_weight", spy)
        gamma = assemble(grid, 40)._diagonal
        assert widths == [(2,)]
        v = grid.values[:, 0]
        r_inner, r_outer = grid.radii[np.flatnonzero(np.diff(v, prepend=0.0, append=0.0))]
        assert np.max(np.abs(gamma - _decimal_ring_diagonal(r_inner, r_outer, 40))) <= 1e-15


def _diagonal_symbols():
    """The three kinds of symbol whose sections assembly keeps as a
    diagonal: the gaussian, a 4,096-ring grid of it and a centered disc."""
    gaussian = RadialSymbol.gaussian()
    return [gaussian, discretize(gaussian, 4096, 1)[0], SimpleSymbol(((Disc(0.0, 0.8), 1.5),))]


class TestDiagonalSections:
    """Sections born diagonal keep their diagonal: the norm is read from it
    in O(N), with no solver call and no scan of the dense data."""

    def _spy(self, monkeypatch):
        calls = []
        for module, name in ((np.linalg, "eigvalsh"), (np, "count_nonzero")):
            def spy(*args, _name=name, _call=getattr(module, name), **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return calls

    def test_norm_makes_no_solver_call_and_no_scan(self, monkeypatch):
        sections = [radial_assemble(RadialSymbol.gaussian(), 2000)]
        sections += [assemble(symbol, 120) for symbol in _diagonal_symbols()]
        calls = self._spy(monkeypatch)
        norms = [operator_norm(a) for a in sections]
        assert calls == []
        for a, norm in zip(sections, norms):
            assert norm == float(np.max(np.abs(a.data.diagonal().real)))

    @pytest.mark.parametrize("n", _DIAGONAL_SIZES)
    def test_norm_is_lapacks(self, n):
        for symbol in _diagonal_symbols():
            a = assemble(symbol, n)
            assert operator_norm(a) == _lapack_norm(a.data)

    def test_gaussian_diagonal_in_closed_form(self):
        a = radial_assemble(RadialSymbol.gaussian(), 2000)
        expect = (math.pi / (math.pi + 1.0)) ** np.arange(1.0, 2001.0)
        assert np.array_equal(a.data.diagonal().real, expect)
        assert np.array_equal(a.data, np.diag(expect.astype(complex)))

    @pytest.mark.parametrize("n", _DIAGONAL_SIZES)
    def test_rayleigh_is_the_quadratic_form(self, n):
        rng = np.random.default_rng(n)
        for symbol in _diagonal_symbols():
            a = assemble(symbol, n)
            for _ in range(10):
                f = FockFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
                direct = float(np.real(np.vdot(f.coeffs, a.data @ f.coeffs)))
                assert math.isclose(rayleigh(symbol, f), direct, rel_tol=1e-15)

    def test_scaled_diagonal_is_read_exactly(self, monkeypatch):
        # outside [2^-485, 2^485] LAPACK rescales by a factor that is not a
        # power of two: it read this norm as 1.9999999999999997e-300
        tiny = HermitianMatrix._of_diagonal([1e-300, -2e-300])
        calls = self._spy(monkeypatch)
        assert operator_norm(tiny) == 2e-300
        assert calls == []
        assert operator_norm(tiny, method="jacobi") == 2e-300
        rng = np.random.default_rng(23)
        for scale in (1e-300, 1e-150, 5e-314, 1e150, 1e300):
            for _ in range(50):
                d = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 40))) * scale
                assert operator_norm(HermitianMatrix._of_diagonal(d)) == np.max(np.abs(d))
        assert calls == []

    def test_data_is_built_on_first_read(self):
        # a kept diagonal stores d alone; data, built when first read, is
        # the read-only diag(d) with d's bits, and later reads return it
        a = assemble(SimpleSymbol(((Disc(0.0, 0.8), 1.5),)), 48)
        assert a.dimension == 48 and "data" not in vars(a)
        assert operator_norm(a) == float(np.max(np.abs(a._diagonal)))
        assert "data" not in vars(a)
        data = a.data
        assert a.data is data and not data.flags.writeable
        assert np.array_equal(data, np.diag(a._diagonal.astype(complex)))

    def test_large_gaussian_norm_builds_no_dense_data(self):
        # the dense 4096 x 4096 data would take 256 MiB
        tracemalloc.start()
        try:
            norm = operator_norm(radial_assemble(RadialSymbol.gaussian(), 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert norm == math.pi / (math.pi + 1.0)

    def test_diagonal_validation(self):
        for bad in ([], [[1.0]], [1.0, math.nan], [1.0, math.inf], [1.0 + 1e-3j]):
            with pytest.raises(ValueError):
                HermitianMatrix._of_diagonal(bad)
        a = HermitianMatrix._of_diagonal([-0.0, 2.5])
        assert not a.data.flags.writeable
        assert np.signbit(a.data[0, 0].real) and not np.signbit(a.data[0, 0].imag)


class TestJacobiNorm:
    """operator_norm(method="jacobi") bisects only the two extreme brackets
    of the lead block; the kernels it runs on match row-at-a-time references
    bit for bit."""

    @staticmethod
    def _matrices():
        return _criterion7_sections() + [
            _random_hermitian(np.random.default_rng(29), 61), _deep_split_matrix()]

    def test_extremes_are_the_ends_of_every_eigenvalue(self):
        for a in self._matrices():
            eigs = jacobi_eigenvalues(a)
            assert np.array_equal(np.array(toeplitz._extreme_eigenvalues(a)), eigs[[0, -1]])
            assert operator_norm(a, method="jacobi") == float(np.max(np.abs(eigs)))

    def test_two_brackets_per_round(self, monkeypatch):
        # the norm sends 2 x 16 points per round, for as many rounds as the
        # all-brackets call, which sends 16 per lead-block row
        calls = []
        counts = tridiagonal._sturm_counts

        def spy(d, e2, x):
            calls.append((len(d), len(x)))
            return counts(d, e2, x)

        monkeypatch.setattr(tridiagonal, "_sturm_counts", spy)
        for a in self._matrices()[::10]:
            calls.clear()
            jacobi_eigenvalues(a)
            every = list(calls)
            calls.clear()
            operator_norm(a, method="jacobi")
            assert len(calls) == len(every) > 0
            assert all(points == 16 * k for k, points in every)
            assert all(points == 32 for _, points in calls)

    @pytest.mark.parametrize("a, norm", [
        ([[0.0, 1e-290], [1e-290, 1e10]], 1e10),   # from the tail d[k:]
        ([[-3.0, 0.5], [0.5, 1.0]], 1.0 + math.sqrt(4.25)),  # lambda_min wins
        ([[-2.5]], 2.5),                           # 1 x 1
    ])
    def test_edge_cases(self, a, norm):
        a = np.array(a, dtype=complex)
        got = operator_norm(a, method="jacobi")
        assert got == float(np.max(np.abs(jacobi_eigenvalues(a))))
        assert math.isclose(got, norm, rel_tol=1e-14)

    def test_zero_matrix_runs_no_round(self, monkeypatch):
        sizes = _bisected_sizes(monkeypatch)
        got = operator_norm(np.zeros((4, 4)), method="jacobi")
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        assert sizes == []

    def test_zero_pivot_through_the_norm(self):
        # the matrix of test_jacobi_point_on_eigenvalue: a first-round point
        # lands on its eigenvalue 0, and nothing divides by zero
        a = np.array([[0.0, 8.0, 0.0], [8.0, 0.5, 0.5], [0.0, 0.5, 0.0]])
        with np.errstate(divide="raise", invalid="raise"):
            got = operator_norm(a, method="jacobi")
        assert got == float(np.max(np.abs(jacobi_eigenvalues(a))))
        assert math.isclose(got, float(np.max(np.abs(np.linalg.eigvalsh(a)))), rel_tol=1e-14)

    def test_tridiagonal_against_reference(self):
        rng = np.random.default_rng(41)
        for a in (_criterion7_sections()[:50]
                  + [_random_hermitian(rng, n) for n in (1, 2, 3, 17, 61)]):
            for got, expect in zip(toeplitz._tridiagonal(a), _reference_tridiagonal(a)):
                assert np.array_equal(got, expect)

    def test_sturm_counts_against_reference(self):
        rng = np.random.default_rng(43)
        cases = []
        for k in (1, 2, 17, 40):
            d, e2 = rng.normal(size=k), rng.random(k - 1)
            spread = np.concatenate([rng.uniform(-4.0, 4.0, 16 * k), d])
            cases += [(d, e2, spread), (d, e2, spread[:32])]
        # exact zero pivots: q_0 = 0 with e2_0 = 0 (unguarded, 0 / 0), and
        # q_16 = 1 - 1 / 1 = 0, the first row of a block of 16
        cases.append((np.array([0.0, -1.0, -1.0]), np.array([0.0, 0.5]), np.array([0.0, -2.0, 2.0])))
        e2 = np.zeros(39)
        e2[15] = e2[16] = 1.0
        for points in (32, 640):
            x = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, points - 1)])
            cases.append((np.ones(40), e2, x))
        for d, e2, x in cases:
            with np.errstate(divide="raise", invalid="raise"):
                assert np.array_equal(tridiagonal._sturm_counts(d, e2, x),
                                         _reference_sturm_counts(d, e2, x))

    @staticmethod
    def _guarded(monkeypatch):
        """The row counts of the blocks that tridiagonal._sturm_counts forms
        again with the zero-pivot guard, one entry per guarded block."""
        blocks = []
        guarded = tridiagonal._guarded_block

        def spy(rows, couplings, x, prev):
            blocks.append(len(rows))
            return guarded(rows, couplings, x, prev)

        monkeypatch.setattr(tridiagonal, "_guarded_block", spy)
        return blocks

    @pytest.mark.parametrize("zero_row", [
        15,  # the last row of the first block of 16
        6,   # inside the first block
    ])
    def test_zero_pivot_fast_path(self, monkeypatch, zero_row):
        # 640 points on 40 rows make blocks of 16 rows. q_{zero_row} = 1 -
        # 1 / 1 = 0 at x = 0, and the row after it divides by that pivot:
        # guarded, by -2^-900, it is hugely positive, unguarded -inf. Only
        # the block that holds the zero is formed again, and after a zero
        # on a block's last row the next block starts from the guarded pivot
        blocks = self._guarded(monkeypatch)
        e2 = np.zeros(39)
        e2[zero_row - 1] = e2[zero_row] = 1.0
        x = np.concatenate([[0.0], np.random.default_rng(47).uniform(-3.0, 3.0, 639)])
        with np.errstate(all="raise"):
            got = tridiagonal._sturm_counts(np.ones(40), e2, x)
            expect = _reference_sturm_counts(np.ones(40), e2, x)
        assert np.array_equal(got, expect)
        assert blocks == [16]

    def test_negative_zero_pivot(self, monkeypatch):
        # d_1 - 0 = -0.0 - 0.0 = -0.0 with e2_0 = 0: a -0.0 pivot is a zero
        # pivot, guarded like +0.0, where an unguarded one counts as
        # non-negative and sends the next pivot to +inf
        blocks = self._guarded(monkeypatch)
        d, e2 = np.array([1.0, -0.0, 0.5, 2.0]), np.array([0.0, 1.0, 0.25])
        x = np.array([0.0, -1.0, 0.3, 1.5])
        with np.errstate(all="raise"):
            assert np.array_equal(tridiagonal._sturm_counts(d, e2, x),
                                  _reference_sturm_counts(d, e2, x))
        assert blocks == [4]

    def test_criterion7_norms_take_no_guarded_block(self, monkeypatch):
        blocks = self._guarded(monkeypatch)
        sections = _criterion7_sections()
        assert len(sections) == 62
        for a in sections:
            operator_norm(a, method="jacobi")
        assert blocks == []


def _displaced_disc_sections():
    """Off-centre discs at N = 60, 80 and 100, the sizes of the benchmark's
    sharpness cases."""
    rng = np.random.default_rng(53)
    sections = []
    for n in (60, 80, 100):
        for _ in range(3):
            disc = Disc(complex(*rng.uniform(-0.8, 0.8, 2)), float(rng.uniform(0.4, 1.2)))
            sections.append(assemble(SimpleSymbol(((disc, 1.0),)), n).data)
    return sections


class TestTopEigenpair:
    """top_eigenpair takes lambda from eigvalsh, with the bits operator_norm
    reads, and v from inverse iteration."""

    @staticmethod
    def _solves(monkeypatch):
        """One entry per numpy.linalg.solve call: True where it raised."""
        calls = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                out = solve(a, b)
            except np.linalg.LinAlgError:
                calls.append(True)
                raise
            calls.append(False)
            return out

        monkeypatch.setattr(np.linalg, "solve", spy)
        return calls

    @staticmethod
    def _check_pair(a, lam, v):
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert np.linalg.norm(a @ v - lam * v) <= 2.0**-46 * abs(lam)

    def test_lambda_is_the_norm(self):
        for a in _criterion7_sections()[:50] + _displaced_disc_sections():
            lam, _ = top_eigenpair(a)
            assert abs(lam) == operator_norm(a)

    def test_vector_against_eigh(self, monkeypatch):
        # eigh, here a test-local oracle, and inverse iteration find the
        # same unit vector up to phase, in one to three solves
        calls = self._solves(monkeypatch)
        cases = _criterion7_sections()[:50] + _displaced_disc_sections()
        cases += [_random_hermitian(np.random.default_rng(31), 61)]
        for a in cases:
            calls.clear()
            lam, v = top_eigenpair(a)
            assert 1 <= len(calls) <= 3 and not any(calls)
            eigs, vecs = np.linalg.eigh(a)
            oracle = vecs[:, int(np.argmax(np.abs(eigs)))]
            assert abs(abs(np.vdot(oracle, v)) - 1.0) <= 1e-12
            self._check_pair(a, lam, v)

    def test_tie_returns_the_negative_end(self):
        for a in (np.diag([2.0, 0.5, -2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[0.0, 1.0j], [-1.0j, 0.0]])):
            lam, v = top_eigenpair(a)
            assert lam == -operator_norm(a)
            self._check_pair(a, lam, v)

    def test_singular_shift(self, monkeypatch):
        # the zero matrix and diag(0, 0, 1) are solved at a shift that is
        # no eigenvalue; diag(-1, -(1 - 2^-52)) has lambda = -1, and its
        # first shift -1 + 2^-52 is its other eigenvalue, so that solve
        # raises and the shift moves to -1 - 2^-52
        calls = self._solves(monkeypatch)
        for a, expect, first in ((np.zeros((3, 3)), 0.0, False),
                                 (np.diag([0.0, 0.0, 1.0]), 1.0, False),
                                 (np.diag([-1.0, -(1.0 - 2.0**-52)]), -1.0, True)):
            calls.clear()
            lam, v = top_eigenpair(a)
            assert lam == expect and calls[0] is first and not any(calls[1:])
            self._check_pair(a, lam, v)

    def test_kept_diagonal(self, monkeypatch):
        # a centred disc's section is kept as its diagonal: lambda and e_i
        # are read off it, with the dense route's lambda bit for bit and
        # its vector up to phase, and no dense data and no solver call
        for n in (20, 60, 400):
            section = assemble(SimpleSymbol(((Disc(0.0, 0.8), 1.0),)), n)
            lam_dense, v_dense = top_eigenpair(np.diag(section._diagonal))
            calls = self._solves(monkeypatch)
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
            lam, v = top_eigenpair(section)
            monkeypatch.undo()
            assert calls == [] and "data" not in vars(section)
            assert lam == lam_dense and v.dtype == np.complex128
            assert abs(abs(np.vdot(v, v_dense)) - 1.0) <= 1e-12

    def test_kept_diagonal_tie_returns_the_negative_end(self):
        for d in ([2.0, 0.5, -2.0], [-1.0, 1.0], [0.5, -2.0, 2.0, -2.0], [0.0, 0.0]):
            lam, v = top_eigenpair(HermitianMatrix._of_diagonal(d))
            i = int(np.argmax(np.abs(v)))
            assert lam == top_eigenpair(np.diag(d))[0] == d[i]
            assert np.array_equal(v, np.eye(len(d))[i])

    def test_extreme_scales(self):
        # eigvalsh alone would rescale 2^+-600 A; top_eigenpair iterates on
        # A scaled by a power of two, so lambda scales exactly and v stays
        a = _random_hermitian(np.random.default_rng(37), 24)
        lam, v = top_eigenpair(a)
        for k in (-600, 600):
            scaled = np.ldexp(a.view(np.float64), k).view(complex)
            got, w = top_eigenpair(scaled)
            assert got == math.ldexp(lam, k) == math.copysign(operator_norm(scaled), lam)
            assert abs(abs(np.vdot(v, w)) - 1.0) <= 1e-12


def _kept_diagonals():
    """Sections kept as their diagonal: random ones at scales 2^-900 ..
    2^900, subnormals, signed zeros, +-ties, one whose small entry
    underflows under the largest's scaling, and radial and centred-disc
    sections."""
    rng = np.random.default_rng(59)
    ds = [np.ldexp(rng.uniform(-1.0, 1.0, int(rng.integers(1, 40))), k)
          for k in range(-900, 901, 100) for _ in range(6)]
    ds += [[5e-324, -1e-320], [-0.0], [0.0], [-0.0, 0.0], [0.0, -0.0, -0.0], [2.0, -2.0],
           [-2.0, 2.0], [1.0, 1.0, -1.0], [0.5, -2.0, 2.0, -2.0], [2.0**900, 2.0**-1000]]
    for n in (1, 7, 60, 400):
        for symbol in (RadialSymbol.gaussian(), RadialSymbol.disc(0.8, 0.75),
                       RadialSymbol.disc(20.0, -1.0), RadialSymbol.annulus(0.5, 1.5)):
            ds.append(radial_assemble(symbol, n)._diagonal)
        ds.append(assemble(SimpleSymbol(((Disc(0.0, 0.8), -1.5),)), n)._diagonal)
    return [HermitianMatrix._of_diagonal(d) for d in ds]


def _reference_eigvalsh(a):
    """(eigs, shift) as operator_norm's eigvalsh route found them before the
    one spectral routine: eigvalsh of a, solved again at _scaled's power of
    two where zheevd or dsterf could rescale."""
    eigs = np.linalg.eigvalsh(a)
    nu = float(np.max(np.abs(eigs)))
    if nu == 0.0 or max(3.0 * 2.0**-405, len(eigs) * 2.0**-485) <= nu <= 2.0**485:
        return eigs, 0
    a, shift = toeplitz._scaled(a)
    return np.linalg.eigvalsh(a), shift


def _reference_norm(h, method):
    """operator_norm as it was read before the one spectral routine: max |d|
    of a kept diagonal under auto, the Jacobi ends of the dense data (a
    kept diagonal's diag(d) included) under jacobi, and else eigvalsh's
    largest modulus."""
    if method == "jacobi":
        data = np.diag(h._diagonal) if h._diagonal is not None else h.data
        lo, hi = toeplitz._extreme_eigenvalues(data)
        return max(abs(lo), abs(hi))
    if h._diagonal is not None:
        return float(np.max(np.abs(h._diagonal)))
    eigs, shift = _reference_eigvalsh(h.data)
    return math.ldexp(float(np.max(np.abs(eigs))), -shift)


def _reference_top_lambda(h):
    """top_eigenpair's lambda as it was read before the one spectral
    routine: of a kept diagonal, the smallest entry of largest modulus at
    its first index, and else the first of largest modulus in eigvalsh's
    ascending list."""
    d = h._diagonal
    if d is not None:
        ends = np.flatnonzero(np.abs(d) == np.max(np.abs(d)))
        return float(d[ends[np.argmin(d[ends])]])
    eigs, shift = _reference_eigvalsh(h.data)
    return math.ldexp(float(eigs[np.argmax(np.abs(eigs))]), -shift)


class TestOneSpectrum:
    """operator_norm and top_eigenpair read the ends of toeplitz._spectrum,
    with the bits of the formulas each held before; a kept diagonal is read
    off under either method."""

    @staticmethod
    def _sections():
        dense = _criterion7_sections()[:50] + _displaced_disc_sections()
        # outside LAPACK's unscaled range: the power-of-two rescue
        dense += [np.ldexp(dense[0].view(np.float64), k).view(complex) for k in (-600, 600)]
        dense += [np.zeros((3, 3)), np.diag([2.0, 0.5, -2.0]), np.diag([1e-300, -2e-300])]
        return [HermitianMatrix(a) for a in dense] + _kept_diagonals()

    def test_same_bits_as_the_former_formulas(self):
        for h in self._sections():
            for method in ("auto", "jacobi"):
                got, expect = operator_norm(h, method=method), _reference_norm(h, method)
                assert got.hex() == expect.hex(), (method, got, expect)
            lam, v = top_eigenpair(h)
            assert lam.hex() == _reference_top_lambda(h).hex()
            assert abs(lam) == operator_norm(h)
            if h._diagonal is not None:
                assert np.array_equal(v, np.eye(h.dimension)[int(np.argmax(np.abs(v)))])

    def test_ends_of_a_kept_diagonal(self):
        for h in _kept_diagonals():
            for method in ("auto", "jacobi"):
                lo, hi, a, shift = toeplitz._spectrum(h, method)
                assert (lo, hi, a, shift) == (np.min(h._diagonal), np.max(h._diagonal), None, 0)

    def test_jacobi_reads_a_kept_diagonal(self, monkeypatch):
        calls = []
        monkeypatch.setattr(toeplitz, "_lead_block", lambda *args: calls.append(args))
        for symbol in _diagonal_symbols():
            section = assemble(symbol, 120)
            assert operator_norm(section, method="jacobi") == float(np.max(np.abs(section._diagonal)))
            assert calls == [] and "data" not in vars(section)

    def test_large_gaussian_jacobi_norm_builds_no_dense_data(self):
        section = radial_assemble(RadialSymbol.gaussian(), 4096)
        tracemalloc.start()
        try:
            norm = operator_norm(section, method="jacobi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and "data" not in vars(section)
        assert norm == math.pi / (math.pi + 1.0)

    def test_unknown_method(self):
        for matrix in (HermitianMatrix._of_diagonal([1.0, -2.0]), np.eye(3)):
            with pytest.raises(ValueError, match="'bogus'"):
                operator_norm(matrix, method="bogus")


def _grid_rayleigh_radial(symbol, f):
    """int phi |f|^2 dlambda by direct quadrature of |f|^2 on a polar grid:
    Gauss-Laguerre in t for the gaussian, else Gauss-Legendre panels in r
    between breakpoints, each crossed with a uniform angular rule."""
    n = f.truncation
    a_ord = max(128, 2 * n + 16)
    ring = np.exp(1j * TWO_PI * np.arange(a_ord) / a_ord)

    def ring_mean(r):
        return np.mean(np.abs(eval_weighted(f, r[:, None] * ring[None, :])) ** 2, axis=1)

    if symbol.kind == "gaussian":
        rul = RadialRule.gauss_laguerre(max(80, n + 16))
        return float(np.dot(rul.scaled_weights, symbol.profile(radii(rul)) * ring_mean(radii(rul))))
    edges = [0.0, *symbol.breakpoints, symbol.support_radius]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r, w = gauss_legendre(max(64, n + 8), a, b)
        total += TWO_PI * float(np.dot(w * r, symbol.profile(r) * ring_mean(r)))
    return total


def _grid_rayleigh_sampled(symbol, f):
    """Sum of phi |f|^2 over the sampled symbol's own product grid."""
    m = symbol.values.shape[1]
    sq = np.abs(eval_weighted(f, grid((symbol.radial, m)))) ** 2
    row = np.sum(symbol.values * sq, axis=1) / m
    return float(np.dot(symbol.radial.scaled_weights, row))


class TestRayleigh:
    def test_simple_symbol_matches_quadratic_form(self):
        rng = np.random.default_rng(5)
        f = random_unit(rng, 9)
        sym = SimpleSymbol(
            (
                (Disc(0.1 + 0.1j, 0.6), 0.7),
                (AnnularSector(1.0, 1.6, 0.3, 2.0), -0.4),
            )
        )
        mat = assemble(sym, f.truncation).data
        v = f.coeffs
        direct = float(np.real(np.conj(v) @ mat @ v))
        assert abs(rayleigh(sym, f) - direct) < 1e-12

    def test_radial_symbol_matches_quadratic_form(self):
        rng = np.random.default_rng(6)
        f = random_unit(rng, 9)
        v = f.coeffs
        for sym in (
            RadialSymbol.gaussian(),
            RadialSymbol.table([0.0, 0.6, 1.2], [0.9, -0.5, 0.0]),
        ):
            mat = radial_assemble(sym, f.truncation).data
            direct = float(np.real(np.conj(v) @ mat @ v))
            assert abs(rayleigh(sym, f) - direct) < 1e-12

    def test_sampled_symbol_matches_quadratic_form(self):
        rng = np.random.default_rng(8)
        f = random_unit(rng, 7)
        sym = _sampled(lambda z: np.exp(-np.abs(z) ** 2) * (1.0 + 0.2 * np.sin(np.angle(z))))
        mat = assemble(sym, f.truncation).data
        v = f.coeffs
        direct = float(np.real(np.conj(v) @ mat @ v))
        assert abs(rayleigh(sym, f) - direct) < 1e-12

    def test_radial_and_sampled_against_grid_quadrature(self):
        rng = np.random.default_rng(12)
        for truncation in (9, 40):
            f = random_unit(rng, truncation - 1)
            for sym in (
                RadialSymbol.gaussian(),
                RadialSymbol.disc(1.1, -0.6),
                RadialSymbol.annulus(0.4, 1.3),
                RadialSymbol.table([0.0, 0.6, 1.2, 1.9], [0.9, -0.5, 0.3, 0.0]),
            ):
                assert abs(rayleigh(sym, f) - _grid_rayleigh_radial(sym, f)) < 1e-12
        f = random_unit(rng, 11)
        sym = _sampled(lambda z: np.exp(-np.abs(z) ** 2) * (1.0 + 0.4 * np.cos(3 * np.angle(z))))
        assert abs(rayleigh(sym, f) - _grid_rayleigh_sampled(sym, f)) < 1e-12

    def test_sampled_needs_resolving_grid(self):
        # 2N - 1 angular nodes must resolve the truncation, as in assemble.
        sym = _sampled(lambda z: np.ones(z.shape), radial_count=40, angular_count=64)
        assert abs(rayleigh(sym, coherent(0.2, 32)) - coherent(0.2, 32).norm() ** 2) < 1e-12
        with pytest.raises(ValueError, match="angular count"):
            rayleigh(sym, coherent(0.2, 33))

    def test_disc_at_truncation_512(self):
        # The grid branch this replaced built a 512 x 520 x 1040 complex array.
        f = coherent(0.3 + 0.1j, 512)
        expect = float(np.dot(gammainc(np.arange(512) + 1.0, math.pi), np.abs(f.coeffs) ** 2))
        assert abs(rayleigh(RadialSymbol.disc(1.0), f) - expect) < 1e-12

    def test_gaussian_truncation_limit(self):
        # no cap on N: the Berezin transform of e^{-|z|^2} at w is
        # pi/(pi+1) e^{-pi|w|^2/(pi+1)}
        w = 0.5
        expect = math.pi / (math.pi + 1.0) * math.exp(-math.pi * w * w / (math.pi + 1.0))
        for truncation in (241, 1000):
            assert abs(rayleigh(RadialSymbol.gaussian(), coherent(w, truncation)) - expect) < 1e-14

    def test_simple_symbol_against_region_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            region = random_region(rng)
            f = random_unit(rng, int(rng.integers(0, 26)), truncation=48)
            quad = integrate_region(
                lambda z: np.abs(eval_weighted(f, z)) ** 2, region,
                radial_order=112, angular_order=224, include_weight=False,
            )
            assert abs(rayleigh(SimpleSymbol(((region, -0.7),)), f) + 0.7 * quad) < 1e-12

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            rayleigh("nope", FockFunction([1.0]))


class TestTruncationSweep:
    """Every symbol type through assemble and rayleigh at truncations on both
    sides of the old limits (the gaussian's 240, the rules' powers of two):
    each works, or the sampled grid names the node count it lacks."""

    TRUNCATIONS = (1, 2, 64, 128, 129, 240, 241, 512)

    @staticmethod
    def _symbols():
        return {
            "sectors": SimpleSymbol((
                (AnnularSector(0.3, 1.0, 0.2, 2.1), 0.8),
                (AnnularSector(1.0, 1.6, 2.5, 5.0), -0.5),
                (AnnularSector(1.7, 2.0, 0.0, TWO_PI), 0.6),
            )),
            "off-centre disc": SimpleSymbol(((Disc(1.0 + 0.5j, 0.6), 1.0),)),
            "gaussian": RadialSymbol.gaussian(),
            "radial disc": RadialSymbol.disc(0.8, 0.75),
            "radial annulus": RadialSymbol.annulus(0.4, 1.3, -0.5),
            "radial table": RadialSymbol.table([0.0, 0.5, 0.9, 1.4, 2.0],
                                               [0.7, -0.4, 0.9, -0.2, 0.0]),
            "sampled": SampledSymbol(np.ones((256, 512)), 1.0),
        }

    def test_sweep(self):
        rng = np.random.default_rng(41)
        for name, sym in self._symbols().items():
            bound = symbol_norm_bound(sym.l1_norm(), sym.linf_norm())
            for n in self.TRUNCATIONS:
                if name == "sampled" and n > 256:
                    with pytest.raises(ValueError,
                                       match=f"truncation {n} exceeds the radial node count 256"):
                        assemble(sym, n)
                    continue
                mat = assemble(sym, n).data
                assert operator_norm(mat) <= bound + NORM_SLACK, (name, n)
                f = random_unit(rng, degree=n - 1)
                assert abs(rayleigh(sym, f) - float(np.real(np.vdot(f.coeffs, mat @ f.coeffs)))) \
                    < 1e-12, (name, n)
                diag = np.diag(mat).real
                if name == "gaussian":
                    closed = (math.pi / (math.pi + 1.0)) ** np.arange(1.0, n + 1.0)
                    assert np.max(np.abs(diag - closed)) < 1e-15
                elif name == "radial disc":
                    closed = 0.75 * gammainc(np.arange(n) + 1.0, math.pi * 0.64)
                    assert np.max(np.abs(diag - closed)) < 1e-15, n


def _read_matrix(text: str) -> HermitianMatrix:
    """The matrix of to_json's text: its dimension n and its n * n entries,
    row by row, as [re, im] pairs."""
    data = json.loads(text)
    entries = np.array([complex(re, im) for re, im in data["entries"]])
    return HermitianMatrix(entries.reshape(data["dimension"], data["dimension"]))


class TestHermitianMatrix:
    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        a = _random_hermitian(rng, 5)
        mat = HermitianMatrix(a)
        back = _read_matrix(mat.to_json())
        assert np.array_equal(back.data, mat.data)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        mat = HermitianMatrix(_random_hermitian(rng, 6))
        rp = tmp_path / "re.csv"
        ip = tmp_path / "im.csv"
        mat.write_csv(rp, ip)
        re = np.loadtxt(rp, delimiter=",")
        im = np.loadtxt(ip, delimiter=",")
        assert np.array_equal(re + 1j * im, mat.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[math.inf]], dtype=complex))

    def test_hermitian_by_construction(self):
        # a defect up to 1e-10 is accepted and stored as (A + A^H) / 2,
        # which is exactly Hermitian; a larger one is rejected
        a = np.array([[1.0, 0.5 + 1e-11j], [0.5, 2.0 + 1e-11j]])
        mat = HermitianMatrix(a)
        assert np.array_equal(mat.data, mat.data.conj().T)
        assert np.array_equal(mat.data, 0.5 * (a + a.conj().T))
        assert not mat.data.flags.writeable
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianMatrix(np.array([[1.0, 0.5 + 3e-10j], [0.5, 2.0]]))

    def test_stored_bits(self):
        # the nudged criterion-7 sections are Hermitian only to rounding:
        # each is stored as 0.5 (A + A^H), bit for bit, signed zeros included
        for a in _criterion7_sections() + _displaced_disc_sections():
            expect = 0.5 * (a + a.conj().T)
            assert np.array_equal(HermitianMatrix(a).data.view(np.uint64), expect.view(np.uint64))

    def test_non_finite_entry_is_named_first(self):
        # a non-finite entry is reported as such even where the matrix is
        # also not Hermitian; an entry inf + nan j has modulus inf
        for bad in ([[1.0, math.nan], [0.0, 1.0]], [[complex(math.inf, math.nan)]],
                    [[1.0, 5.0], [complex(0.0, -math.inf), 1.0]]):
            with pytest.raises(ValueError, match="finite"):
                HermitianMatrix(np.array(bad, dtype=complex))

    def test_hermitian_test_is_relative(self):
        # 1e-10 of the largest entry, so the test holds at every scale: a
        # defect of 1e-200 is rejected on a matrix whose largest entry is
        # 1e-200, and a 1e200 matrix Hermitian to rounding is accepted
        with pytest.raises(ValueError, match="1e-10 times the largest entry 1.000e-200"):
            HermitianMatrix(np.array([[0.0, 1e-200], [0.0, 0.0]]))
        big = HermitianMatrix(np.array([[1e200, 1e200], [1e200 * (1.0 + 4e-16), 1e200]]))
        assert np.array_equal(big.data, big.data.conj().T)

    def test_scaled_symbol_assembles(self):
        # an off-centre disc with coefficient 1e7 has a rounding defect of
        # 5.6e-10, above 1e-10 but far below 1e-10 of its largest entry
        disc = Disc(0.5 + 0.3j, 0.9)
        scaled = operator_norm(assemble(SimpleSymbol(((disc, 1e7),)), 60))
        unit = operator_norm(assemble(SimpleSymbol(((disc, 1.0),)), 60))
        assert abs(scaled / 1e7 - unit) < 1e-12

    def test_from_json_dict_rejects_non_hermitian(self):
        entries = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="Hermitian"):
            _read_matrix(json.dumps({"dimension": 2, "entries": entries}))
