"""Matrix compressions, spectra, and quadratic forms."""
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import gammainc, gammaln

from focklab import (
    AngularRule,
    AnnularSector,
    Disc,
    FockFunction,
    HermitianMatrix,
    ProductRule,
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
from focklab import toeplitz
from focklab.fock import weighted_basis_matrix
from focklab.quadrature import gauss_legendre
from focklab.symbols import discretize

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
    rule = ProductRule(
        RadialRule.gauss_laguerre(radial_count), AngularRule(angular_count)
    )
    values = fn(rule.grid())
    return SampledSymbol(rule, values, float(np.max(np.abs(values))))


class TestAssembleSampled:
    def test_constant_one_is_identity(self):
        sym = _sampled(lambda z: np.ones(z.shape))
        mat = assemble(sym, 12).data
        assert np.max(np.abs(mat - np.eye(12))) < 1e-12

    def test_against_direct_grid_sum(self):
        sym = _sampled(lambda z: np.exp(-np.abs(z) ** 2) * (1.0 + 0.3 * np.cos(np.angle(z))))
        trunc = 6
        mat = assemble(sym, trunc).data

        z = sym.rule.grid()
        w_bare = sym.rule.radial.weights
        m_ang = sym.rule.angular.count
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
    return moments @ symbol.profile(rul.radii)


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
        # the panels do not depend on N, so N = 1017 (past the old cap of
        # 1016) and 2000 work to the same accuracy as small N
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
        # radius 16 > 5: four panels 4 wide, each resolving the bump
        # r^{2n+1} e^{-pi r^2}; one order-64 panel over [0, 16] put the norm
        # at 1.00000041, a false violation of the bound 1
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

    def test_validation(self):
        with pytest.raises(ValueError):
            region_compression(Disc(1.0, 1.0), 0)
        with pytest.raises(TypeError):
            region_compression("nope", 4)


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
        # compressions at the smaller truncations.
        rng = np.random.default_rng(404)
        kinds = set()
        for _ in range(6):
            sym = _random_mixed_symbol(rng)
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
        # diagonal is radial_assemble of the step profile, one panel per cell.
        table = RadialSymbol.table([0.0, 0.6, 1.2, 1.9], [0.9, -0.5, 0.3, 0.0])
        approx, _ = discretize(table, 4096, 1)
        mat = assemble(approx, 48).data
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
        radii = np.array([s.r_inner for s, _ in approx.pieces] + [approx.pieces[-1][0].r_outer])
        cvals = np.array([c for _, c in approx.pieces])

        def step(r):
            cell = np.clip(np.searchsorted(radii, r, side="right") - 1, 0, cvals.size - 1)
            return np.where(r <= radii[-1], cvals[cell], 0.0)

        profile = RadialSymbol(kind="step", linf=float(np.max(np.abs(cvals))),
                               support_radius=float(radii[-1]),
                               breakpoints=tuple(radii[1:-1]), params={}, profile_fn=step)
        ref = radial_assemble(profile, 48).data
        assert np.max(np.abs(mat - ref)) < 1e-13


def _random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


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
        # acceptance criterion 7's first 12 sections, the same nudged by one
        # ulp, and pivots of 1e-290 across a gap of 1e10 (tau = 5e299), alone
        # and inside a matrix that needs sweeps
        rng = np.random.default_rng(2027)
        cases = [assemble(random_symbol(rng), 60).data for _ in range(12)]
        cases += [np.nextafter(a.real, np.inf) + 1j * a.imag for a in cases]
        cases.append(np.array([[0.0, 1e-290], [1e-290, 1e10]]))
        cases.append(np.array([[0.0, 1e-290, 1.0], [1e-290, 1e10, 0.0], [1.0, 0.0, 1.0]]))
        for a in cases:
            expect = np.linalg.eigvalsh(a)
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(jacobi_eigenvalues(a) - expect)) <= 1e-12 * scale

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

    def test_jacobi_sweep_limit(self, monkeypatch):
        # rotations that never reduce the off-diagonal part: the sweeps run
        # out (a nan matrix, which once did this, is now rejected up front)
        def identity_rotations(a, negligible):
            return np.broadcast_to(np.eye(2), (a.shape[0] // 2, 2, 2))

        monkeypatch.setattr(toeplitz, "_pair_rotations", identity_rotations)
        with pytest.raises(RuntimeError, match="60-sweep limit"):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))

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


def _grid_rayleigh_radial(symbol, f):
    """int phi |f|^2 dlambda by direct quadrature of |f|^2 on a polar grid:
    Gauss-Laguerre in t for the gaussian, else Gauss-Legendre panels in r
    between breakpoints, each crossed with a uniform angular rule."""
    n = f.truncation
    a_ord = max(128, 2 * n + 16)
    ring = np.exp(1j * TWO_PI * np.arange(a_ord) / a_ord)

    def ring_mean(r):
        return np.mean(np.abs(f.eval_weighted(r[:, None] * ring[None, :])) ** 2, axis=1)

    if symbol.kind == "gaussian":
        rul = RadialRule.gauss_laguerre(max(80, n + 16))
        return float(np.dot(rul.scaled_weights, symbol.profile(rul.radii) * ring_mean(rul.radii)))
    edges = [0.0, *symbol.breakpoints, symbol.support_radius]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r, w = gauss_legendre(max(64, n + 8), a, b)
        total += TWO_PI * float(np.dot(w * r, symbol.profile(r) * ring_mean(r)))
    return total


def _grid_rayleigh_sampled(symbol, f):
    """Sum of phi |f|^2 over the sampled symbol's own product grid."""
    sq = np.abs(f.eval_weighted(symbol.rule.grid())) ** 2
    row = np.sum(symbol.values * sq, axis=1) / symbol.rule.angular.count
    return float(np.dot(symbol.rule.radial.scaled_weights, row))


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
                lambda z: np.abs(f.eval_weighted(z)) ** 2, region,
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
        grid = ProductRule(RadialRule.gauss_laguerre(256), AngularRule(512))
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
            "sampled": SampledSymbol(grid, np.ones((256, 512)), 1.0),
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


class TestHermitianMatrix:
    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        a = _random_hermitian(rng, 5)
        mat = HermitianMatrix(a)
        back = HermitianMatrix.from_json(mat.to_json())
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
        with pytest.raises(ValueError):
            HermitianMatrix.from_json_dict({"dimension": 2, "entries": [[1.0, 0.0]]})

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
            HermitianMatrix.from_json_dict({"dimension": 2, "entries": entries})
