"""Spherical Fourier transform, inversion, Plancherel constant, Sobolev
norms, and the weight lambda^(n-1) / |c|^-2 that carries a Euclidean
radial spectrum to a spectrum of the space.

Forward:   fh(lambda) = int_0^inf f(s) phi_lambda(s) A(s) ds
Inverse:   f(s) = C int_0^inf fh(lambda) phi_lambda(s) |c(lambda)|^-2 dlambda

The constant C = 2^(m_z-1)/pi is closed form (`inversion_constant`);
`calibrate_inversion_constant` recovers it numerically from the
Plancherel identity and serves as its test oracle.

Both directions are phi-kernel products over lambda rows, and neither
evaluates phi on every requested row.  For s <= sigma, lambda ->
phi_lambda(s) is even, bounded by 1 on the real line and entire of
exponential type s (the Paley-Wiener theorem for the Jacobi transform;
Koornwinder, Ark. Mat. 13, 1975).  Two resamplers rest on this, each
within e^-42 of sup|phi| (`_SAMPLING_EXPONENT`):

- the lattice lambda = k h, k >= 0, at a step h < pi/sigma, read by
  Gaussian-regularized Shannon sampling (Qian, Proc. AMS 131, 2003),

      phi_lambda(s) ~ sum_k phi_|k|h(s) sinc(x - k) exp(-(x - k)^2 / (2 r^2)),
      x = |lambda|/h, over the 2m integers k in (x - m, x + m], r^2 = (m-1)/(pi - h sigma),

  within e^(-(pi - h sigma)(m-1)/2), up to a factor of order 1 (`_Lattice`);
  lambda_top sigma / u + m + 1 rows at u = h sigma < pi, so it serves
  large grids;
- the d + 1 Chebyshev extrema of [min|lambda|, max|lambda|], read by the
  barycentric formula (Berrut and Trefethen, SIAM Rev. 46, 2004; forward
  stable at these points, Higham, IMA J. Numer. Anal. 24, 2004).  The
  node polynomial of the extrema on a half-width R is at most
  4 (R/2)^(d+1), and Bernstein's inequality gives |d^k phi/dlambda^k| <=
  s^k, so the error is at most 4 (sigma R/2)^(d+1) / (d+1)! (`_Chebyshev`);
  about e sigma R / 2 rows once sigma R is large, all inside the
  requested band.

`_resampler` takes whichever needs fewer phi rows, or `_Direct`, phi on
the requested rows themselves, where neither pays.  The forward transform
evaluates F = Phi v on the resampler's rows and resamples it; the inverse
transform (and the propagator) carry their quadrature amplitudes onto
those rows by the transposed weights and form phi only there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CalibrationError, DomainError, TailMassError, ValidationError
from .profiles import RadialProfile, SpectralProfile
from .quadrature import grid_integral, panel_rule
from .space import SpaceParams, density
from .spherical import _BLOCK_CELLS as _PHI_BLOCK_CELLS, phi_matrix
from .special import plancherel_density

__all__ = [
    "sft_forward",
    "sft_inverse",
    "inverse_quadrature",
    "inversion_constant",
    "calibrate_inversion_constant",
    "sobolev_norm",
    "euclidean_correspondence_inverse",
]

_TAIL_TOL = 1e-10
_BLOCK_CELLS = 2**22   # phi kernel cells per product in sft_forward (32 MB)
# The resamplers' error target, e^-42 = 5.7e-19 of sup|phi|: (pi - h sigma)
# (m - 1)/2 >= 42 on the lattice, 4 (sigma R/2)^(d+1) / (d+1)! <= e^-42 on
# the Chebyshev rows.
_SAMPLING_EXPONENT = 42.0


def _spline(x: np.ndarray, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through (x, y), real or complex, read at xi.

    The knot slopes solve the tridiagonal system of scipy's CubicSpline,
    boundary rows included (a line at 2 points, the parabola at 3), by a
    Thomas sweep on Python numbers; each interval is then the cubic Hermite
    piece of its two end slopes, and xi beyond the ends takes the end pieces.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = x.size
    if n == 2:
        s = np.array([slope[0], slope[0]])
    elif n == 3:
        mid = (dx[0] * slope[1] + dx[1] * slope[0]) / (dx[0] + dx[1])
        s = np.array([2 * slope[0] - mid, mid, 2 * slope[1] - mid])
    else:
        h = dx.tolist()
        m0, m1, m2, m3 = slope[[0, 1, -2, -1]].tolist()
        first, last = float(x[2] - x[0]), float(x[-1] - x[-3])
        # row 0 (not-a-knot): h1 s0 + (x2 - x0) s1 = ((h0 + 2 (x2 - x0)) h1 m0
        # + h0^2 m1) / (x2 - x0), divided by its pivot h1; the sweep takes rows 1 .. n-1
        c = first / h[1]
        d = ((h[0] + 2 * first) * h[1] * m0 + h[0] ** 2 * m1) / first / h[1]
        lower = h[1:] + [last]
        diag = [2 * (a + b) for a, b in zip(h, h[1:])] + [h[-2]]
        upper = h[:-1] + [0.0]
        rhs = (3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist()
        rhs.append((h[-1] ** 2 * m2 + (2 * last + h[-1]) * h[-2] * m3) / last)
        cs, ds = [c], [d]
        for lo, di, up, r in zip(lower, diag, upper, rhs):
            piv = di - lo * c
            c = up / piv
            d = (r - lo * d) / piv
            cs.append(c)
            ds.append(d)
        out = [d]
        for c, d in zip(cs[-2::-1], ds[-2::-1]):
            out.append(d - c * out[-1])
        s = np.array(out[::-1])
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c3, c2 = t / dx, (slope - s[:-1]) / dx - t
    k = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, n - 2)
    z = xi - x[k]
    return ((c3[k] * z + c2[k]) * z + s[k]) * z + y[k]


class _Resampler:
    """A set of requested lambda rows, the rows `nodes` on which phi is
    formed for them, and the requested rows' weights on those, applied in
    row blocks as an operator W.  A subclass sets x (the requested |lambda|)
    and nodes, and yields the weight blocks."""

    x: np.ndarray
    nodes: np.ndarray

    def blocks(self):
        """(rows, lo, w) for each row block: w[i, c] weighs node row lo + c
        for requested row rows[i], and w has at most phi_matrix's own block
        of cells, so the weights make no temporary larger than phi_matrix's."""
        raise NotImplementedError

    def resample(self, values: np.ndarray) -> np.ndarray:
        """W @ values: the requested rows from the node rows, of shape
        (nodes,) or (nodes, ...)."""
        out = np.empty(self.x.shape + values.shape[1:], dtype=values.dtype)
        for rows, lo, w in self.blocks():
            out[rows] = w @ values[lo:lo + w.shape[1]]
            del w       # not held while the next block is formed
        return out

    def gather(self, coef: np.ndarray, blocks) -> np.ndarray:
        """W^T @ coef: complex coefficients of shape (n,) or (n, k) on the
        requested rows carried onto the node rows, by the weight blocks
        of `blocks()`, formed as they go or kept for many products."""
        out = np.zeros(self.nodes.shape + coef.shape[1:], dtype=complex)
        for rows, lo, w in blocks:
            out[lo:lo + w.shape[1]] += _real_kernel_product(w.T, coef[rows])
        return out


class _Direct(_Resampler):
    """phi formed on the requested rows themselves: W is the identity, so
    a product through it keeps the direct product's bits."""

    def __init__(self, lams: np.ndarray):
        self.nodes = lams

    def blocks(self):
        return ()

    def resample(self, values: np.ndarray) -> np.ndarray:
        return values

    def gather(self, coef: np.ndarray, blocks) -> np.ndarray:
        return coef


class _Lattice(_Resampler):
    """The lattice rows k h, k = 0 .. size - 1, and the requested rows'
    sinc-Gaussian weights on them, a banded W: row i of W holds the 2m
    weights of |lambda_i| on the lattice, those of k < 0 folded onto -k."""

    def __init__(self, lams: np.ndarray, h: float, u: float, m: int, size: int):
        x = np.abs(lams) / h
        self.order = np.argsort(x, kind="stable")
        self.x = x[self.order]
        self.first = np.floor(self.x).astype(np.int64) - (m - 1)   # lowest k of each row
        self.m, self.r2 = m, (m - 1) / (math.pi - u)
        self.nodes = h * np.arange(size)

    def blocks(self):
        """A block spans fewer than 2m lattice steps and at most
        _PHI_BLOCK_CELLS // (4m) rows, so all blocks together hold under 4m
        cells per requested row."""
        m, first, x = self.m, self.first, self.x
        per_block = max(1, _PHI_BLOCK_CELLS // (4 * m))
        a = 0
        while a < x.size:
            b = min(a + per_block, int(np.searchsorted(first, first[a] + 2 * m)))
            k = np.arange(first[a], first[b - 1] + 2 * m)
            d = x[a:b, None] - k
            w = np.sinc(d) * np.exp(d * d * (-0.5 / self.r2))
            lo = first[a:b, None]
            w[(k < lo) | (k >= lo + 2 * m)] = 0.0
            neg = -int(k[0])
            if neg > 0:   # phi is even in lambda: fold k < 0 onto -k
                w[:, neg + 1:2 * neg + 1] += w[:, neg - 1::-1]
                w = w[:, neg:]
            yield self.order[a:b], max(int(k[0]), 0), w
            a = b


class _Chebyshev(_Resampler):
    """The d + 1 Chebyshev extrema of [min|lambda|, max|lambda|] of the
    requested rows, and the requested rows' barycentric weights on them, a
    dense W of d + 1 weights per row."""

    def __init__(self, lams: np.ndarray, d: int):
        self.x = np.abs(lams)
        lo, hi = float(np.min(self.x)), float(np.max(self.x))
        j = np.arange(d + 1)
        # sin rather than cos: nodes symmetric about the midpoint to the bit;
        # at d = 0 the one node is the midpoint
        turn = np.sin(math.pi * (2 * j - d) / (2 * max(d, 1)))
        self.nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * turn
        if d:
            self.nodes[[0, -1]] = lo, hi
        self.beta = np.where(j % 2 == 0, 1.0, -1.0)   # the barycentric weights
        self.beta[[0, -1]] *= 0.5

    def blocks(self):
        """Blocks of _PHI_BLOCK_CELLS // (d + 1) rows.  A row within the
        smallest normal double of a node (1/d would overflow), an exact
        hit included, takes that node's value: a one-hot row (the mean of
        such nodes, should two lie that close)."""
        per_block = max(1, _PHI_BLOCK_CELLS // self.nodes.size)
        for a in range(0, self.x.size, per_block):
            d = self.x[a:a + per_block, None] - self.nodes
            hit = (d > -np.finfo(float).tiny) & (d < np.finfo(float).tiny)
            d[hit] = 1.0
            w = np.divide(self.beta, d, out=d)
            w /= w.sum(axis=1, keepdims=True)
            on_node = hit.any(axis=1)
            w[on_node] = hit[on_node] / hit[on_node].sum(axis=1, keepdims=True)
            yield slice(a, a + per_block), 0, w
            del d, w, hit, on_node      # freed before the next block is formed


def _chebyshev_degree(half: float) -> int:
    """The least degree d with 4 half^(d+1) / (d+1)! <= e^-_SAMPLING_EXPONENT,
    half = sigma R / 2.  The term grows while d + 1 <= half (it is at least
    1 there), so the search starts above it.  d = 0 (half <= e^-42 / 4) is
    a band where phi is flat to e^-42: every row takes the one node."""
    k = math.floor(half) + 1    # k = d + 1
    bound = -_SAMPLING_EXPONENT - math.log(4.0)
    while k * math.log(half) - math.lgamma(k + 1) > bound:
        k += 1
    return k - 1


# Chebyshev rows pay where they are at most this share of the requested
# rows (timed in `_resampler`'s docstring)
_CHEBYSHEV_SHARE = 0.75


def _resampler(lams: np.ndarray, s: np.ndarray, kept: bool = False) -> _Resampler:
    """The resampler of the rows lams of a phi kernel on the columns s, of
    exponential type sigma = max s in lambda, that forms phi on the fewest rows:
    a `_Lattice` or a `_Chebyshev`, or `_Direct` where neither pays.

    The lattice pays:
    - where it has at most half as many rows as lams (and lams * sigma is
      positive and finite).  Timed on forward transforms over 216 to 984
      panel nodes with 63, 80 and 117 lattice rows, the two broke even
      between 0.4 and 0.75 lattice rows per requested row, as the
      lattice's m padding rows sit at the large lambdas; at 80 for 108
      requested (the benchmark's forward transform) the direct product
      took 3.5 ms and the lattice 4.2 ms;
    - where a row's 2m weights are fewer than its phi cells, one per
      column.  On `experiment case2`'s inverse (60 weights against 48 s)
      the lattice saved 6% of the `scaling` pass but raised the process's
      peak RSS by 0.13-0.15 MB.
    u = h sigma and m follow from the one error target (pi - u)(m - 1)/2
    >= _SAMPLING_EXPONENT; u = pi / (1 + sqrt(2 E / (lambda_top sigma)))
    minimises the lattice rows lambda_top sigma / u + m + 1 under it.

    The Chebyshev rows, d + 1 from `_chebyshev_degree` at the half-width R
    of [min|lambda|, max|lambda|], pay where they are fewer than the
    lattice's rows (where the lattice pays), at most _CHEBYSHEV_SHARE of
    lams (and sigma R is positive and finite) and, where the caller keeps
    the weights for many products (`kept`, the propagator), fewer than the
    columns, as the lattice's 2m are: then the kept weights stay under the
    cells of the direct kernel.  Timed on forward transforms on (2, 1)
    and (4, 3), lambda on [0, 4], [0, 7] and [0, 12] with 31, 58 and 81
    Chebyshev rows over 128 to 736 panel nodes (one BLAS thread), the two
    broke even between 0.83 and 0.97 Chebyshev rows per requested row; at
    0.72 the Chebyshev rows took 0.82-0.88 of the direct time, and at the
    benchmark's forward transform (58 for 108) 0.68-0.79 in five of six
    timings.
    """
    x = np.abs(lams)
    top, sigma = float(np.max(x)), float(np.max(s))
    size = math.inf     # the lattice's rows, where it pays
    if 0.0 < top * sigma < math.inf:
        u = math.pi / (1.0 + math.sqrt(2.0 * _SAMPLING_EXPONENT / (top * sigma)))
        m = 1 + math.ceil(2.0 * _SAMPLING_EXPONENT / (math.pi - u))
        h = u / sigma     # 0 where lambda_top sigma is subnormal: no lattice
        size = math.floor(top / h) + m + 1 if h else math.inf
        if 2 * size > lams.size or 2 * m >= s.size:
            size = math.inf
    cap = min(_CHEBYSHEV_SHARE * lams.size, size - 1, s.size - 1 if kept else math.inf)
    half = 0.25 * sigma * (top - float(np.min(x)))
    if 0.0 < half < cap:    # d + 1 > half, so past cap nothing pays
        d = _chebyshev_degree(half)
        if d + 1 <= cap:
            return _Chebyshev(lams, d)
    return _Direct(lams) if size == math.inf else _Lattice(lams, h, u, m, size)


def _tail_check(params: SpaceParams, f: RadialProfile) -> None:
    """Reject profiles whose mass beyond S_max is not negligible.

    The estimate treats |f| beyond the grid as frozen at its boundary
    value times the Schwartz envelope, so f^2 A stays ~ constant per unit
    length; one extra S_max length is charged to the tail.
    """
    s_max = float(f.s_grid[-1])
    norm2 = grid_integral(np.abs(f.values) ** 2 * density(params, f.s_grid), f.s_grid)
    tail = abs(f.values[-1]) ** 2 * density(params, s_max) * s_max
    if tail > _TAIL_TOL * max(norm2, 1e-300):
        raise TailMassError(
            f"profile tail beyond S_max={s_max} carries {tail:.2e} "
            f"(> {_TAIL_TOL:.0e} of the norm {norm2:.2e}); enlarge S_max"
        )


def sft_forward(params: SpaceParams, f: RadialProfile, lambda_grid) -> SpectralProfile:
    """Spherical Fourier transform of a sampled radial profile.

    The s-quadrature uses composite Gauss-Legendre panels whose width
    resolves the fastest phase lambda_max * s present in the kernel; the
    smooth profile data is splined onto the nodes while phi and A are
    evaluated exactly there (`_spline`, the not-a-knot cubic spline of
    scipy's CubicSpline).  The phi kernel is formed in lambda blocks of
    at most _BLOCK_CELLS (2^22) cells, so memory does not grow with the
    grid.
    """
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    _tail_check(params, f)
    s_max = float(f.s_grid[-1])
    rate = max(float(np.max(np.abs(lambda_grid))), 1.0)
    nodes, weights = panel_rule(0.0, s_max, rate)
    f_nodes = _spline(f.s_grid, f.values, nodes)
    v = weights * f_nodes * density(params, nodes)
    resampler = _resampler(lambda_grid, nodes)
    lams = resampler.nodes
    rows = max(1, _BLOCK_CELLS // nodes.size)
    vals = np.concatenate([phi_matrix(params, lams[i:i + rows], nodes) @ v
                           for i in range(0, lams.size, rows)])
    vals = resampler.resample(vals)
    return SpectralProfile(lambda_grid, vals.astype(complex))


def inversion_constant(params: SpaceParams) -> float:
    """Plancherel constant C = 2^(m_z-1)/pi of the inversion formula.

    Radial analysis on a Damek-Ricci space is Jacobi-function analysis
    (Anker-Damek-Yacoub, Ann. SNS Pisa 1996).  Put t = s/2 and
    (alpha, beta) = ((n-2)/2, (m_z-1)/2), so that alpha+beta+1 = Q.  Then
    phi_lambda(s) is the Jacobi function phi_mu(t) with mu = 2 lambda, and
    the four-Gamma ratio of `special.c_function` is the Jacobi c-function

        c(mu) = 2^(Q-i mu) Gamma(alpha+1) Gamma(i mu)
                / (Gamma((Q+i mu)/2) Gamma((alpha-beta+1+i mu)/2)).

    The Jacobi pair (Koornwinder's normalization)

        G(mu) = int_0^inf g(t) phi_mu(t) Delta(t) dt,
        g(t)  = (1/2 pi) int_0^inf G(mu) phi_mu(t) |c(mu)|^-2 dmu

    has the weight Delta(t) = (2 sinh t)^(2 alpha+1) (2 cosh t)^(2 beta+1)
    = 2^(m_v+2 m_z) sinh(s/2)^(m_v+m_z) cosh(s/2)^(m_z), which is 2^(m_z)
    times `space.density`'s A(s) with its factor 2^(m_v+m_z).  With
    g(t) = f(2t), ds = 2 dt gives fh(lambda) = 2^(1-m_z) G(2 lambda), and
    dmu = 2 dlambda turns the Jacobi inversion into

        f(s) = 2^(m_z-1)/pi int_0^inf fh(lambda) phi_lambda(s) |c(lambda)|^-2 dlambda.

    Check on real hyperbolic 3-space (m_v, m_z) = (2, 0): c = 1/(2 i lambda)
    and phi_lambda(s) = sin(lambda s)/(2 lambda sinh(s/2)), so
    fh(lambda) = (2/lambda) int_0^inf f(s) sinh(s/2) sin(lambda s) ds is a
    Fourier sine transform, whose inversion gives C = 1/(2 pi).
    """
    return 2.0 ** (params.m_z - 1) / math.pi


def _reference_profiles(s_max: float, n_points: int):
    s = np.linspace(0.0, s_max, n_points)
    return [
        RadialProfile(s, np.exp(-(s**2))),
        RadialProfile(s, np.exp(-2.0 * s**2)),
        RadialProfile(s, s**2 * np.exp(-(s**2))),
    ]


def _plancherel_ratio(params: SpaceParams, f: RadialProfile) -> float:
    """||f||^2_{L^2(A ds)} divided by int |fh|^2 |c|^-2 dlambda, fh on 512 points of [0, 24]."""
    fh = sft_forward(params, f, np.linspace(0.0, 24.0, 512))
    norm_s = grid_integral(np.abs(f.values) ** 2 * density(params, f.s_grid), f.s_grid)
    w = plancherel_density(params, fh.lambda_grid)
    norm_l = grid_integral(np.abs(fh.values) ** 2 * w, fh.lambda_grid)
    return norm_s / norm_l


def calibrate_inversion_constant(params: SpaceParams) -> float:
    """Numerical oracle for `inversion_constant`, from three reference profiles.

    Returns C with ||f||^2 = C * int |fh|^2 |c|^-2 dlambda; raises if the
    three profiles disagree beyond 1e-3 relative.  Deterministic and
    uncached: each call redoes three forward transforms.
    """
    ratios = [_plancherel_ratio(params, f) for f in _reference_profiles(12.0, 1536)]
    lo, hi = min(ratios), max(ratios)
    if hi / lo - 1.0 > 1e-3:
        raise CalibrationError(
            f"calibration profiles disagree: ratios {ratios}"
        )
    return ratios[0]


def inverse_quadrature(params: SpaceParams, fh: SpectralProfile, rate: float):
    """Panel nodes over fh's support for a phase rate `rate` (at least 1), and the
    amplitudes amp = C w |c|^-2 fh there: C int fh g |c|^-2 dlambda is amp @ g(nodes)."""
    grid = (float(fh.lambda_grid[0]), float(fh.lambda_grid[-1]))
    lo, hi = fh.support_hint if fh.support_hint is not None else grid
    lo, hi = max(lo, grid[0]), min(hi, grid[1])
    if hi <= lo:
        raise DomainError(f"spectrum support {fh.support_hint} misses the lambda grid "
                          f"[{grid[0]:g}, {grid[1]:g}]")
    nodes, weights = panel_rule(lo, hi, max(rate, 1.0))
    return nodes, _amplitudes(params, fh.lambda_grid, fh.values, nodes, weights,
                              plancherel_density(params, nodes))


def _amplitudes(params: SpaceParams, grid: np.ndarray, values: np.ndarray, nodes: np.ndarray,
                weights: np.ndarray, density: np.ndarray) -> np.ndarray:
    """C w |c|^-2 fh at the nodes of a rule with weights w, fh sampled as
    values on grid, density being plancherel_density at the nodes, formed
    by the caller."""
    weight = weights * density * inversion_constant(params)
    return weight * _spline(grid, values, nodes)


def _real_kernel_product(kernel: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """kernel @ coef for a real (m, n) kernel and a C-contiguous complex coef of
    shape (n,) or (n, k), as one real GEMM on coef's interleaved (re, im) view:
    no complex copy of the kernel is made.  Returns shape (m,) or (m, k)."""
    out = kernel @ coef.view(float).reshape(coef.shape[0], -1)
    return out.view(complex).reshape(kernel.shape[:1] + coef.shape[1:])


def sft_inverse(params: SpaceParams, fh: SpectralProfile, s_grid) -> RadialProfile:
    """Inverse transform with the closed-form Plancherel constant: the real phi
    kernel times the complex amplitudes, one real GEMM on their (re, im) view."""
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    return _inverse_profile(params, *inverse_quadrature(params, fh, float(np.max(s_grid))),
                            s_grid)


def _inverse_profile(params: SpaceParams, nodes: np.ndarray, amp: np.ndarray,
                     s_grid: np.ndarray) -> RadialProfile:
    """The profile amp @ phi(nodes, s) on s_grid, phi formed on the nodes'
    `_resampler` rows only: the inverse transform from its quadrature."""
    resampler = _resampler(nodes, s_grid)
    nodes, amp = resampler.nodes, resampler.gather(amp, resampler.blocks())
    return RadialProfile(s_grid, _real_kernel_product(phi_matrix(params, nodes, s_grid).T, amp))


def sobolev_norm(params: SpaceParams, fh: SpectralProfile, beta, density=None):
    """Fractional Sobolev norm of the spectrum, or the list of its norms
    for a sequence of beta.

    (int (lambda^2 + Q^2/4)^beta |fh|^2 |c|^-2 dlambda)^(1/2); beta = 0
    is the Plancherel (L^2) norm up to the factor sqrt(C) of
    `inversion_constant`: ||f||_2 = sqrt(C) * sobolev_norm(fh, 0).
    density, if given, is plancherel_density on fh's lambda grid, formed
    by the caller.  The one-profile case of `_sobolev_norms`, whose
    errors it raises.
    """
    norms = _sobolev_norms(params, fh.lambda_grid, fh.values,
                           list(beta) if np.ndim(beta) else [beta], density).tolist()
    return norms if np.ndim(beta) else norms[0]


def _sobolev_norms(params: SpaceParams, lam: np.ndarray, values: np.ndarray, betas,
                   density=None) -> np.ndarray:
    """The H^beta norms of `sobolev_norm` of spectra sampled as rows along
    the last axis, values on the grids lam (of one shape), one column per
    beta of betas: an array of shape lam.shape[:-1] + (len(betas),).  Each
    norm is bit for bit the one its row has alone.  density, if given, is
    plancherel_density on lam.  Raises ValidationError, before any
    integral, for a beta that is not finite and >= 0, and where an
    integral passes the float range.
    """
    for b in betas:
        if not 0.0 <= b < math.inf:
            raise ValidationError(f"beta must be finite and >= 0, got {b}")
    if density is None:
        density = plancherel_density(params, lam)
    norms = np.empty(lam.shape[:-1] + (len(betas),))
    with np.errstate(over="ignore", invalid="ignore"):   # a huge beta: the weight reads inf
        base, mass = lam**2 + params.q2_over_4, np.abs(values) ** 2
        for i, b in enumerate(betas):
            val = grid_integral(mass * (base**b * density), lam)
            if not np.all(np.isfinite(val)):
                raise ValidationError(f"the Sobolev norm at beta = {b:g} passes the float range")
            norms[..., i] = np.sqrt(np.where(val < 0.0, 0.0, val))
    return norms


def euclidean_correspondence_inverse(params: SpaceParams, fg: SpectralProfile) -> SpectralProfile:
    """The spectrum fh with lambda^(n-1) Fg = |c|^-2 fh of a Euclidean radial
    spectrum Fg supported away from the origin: fh = lambda^(n-1) Fg / |c|^-2
    where Fg is nonzero, exactly zero elsewhere (no division happens there)."""
    if fg.support_hint is None or fg.support_hint[0] <= 0.0:
        raise DomainError(f"the correspondence needs a support_hint bounded away from 0, "
                          f"got {fg.support_hint}")
    lam, inside = fg.lambda_grid, np.abs(fg.values) > 0
    return SpectralProfile(lam, _corresponded(params, lam, fg.values, inside,
                                              plancherel_density(params, lam[inside])),
                           fg.support_hint)


def _corresponded(params: SpaceParams, lam: np.ndarray, values: np.ndarray,
                  inside: np.ndarray, density: np.ndarray) -> np.ndarray:
    """lambda^(n-1) Fg / |c|^-2 for the Euclidean values Fg on lam (arrays of
    any one shape), where the mask `inside` holds, else exactly 0; density
    is plancherel_density on lam[inside]."""
    out = np.zeros_like(values)
    out[inside] = lam[inside] ** (params.n - 1) * values[inside] / density
    return out
