"""Finite-difference oracles and point samplers shared by the test suite.

The oracles difference function values only, so they are independent of
the analytic derivative formulas they verify.  Stencils are kept
"region-pure": a sampled point is accepted only when its whole stencil
lies on one side of every basin boundary, where the blended definition
is smooth enough for the difference quotient to be a valid oracle at the
stated tolerance (smoothness ACROSS the boundaries is verified
separately by the branch-agreement tests).  ``basin`` is not an oracle
but the library's own basin kernel, for one ball chosen by the caller.
"""

import numpy as np

from basingen import eval_nd, locate_ball
from basingen.evaluate import _kernel, _plan
from basingen.params import PRECISION, radius_weights


def fd_gradient(fun, x, h=1e-6):
    """Central first differences, one axis at a time."""
    grad = np.zeros(len(x))
    for j in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        grad[j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def _pure_second(fun, x, j, h):
    xp = x.copy()
    xm = x.copy()
    xp[j] += h
    xm[j] -= h
    return (fun(xp) - 2.0 * fun(x) + fun(xm)) / (h * h)


def _mixed_second(fun, x, j, k, h):
    total = 0.0
    for sj, sk, sign in ((h, h, 1.0), (h, -h, -1.0), (-h, h, -1.0), (-h, -h, 1.0)):
        xs = x.copy()
        xs[j] += sj
        xs[k] += sk
        total += sign * fun(xs)
    return total / (4.0 * h * h)


def fd_hessian(fun, x, h=1e-3):
    """Richardson-extrapolated central second differences.

    The two-step extrapolation cancels the leading h^2 truncation term,
    which keeps the oracle accurate even inside small, steep basins.
    """
    n = len(x)
    hess = np.zeros((n, n))
    for j in range(n):
        coarse = _pure_second(fun, x, j, h)
        fine = _pure_second(fun, x, j, h / 2.0)
        hess[j, j] = (4.0 * fine - coarse) / 3.0
        for k in range(j + 1, n):
            coarse = _mixed_second(fun, x, j, k, h)
            fine = _mixed_second(fun, x, j, k, h / 2.0)
            hess[j, k] = hess[k, j] = (4.0 * fine - coarse) / 3.0
    return hess


def ball_shell_distance(func, x):
    """Smallest |dist(x, M_i) - rho_i| over the basin balls i >= 2: how
    far the point is from the nearest basin boundary."""
    centers = func.minima.local_min[1:]
    rho = func.minima.rho[1:]
    dists = np.linalg.norm(centers - x, axis=1)
    return float(np.min(np.abs(dists - rho)))


def hessian_step(func, x, base=1e-3):
    """Step size for the Hessian oracle: small enough inside a basin that
    the remaining truncation is negligible against its polynomial scale."""
    hit = locate_ball(func, x)
    if hit is None:
        return base
    rho = float(func.minima.rho[hit[0] - 1])
    return min(base, max(rho / 1000.0, 1e-6))


def sample_pure_points(func, count, seed, stencil_radius, pad=None):
    """Feasible points whose FD stencil stays inside one smooth region.

    `stencil_radius` may be a float or a callable ``f(point) -> float``
    giving the stencil extent that must not straddle a basin boundary.
    """
    rng = np.random.default_rng(seed)
    lower = func.lower
    upper = func.upper
    if pad is None:
        pad = stencil_radius if not callable(stencil_radius) else 1e-2
    points = np.empty((count, func.dim))
    kept = 0
    while kept < count:
        x = rng.uniform(lower + pad, upper - pad)
        radius = stencil_radius(x) if callable(stencil_radius) else stencil_radius
        if ball_shell_distance(func, x) > radius:
            points[kept] = x
            kept += 1
    return points


def points_inside_ball(func, row, count, seed, margin_fraction=0.2):
    """Random points well inside basin ball `row` (0-based, >= 1) and
    inside the box."""
    rng = np.random.default_rng(seed)
    center = func.minima.local_min[row]
    rho = float(func.minima.rho[row])
    dim = func.dim
    points = np.empty((count, dim))
    kept = 0
    while kept < count:
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        radius = rho * (1.0 - margin_fraction) * rng.random() ** (1.0 / dim)
        x = center + radius * direction
        if np.all(x >= func.lower) and np.all(x <= func.upper):
            points[kept] = x
            kept += 1
    return points


# --------------------------------------------------------------------------
# reference basin values: the basin polynomials in their original
# (r, s) form, s = <x - M, T - M> / r, written independently of the
# library's radial-axial kernel


def _quadratic_kernel(r, s, rho, bridge, f_min):
    return (1.0 - (2.0 / rho) * s + bridge / rho**2) * r * r + f_min


def _cubic_kernel(r, s, rho, bridge, f_min):
    term3 = (2.0 / rho**2) * s - (2.0 / rho**3) * bridge
    term2 = 1.0 - (4.0 / rho) * s + (3.0 / rho**2) * bridge
    return term3 * r**3 + term2 * r * r + f_min


def _quintic_kernel(r, s, rho, bridge, f_min, delta):
    curv = 1.0 - 0.5 * delta
    b5 = -(6.0 / rho**4) * s + (6.0 / rho**5) * bridge + curv / rho**3
    b4 = (16.0 / rho**3) * s - (15.0 / rho**4) * bridge - (3.0 / rho**2) * curv
    b3 = -(12.0 / rho**2) * s + (10.0 / rho**3) * bridge + (3.0 / rho) * curv
    return ((b5 * r + b4) * r + b3) * r**3 + 0.5 * delta * r * r + f_min


def basin(func, row, point, r, family, order=0):
    """Value (order 0), gradient (1) or Hessian (2) of the library's basin
    polynomial of `row` at `point`, at distance `r` from its center,
    whether or not `point` is in its ball."""
    return _kernel(func, _plan(func, family), row, point - func.minima.local_min[row], r, order)


def reference_basin_value(func, row, x, family):
    """Value of the basin polynomial of `row` (0-based, >= 1) at `x`."""
    center = func.minima.local_min[row]
    d = np.asarray(x, dtype=float) - center
    r = float(np.linalg.norm(d))
    f_min = float(func.minima.f[row])
    if r < PRECISION:
        return f_min
    rho = float(func.minima.rho[row])
    vertex = func.minima.local_min[0]
    bridge = float(np.sum((vertex - center) ** 2)) + func.params.paraboloid_min - f_min
    s = float(d @ (vertex - center)) / r
    if family == "nd":
        return _quadratic_kernel(r, s, rho, bridge, f_min)
    if family == "d":
        return _cubic_kernel(r, s, rho, bridge, f_min)
    return _quintic_kernel(r, s, rho, bridge, f_min, func.delta)


def reference_paraboloid(func, x):
    """Value of the outer paraboloid ||x - T||^2 + t."""
    vertex = func.minima.local_min[0]
    return float(np.sum((np.asarray(x, dtype=float) - vertex) ** 2)) + func.params.paraboloid_min


def nd_witness(func, h, threshold=1e-3):
    """Whether some ball boundary of the 2-D `func` shows the `nd` family's
    kink: one-sided difference quotients of step `h`, along one of 32
    radial directions, that differ by more than `threshold`."""
    for row in range(1, func.num_minima):
        center = func.minima.local_min[row]
        rho = float(func.minima.rho[row])
        for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
            u = np.array([np.cos(theta), np.sin(theta)])
            xb = center + rho * u
            xm = xb - h * u
            xp = xb + h * u
            if np.any(xm < func.lower) or np.any(xp < func.lower):
                continue
            if np.any(xm > func.upper) or np.any(xp > func.upper):
                continue
            hit_b = locate_ball(func, xb)
            hit_m = locate_ball(func, xm)
            if hit_b is None or hit_b[0] != row + 1:
                continue
            if hit_m is None or hit_m[0] != row + 1:
                continue
            if locate_ball(func, xp) is not None:
                continue
            inner = (eval_nd(func, xb) - eval_nd(func, xm)) / h
            outer = (eval_nd(func, xp) - eval_nd(func, xb)) / h
            if abs(outer - inner) > threshold:
                return True
    return False


# --------------------------------------------------------------------------
# reference attraction radii: the per-row form of compute_radii, which
# recomputes each row's distances in both passes


def _distances_from(points, row):
    diffs = points - points[row]
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    dists[row] = np.inf
    return dists


def reference_radii(local_min, params, global_row=1, vertex_row=0):
    """Attraction radii computed row by row (rows as in the generator)."""
    count = local_min.shape[0]
    rho = np.empty(count)
    rho[global_row] = params.global_radius
    for i in range(count):
        if i == global_row:
            continue
        rho[i] = 0.5 * _distances_from(local_min, i).min()
        if i != vertex_row:  # no further than tangency with the global ball
            reach = _distances_from(local_min, i)[global_row] - params.global_radius
            rho[i] = min(rho[i], reach)
    for i in (vertex_row, *range(2, count)):
        slack = _distances_from(local_min, i) - rho
        rho[i] = max(rho[i], slack.min())
    return rho * radius_weights(count)
