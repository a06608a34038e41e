"""Rounding bounds shared by the test modules.

Each helper bounds the gap between two floating-point evaluations of one
quantity from the operations both sides perform, in units ``u = eps / 2``
with ``gamma(k) = k u / (1 - k u)``; none is a tolerance picked to pass.
"""

import numpy as np

from tsindep import cross_cov
from tsindep.models import _var_design

U = np.finfo(float).eps / 2


def gamma(k):
    """The standard bound on k roundings in a row: ``prod (1 + d_i)`` with
    ``|d_i| <= u`` lies within ``gamma(k)`` of 1."""
    return k * U / (1.0 - k * U)


def _lagged_product(a, b, lag):
    """``sum_t a[t]' b[t + lag]`` over the rows where both exist, with the
    reflection of :func:`cross_cov` for negative lags."""
    n = a.shape[0]
    if lag >= 0:
        return a[: n - lag].T @ b[lag:]
    return (b[: n + lag].T @ a[-lag:]).T


def c12_sum_bound(x1, x2, lag):
    """Entrywise bound on the distance of a computed lag correlation R12
    from ``s1_i s2_j sum_t xc_ti yc_(t+lag)j / n``, the exact value on the
    computed centred columns xc, yc and the computed scalings s = 1 / sd.

    Both the engine (scale each column, then one sum over the padded
    n-row window) and ``s1 cross_cov(x1, x2, lag) s2`` (one sum, then
    scale) make a sum of at most n products, one division by n and two
    scalings, n + 3 roundings on each product in all.  So each entry is
    within ``gamma(n + 3) s1_i s2_j sum_t |xc_ti| |yc_(t+lag)j| / n`` of the
    exact value, whatever the order of the sum.  Both sides centre with the
    same bits of the column means, so xc and yc are shared.  Computing this
    bound in floating point moves it by a relative gamma(n), which is
    second order.
    """
    n = x1.shape[0]
    s1 = 1.0 / np.sqrt(np.diag(cross_cov(x1, x1, 0)))
    s2 = 1.0 / np.sqrt(np.diag(cross_cov(x2, x2, 0)))
    ax = np.abs(x1 - x1.mean(axis=0)) * s1
    ay = np.abs(x2 - x2.mean(axis=0)) * s2
    return gamma(n + 3) * _lagged_product(ax, ay, lag) / n


def _form_terms(d1, d2):
    """Evaluation roundings of one lag's form, times sqrt(d1 d2): the sum of
    the absolute terms of ``n vec(R)' (B kron A) vec(R)`` is at most
    ``sqrt(d1 d2) n ||R||_F^2 ||A||_2 ||B||_2``.  An einsum over the
    (d1 d2)^2 four-factor terms rounds each three times and the sum
    (d1 d2)^2 times; the engine's ``(A R) * (R B)`` summed rounds each
    term d1 + d2 + d1 d2 + 1 times; the trace form ``2 d1 + 2 d2`` times;
    the rho form 7 in all.  One more rounding multiplies by n.  So
    ``k = (d1 d2)^2 + 7`` covers every evaluation here."""
    return ((d1 * d2) ** 2 + 7) * np.sqrt(d1 * d2) * U


def form_bound(x1, x2, lag):
    """First-order rounding bound on the gap between two evaluations of one
    lag's form ``Q = n vec(C12)' [C22^-1 kron C11^-1] vec(C12)`` on the
    (n, d1) and (n, d2) series ``x1``, ``x2``: G's, the engine's on the
    equilibrated correlations, and the trace form on the covariances (or,
    at d1 = d2 = 1, the rho form ``n rho^2``).

    Both start from the same bits of C11 and C22, and the trace side from
    ``cross_cov``'s C12, so the gap is at most the sum of each side's
    distance to the exact Q of those matrices, in units u = eps / 2.  For
    any A, B and C, ``|n vec(C)' (B kron A) vec(C)| <= S = n ||C||_F^2
    ||A||_2 ||B||_2``.
    - Inverses.  A computed inverse X of A with residual ``A X = I + F``
      is within ``||X|| ||F|| / (1 - ||F||)`` of A^-1, which moves Q by
      that relative amount times S.  F is evaluated in long double.  On
      G's side the correlation matrix carries two roundings per entry
      (``s_i c_ij s_j``; Q does not change under an exact diagonal
      scaling, so the computed s may stand for the exact one), which
      moves its inverse by a further ``2 u ||R||_F ||R^-1||_2`` relative.
    - Evaluation.  Each side is within ``k u sqrt(d1 d2) S`` of its exact
      value, with k from :func:`_form_terms`.
    - G's R12.  The engine's R12 and ``s1 C12 s2`` with cross_cov's C12
      are each within :func:`c12_sum_bound`'s E of the exact correlation,
      so they are within 2E of each other.  A change D in vec(R12) moves
      Q by at most ``n (2 ||R12||_F ||D||_F + ||D||_F^2) ||A||_2 ||B||_2``.
    """
    n, d1 = x1.shape
    d2 = x2.shape[1]
    k = _form_terms(d1, d2)

    def inverse(a):
        x = np.linalg.inv(a)
        resid = a.astype(np.longdouble) @ x.astype(np.longdouble) - np.eye(len(a))
        f = np.linalg.norm(resid.astype(float), 2)
        return np.linalg.norm(x, 2), f / (1.0 - f)

    def side(c11, c22, c12, entry_roundings, r12_gap=0.0):
        (n1, f1), (n2, f2) = inverse(c11), inverse(c22)
        f1 += entry_roundings * U * np.linalg.norm(c11) * n1
        f2 += entry_roundings * U * np.linalg.norm(c22) * n2
        c = np.linalg.norm(c12)
        return n * n1 * n2 * (c**2 * (k + f1 + f2) + r12_gap * (2 * c + r12_gap))

    c11, c22, c12 = cross_cov(x1, x1, 0), cross_cov(x2, x2, 0), cross_cov(x1, x2, lag)
    s1 = 1.0 / np.sqrt(np.diag(c11))
    s2 = 1.0 / np.sqrt(np.diag(c22))
    r11 = s1[:, None] * c11 * s1[None, :]
    r22 = s2[:, None] * c22 * s2[None, :]
    r12 = s1[:, None] * c12 * s2[None, :]
    r12_gap = 2 * np.linalg.norm(c12_sum_bound(x1, x2, lag))
    return side(c11, c22, c12, 0) + side(r11, r22, r12, 2, r12_gap)


def engine_gap_bound(x1, x2, lag):
    """Rounding bound on the gap between the engine's form at ``lag`` and the
    per-lag loop's (``s1 cross_cov(x1, x2, lag) s2`` in G's einsum).

    Both sides use the same bits of the inverse lag-zero correlations A
    and B, so only R12 and the evaluation differ.  Each R12 is within E
    (:func:`c12_sum_bound`) of the exact correlation, so the two are within
    ``D = 2 ||E||_F`` of each other, and ``|x'Kx - y'Ky| <= ||x - y||
    ||K|| (||x|| + ||y||)`` with ``||K||_2 = ||A||_2 ||B||_2`` moves the
    exact form by at most ``n D (2 ||R12||_F + D) ||A||_2 ||B||_2``.  Each
    evaluation adds :func:`_form_terms` of its own S, the engine's taken at
    ``||R12||_F + D``.
    """
    n, d1 = x1.shape
    d2 = x2.shape[1]
    s1 = 1.0 / np.sqrt(np.diag(cross_cov(x1, x1, 0)))
    s2 = 1.0 / np.sqrt(np.diag(cross_cov(x2, x2, 0)))
    a = np.linalg.inv(s1[:, None] * cross_cov(x1, x1, 0) * s1[None, :])
    b = np.linalg.inv(s2[:, None] * cross_cov(x2, x2, 0) * s2[None, :])
    r = np.linalg.norm(s1[:, None] * cross_cov(x1, x2, lag) * s2[None, :])
    gap = 2 * np.linalg.norm(c12_sum_bound(x1, x2, lag))
    k = _form_terms(d1, d2)
    moved = gap * (2 * r + gap)
    return n * np.linalg.norm(a, 2) * np.linalg.norm(b, 2) * (k * (r**2 + (r + gap) ** 2) + moved)


def statistic_gap_bound(z, gaps, weights=None):
    """Bound on the gap between two float portmanteau statistics ``sum_m w_m
    z_m``, one from the lag forms ``z`` and one from forms within ``gaps``
    of them, with the same bits of the weights (none for variant 1).

    Weighting rounds each term once, by at most u of it; each sum of L
    terms is within ``gamma(L - 1)`` times the sum of its absolute terms
    of the exact sum of those terms.
    """
    z, gaps = np.abs(np.asarray(z)), np.asarray(gaps)
    w = np.ones(len(z)) if weights is None else np.asarray(weights)
    terms = (w * (z + gaps)).sum()
    weighting = 0.0 if weights is None else 2 * U * terms
    return (w * gaps).sum() + weighting + 2 * gamma(len(z) - 1) * terms


def onestep_gap_bound(fit, path):
    """Entrywise rounding bound on the gap between the VAR one-step update
    on one (n, d) ``path`` in closed form, ``coef + (E' X) Gamma^-1 / m``,
    and ``coef`` plus the mean of the m influence rows ``vec(e_t (x_t'
    Gamma^-1))``.

    Both start from the same bits of E (residuals at the fit), X
    (regressors) and Gamma^-1, so each is within its own roundings of
    ``T = sum_t sum_k e_ta x_tk G_kj / m``.  The closed form rounds each
    product ``e_ta x_tk G_kj`` m + q + 1 times (the m-term and q-term
    sums and the division), the influence mean m + q + 2 times (the
    q-term row product, the product with e, the m-term sum and the
    division).  Each is thus within ``gamma(m + q + 2) (|E|' |X| |G|)_aj
    / m`` of T.  Adding the same ``coef`` rounds each sum once more, by at
    most u of ``|coef| + (1 + gamma) size``.
    """
    target, design = _var_design(path, fit.model.p, fit.model.intercept)
    resid = target - design @ fit.coef.T
    m, q = design.shape
    size = np.abs(resid).T @ np.abs(design) @ np.abs(fit.gamma_inv) / m
    g = gamma(m + q + 2)
    return 2 * g * size + 2 * U * (np.abs(fit.coef) + (1 + g) * size)


def correlation_with_cond(rng, d, kappa):
    """A random d x d correlation matrix whose 2-norm condition number is
    near ``kappa`` (rescaling to a unit diagonal moves it a little)."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = (q * np.geomspace(1.0, 1.0 / kappa, d)) @ q.T
    s = 1.0 / np.sqrt(np.diag(cov))
    corr = s[:, None] * cov * s[None, :]
    return (corr + corr.T) / 2


def cond_gap_bound(mat, c=10.0):
    """Relative gap allowed between two backward-stable 2-norm condition
    numbers of the positive definite ``mat``.

    A symmetric eigensolver and an SVD each return the exact values of a
    matrix within c d eps |mat|_2 of ``mat`` (c a modest solver constant),
    so by Weyl each extreme value moves by at most c d eps lambda_max.
    lambda_max then moves by a relative c d eps and lambda_min by c d eps
    kappa, so each ratio is within about c d eps (kappa + 1) of kappa,
    relatively, and the two within twice that.
    """
    d = mat.shape[0]
    kappa = np.linalg.cond(mat)
    return 2.0 * c * d * np.finfo(float).eps * (kappa + 1.0)


def pairwise_depth(n):
    """The most roundings any term takes in numpy's pairwise sum of n floats
    (``np.add.reduce`` along a unit-stride axis; the order is pinned in
    test_hsic's ``pairwise_sum``).

    Below 8 terms the sum runs left to right from 0.0, so a term is rounded
    at most n - 1 times (adding the first to 0.0 is exact).  Up to 128
    terms, eight running sums take every eighth term (n // 8 terms each,
    so n // 8 - 1 roundings), a tree of depth 3 joins them, and the n % 8
    terms left over are added one by one.  Longer sums split in two at a
    multiple of 8 near the middle and add the halves: one more rounding.
    """
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - (n // 2) % 8
    return 1 + max(pairwise_depth(half), pairwise_depth(n - half))


def sum_bound(k, magnitude):
    """Bound on the distance of a floating sum from the exact sum of its
    terms, when no term takes more than k roundings: Higham's
    ``|fl(S) - S| <= gamma(k) sum |x_i|``, for ``sum |x_i| <= magnitude``."""
    return gamma(k) * magnitude


class WindowSums:
    """The absolute row sums of one Gram matrix that the window-sum bounds of
    the HSIC pass need, for every window at once.

    ``prefix[j, i]`` is ``sum_{c <= i} |g_jc|``: row j's absolute sum over
    columns ``[0, N)`` is ``prefix[j, N - 1]``, over ``[m, n)`` it is
    ``prefix[j, n - 1] - prefix[j, m - 1]``.  Taking these in floating
    point moves each by a relative gamma(n) at most, which is second order
    in the bounds below.
    """

    def __init__(self, g):
        self.n = g.shape[-1]
        self.prefix = np.cumsum(np.abs(g), axis=-1)
        self.largest = float(np.abs(g).max())

    def window(self, m, role):
        """``(inside, outside)``: the absolute sums of each row of the window
        ``[0, n - m)`` (role "lead") or ``[m, n)`` (role "trail") over the
        window's columns, and over the columns outside it."""
        n, big = self.n, self.n - m
        if role == "lead":
            whole = self.prefix[:big, -1]
            inside = self.prefix[:big, big - 1]
        else:
            whole = self.prefix[m:, -1]
            inside = whole - (self.prefix[m:, m - 1] if m else 0.0)
        return inside, np.maximum(whole - inside, 0.0)

    def pass_bound(self, m, role):
        """``(inside, e)``: entrywise bound e on the distance of the pass's sums
        of the window's columns from their exact values.

        The pass takes a window's column sums as its rows' sums (the Gram is
        symmetric): row j's pairwise sum R over all n columns, less the sum
        E of its m entries outside the window, added one by one from the
        matrix edge inward, in one final subtraction.  R is within
        gamma(depth(n)) of the row's absolute sum of its exact value (see
        :func:`pairwise_depth`), E within gamma(m - 1) of the outside
        absolute sum, and the subtraction rounds ``R - E`` once, by u of
        at most the exact window sum's size plus those two errors.  At
        m = 0 there is no subtraction.
        """
        inside, outside = self.window(m, role)
        row = sum_bound(pairwise_depth(self.n), inside + outside)
        if m == 0:
            return inside, row
        edge = sum_bound(m - 1, outside)
        return inside, (1 + U) * (row + edge) + U * inside

    def copy_bound(self, m, role):
        """``(inside, e)`` as :meth:`pass_bound`, for the window copied out of
        the Gram: each row summed pairwise over the window's N columns."""
        inside, _ = self.window(m, role)
        return inside, sum_bound(pairwise_depth(self.n - m), inside)


def _stat_side_bound(k_sums, l_sums, big, t1_size):
    """Bound on the distance of one HSIC evaluation from the exact value of
    ``sum(dots) / N^2 + S_K S_L / N^4 - 2 c_K . c_L / N^3`` on the exact
    window sums c, with the same bits of ``sum(dots) / N^2`` on every side.

    ``k_sums`` and ``l_sums`` are ``(inside, e)`` of each window: every
    exact sum c_j has ``|c_j| <= inside_j``, and the side's computed sum
    is within e_j of it, so its size is at most ``C_j = inside_j + e_j``.
    - S_K, the pairwise sum of the N computed c_K, is within
      ``A_K = sum e_K + gamma(depth(N)) sum C_K`` of the exact one, and its
      size is at most ``S_K^+ = sum inside_K + A_K``; likewise S_L.
    - ``S_K S_L / N^4`` (one product, one division) is then within
      ``(S_K^+ A_L + S_L^+ A_K + gamma(2) S_K^+ S_L^+) / N^4``.
    - ``c_K . c_L`` moves by at most ``sum(C_K e_L + C_L e_K)`` with the
      sums, and its BLAS dot and the division by N^3 round it within
      gamma(N + 1) of ``X = sum C_K C_L``.
    - The two final additions round within ``gamma(2)`` of the three terms'
      sizes; ``t1_size`` bounds the first.
    N^2, N^3 and N^4 are exact floats for every N here.  The bound is first
    order, as :func:`form_bound` is: the terms' sizes are taken at their
    exact values, which leaves out terms of order u^2.
    """
    (k_in, k_err), (l_in, l_err) = k_sums, l_sums
    k_size, l_size = k_in + k_err, l_in + l_err
    depth = pairwise_depth(big)
    a_k = k_err.sum() + sum_bound(depth, k_size.sum())
    a_l = l_err.sum() + sum_bound(depth, l_size.sum())
    s_k, s_l = k_in.sum() + a_k, l_in.sum() + a_l
    x = k_size @ l_size
    d2 = (s_k * a_l + s_l * a_k + gamma(2) * s_k * s_l) / big**4
    d3 = 2 * ((k_size * l_err).sum() + (l_size * k_err).sum() + gamma(big + 1) * x) / big**3
    final = gamma(2) * (t1_size + s_k * s_l / big**4 + 2 * x / big**3)
    return d2 + d3 + final


def lag_gap_bounds(g1, g2, direction, lags):
    """Bound on the gap between the multi-lag pass's single statistic at each
    lag and ``hsic_v`` on that lag's two windows copied out of the Grams.

    In direction 1, ``g1`` gives the lead window ``[0, n - m)`` and ``g2``
    the trailing window ``[m, n)``; direction 2 swaps them.  Both routes
    take the same row dots, so they share the bits of ``sum(dots) / N^2``,
    and differ only in the window sums: the pass's come from the whole
    rows (:meth:`WindowSums.pass_bound`), the copy's from the window's own
    rows (:meth:`WindowSums.copy_bound`).  The gap is at most the sum of
    each route's distance from the exact value (:func:`_stat_side_bound`),
    where ``|sum(dots)| / N^2 <= max |L| sum_j inside_K,j / N^2``.  At
    m = 0 both routes are one computation, and the bound is 0.
    """
    w1, w2 = WindowSums(g1), WindowSums(g2)
    roles = ("lead", "trail") if direction == 1 else ("trail", "lead")
    out = []
    for m in lags:
        if m == 0:
            out.append(0.0)
            continue
        big = g1.shape[-1] - m
        sides = []
        for how in ("pass_bound", "copy_bound"):
            k_sums = getattr(w1, how)(m, roles[0])
            l_sums = getattr(w2, how)(m, roles[1])
            t1_size = w2.largest * k_sums[0].sum() / big**2
            sides.append(_stat_side_bound(k_sums, l_sums, big, t1_size))
        out.append(sum(sides))
    return np.array(out)


def joint_gap_bound(singles, gaps):
    """Bound on the gap between two joint statistics that each add their
    M + 1 singles in ascending lag from 0, one side's singles ``singles``
    and the other's within ``gaps`` of them: the singles' gaps, plus each
    side's M roundings of the running sum (gamma(M) of the singles' sizes)."""
    singles, gaps = np.abs(np.asarray(singles)), np.asarray(gaps)
    return gaps.sum() + 2 * gamma(len(singles) - 1) * (singles + gaps).sum()
