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
