"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the package's own recursions: chain
products are explicit truncated matrix-vector iterations, the M/D/1 pmf
comes from the departure-epoch chain recursion or the pgf expansion in
extended precision, and the M/D/1 correction term is integrated one
quadrature node at a time.
"""

import math

import mpmath as mp
import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson


def x_rows_by_matrix(lam1, mu, rho, k_max, size=800):
    """(pi_+ P_+^k)_l / (1-rho) for l = 1..k via explicit truncated products."""
    nu = mu + lam1
    p, q = lam1 / nu, mu / nu
    v = rho ** np.arange(1, size + 1)
    rows = []
    for k in range(1, k_max + 1):
        w = np.zeros_like(v)
        w[:-1] += q * v[1:]
        w[1:] += p * v[:-1]
        v = w
        rows.append(v[:k].copy())
    return rows


def correction_by_matrix(lam1, mu, rho, d, size=2500):
    """sum_k pois(nu d; k) pi_+ P_+^k J_+ by direct truncated products."""
    nu = mu + lam1
    p, q = lam1 / nu, mu / nu
    nd = nu * d
    K = int(nd + 12 * math.sqrt(nd + 1) + 60)
    v = (1 - rho) * rho ** np.arange(1, size + 1)
    J = np.arange(1, size + 1, dtype=float)
    pmf = poisson.pmf(np.arange(K + 1), nd)
    tot = pmf[0] * (v @ J)
    for k in range(1, K + 1):
        w = np.zeros_like(v)
        w[:-1] += q * v[1:]
        w[1:] += p * v[:-1]
        v = w
        tot += pmf[k] * (v @ J)
    return tot


def md1_pi_exact(rho, n):
    """pi_n for M/D/1 from the pgf expansion, in extended precision.

    pi_n = (1-rho) * [ sum_{m=0}^{n}   e^{m rho} (-m rho)^{n-m}/(n-m)!
                     - sum_{m=0}^{n-1} e^{m rho} (-m rho)^{n-1-m}/(n-1-m)! ]

    The terms alternate and grow like e^{n rho}, so the precision is
    budgeted for the cancellation.  This term-by-term evaluation is what
    ``dapq.markov.md1_stationary`` computed before its FFT inversion.
    """
    with mp.workdps(40 + int(0.8 * n)):
        r = mp.mpf(rho)
        s1 = mp.fsum(
            mp.e ** (m * r) * (-m * r) ** (n - m) / mp.factorial(n - m)
            for m in range(n + 1)
        )
        s2 = mp.fsum(
            mp.e ** (m * r) * (-m * r) ** (n - 1 - m) / mp.factorial(n - 1 - m)
            for m in range(n)
        )
        return float((1 - r) * (s1 - s2))


def md1_pi_embedded(rho, n_max):
    """Forward recursion on the departure-epoch chain, 80 digits."""
    with mp.workdps(80):
        r = mp.mpf(rho)
        a = [mp.e ** (-r) * r**k / mp.factorial(k) for k in range(n_max + 3)]
        ps = [1 - r]
        for j in range(n_max + 1):
            s = ps[j] - ps[0] * a[j] - mp.fsum(ps[k] * a[j - k + 1] for k in range(1, j + 1))
            ps.append(s / a[0])
        return [float(x) for x in ps]


def md1_correction_term_by_nodes(j, ell, lam1, pi, Tmat):
    """One j-term of the M/D/1 correction, one quadrature node at a time.

    The scalar per-node loop that the vectorised
    ``dapq.mean_wait._md1_correction_term`` replaced: a convolution with pi
    and a first-emptying matrix-vector product per Gauss--Legendre node.
    """
    kmax = j + ell
    d = float(ell)
    x, w = np.polynomial.legendre.leggauss(kmax // 2 + 2)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w

    def pois(y):
        return np.cumprod(np.concatenate([[1.0], y / np.arange(1, kmax)]))

    I0 = I1 = 0.0
    u = pi[1 : kmax + 1]
    m_arr = np.arange(2, ell + 1)
    pw = j + ell - m_arr
    for rr, wq in zip(nodes, weights):
        numres = np.convolve(u, pois(lam1 * rr))[1:kmax]
        val = float(numres @ pois(lam1 * (d - rr))[kmax - 2 :: -1])
        if ell >= 2:
            z = lam1 * (d - m_arr + 1.0 - rr)
            Zvec = np.exp(pw * np.log(z) - gammaln(pw + 1.0))
            val -= float(numres[: ell - 1] @ (Tmat @ Zvec))
        I0 += wq * val
        I1 += wq * rr * val
    return math.exp(-lam1 * d) * (I1 + (j - 1) * I0)
