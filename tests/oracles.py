"""Reference implementations the tests check the library against."""

import math


def laplace_integral_log(k: int, n: int) -> float:
    """ln of the Beta integral over [0,1] of t^k (1-t)^(n-k), via log-gamma.

    Equals -ln(n+1) - ln binom(n, k).
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return float(-math.log(n + 1) - log_binom)
