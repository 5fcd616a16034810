"""Normal pdf, cdf and quantile function without importing ``scipy.stats``.

``scipy.stats.norm`` computes its cdf and ppf with ``scipy.special.ndtr``
and ``ndtri`` and its pdf with the numpy expression below, so these give
the same bits.  Importing ``scipy.stats`` costs about a second, which every
command-line call would otherwise pay.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

_SQRT_2PI = np.sqrt(2 * np.pi)


def normal_pdf(x, loc=0.0, scale=1.0):
    z = (np.asarray(x, dtype=float) - loc) / scale
    return np.exp(-z**2 / 2.0) / _SQRT_2PI / scale


def normal_cdf(x, loc=0.0, scale=1.0):
    return ndtr((np.asarray(x, dtype=float) - loc) / scale)


def normal_ppf(q):
    return ndtri(q)
