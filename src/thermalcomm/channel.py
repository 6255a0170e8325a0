"""Thermal-channel parameter algebra and closed-form rate targets.

A single-mode thermal channel mixes the signal with a thermal environment of
mean photon number ``N0`` on a beamsplitter of transmittivity ``k``.  For a
circularly-symmetric Gaussian input of mean photon number ``N`` everything
relevant here is a scalar function of ``(k, N0, N)``: ``ChannelParams``
derives those scalars on construction, beside the closed-form capacity /
coherent-information values here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ChannelParams:
    """A thermal channel ``(k, N0, N)``, validated, and the scalars derived
    from it on construction: the added noise ``Nc``, the output mean photon
    number ``Nprime`` for the Gaussian input (``Nc_E``/``Nprime_E`` on the
    environment side), the signal-to-noise ratio ``s`` of the equivalent
    classical AWGN problem, and the decay constant ``c_decay`` of the
    Gauss-Hermite gap bound.  Raises ``ValueError`` for non-finite or
    out-of-range parameters, for ones whose ``s`` or ``c_decay`` is not a
    finite positive double (k^2 N underflows, or sqrt(N'(N'+1)) rounds to
    N'), and for the identity channel ``k == 1, N0 == 0`` (making ``k == 1``
    meaningful needs an additive-noise-only formulation, out of scope)."""

    k: float
    N0: float
    N: float
    Nc: float = field(init=False)
    Nprime: float = field(init=False)
    Nc_E: float = field(init=False)
    Nprime_E: float = field(init=False)
    s: float = field(init=False)
    c_decay: float = field(init=False)

    def __post_init__(self):
        k, N0, N = self.k, self.N0, self.N
        for name, value in (("k", k), ("N0", N0), ("N", N)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < k <= 1.0:
            raise ValueError(f"transmittivity k must be in (0, 1], got {k}")
        if N0 < 0.0:
            raise ValueError(f"environment photon number N0 must be >= 0, got {N0}")
        if N <= 0.0:
            raise ValueError(f"input photon number N must be > 0, got {N}")
        if k == 1.0 and N0 == 0.0:
            raise ValueError("k = 1 with N0 = 0 is the identity channel; rejected")

        Nc = (1.0 - k * k) * N0
        Nprime = k * k * N + Nc
        Nc_E = k * k * N0
        Nprime_E = (1.0 - k * k) * N + Nc_E
        excess = math.sqrt(Nprime * (Nprime + 1.0)) - k * k * N
        s = k * k * N / excess if excess > 0.0 else math.inf
        c_decay = 2.0 * math.log((1.0 + s) / s) if 0.0 < s < math.inf else math.inf
        if not math.isfinite(c_decay):
            raise ValueError(
                f"(k, N0, N) = ({k:g}, {N0:g}, {N:g}): the signal-to-noise ratio "
                "is outside the range double precision resolves")
        for name, value in (("Nc", Nc), ("Nprime", Nprime), ("Nc_E", Nc_E),
                            ("Nprime_E", Nprime_E), ("s", s), ("c_decay", c_decay)):
            object.__setattr__(self, name, value)


channel_params = ChannelParams  # the documented entry point


def g_entropy(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``x``:
    (x+1) log2(x+1) - x log2(x), with g(0) = 0."""
    if x < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def capacity_C(p: ChannelParams) -> float:
    """Classical capacity at input photon budget N: g(N') - g(Nc), bits."""
    return g_entropy(p.Nprime) - g_entropy(p.Nc)


def gaussian_rate_limit(p: ChannelParams) -> float:
    """Gaussian coherent information, bits: the B-side Holevo quantity minus
    the E-side one, each evaluated for the Gaussian input."""
    return capacity_C(p) - (g_entropy(p.Nprime_E) - g_entropy(p.Nc_E))
