"""Steady state of two incoherently pumped emitters and entanglement witnesses.

The two-emitter master equation (rotating frame, resonant emitters)

    drho/dt = -i[H, rho]
              + sum_ij (gamma_ij / 2) (2 s_j rho s_i+ - s_i+ s_j rho - rho s_i+ s_j)
              + sum_i  (P / 2)        (2 s_i+ rho s_i - s_i s_i+ rho - rho s_i s_i+)

with H = g12 (s1+ s2 + s2+ s1), acts on the basis
{|g1 g2>, |e1 g2>, |g1 e2>, |e1 e2>} (indices 0..3).  All rates are in
units of gamma0.  The frequency term omega sum_i s_i+ s_i is dropped:
every other generator conserves excitation number, so the steady state
is frame independent.

Steady states of this model are X-type: the only surviving coherence is
rho12 = <e1 g2| rho |g1 e2>.  The closed forms of that structure are
scalar kernels on plain floats: `x_block_steady_state` (the populations
and rho12 of the steady state), `concurrence_x` and `negativity_x`.
`steady_state`, `concurrence` and `negativity` are their wrappers on
(4, 4) arrays, so the witnesses take X states only.  The optimizer's
candidate scorer calls the kernels directly.  This module holds the
runtime closed forms, plus the 16x16 Liouvillian kernel
(`steady_state_svd`), which the closed form falls back to when its
denominator degenerates.  The reference implementations that take any
state, RK4 time propagation and the Wootters and partial-transpose
witnesses, live with the named checks in `entcloak.validate`, which
holds the closed forms to them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .emcore import CouplingSet
from .errors import DegenerateSteadyStateError

__all__ = [
    "MasterEqParams",
    "build_liouvillian",
    "x_block_steady_state",
    "steady_state",
    "steady_state_svd",
    "concurrence_x",
    "concurrence",
    "negativity_x",
    "negativity",
    "linear_entropy",
    "mems_curve",
]


# ---------------------------------------------------------------------------
# Operators and Liouvillian
# ---------------------------------------------------------------------------

def _lowering_ops():
    s1 = np.zeros((4, 4), dtype=complex)
    s1[0, 1] = 1.0
    s1[2, 3] = 1.0
    s2 = np.zeros((4, 4), dtype=complex)
    s2[0, 2] = 1.0
    s2[1, 3] = 1.0
    return s1, s2


_S1, _S2 = _lowering_ops()
_I4 = np.eye(4, dtype=complex)


def _spre_spost(A, B):
    """Superoperator matrix of rho -> A rho B for column-stacked vec(rho)."""
    return np.kron(B.T, A)


def _lindblad(a, b):
    """Superoperator of rho -> b rho a+ - (a+ b rho + rho a+ b)/2 at unit rate.

    a = b gives the diagonal dissipator of one jump operator; the (i, j)
    cross term of correlated decay is _lindblad(s_i, s_j).
    """
    ad = a.conj().T
    adb = ad @ b
    return (
        _spre_spost(b, ad)
        - 0.5 * _spre_spost(adb, _I4)
        - 0.5 * _spre_spost(_I4, adb)
    )


def _hamiltonian_part():
    H0 = _S1.conj().T @ _S2 + _S2.conj().T @ _S1
    return -1j * (_spre_spost(H0, _I4) - _spre_spost(_I4, H0))


# Constant generator pieces; build_liouvillian is a linear combination.
_L_G11 = _lindblad(_S1, _S1)
_L_G22 = _lindblad(_S2, _S2)
# both cross terms appear together with the same rate for non-chiral coupling
_L_G12 = _lindblad(_S1, _S2) + _lindblad(_S2, _S1)
_L_PUMP = (_lindblad(_S1.conj().T, _S1.conj().T)
           + _lindblad(_S2.conj().T, _S2.conj().T))
_L_COH = _hamiltonian_part()


@dataclass(frozen=True)
class MasterEqParams(CouplingSet):
    """Coupling rates plus the symmetric incoherent pump P applied to both
    emitters, all in units of gamma0.

    The rates obey emcore's positivity rule (SolverInconsistencyError
    naming the rate); P must be non-negative.
    """

    P: float

    def __post_init__(self):
        self.validate()
        if self.P < 0:
            raise ValueError("pump rate must be non-negative")


def build_liouvillian(params):
    """16x16 matrix L with vec(drho/dt) = L vec(rho), column-stacked vec.

    Contains the coherent term -i[H, rho] with H = g12 (s1+ s2 + h.c.),
    the full gamma_ij Lindblad sum (cross terms included), and the
    incoherent pump on both emitters.
    """
    return (
        params.g12 * _L_COH
        + params.gamma11 * _L_G11
        + params.gamma22 * _L_G22
        + params.gamma12 * _L_G12
        + params.P * _L_PUMP
    )


# Relative threshold separating "numerically zero" singular values of L.
_KERNEL_RTOL = 1e-12


def x_block_steady_state(gamma11, gamma22, gamma12, g12, P):
    """(rho00, rho11, rho22, rho33, rho12) of the unique steady state, on
    plain floats; the one implementation of the closed form.

    The Liouvillian leaves the X block (the four populations and rho12,
    rho21) invariant, so the steady state has a closed form.  With
    a = gamma11, b = gamma22, c = gamma12, g = g12, u = a + b,
    S = u + 2P and T = S^2 + 16 g^2 the unnormalized populations are

        n1 = P S (b S^2 + 8 u g^2)                          rho11
        n2 = P S (a S^2 + 8 u g^2)                          rho22
        n3 = P^2 S T                                        rho33
        n0 = (ab - c^2) u T + 2P (ab + c^2) S^2
             + 8P g^2 (u^2 + 4c^2) + 4 g^2 u (a - b)^2      rho00

    and rho12 = [-P c (u - 2P) T - 2i P g (a - b) S^2] / D with
    D = n0 + n1 + n2 + n3.  D is homogeneous of degree 5 in the rates;
    when it is not above _KERNEL_RTOL * S^3 T the kernel may not be
    unique and the SVD oracle `steady_state_svd` decides.  The rates must
    obey emcore's positivity rule, with P >= 0.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel dimension exceeds 1 (e.g. P = 0 with gamma12 =
        +/- gamma, which decouples a dark state).
    """
    a, b, c, g = gamma11, gamma22, gamma12, g12
    u = a + b
    d = a - b
    S = u + 2.0 * P
    S2 = S * S
    g2 = g * g
    T = S2 + 16.0 * g2
    n1 = P * S * (b * S2 + 8.0 * u * g2)
    n2 = P * S * (a * S2 + 8.0 * u * g2)
    n3 = P * P * S * T
    n0 = ((a * b - c * c) * u * T + 2.0 * P * (a * b + c * c) * S2
          + 8.0 * P * g2 * (u * u + 4.0 * c * c) + 4.0 * g2 * u * d * d)
    D = n0 + n1 + n2 + n3
    if not D > _KERNEL_RTOL * S2 * S * T:
        rho = steady_state_svd(MasterEqParams(a, b, c, g, P))
        return (rho[0, 0].real, rho[1, 1].real, rho[2, 2].real,
                rho[3, 3].real, complex(rho[1, 2]))
    rho12 = complex(-P * c * (u - 2.0 * P) * T, -2.0 * P * g * d * S2) / D
    return n0 / D, n1 / D, n2 / D, n3 / D, rho12


def steady_state(params):
    """Unique steady state of the master equation, as a (4, 4) array.

    The X state of `x_block_steady_state`, unchecked: `entcloak validate`
    and the test suite hold it to the SVD and RK4 oracles.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel dimension exceeds 1.
    """
    rho00, rho11, rho22, rho33, rho12 = x_block_steady_state(
        *(float(x) for x in (params.gamma11, params.gamma22, params.gamma12,
                             params.g12, params.P)))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho00
    rho[1, 1] = rho11
    rho[2, 2] = rho22
    rho[3, 3] = rho33
    rho[1, 2] = rho12
    rho[2, 1] = rho12.conjugate()
    return rho


def steady_state_svd(params):
    """Independent steady-state oracle: the kernel of the 16x16 Liouvillian.

    Takes the smallest right singular vector of build_liouvillian(params)
    and normalizes its trace.

    Raises
    ------
    DegenerateSteadyStateError
        If the numerically measured kernel dimension exceeds 1.
    """
    L = build_liouvillian(params)
    _, s, vh = np.linalg.svd(L)
    tol = max(s[0] * _KERNEL_RTOL, 1e-13)
    kernel_dim = int(np.sum(s < tol))
    if kernel_dim > 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel has dimension {kernel_dim}; "
            "steady state is not unique",
            kernel_dim=kernel_dim,
        )
    v = vh[-1].conj()
    rho = v.reshape(4, 4, order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

def _x_entries(rho):
    """(rho00, rho33, rho12) of a (4, 4) array, as Python numbers."""
    return float(rho[0, 0].real), float(rho[3, 3].real), complex(rho[1, 2])


def concurrence_x(rho00, rho33, rho12):
    """Wootters concurrence of an X state from its populations rho00,
    rho33 and its single coherence rho12, in closed form:

        C = 2 max{0, |rho12| - sqrt(rho00 rho33)}.
    """
    pops = rho00 * rho33
    if pops < 0.0:
        pops = 0.0
    val = 2.0 * (abs(rho12) - math.sqrt(pops))
    return val if val > 0.0 else 0.0


def concurrence(rho):
    """`concurrence_x` of the (4, 4) array `rho`.

    Reads only the diagonal and rho12, so `rho` must be an X state with
    the single coherence rho12, as every steady state of this model is;
    `validate.concurrence_wootters` takes any state.
    """
    return concurrence_x(*_x_entries(rho))


def negativity_x(rho00, rho33, rho12):
    """Negativity of an X state from its populations rho00, rho33 and its
    single coherence rho12, in closed form:

        N = max{0, sqrt((rho00 - rho33)^2 + 4 |rho12|^2) - (rho00 + rho33)}.
    """
    val = (math.sqrt((rho00 - rho33) ** 2 + 4.0 * abs(rho12) ** 2)
           - (rho00 + rho33))
    return val if val > 0.0 else 0.0


def negativity(rho):
    """`negativity_x` of the (4, 4) array `rho`.

    Reads only the diagonal and rho12, so `rho` must be an X state with
    the single coherence rho12, as every steady state of this model is;
    `validate.negativity_partial_transpose` takes any state.
    """
    return negativity_x(*_x_entries(rho))


def linear_entropy(rho):
    """Linear entropy S_L = (4/3)(1 - Tr rho^2); 0 pure, 1 maximally mixed."""
    return float((4.0 / 3.0) * (1.0 - np.trace(rho @ rho).real))


def mems_curve(r):
    """(C, S_L) of the maximally-entangled-mixed-state family at parameter r.

    The family has coherence r/2 and populations {g, 1-2g, 0, g} with
    g = max{r/2, 1/3}, giving C = r and

        S_L = (8/3) r (1 - r)        for r >= 2/3
        S_L = 8/9 - (2/3) r^2        for r <  2/3

    Both branches meet at S_L = 16/27 for r = 2/3.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"MEMS parameter must lie in [0, 1], got {r}")
    if r >= 2.0 / 3.0:
        sl = (8.0 / 3.0) * r * (1.0 - r)
    else:
        sl = 8.0 / 9.0 - (2.0 / 3.0) * r**2
    return r, sl
