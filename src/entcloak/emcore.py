"""Homogeneous-medium dyadic Green's tensor and coupling-rate conversion.

Internal unit system: lengths are measured in units of the emitter
wavelength (lambda0 = 1, so the wavenumber is the constant K0 = 2*pi),
all rates in units of the free-space decay rate gamma0 = 1, and
hbar = eps0 = c = 1.  Both emitters share the dipole orientation P_HAT
= z-hat, the only configuration entcloak designs for; `project` is its
one reader.  Every quantity the quantum model consumes is a
dimensionless ratio, so the dipole moment magnitude cancels and never
appears.

The dyadic convention is G = [I + grad grad / k^2] e^{ikR} / (4 pi R),
for which Im G_aa(r, r) -> k / (6 pi) as R -> 0.  With that convention

    gamma_ij / gamma0 = (6 pi / k) Im{ p^* . G(r_i, r_j) . p }
    g_ij   / gamma0   = (3 pi / k) Re{ p^* . G(r_i, r_j) . p }   (i != j)

with k = K0 and p = P_HAT.  The factor-2 asymmetry between the
dissipative and coherent conversions is intentional and load-bearing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, SolverInconsistencyError

__all__ = [
    "CouplingSet",
    "dyadic_green",
    "free_space_green",
    "vacuum_self_green",
    "project",
    "couplings_from_q",
    "rates_from_q",
    "is_physical",
    "couplings_from_green",
    "COINCIDENT_THRESHOLD",
    "K0",
    "P_HAT",
]

#: Vacuum wavenumber of the emitter transition (lambda0 = 1).
K0 = 2.0 * np.pi

#: Dipole orientation of both emitters.
P_HAT = np.array([0.0, 0.0, 1.0], dtype=complex)
P_HAT.setflags(write=False)

#: Separations below this (in lambda0 units) are treated as coincident.
COINCIDENT_THRESHOLD = 1e-6

#: Tolerance on the cross-spectral positivity bound |gamma12| <= sqrt(g11*g22).
POSITIVITY_TOL = 1e-9

#: 6 pi / K0, from Im q_ij to gamma_ij (a constant: the optimizer's
#: candidate scorer converts every trial step).
_RATE_PER_IM_Q = 6.0 * np.pi / K0


def as_position(r):
    """Coerce a 3-component position (lambda0 units) to a float array."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"position must have 3 components, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("position components must be finite")
    return r


@dataclass(frozen=True)
class CouplingSet:
    """Dimensionless master-equation inputs, all in units of gamma0.

    gamma11/gamma22 are the single-emitter decay rates, i.e. the Purcell
    factors (gamma0 = 1),
    gamma12 the correlated-decay rate and g12 the coherent
    excitation-exchange rate.
    """

    gamma11: float
    gamma22: float
    gamma12: float
    g12: float

    def validate(self):
        """Raise SolverInconsistencyError, naming the rates, if the set
        fails `is_physical`."""
        if not is_physical(self.gamma11, self.gamma22, self.gamma12):
            raise SolverInconsistencyError(
                f"unphysical rates gamma11={self.gamma11}, "
                f"gamma22={self.gamma22}, gamma12={self.gamma12}: need "
                "gamma11, gamma22 > 0 and |gamma12| <= sqrt(gamma11*gamma22) "
                f"+ {POSITIVITY_TOL}"
            )
        return self


def is_physical(gamma11, gamma22, gamma12):
    """The positivity rule of a coupling set: positive decay rates and
    the cross-spectral bound |gamma12| <= sqrt(gamma11 gamma22), within
    POSITIVITY_TOL.  The one test against POSITIVITY_TOL; nan fails it."""
    return (gamma11 > 0 and gamma22 > 0
            and abs(gamma12) <= math.sqrt(gamma11 * gamma22) + POSITIVITY_TOL)


def dyadic_green(disp):
    """Vacuum dyadic Green's tensor for an array of displacements.

    Maps displacements r1 - r2 of shape (..., 3) to the tensors
    G0(r1, r2) of shape (..., 3, 3).  Entries with R = 0 are set to zero:
    the coincident limit is the caller's self term.  This is the one
    implementation of G0; `free_space_green` and every kernel of the VIE
    solver evaluate it here.
    """
    d = np.asarray(disp, dtype=float)
    R = np.linalg.norm(d, axis=-1)
    zero = R < 1e-300
    Rsafe = np.where(zero, 1.0, R)
    x = K0 * Rsafe
    rhat = d / Rsafe[..., None]
    phase = np.where(zero, 0.0, np.exp(1j * x) / (4.0 * np.pi * Rsafe))
    ca = phase * (1.0 + (1j * x - 1.0) / x**2)
    cb = phase * ((3.0 - 3j * x - x**2) / x**2)
    G = np.empty((3, 3) + R.shape, dtype=complex)
    for a in range(3):
        for b in range(a, 3):
            G[a, b] = cb * rhat[..., a] * rhat[..., b]
            G[b, a] = G[a, b]
        G[a, a] += ca
    # Stored component-major, so each component G[..., a, b] is one
    # contiguous block (the FFT kernel transforms them one at a time).
    return np.moveaxis(G, (0, 1), (-2, -1))


def free_space_green(r1, r2):
    """Dyadic Green's tensor of vacuum between two points.

    Parameters
    ----------
    r1, r2 : array_like, shape (3,)
        Positions in lambda0 units.

    Returns
    -------
    (3, 3) complex ndarray
        G(r1, r2) in units of 1/lambda0.  Symmetric under simultaneous
        index exchange and transposition (here the tensor itself is
        symmetric because it depends on the separation only through R
        and the even dyad R_hat R_hat).

    Raises
    ------
    CoincidentPointsError
        If |r1 - r2| < COINCIDENT_THRESHOLD; the caller must use the
        regularized self-term path instead.
    """
    d = as_position(r1) - as_position(r2)
    R = float(np.linalg.norm(d))
    if R < COINCIDENT_THRESHOLD:
        raise CoincidentPointsError(
            f"separation {R:.3e} below threshold {COINCIDENT_THRESHOLD:.0e}; "
            "use the self-term path for coincident points"
        )
    return dyadic_green(d)


def vacuum_self_green():
    """G at the source point in vacuum: the analytic imaginary diagonal
    i K0/(6 pi) I (the divergent real part is a Lamb-type shift and is
    dropped)."""
    return 1j * K0 / (6.0 * np.pi) * np.eye(3)


def project(G):
    """The P_HAT-projected Green's scalar q = p^* . G . p."""
    return complex(P_HAT.conj() @ np.asarray(G) @ P_HAT)


def rates_from_q(q11, q22, q12):
    """(gamma11, gamma22, gamma12, g12) of the P_HAT-projected Green's
    scalars: gamma_ij = (6 pi / K0) Im q_ij and g12 = (3 pi / K0) Re q12.

    The one implementation of the conversion, on plain numbers; the
    rates are not checked here.
    """
    pref = _RATE_PER_IM_Q
    return pref * q11.imag, pref * q22.imag, pref * q12.imag, 0.5 * pref * q12.real


def couplings_from_q(q11, q22, q12):
    """The CouplingSet of `rates_from_q`, not validated: its callers
    validate it once.  `couplings_from_green` and the optimizer's
    `compute_state` call `validate`; the optimizer's scorer `score_q`
    applies the same rule, `is_physical`, to the rates directly.
    """
    return CouplingSet(*rates_from_q(q11, q22, q12))


def couplings_from_green(G11, G22, G12):
    """Convert Green's tensor samples to normalized coupling rates.

    Parameters
    ----------
    G11, G22, G12 : (3, 3) complex ndarray
        Green's tensors at (r1, r1), (r2, r2), (r1, r2).  The self
        tensors only need a physically meaningful imaginary part (their
        real diagonal is a Lamb-type shift absorbed into the emitter
        frequency and never read).

    Returns
    -------
    CouplingSet
        gamma_ij = (6 pi / K0) Im{p*.G.p}, g12 = (3 pi / K0) Re{p*.G12.p}
        with p = P_HAT.

    Raises
    ------
    SolverInconsistencyError
        If gamma11/gamma22 are not positive or the positivity bound
        |gamma12| <= sqrt(gamma11 gamma22) is violated beyond tolerance.
    """
    return couplings_from_q(project(G11), project(G22), project(G12)).validate()
