"""Brute-force ground truth on finite discrete mode spectra.

Everything here is exact up to floating point and deliberately dumb: the
grand partition function as a literal product over modes, the canonical
partition function as a sum over occupation vectors (its partial sums over
the last modes tabulated), and the same canonical function as a literal sum
over permutation cycle types.  These three must agree with each other and
with the cycle-sum recursion, which is how the cycle expansion is validated
end to end.

Occupation enumeration and the mode product expand degeneracies into
repeated modes internally, so a mode with degeneracy 2 and two coincident
modes follow bit-identical arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .core import ConvergenceError, DomainError, SizeError, _finite, _require_integer
from .partition import ENUMERATION_LIMIT, CycleSumSequence, canonical_partition_enumerated

OCCUPATION_VECTOR_LIMIT = 10**7
EXPANSION_LIMIT = 10**7


def _require_beta(beta: float) -> None:
    """beta = 1/T must be finite and > 0."""
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be finite and > 0, got {beta}")


def _require_fugacity(z: float) -> None:
    """The fugacity z must be >= 0; a NaN is refused too."""
    if not z >= 0.0:
        raise DomainError(f"fugacity must be >= 0, got {z}")


@dataclass(frozen=True)
class ModeSpectrum:
    """Finite list of single-particle energies with integer degeneracies."""

    energies: np.ndarray
    degeneracies: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=float))
        g = np.atleast_1d(np.asarray(self.degeneracies, dtype=int))
        if e.size == 0:
            raise DomainError("spectrum must contain at least one mode")
        if e.shape != g.shape:
            raise DomainError("energies and degeneracies must have equal length")
        if not np.all((e >= 0.0) & (e < np.inf)):
            raise DomainError("mode energies must be finite and >= 0")
        if np.any(np.diff(e) < 0.0):
            raise DomainError("mode energies must be sorted ascending")
        if np.any(g < 1):
            raise DomainError("degeneracies must be positive integers")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "degeneracies", g)

    @classmethod
    def from_modes(cls, energies, degeneracies=None) -> "ModeSpectrum":
        e = np.atleast_1d(np.asarray(energies, dtype=float))
        g = (
            np.ones(e.size, dtype=int)
            if degeneracies is None
            else np.atleast_1d(np.asarray(degeneracies, dtype=int))
        )
        order = np.argsort(e, kind="stable")
        return cls(energies=e[order], degeneracies=g[order])

    def expanded_energies(self) -> np.ndarray:
        """Energies with degeneracies unrolled into repeated entries."""
        total = int(np.sum(self.degeneracies))
        if total > EXPANSION_LIMIT:
            raise SizeError(f"expanded spectrum would hold {total} modes")
        return np.repeat(self.energies, self.degeneracies)

    def cycle_sums(self, beta: float, s_max: int) -> CycleSumSequence:
        """C_s = sum_j g_j exp(-beta e_j s) for s = 1..s_max."""
        _require_beta(beta)
        s = np.arange(1, _require_integer("s_max", s_max, 1) + 1, dtype=float)
        return CycleSumSequence(values=np.exp(-beta * np.outer(s, self.energies)) @ self.degeneracies)


def load_spectrum(path) -> ModeSpectrum:
    """Read "energy degeneracy" pairs, one per line; '#' starts a comment.

    The degeneracy may be omitted (defaults to 1); modes are sorted by
    energy on load.
    """
    energies = []
    degeneracies = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) > 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 'energy [degeneracy]', got {raw!r}"
                )
            try:
                energies.append(float(fields[0]))
                degeneracies.append(int(fields[1]) if len(fields) == 2 else 1)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not energies:
        raise ValueError(f"{path}: no modes found")
    return ModeSpectrum.from_modes(energies, degeneracies)


@_finite
def grand_partition_product(spectrum: ModeSpectrum, z: float, beta: float) -> float:
    """Textbook mode product prod_j (1 - z e^{-beta e_j})^(-g_j), exact."""
    _require_beta(beta)
    _require_fugacity(z)
    occupancies = z * np.exp(-beta * spectrum.expanded_energies())
    if np.any(occupancies >= 1.0):
        raise DomainError(
            "grand partition diverges: z * exp(-beta * e_min) must be < 1"
        )
    result = 1.0
    # Python floats overflow to inf without a numpy warning; the gate refuses the inf
    for q in map(float, occupancies):
        result *= 1.0 / (1.0 - q)
    return result


@_finite
def grand_partition_cycle(spectrum: ModeSpectrum, z: float, beta: float) -> float:
    """Discrete cycle expansion exp(sum_s z^s C_s / s) of the grand product.

    The series terms decay at least geometrically with ratio
    q = z * exp(-beta * e_min), which must stay <= 0.9; the sum stops once
    the geometric tail bound drops below 1e-13 of it.
    """
    _require_beta(beta)
    _require_fugacity(z)
    g = spectrum.degeneracies.astype(float)
    # z^s C_s = sum_j g_j q_j^s with q_j = z e^{-beta e_j}, every q_j below 1
    q_modes = z * np.exp(-beta * spectrum.energies)
    q = float(np.max(q_modes)) if z > 0.0 else 0.0
    if q > 0.9:
        raise ConvergenceError(
            f"z * exp(-beta * e_min) = {q:g} exceeds the 0.9 convergence margin"
        )
    total = 0.0
    for s in count(1):
        term = float(np.sum(g * q_modes**s)) / s
        total += term
        # the rest is at most term * q / (1 - q); "not >" also stops on q = 0 and on NaN
        if not term * q / (1.0 - q) > 1e-13 * total:
            return math.exp(total)


def canonical_by_occupation(spectrum: ModeSpectrum, N: int, beta: float) -> float:
    """Sum of exp(-beta * sum_j n_j e_j) over all occupation vectors with sum n_j = N.

    Enumeration over the degeneracy-expanded modes; the number of vectors,
    binom(N + M - 1, N), is capped at 10^7 as a hard API limit.  The sum over
    modes j..M-1 holding n particles is shared by every occupation of modes
    0..j-1, so it is tabulated once, from the last mode down, and each entry
    is added up in the order of the plain enumeration: M (N + 1)^2 / 2 terms.
    """
    _require_beta(beta)
    N = _require_integer("particle number N", N, 0)
    if N == 0:
        return 1.0
    energies = spectrum.expanded_energies()
    m = energies.size
    n_vectors = math.comb(N + m - 1, N)
    if n_vectors > OCCUPATION_VECTOR_LIMIT:
        raise SizeError(
            f"{n_vectors} occupation vectors exceed the {OCCUPATION_VECTOR_LIMIT} limit"
        )
    weights = np.exp(-beta * energies)
    rest = [weights[-1] ** n_left for n_left in range(N + 1)]  # mode M-1 alone
    for w in weights[-2::-1]:
        below = rest
        rest = []
        for n_left in range(N + 1):
            acc = 0.0
            for n in range(n_left + 1):
                acc += w**n * below[n_left - n]
            rest.append(acc)
    return rest[N]


def canonical_by_permutations(spectrum: ModeSpectrum, N: int, beta: float) -> float:
    """Z_N as the explicit sum over permutation cycle types.

    Each integer partition {xi_s} of N contributes
    prod_s C_s**xi_s / (xi_s! * s**xi_s) with C_s = sum_j g_j e^{-beta e_j s};
    the prefactor is the count of permutations of that cycle type divided
    by N!.  The sum is partition.canonical_partition_enumerated, which
    raises SizeError above ENUMERATION_LIMIT.
    """
    # cycle sums past the enumeration limit are never used: N that large raises
    sums = spectrum.cycle_sums(beta, min(max(N, 1), ENUMERATION_LIMIT))
    return canonical_partition_enumerated(sums, N)[0]
