"""Seeded input generation with the benchmark's own numpy code.

Nothing here calls the package: sector states come from a local
symmetriser, so set-up time does not move when the measured layers change.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def op_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for one input, a pure function of the seed and its position."""
    return np.random.default_rng([seed % 2 ** 64, *path])


def cycle_order(seed: int, cycle: int, size: int) -> list[int]:
    """Seeded order of one pass over a workload's ladder."""
    return [int(i) for i in op_rng(seed, 0, cycle).permutation(size)]


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def orthonormal_orbitals(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """k random orthonormal one-particle vectors in C^d, one per row."""
    q, _ = np.linalg.qr(complex_normal(rng, (d, k)))
    return q.T.copy()


def parity(perm) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def symmetrised_product(factors: list[np.ndarray], antisymmetric: bool) -> np.ndarray:
    """Normalised (anti)symmetrised tensor product of one-particle vectors, flat."""
    n = len(factors)
    product = factors[0]
    for f in factors[1:]:
        product = np.multiply.outer(product, f)
    out = np.zeros_like(product)
    for perm in itertools.permutations(range(n)):
        out += (parity(perm) if antisymmetric else 1) * product.transpose(perm)
    out = out.reshape(-1)
    return out / np.linalg.norm(out)


class SectorTable:
    """Map from labeled index tuples to occupation classes for one (d, N, sector).

    A sector state is a vector of coefficients over the classes, spread onto
    the d^N amplitudes: equal on every ordering of the same indices
    (symmetric), or with the sign of the sorting permutation and zero on
    repeated indices (antisymmetric).
    """

    def __init__(self, d: int, n: int, antisymmetric: bool):
        self.d, self.n, self.antisymmetric = d, n, antisymmetric
        idx = np.indices((d,) * n).reshape(n, -1)
        ordered = np.sort(idx, axis=0)
        key = np.ravel_multi_index(ordered, (d,) * n)
        classes, self.inverse = np.unique(key, return_inverse=True)
        self.weight = np.ones(idx.shape[1])
        if antisymmetric:
            inversions = sum(idx[i] > idx[j] for i, j in itertools.combinations(range(n), 2))
            distinct = np.all(ordered[1:] > ordered[:-1], axis=0)
            self.weight = np.where(inversions % 2, -1.0, 1.0) * distinct
            self.valid = np.unique(self.inverse[distinct])
        else:
            self.valid = np.arange(len(classes))
        expected = math.comb(d, n) if antisymmetric else math.comb(d + n - 1, n)
        if len(self.valid) != expected:
            raise RuntimeError(f"sector table for d={d} N={n} has {len(self.valid)} classes")

    def random_state(self, rng: np.random.Generator, terms: int | None = None) -> np.ndarray:
        """Normalised random sector state over all classes, or over `terms` of them."""
        chosen = self.valid if terms is None else rng.choice(self.valid, terms, replace=False)
        coeffs = np.zeros(self.inverse.max() + 1, dtype=complex)
        coeffs[chosen] = complex_normal(rng, len(chosen))
        amps = coeffs[self.inverse] * self.weight
        return amps / np.linalg.norm(amps)
