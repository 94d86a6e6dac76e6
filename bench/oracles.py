"""Independent computations that martfock's outputs are checked against.

Nothing here imports martfock.  Every expected value is derived from the
seeded inputs by code of its own: popcount parity by xor folding, a Walsh
transform applied axis by axis on a (2, 2, ..., 2) tensor, exact integer
weights built by doubling, and suffix sums of the residual terms.  The
check functions take plain numpy arrays, so the same check serves the CLI
output files and the in-process API results.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent arithmetic

def parity(x: np.ndarray) -> np.ndarray:
    """Popcount parity of each entry of a nonnegative int64 array."""
    x = np.array(x, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def walsh_coefficient(values: np.ndarray, sigma: int) -> complex:
    """c(sigma) = mean over points m of (-1)^|sigma & m| * values[m]."""
    points = np.arange(values.size, dtype=np.int64)
    signs = 1.0 - 2.0 * parity(points & sigma)
    return complex(np.dot(signs, values)) / values.size


def walsh_transform(values: np.ndarray) -> np.ndarray:
    """All normalized Walsh coefficients, one 2x2 Hadamard step per axis of
    the value vector viewed as a (2,)*bits tensor (axis -1-k is bit k)."""
    bits = values.size.bit_length() - 1
    require(values.size == 1 << bits, "value count must be a power of two")
    t = np.asarray(values, dtype=np.complex128).reshape((2,) * bits)
    for axis in range(bits):
        lo, hi = np.split(t, 2, axis=axis)
        t = np.concatenate((lo + hi, lo - hi), axis=axis)
    return t.reshape(-1) / values.size


def exact_weights(horizon: int) -> np.ndarray:
    """prod(k+1 for k in sigma) for every mask below 2^(horizon+1), as exact
    int64 (20! < 2^63, so horizons up to 19)."""
    require(horizon <= 19, "exact int64 weights need horizon <= 19")
    w = np.ones(1 << (horizon + 1), dtype=np.int64)
    for k in range(horizon + 1):
        half = 1 << k
        w[half:2 * half] = w[:half] * (k + 1)
    return w


def elements(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def mask_of(sigma) -> int:
    """Bitmask of a subset given as a JSON array, which must be strictly
    ascending nonnegative integers."""
    require(all(isinstance(k, int) and k >= 0 for k in sigma)
            and all(a < b for a, b in zip(sigma, sigma[1:])),
            f"subset {sigma!r} is not a strictly ascending index array")
    mask = 0
    for k in sigma:
        mask |= 1 << k
    return mask


def residual_curve(dense: np.ndarray, q: float, level: int) -> np.ndarray:
    """sqrt of the suffix sums of weight^(-2q) |c|^2 beyond {0..n}, n = 0..level."""
    horizon = dense.size.bit_length() - 2
    terms = np.abs(dense) ** 2 / exact_weights(horizon).astype(np.float64) ** (2.0 * q)
    suffix = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
    starts = np.minimum(1 << np.arange(1, level + 2), dense.size)
    return np.sqrt(suffix[starts])


# ---------------------------------------------------------------------------
# Checks: chaos expansion and synthesis

def check_expansion(f: np.ndarray, masks: np.ndarray, coeffs: np.ndarray,
                    samples: np.ndarray) -> None:
    """Coefficients (masks, coeffs) of the sample vector f: all present (f is
    seeded complex Gaussian, so none vanishes), each equal to the tensor
    Walsh transform of f, Parseval holds, and the sampled subsets match a
    direct sum over the cube."""
    scale = float(np.max(np.abs(f)))
    require(np.array_equal(masks, np.arange(f.size)),
            "expansion must list every subset once, in ascending bitmask order")
    err = np.abs(coeffs - walsh_transform(f))
    require(float(np.max(err)) <= 1e-9 * scale,
            f"coefficient at {elements(int(np.argmax(err)))} differs from the "
            f"Walsh transform by {float(np.max(err))!r}")
    parseval = float(np.sum(np.abs(coeffs) ** 2))
    energy = float(np.mean(np.abs(f) ** 2))
    require(abs(parseval - energy) <= 1e-9 * energy,
            f"Parseval: sum |c|^2 = {parseval!r}, E|f|^2 = {energy!r}")
    for sigma in samples:
        direct = walsh_coefficient(f, int(sigma))
        require(abs(coeffs[sigma] - direct) <= 1e-9 * scale,
                f"coefficient at {elements(int(sigma))}: {coeffs[sigma]!r} "
                f"!= direct sum {direct!r}")


def check_roundtrip(f: np.ndarray, g: np.ndarray) -> None:
    """synthesize(expand(f)) reproduces f to 1e-9 * max|f|."""
    require(g.shape == f.shape, f"synthesized {g.shape[0]} values, expected {f.size}")
    err = float(np.max(np.abs(g - f)))
    require(err <= 1e-9 * float(np.max(np.abs(f))), f"roundtrip error {err!r}")


# ---------------------------------------------------------------------------
# Checks: truncation approximant and residual curve

def check_approximant(in_masks: np.ndarray, in_values: np.ndarray, level: int,
                      out_masks: np.ndarray, out_values: np.ndarray) -> None:
    """The approximant equals the input on subsets of {0..level} and is
    absent elsewhere."""
    keep = in_masks < (1 << (level + 1))
    require(np.array_equal(out_masks, in_masks[keep]),
            "approximant support differs from the input's subsets of {0..n}")
    require(np.array_equal(out_values, in_values[keep]),
            "approximant values differ from the input on subsets of {0..n}")


def check_residuals(dense: np.ndarray, q: float, level: int,
                    residuals: np.ndarray) -> None:
    """Each residual matches the suffix-sum oracle; the curve never rises."""
    expected = residual_curve(dense, q, level)
    require(residuals.shape == expected.shape,
            f"{residuals.size} residuals, expected {expected.size}")
    err = np.abs(residuals - expected)
    require(np.all(err <= 1e-9 * expected),
            f"residual mismatch at n={int(np.argmax(err))}: "
            f"{float(residuals[np.argmax(err)])!r} vs {float(expected[np.argmax(err)])!r}")
    require(np.all(residuals[1:] <= residuals[:-1] * (1 + 1e-12)),
            "residual curve increases")


# ---------------------------------------------------------------------------
# Checks: martingale predicate and convergence verdicts

def check_converged(coeffs: np.ndarray, limit_masks: np.ndarray,
                    limit_values: np.ndarray, scale: float, order: float,
                    stab: np.ndarray, sup_abs: np.ndarray,
                    margin: np.ndarray) -> None:
    """Verdict on the classical martingale with limit coefficients coeffs:
    the limit matches them, every subset stabilises at its largest element,
    and the certificate covers every sup with margin >= -1e-12 * bound."""
    size = coeffs.size
    horizon = size.bit_length() - 2
    top = float(np.max(np.abs(coeffs)))
    dense = np.zeros(size, dtype=np.complex128)
    require(np.all(limit_masks < size), "limit has subsets beyond the horizon")
    dense[limit_masks] = limit_values
    require(float(np.max(np.abs(dense - coeffs))) <= 1e-12 * top,
            "limit differs from the Walsh transform of the seeded functional")
    masks = np.arange(size, dtype=np.int64)
    top_element = np.zeros(size, dtype=np.int64)
    for k in range(horizon + 1):
        top_element[masks >= (1 << k)] = k
    require(stab.shape == (size,), f"{stab.size} diagnostic rows, expected {size}")
    require(np.array_equal(stab, top_element),
            "stabilisation index differs from max(sigma)")
    require(np.allclose(sup_abs, np.abs(coeffs), rtol=1e-12, atol=0.0),
            "sup_abs differs from |limit coefficient|")
    bound = scale * exact_weights(horizon).astype(np.float64) ** order
    require(np.all(margin >= -1e-12 * bound), "certificate margin below -1e-12 * bound")
    require(np.allclose(margin, bound - sup_abs, rtol=1e-9, atol=1e-12 * scale),
            "certificate margin differs from bound - sup_abs")


def check_diverged(magnitudes: np.ndarray, witness: int, tail_start: int,
                   stab: np.ndarray, sup_abs: np.ndarray) -> None:
    """Verdict on the growing non-martingale whose term-by-subset magnitudes
    are given: the witness's tail magnitudes strictly increase, supported
    subsets move at every term, all others never move."""
    require(0 <= witness < magnitudes.shape[1], "witness outside the domain")
    tail = magnitudes[tail_start:, witness]
    require(tail.size >= 2 and np.all(np.diff(tail) > 0),
            f"witness {elements(witness)} does not grow through the tail")
    support = magnitudes[-1] > 0
    expected = np.where(support, magnitudes.shape[0] - 1, 0)
    require(np.array_equal(stab, expected),
            "stabilisation index wrong for the growing sequence")
    require(np.allclose(sup_abs, magnitudes.max(axis=0), rtol=1e-12, atol=0.0),
            "sup_abs differs from the largest input magnitude")
