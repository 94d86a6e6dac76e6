"""Time the library's layers: the best and the median of 15 runs per path, in
milliseconds, as one JSON line.

The paths are those of the per-layer table in ROADMAP.md (the Walsh-Hadamard
transform and the chaos expansion and synthesis at horizon 18, a rule read at
horizon 18, a residual curve, the normal-martingale verifier and the package
import), every sequence scan on the horizon-14 classical sequence (the
martingale predicate, the limit, uniform boundedness of its terms, the
convergence verdict and the verdict refusing an empty growth-order grid,
which reads about 0 ms since the grid is checked before any plan or read),
fit_growth over the default orders 0, 1, 2 on that sequence's last term,
the sparse scans, which read each term only at the union of the terms'
supports (the verdict on sequence B of the converge-verdicts workload, 24
terms storing 512 of its 8,192 masks, and the predicate and the limit on
the horizon-18 truncations of the approx-sparse-wide table, 4,096 of 2^19
masks), the product measure at minus_prob 0.3 (biased_probabilities) and the Walsh
function of the 5-element subset {0, 4, 9, 13, 18} at horizon 18, plus
sobolev_norm at order 1, the residual curve at order 1 over levels 0..12
(residual_curve, the path of `martfock approx --csv`) and
approximation_residual at each level 0..12 on the coefficient tables of
the approx-dense and approx-sparse-wide workloads
(seed 1, built by `bench/workloads.py`, imported and not changed; the
converge-verdicts workload writes its files to a temporary directory), and
subsets._pairwise_sum alone over the approx-sparse-wide table's order-1
residual terms from masks 2 and 2^13 on, which separates the sum from the
weights.  Each call is timed with time.perf_counter; the import is timed by
`python -X importtime` in a child process.  Keys ending in "_ms" hold
[best, median]; the two approximation_residual keys hold one such pair per
level 0..12.  The median shows what the best hides: in-process times of the
residual paths move with the allocator's state from run to run.

Usage: python3 tools/layers.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 15
SEED = 1


def summary_ms(times: list[float]) -> list[float]:
    """[best, median] of times in seconds, as milliseconds."""
    return [round(min(times) * 1e3, 4), round(statistics.median(times) * 1e3, 4)]


def timed_ms(call) -> list[float]:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return summary_ms(times)


def refused(call, *args, **kwargs) -> None:
    """Call, expecting its argument check to raise ValueError."""
    try:
        call(*args, **kwargs)
    except ValueError:
        return
    raise AssertionError(f"{call.__name__} did not refuse its arguments")


def import_ms() -> list[float]:
    """Cumulative `-X importtime` of `import martfock`, in a child."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(REPEATS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import martfock"],
                             env=env, capture_output=True, text=True, check=True).stderr
        line = next(line for line in err.splitlines() if line.split("|")[-1].strip() == "martfock")
        times.append(int(line.split("|")[1]) / 1e6)
    return summary_ms(times)


def workload_table(mf, workloads, name: str):
    """The workload's coefficient table at seed 1, and its domain."""
    cls = workloads.WORKLOADS[name]
    masks, values = cls.__new__(cls).coefficients(workloads.rng_for(SEED, name))
    dense = np.zeros(1 << (cls.horizon + 1), dtype=np.complex128)
    dense[masks] = values
    return mf.FockCoefficients.from_vector(dense, cls.horizon), mf.TruncatedDomain(cls.horizon)


def main() -> int:
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import martfock as mf
    import workloads

    space = mf.SampleSpace(18)
    rng = np.random.default_rng(SEED)
    f = mf.RandomFunctional(space, rng.standard_normal(space.size) + 0j)
    coefficients = mf.chaos_expand(f)
    classical = mf.classical_to_sequence(
        mf.RandomFunctional(mf.SampleSpace(14), rng.standard_normal(1 << 15) + 0j))
    h14 = mf.TruncatedDomain(14)
    out = {
        "fwht_h18_ms": timed_ms(lambda: mf.fwht(f.values)),
        "chaos_expand_h18_ms": timed_ms(lambda: mf.chaos_expand(f)),
        "synthesize_h18_ms": timed_ms(lambda: mf.synthesize(coefficients, space)),
        "all_ones_values_on_h18_ms": timed_ms(lambda: mf.all_ones().values_on(space.domain())),
        "residual_curve_all_ones_15_h16_ms": timed_ms(
            lambda: mf.residual_curve(mf.all_ones(), 15, 1.0, mf.TruncatedDomain(16))),
        "is_generalized_martingale_classical_h14_ms": timed_ms(
            lambda: mf.is_generalized_martingale(classical, h14)),
        "martingale_limit_classical_h14_ms": timed_ms(
            lambda: mf.martingale_limit(classical, h14)),
        "uniform_boundedness_classical_h14_ms": timed_ms(
            lambda: mf.uniform_boundedness(classical.terms, h14)),
        "strong_convergence_test_classical_h14_ms": timed_ms(
            lambda: mf.strong_convergence_test(classical, h14)),
        "strong_convergence_test_empty_grid_h14_ms": timed_ms(
            lambda: refused(mf.strong_convergence_test, classical, h14, p_grid=[])),
        "fit_growth_classical_last_term_h14_ms": timed_ms(
            lambda: mf.fit_growth(classical[-1], h14, mf.sequences.DEFAULT_P_GRID)),
        "verify_normal_martingale_h18_ms": timed_ms(lambda: mf.verify_normal_martingale(space)),
        "biased_probabilities_h18_ms": timed_ms(lambda: mf.biased_probabilities(space, 0.3)),
        "walsh_h18_ms": timed_ms(
            lambda: mf.walsh(space, mf.FiniteSubset.from_elements([0, 4, 9, 13, 18]))),
        "import_martfock_ms": import_ms(),
    }
    for name in ("approx-dense", "approx-sparse-wide"):
        phi, domain = workload_table(mf, workloads, name)
        out[f"sobolev_norm_{name}_ms"] = timed_ms(lambda: mf.sobolev_norm(phi, 1.0, domain))
        out[f"residual_curve_{name}_ms"] = timed_ms(
            lambda: mf.residual_curve(phi, 12, 1.0, domain))
        out[f"approximation_residual_{name}"] = [
            timed_ms(lambda: mf.approximation_residual(phi, n, 1.0, domain)) for n in range(13)]
    with tempfile.TemporaryDirectory() as work:
        verdicts = workloads.WORKLOADS["converge-verdicts"](SEED, Path(work))
    out["strong_convergence_test_converge-verdicts_B_h12_ms"] = timed_ms(
        lambda: mf.strong_convergence_test(verdicts.seq_b, verdicts.domain_b))
    phi, domain = workload_table(mf, workloads, "approx-sparse-wide")
    sparse = mf.FunctionalSequence([phi.restricted(mf.TruncatedDomain(n))
                                    for n in range(domain.max_index + 1)])
    out["is_generalized_martingale_sparse_truncations_h18_ms"] = timed_ms(
        lambda: mf.is_generalized_martingale(sparse, domain))
    out["martingale_limit_sparse_truncations_h18_ms"] = timed_ms(
        lambda: mf.martingale_limit(sparse, domain))
    masks, values = phi._entries_on(domain)
    masks = masks.view(np.int64)  # as weighted_sums passes them
    terms = mf.subsets.mask_weights(masks, domain.max_index) ** -2.0 * np.abs(values) ** 2
    for start in (2, 1 << 13):
        i = masks.searchsorted(start)
        out[f"pairwise_sum_approx-sparse-wide_from_{start}_ms"] = timed_ms(
            lambda: mf.subsets._pairwise_sum(masks[i:] - start, terms[i:], domain.size - start))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
