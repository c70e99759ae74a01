"""Mixed-precision trade-off -- the paper's future work, implemented.

Section VIII: "ExaGeoStat can run the factorization with mixed precision
blocks.  The application could dynamically adjust the number of
diagonals that use each precision in a trade-off between accuracy and
performance."  This bench produces that frontier on scenario (c): the
number of double-precision diagonals versus (a) the real-numerics
log-likelihood error and (b) the simulated iteration time.
"""

from conftest import emit

from repro.evaluate import format_table
from repro.geostat import mixed_precision_tradeoff
from repro.workload import Workload


def test_mixed_precision_frontier(benchmark):
    t = Workload.from_name("128").t
    bands = sorted({1, 2, 4, max(2, t // 4), max(3, t // 2), t})

    rows = benchmark.pedantic(
        mixed_precision_tradeoff,
        args=(bands,),
        kwargs={"scenario_key": "c", "n_points": 64, "seed": 1},
        rounds=1, iterations=1,
    )

    text = format_table(
        ["dp diagonals", "dp tile fraction", "loglik error", "iteration [s]"],
        [[r.dp_bands, f"{r.dp_fraction:.2f}", f"{r.loglik_error:.2e}",
          f"{r.iteration_time:.2f}"] for r in rows],
    )
    speedup = rows[-1].iteration_time / rows[0].iteration_time
    text += (
        f"\n\nall-SP-off-diagonal speedup vs full DP: {speedup:.2f}x "
        f"at loglik error {rows[0].loglik_error:.2e}"
    )
    emit("mixed_precision", text)

    # Frontier shape: full DP is exact and slowest; fewer DP diagonals
    # are faster and (weakly) less accurate.  Full DP is the reference
    # the error is computed against, so its error is bitwise zero by
    # construction and any tolerance would weaken the assertion.
    assert rows[-1].loglik_error == 0.0
    assert rows[0].iteration_time < rows[-1].iteration_time
    assert rows[0].loglik_error >= rows[-1].loglik_error
    assert speedup > 1.1
