import os
import sys
from pathlib import Path

# single-threaded BLAS: reproducible reductions and no thread-pool thrash on
# small matrices (must be set before numpy loads)
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np  # noqa: E402 - after the thread settings above
import pytest  # noqa: E402


@pytest.fixture
def fail_below_eta(monkeypatch):
    """install(fault, threshold): make the solver fail at every eta below ``threshold``.

    Fault "quadrature" raises a QuadratureError from each kernel call that
    holds such a point; fault "xi" finds no root of the postulated-noise
    equation at such an eta.
    """
    from replica_markov import solver
    from replica_markov.single_symbol import QuadratureError

    def install(fault: str, threshold: float):
        if fault == "quadrature":
            moments = solver.channel_moments

            def faulty(table, eta, xi):
                if np.min(eta) < threshold:
                    raise QuadratureError(f"no stable value below eta={threshold}")
                return moments(table, eta, xi)

            monkeypatch.setattr(solver, "channel_moments", faulty)
        else:
            first_roots = solver._first_roots

            def faulty(h, rows, solved, lo, hi):
                xi = first_roots(h, rows, solved, lo, hi)
                return np.where([eta < threshold for _, eta in rows], np.nan, xi)

            monkeypatch.setattr(solver, "_first_roots", faulty)

    return install
