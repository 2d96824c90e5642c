"""The library process of the ``routes-deep`` workload.

Runs the Bareiss determinant, the EGF coefficients and the EGF's ODE
residual at r = 3 and prints one JSON line of digests, so the benchmark can
compare them with the recurrence without timing the comparison.

    PYTHONPATH=src python3 bench/routes.py DET_N EGF_N ODE_ORDER
"""

from __future__ import annotations

import hashlib
import json
import sys

import cayleyband

R = 3


def digest(polys) -> str:
    """SHA-256 of the polynomials' canonical term lists."""
    h = hashlib.sha256()
    for poly in polys:
        for (dx, dy), c in poly.sorted_terms():
            h.update(f"{dx},{dy},{c};".encode())
        h.update(b"\n")
    return h.hexdigest()


def run(det_n: int, egf_n: int, ode_order: int) -> dict:
    determinant = cayleyband.det_bareiss(cayleyband.band_matrix(R, det_n))
    coefficients = cayleyband.egf_coefficients(R, egf_n)
    residual = cayleyband.ode_residual(R, ode_order)
    return {"det": digest([determinant]), "egf": digest(coefficients), "residual_zero": residual.is_zero}


def expected(det_n: int, egf_n: int) -> dict:
    """The digests ``run`` must print, computed by the r-term recurrence."""
    table = cayleyband.band_continuants(R, max(det_n, egf_n))
    return {"det": digest([table[det_n]]), "egf": digest(table[: egf_n + 1]), "residual_zero": True}


if __name__ == "__main__":
    print(json.dumps(run(*(int(arg) for arg in sys.argv[1:4]))))
