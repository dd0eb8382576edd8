"""Exact bin masses of photon-number-diagonal states on a bin lattice: the
oracle the proven sup bound of ``entropy.sdi_bound_check`` is held to.

The bins are the width-``delta`` intervals centred on ``offset + k*delta``.
The vacuum's bin [a, b] holds (erf(b) - erf(a)) / 2, and the ladder
identity d/dq (psi_n psi_{n-1}) = sqrt(2n) (psi_{n-1}^2 - psi_n^2) gives
every higher row from the one below it,

    P[n, j] = P[n-1, j] - [psi_n psi_{n-1}]_{a_j}^{b_j} / sqrt(2n),

so the wavefunction recurrence runs once over the shared bin edges.  No
grid, maximum or Lipschitz margin is taken, so the oracle shares nothing
with the bound but the wavefunctions, which ``test_states`` pins to
``scipy.special.eval_hermite``.
"""

import math

import numpy as np

from sdiqrng import states


def lattice_edges(delta, halfwidth, offset=0.0):
    """Edges of the lattice bins centred on ``offset + k*delta`` that cover
    [-halfwidth, halfwidth]."""
    k_max = int(math.ceil((halfwidth + delta) / delta))
    return offset + np.arange(-k_max, k_max + 2) * delta - delta / 2.0


def fock_bin_probabilities(n_max, edges):
    """Bin masses of Fock 0..n_max between consecutive ``edges``: shape
    (n_max + 1, edges.size - 1), row n for Fock n."""
    out = np.empty((n_max + 1, edges.size - 1))
    out[0] = np.diff(states._erf(edges)) / 2.0
    rows = states._fock_psi(n_max, edges)
    prev = next(rows)
    for n, psi in enumerate(rows, start=1):
        out[n] = out[n - 1] - np.diff(psi * prev) / math.sqrt(2.0 * n)
        prev = psi
    return out


def fock_components(state):
    """(weight, n) of each Fock component of a photon-number-diagonal state
    (Vacuum read as Fock 0); any other state raises ValueError."""
    if isinstance(state, states.Mixture):
        return state.components
    if isinstance(state, (states.Vacuum, states.Fock)):
        return ((1.0, getattr(state, "n", 0)),)
    raise ValueError("bin masses are defined for photon-number-diagonal states "
                     f"(Vacuum, Fock, Mixture), got {type(state).__name__}")


def max_bin_probabilities(state_list, delta, offset=0.0):
    """Largest mass one lattice bin captures, per state: the maximum over
    bins of the mixed distribution.  All states read one table over the
    window of the highest photon number among them."""
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    components = [fock_components(st) for st in state_list]
    if not components:
        return []
    n_max = max(n for comps in components for _, n in comps)
    edges = lattice_edges(delta, states.search_halfwidth(n_max), offset)
    probs = fock_bin_probabilities(n_max, edges)
    return [float(np.max(np.array([w for w, _ in comps]) @ probs[[n for _, n in comps]]))
            for comps in components]
