import numpy as np
import pytest
import scipy.sparse as sp

from elastmix._schur import SchurInverse, component_factors
from elastmix.assembly import assemble
from elastmix.grid import build_grid
from elastmix.material import LameParams

# anisotropic boxes with unequal subdivisions, most with an axis of one cell
CASES = [
    (2, [(0.0, 1.0), (-0.5, 2.0)], (4, 1), LameParams(0.7, 3.0)),
    (2, [(0.0, 1.0), (-0.5, 2.0)], (3, 5), LameParams(0.5, 1e4)),
    (3, [(0.0, 1.0), (-1.0, 0.5), (0.0, 0.3)], (2, 3, 1), LameParams(0.4, 1e2)),
    (
        4,
        [(0.0, 1.0), (-1.0, 0.5), (0.0, 0.3), (0.0, 2.0)],
        (2, 1, 3, 2),
        LameParams(0.5, 1.0),
    ),
]


def _assembled_schur(grid, material):
    """B diag(M)^-1 B^T from the sparse assembly, and each component's indices."""
    system = assemble(grid, material)
    B = system.B
    schur = (B @ sp.diags(1.0 / system.M.diagonal()) @ B.T).toarray()
    dim, ne = grid.dim, grid.n_elements
    # component c of element e, moment m, sits at 2 dim e + 2 c + m
    comps = [
        (np.arange(ne)[:, None] * 2 * dim + 2 * c + np.arange(2)).ravel()
        for c in range(dim)
    ]
    return schur, comps


def _kron_form(grid, c, A, C, L):
    """A (x) I + C (x) sum_j L_j in the component's numbering 2 e + m."""
    multi = np.repeat(grid.element_multi_array(), 2, axis=0)
    pair = 2 * multi[:, c] + np.tile([0, 1], grid.n_elements)
    others = [j for j in range(grid.dim) if j != c]
    same = {j: multi[:, j][:, None] == multi[:, j][None, :] for j in others}
    out = A[np.ix_(pair, pair)] * np.logical_and.reduce([same[j] for j in others])
    for j in others:
        rest = [same[k] for k in others if k != j]
        mask = np.logical_and.reduce(rest) if rest else True
        line = L[j][np.ix_(multi[:, j], multi[:, j])]
        out = out + C[np.ix_(pair, pair)] * line * mask
    return out


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_kronecker_factors_equal_assembled_schur_blocks(dim, box, subs, material):
    grid = build_grid(dim, box, subs)
    schur, comps = _assembled_schur(grid, material)
    for c, idx in enumerate(comps):
        block = schur[np.ix_(idx, idx)]
        kron = _kron_form(grid, c, *component_factors(grid, material, c))
        assert np.abs(kron - block).max() <= 1e-13 * np.abs(block).max()


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_schur_inverse_undoes_component_blocks(dim, box, subs, material):
    grid = build_grid(dim, box, subs)
    schur, comps = _assembled_schur(grid, material)
    block_diag = np.zeros_like(schur)
    for idx in comps:
        block_diag[np.ix_(idx, idx)] = schur[np.ix_(idx, idx)]
    x = np.random.default_rng(dim).standard_normal(schur.shape[0])
    y = SchurInverse(grid, material)(block_diag @ x)
    assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)
