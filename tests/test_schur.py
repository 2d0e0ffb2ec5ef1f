import tracemalloc

import numpy as np
import pytest

from elastmix import _schur
from elastmix._schur import SchurInverse, StressInverse, component_factors
from elastmix.assembly import assemble
from elastmix.grid import TensorGrid
from elastmix.material import LameParams

# anisotropic boxes with unequal subdivisions, most with an axis of one cell;
# then boxes whose axes share their 1D factors, so the inverses group them:
# the unit square and cube (one group each), equal N with unequal h (groups
# of one), and a 4D box with two equal axes and two unequal ones
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
    (2, [(0.0, 1.0)] * 2, (4, 4), LameParams(0.5, 1.0)),
    (3, [(0.0, 1.0)] * 3, (3, 3, 3), LameParams(0.6, 1e4)),
    (2, [(0.0, 1.0), (0.0, 2.0)], (3, 3), LameParams(0.5, 1.0)),
    (
        4,
        [(0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (-1.0, 0.0)],
        (2, 2, 3, 1),
        LameParams(0.45, 2.0),
    ),
]
# the number of groups of each case's Schur components
SCHUR_GROUPS = [2, 2, 3, 4, 1, 1, 2, 3]


def _entry_blocks(system):
    """Mb: the assembled M restricted to pairs of unknowns of the same tensor entry."""
    dofs, dim = system.dofs, system.dofs.grid.dim
    entry = np.empty(dofs.n_stress, dtype=int)
    for (i, j), nodal, start in dofs.families:
        size = int(np.prod(np.add(dofs.grid.subdivisions, nodal)))
        entry[start : start + size] = i * dim + j
    return system.M.toarray() * (entry[:, None] == entry[None, :])


def _assembled_schur(grid, material):
    """B Mb^-1 B^T from the sparse assembly, and each component's indices."""
    system = assemble(grid, material)
    B = system.B.toarray()
    schur = B @ np.linalg.solve(_entry_blocks(system), B.T)
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
    grid = TensorGrid(dim, box, subs)
    schur, comps = _assembled_schur(grid, material)
    for c, idx in enumerate(comps):
        block = schur[np.ix_(idx, idx)]
        kron = _kron_form(grid, c, *component_factors(grid, material, c))
        assert np.abs(kron - block).max() <= 1e-13 * np.abs(block).max()


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_schur_inverse_undoes_component_blocks(dim, box, subs, material):
    grid = TensorGrid(dim, box, subs)
    schur, comps = _assembled_schur(grid, material)
    block_diag = np.zeros_like(schur)
    for idx in comps:
        block_diag[np.ix_(idx, idx)] = schur[np.ix_(idx, idx)]
    x = np.random.default_rng(dim).standard_normal(schur.shape[0])
    y = SchurInverse(grid, material)(block_diag @ x)
    # the contractions run in single precision
    assert np.linalg.norm(y - x) <= 1e-5 * np.linalg.norm(x)


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_schur_inverse_scales_exactly_by_powers_of_two(dim, box, subs, material):
    grid = TensorGrid(dim, box, subs)
    inverse = SchurInverse(grid, material)
    x = np.random.default_rng(dim).standard_normal(2 * dim * grid.n_elements)
    y = inverse(x)
    assert y.dtype == np.float64
    for power in (300, -300):
        assert np.array_equal(inverse(np.ldexp(x, power)), np.ldexp(y, power))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_schur_inverse_of_huge_input_is_finite(dim, box, subs, material):
    grid = TensorGrid(dim, box, subs)
    inverse = SchurInverse(grid, material)
    x = np.random.default_rng(dim).uniform(0.5, 1.0, 2 * dim * grid.n_elements)
    y = inverse(1e300 * x)
    assert np.isfinite(y).all()
    expected = inverse(x)
    assert np.abs(y / 1e300 - expected).max() <= 1e-5 * np.abs(expected).max()


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_stress_inverse_undoes_entry_blocks(dim, box, subs, material):
    system = assemble(TensorGrid(dim, box, subs), material)
    x = np.random.default_rng(dim).standard_normal(system.dofs.n_stress)
    y = StressInverse(system.dofs, material)(_entry_blocks(system) @ x)
    assert np.linalg.norm(y - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("case, groups", zip(CASES, SCHUR_GROUPS))
def test_schur_factors_computed_once_per_group(monkeypatch, case, groups):
    dim, box, subs, material = case
    calls = []

    def counted(*args):
        calls.append(args[2])
        return component_factors(*args)

    monkeypatch.setattr(_schur, "component_factors", counted)
    SchurInverse(TensorGrid(dim, box, subs), material)
    assert len(calls) == groups


def _inverses(dim, box, subs, material):
    """Each inverse on the grid with a factory for fresh objects and an input."""
    grid = TensorGrid(dim, box, subs)
    dofs = assemble(grid, material).dofs
    rng = np.random.default_rng(sum(subs))
    return [
        (lambda: StressInverse(dofs, material), rng.standard_normal(dofs.n_stress)),
        (lambda: SchurInverse(grid, material), rng.standard_normal(dofs.n_disp)),
    ]


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_inverses_keep_their_input_and_write_out(dim, box, subs, material):
    for make, r in _inverses(dim, box, subs, material):
        inverse = make()
        kept = r.copy()
        fresh = inverse(r)
        # an axis-0 lattice of r is a Fortran-ordered view a solve could overwrite
        assert np.array_equal(r, kept)
        out = np.full_like(r, np.nan)
        assert inverse(r, out) is out
        assert np.array_equal(out, fresh)
        assert inverse(r) is not fresh
        assert np.array_equal(r, kept)


@pytest.mark.parametrize("dim, box, subs, material", CASES)
def test_inverses_carry_no_state_between_calls(dim, box, subs, material):
    for make, r in _inverses(dim, box, subs, material):
        inverse = make()
        s = np.random.default_rng(dim).standard_normal(r.size)
        first, second = inverse(r), inverse(s)
        assert np.array_equal(first, make()(r))
        assert np.array_equal(second, make()(s))


@pytest.mark.parametrize(
    "dim, subs", [(2, (96, 64)), (3, (12, 12, 12)), (3, (16, 12, 10)), (4, (6, 6, 5, 4))]
)
def test_inverse_apply_allocates_less_than_its_input(dim, subs):
    # the buffers are allocated with the plan; an apply with out allocates
    # only views and the ufuncs' iteration buffers (at most 8192 entries
    # each), so the grids are large enough for those to stay below the bound
    for make, r in _inverses(dim, [(0.0, 1.0)] * dim, subs, LameParams(0.5, 1.0)):
        inverse = make()
        out = np.empty_like(r)
        inverse(r, out)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            inverse(r, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.5 * r.nbytes
