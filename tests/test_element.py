import numpy as np
import pytest

from elastmix.element import (
    disp_mass,
    div_map,
    element_table,
    local_compliance_matrix,
    local_div_matrix,
    stress_l2_gram,
)
from elastmix.material import LameParams
from poly_utils import (
    eval_disp_basis,
    eval_stress_basis,
    eval_stress_basis_div,
    local_dofs,
    local_field,
    quadrature_compliance_matrix,
    quadrature_disp_mass,
    quadrature_div_matrix,
    quadrature_divdiv_gram,
    quadrature_l2_gram,
    random_box,
    random_spacing,
    tensor_rule,
)

UNIT_SQUARE = (np.zeros(2), np.ones(2))


def test_shape_function_counts():
    for dim in (2, 3, 4):
        table = element_table(dim)
        assert len(table) == 2 * dim * dim + dim
        diagonal = [dof for dof in table if dof.entry[0] == dof.entry[1]]
        assert len(diagonal) == 3 * dim


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_shape_functions_dual_to_interpolation(dim):
    # interp_stress of shape function a, measured by quadrature of entity
    # averages, is the unit vector e_a in element-table order
    box = random_box(dim, np.random.default_rng(60 + dim))
    lo, hi = box
    nfun = len(element_table(dim))
    for a in range(nfun):
        coeffs = local_dofs(lambda x: eval_stress_basis(dim, (x - lo) / (hi - lo))[a], box)
        assert np.abs(coeffs - np.eye(nfun)[a]).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_duality_random_boxes(dim):
    # reconstructing from coefficients and re-measuring the DOFs must be the
    # identity, for 100 random draws on random boxes and on the unit box
    rng = np.random.default_rng(2024)
    nfun = len(element_table(dim))
    boxes = [random_box(dim, rng) for _ in range(50)] + [(np.zeros(dim), np.ones(dim))] * 50
    for box in boxes:
        coeffs = rng.standard_normal(nfun)
        value, _ = local_field(coeffs, box)
        measured = local_dofs(value, box)
        assert np.abs(measured - coeffs).max() <= 1e-12 * max(1.0, np.abs(coeffs).max())


@pytest.mark.parametrize("dim", [2, 3])
def test_local_space_reproduction(dim):
    # fields with diagonal quadratics in their own axis and bilinear shear
    # are reproduced exactly
    rng = np.random.default_rng(5)
    diag = rng.standard_normal((dim, 3))
    shear = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            shear[(i, j)] = rng.standard_normal(4)

    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], dim, dim))
        for i in range(dim):
            a, b, c = diag[i]
            out[:, i, i] = a + b * x[:, i] + c * x[:, i] ** 2
        for (i, j), (a, b, c, d) in shear.items():
            vals = a + b * x[:, i] + c * x[:, j] + d * x[:, i] * x[:, j]
            out[:, i, j] = vals
            out[:, j, i] = vals
        return out

    box = random_box(dim, np.random.default_rng(11))
    value, _ = local_field(local_dofs(field, box), box)
    pts = np.random.default_rng(13).uniform(box[0], box[1], size=(40, dim))
    assert np.abs(value(pts) - field(pts)).max() <= 1e-12


def test_identity_field_dofs():
    def identity(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2))

    coeffs = local_dofs(identity, UNIT_SQUARE)
    for dof, c in zip(element_table(2), coeffs):
        expected = 1.0 if dof.entry[0] == dof.entry[1] else 0.0
        assert c == pytest.approx(expected, abs=1e-14)


def test_quadratic_diagonal_dofs():
    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 0] ** 2
        return out

    coeffs = local_dofs(field, UNIT_SQUARE)
    # faces of sigma_11 at x1 = 0, 1 then its volume average
    assert coeffs[0] == pytest.approx(0.0, abs=1e-15)
    assert coeffs[1] == pytest.approx(1.0)
    assert coeffs[2] == pytest.approx(1.0 / 3.0)
    assert np.abs(coeffs[3:]).max() <= 1e-15


def test_bilinear_shear_dofs_are_corner_values():
    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = out[:, 1, 0] = x[:, 0] * x[:, 1]
        return out

    coeffs = local_dofs(field, UNIT_SQUARE)
    for dof, c in zip(element_table(2), coeffs):
        if dof.entry == (0, 1):
            ci, cj = dof.offset
            assert c == pytest.approx(float(ci * cj), abs=1e-15)


def test_from_dofs_recovers_quadratic():
    coeffs = np.zeros(10)
    coeffs[0:3] = (0.0, 1.0, 1.0 / 3.0)
    value, _ = local_field(coeffs, UNIT_SQUARE)
    pts = np.linspace(0.05, 0.95, 7)[:, None] * np.ones((1, 2))
    assert np.allclose(value(pts)[:, 0, 0], pts[:, 0] ** 2, atol=1e-14)


def test_shear_partition_of_unity():
    # corner coefficients (1, 1, 1, 1) give the constant 1
    coeffs = np.zeros(10)
    coeffs[6:10] = 1.0
    value, _ = local_field(coeffs, UNIT_SQUARE)
    pts = np.random.default_rng(1).uniform(0, 1, size=(20, 2))
    vals = value(pts)
    assert np.allclose(vals[:, 0, 1], 1.0, atol=1e-14)
    assert np.allclose(vals[:, 1, 0], 1.0, atol=1e-14)


def test_degenerate_box_rejected():
    # every local matrix is public, so each checks the cell spacing it is given
    material = LameParams(mu=0.5, lam=1.0)
    for local in (
        lambda h: local_compliance_matrix(h, material),
        local_div_matrix, stress_l2_gram, disp_mass, div_map,
    ):
        for spacing in ([1.0, 0.0], [1.0, -0.5], [1.0, np.nan], [1.0, np.inf], [[1.0, 1.0]]):
            with pytest.raises(ValueError, match="spacing"):
                local(spacing)


def test_compliance_reduces_to_gram():
    h = np.array([0.8, 0.7])
    mat = local_compliance_matrix(h, LameParams(mu=0.5, lam=0.0))
    assert np.allclose(mat, stress_l2_gram(h), atol=1e-13)


def test_compliance_identity_energy():
    # expand the identity tensor in the basis: all diagonal DOFs are 1
    coeffs = np.zeros(10)
    coeffs[0:6] = 1.0
    mat = local_compliance_matrix(np.ones(2), LameParams(mu=0.5, lam=1.0))
    assert coeffs @ mat @ coeffs == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("lam", [0.0, 1.0, 1e6])
@pytest.mark.parametrize("dim", [2, 3])
def test_compliance_spd(lam, dim):
    h = random_spacing(dim, np.random.default_rng(dim * 100 + int(lam) % 97))
    mat = local_compliance_matrix(h, LameParams(mu=0.7, lam=lam))
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_compliance_eigen_floor(dim):
    params = LameParams(mu=0.6, lam=4.0)
    h = random_spacing(dim, np.random.default_rng(99))
    mat = local_compliance_matrix(h, params)
    gram = stress_l2_gram(h)
    floor = np.linalg.eigvalsh(gram).min() / params.trace_factor(dim)
    assert np.linalg.eigvalsh(mat).min() >= floor - 1e-12


def test_div_matrix_linear_stress():
    # sigma = [[x1, 0], [0, 0]] has divergence (1, 0)
    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 0]
        return out

    coeffs = local_dofs(field, UNIT_SQUARE)
    moments = local_div_matrix(np.ones(2)) @ coeffs
    # displacement basis order: (1, 0), (x1, 0), (0, 1), (0, x2)
    assert np.allclose(moments, [1.0, 0.5, 0.0, 0.0], atol=1e-14)


def test_div_matrix_constant_stress():
    def field(x):
        x = np.atleast_2d(x)
        base = np.array([[2.0, -1.0], [-1.0, 3.0]])
        return np.broadcast_to(base, (x.shape[0], 2, 2))

    coeffs = local_dofs(field, UNIT_SQUARE)
    moments = local_div_matrix(np.ones(2)) @ coeffs
    assert np.abs(moments).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_divergence_lands_in_displacement_space(dim):
    # L2 projection of each shape function's divergence onto the local
    # displacement space leaves no residual
    h = random_spacing(dim, np.random.default_rng(dim))
    vol = float(np.prod(h))
    pts, w = tensor_rule(3, dim)

    div = eval_stress_basis_div(dim, pts, h)
    psi = eval_disp_basis(dim, pts)
    gram = disp_mass(h)
    for a in range(len(element_table(dim))):
        moments = vol * np.einsum("qi,bqi,q->b", div[a], psi, w)
        proj = np.linalg.solve(gram, moments)
        resid_sq = vol * np.einsum(
            "qi,qi,q->", div[a] - np.einsum("b,bqi->qi", proj, psi),
            div[a] - np.einsum("b,bqi->qi", proj, psi), w,
        )
        scale = max(1.0, vol * float(np.einsum("qi,qi,q->", div[a], div[a], w)))
        assert abs(resid_sq) <= (1e-13) ** 2 * scale + 1e-26


def test_displacement_basis_moments():
    psi = eval_disp_basis(2, np.array([[0.25, 0.75]]))
    assert np.allclose(psi[:, 0, :], [[1, 0], [0.25, 0], [0, 1], [0, 0.75]])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_local_matrices_exact_zeros_match_quadrature(dim):
    # on random spacings and materials, the exact local matrices are zero exactly
    # where the Gauss oracle holds only round-off, and agree with it elsewhere
    # up to that round-off, which scales with the largest entry
    rng = np.random.default_rng(40 + dim)
    for lam in (0.0, 1.0, 1e4, 1e8):
        h = random_spacing(dim, rng)
        material = LameParams(rng.uniform(0.2, 2.0), lam)
        pairs = [
            (local_compliance_matrix(h, material), quadrature_compliance_matrix(h, material)),
            (local_div_matrix(h), quadrature_div_matrix(h)),
            (stress_l2_gram(h), quadrature_l2_gram(h)),
            (disp_mass(h), quadrature_disp_mass(h)),
        ]
        for exact, oracle in pairs:
            significant = np.abs(oracle) > 1e-12 * np.abs(oracle).max()
            assert np.array_equal(exact != 0.0, significant)
            assert np.abs(exact - oracle).max() <= 1e-14 * np.abs(oracle).max()
            if exact.shape[0] == exact.shape[1]:
                assert np.array_equal(exact, exact.T)


def _random_spacings(dim):
    rng = np.random.default_rng(70 + dim)
    return [random_spacing(dim, rng) for _ in range(4)]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_div_map_solves_the_div_matrix(dim):
    # a backward-stable solve: the residual is round-off of ||M_u|| ||D||
    for h in _random_spacings(dim):
        div, mass = div_map(h), disp_mass(h)
        assert div.shape == (2 * dim, len(element_table(dim)))
        residual = np.linalg.norm(mass @ div - local_div_matrix(h))
        assert residual <= 1e-15 * np.linalg.norm(mass, 2) * np.linalg.norm(div)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_div_map_matches_pointwise_divergence(dim):
    # the mapped coefficients in the displacement basis are the divergence
    # of the shape function at every point, not only its projection
    xi = np.random.default_rng(dim).uniform(size=(20, dim))
    psi = eval_disp_basis(dim, xi)
    for h in _random_spacings(dim):
        mapped = np.einsum("ba,bqi->aqi", div_map(h), psi)
        oracle = eval_stress_basis_div(dim, xi, h)
        assert np.abs(mapped - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_div_map_gram_matches_quadrature(dim):
    # D^T M_u D is the div-div Gram of the stress basis
    for h in _random_spacings(dim):
        div = div_map(h)
        oracle = quadrature_divdiv_gram(h)
        assert np.abs(div.T @ disp_mass(h) @ div - oracle).max() <= 1e-14 * np.abs(oracle).max()
