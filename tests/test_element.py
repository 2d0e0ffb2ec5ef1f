import numpy as np
import pytest

from elastmix.element import (
    disp_mass,
    eval_disp_basis,
    local_compliance_matrix,
    local_div_matrix,
    local_from_dofs,
    n_stress_dofs,
    stress_divdiv_gram,
    stress_dof_tags,
    stress_dofs,
    stress_l2_gram,
)
from elastmix.material import LameParams
from elastmix.quadrature import tensor_rule
from poly_utils import (
    quadrature_compliance_matrix,
    quadrature_disp_mass,
    quadrature_div_matrix,
    quadrature_divdiv_gram,
    quadrature_l2_gram,
    random_box,
)

UNIT_SQUARE = (np.zeros(2), np.ones(2))


def test_shape_function_counts():
    assert n_stress_dofs(2) == 10
    assert n_stress_dofs(3) == 21
    assert len(stress_dof_tags(2)) == 10
    assert len(stress_dof_tags(4)) == 36


@pytest.mark.parametrize("dim", [2, 3])
def test_duality_random_boxes(dim):
    # reconstructing from coefficients and re-measuring the DOFs must be the
    # identity, for 100 random draws on random boxes
    rng = np.random.default_rng(2024)
    nfun = n_stress_dofs(dim)
    for _ in range(50):
        box = random_box(dim, rng)
        coeffs = rng.standard_normal(nfun)
        poly = local_from_dofs(coeffs, box)
        measured = stress_dofs(poly, box)
        assert np.abs(measured - coeffs).max() <= 1e-12 * max(1.0, np.abs(coeffs).max())
    for _ in range(50):
        coeffs = rng.standard_normal(nfun)
        poly = local_from_dofs(coeffs, (np.zeros(dim), np.ones(dim)))
        measured = stress_dofs(poly, (np.zeros(dim), np.ones(dim)))
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
    poly = local_from_dofs(stress_dofs(field, box), box)
    pts = np.random.default_rng(13).uniform(box[0], box[1], size=(40, dim))
    assert np.abs(poly(pts) - field(pts)).max() <= 1e-12


def test_identity_field_dofs():
    def identity(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2))

    coeffs = stress_dofs(identity, UNIT_SQUARE)
    for tag, c in zip(stress_dof_tags(2), coeffs):
        expected = 0.0 if tag.kind == "shear_corner" else 1.0
        assert c == pytest.approx(expected, abs=1e-14)


def test_quadratic_diagonal_dofs():
    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 0] ** 2
        return out

    coeffs = stress_dofs(field, UNIT_SQUARE)
    # faces of sigma_11 at x1 = 0, 1 then its volume average
    assert coeffs[0] == pytest.approx(0.0, abs=1e-15)
    assert coeffs[1] == pytest.approx(1.0)
    assert coeffs[2] == pytest.approx(1.0 / 3.0)
    assert np.abs(coeffs[3:]).max() <= 1e-15


def test_bilinear_shear_dofs_are_corner_values():
    from elastmix.element import CORNERS

    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = out[:, 1, 0] = x[:, 0] * x[:, 1]
        return out

    coeffs = stress_dofs(field, UNIT_SQUARE)
    for tag, c in zip(stress_dof_tags(2), coeffs):
        if tag.kind != "shear_corner":
            continue
        ci, cj = CORNERS[tag.entity]
        assert c == pytest.approx(float(ci * cj), abs=1e-15)


def test_from_dofs_recovers_quadratic():
    coeffs = np.zeros(10)
    coeffs[0:3] = (0.0, 1.0, 1.0 / 3.0)
    poly = local_from_dofs(coeffs, UNIT_SQUARE)
    pts = np.linspace(0.05, 0.95, 7)[:, None] * np.ones((1, 2))
    assert np.allclose(poly(pts)[:, 0, 0], pts[:, 0] ** 2, atol=1e-14)


def test_shear_partition_of_unity():
    # corner coefficients (1, 1, 1, 1) give the constant 1
    coeffs = np.zeros(10)
    coeffs[6:10] = 1.0
    poly = local_from_dofs(coeffs, UNIT_SQUARE)
    pts = np.random.default_rng(1).uniform(0, 1, size=(20, 2))
    vals = poly(pts)
    assert np.allclose(vals[:, 0, 1], 1.0, atol=1e-14)
    assert np.allclose(vals[:, 1, 0], 1.0, atol=1e-14)


def test_from_dofs_wrong_length():
    with pytest.raises(ValueError):
        local_from_dofs(np.zeros(9), UNIT_SQUARE)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        local_div_matrix((np.zeros(2), np.array([1.0, 0.0])))


def test_compliance_reduces_to_gram():
    box = (np.array([0.2, -0.3]), np.array([1.0, 0.4]))
    mat = local_compliance_matrix(box, LameParams(mu=0.5, lam=0.0))
    assert np.allclose(mat, stress_l2_gram(box), atol=1e-13)


def test_compliance_identity_energy():
    # expand the identity tensor in the basis: all diagonal DOFs are 1
    coeffs = np.zeros(10)
    coeffs[0:6] = 1.0
    mat = local_compliance_matrix(UNIT_SQUARE, LameParams(mu=0.5, lam=1.0))
    assert coeffs @ mat @ coeffs == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("lam", [0.0, 1.0, 1e6])
@pytest.mark.parametrize("dim", [2, 3])
def test_compliance_spd(lam, dim):
    box = random_box(dim, np.random.default_rng(dim * 100 + int(lam) % 97))
    mat = local_compliance_matrix(box, LameParams(mu=0.7, lam=lam))
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_compliance_eigen_floor(dim):
    params = LameParams(mu=0.6, lam=4.0)
    box = random_box(dim, np.random.default_rng(99))
    mat = local_compliance_matrix(box, params)
    gram = stress_l2_gram(box)
    floor = params.compliance_floor(dim) * np.linalg.eigvalsh(gram).min()
    assert np.linalg.eigvalsh(mat).min() >= floor - 1e-12


def test_div_matrix_linear_stress():
    # sigma = [[x1, 0], [0, 0]] has divergence (1, 0)
    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 0]
        return out

    coeffs = stress_dofs(field, UNIT_SQUARE)
    moments = local_div_matrix(UNIT_SQUARE) @ coeffs
    # displacement basis order: (1, 0), (x1, 0), (0, 1), (0, x2)
    assert np.allclose(moments, [1.0, 0.5, 0.0, 0.0], atol=1e-14)


def test_div_matrix_constant_stress():
    def field(x):
        x = np.atleast_2d(x)
        base = np.array([[2.0, -1.0], [-1.0, 3.0]])
        return np.broadcast_to(base, (x.shape[0], 2, 2))

    coeffs = stress_dofs(field, UNIT_SQUARE)
    moments = local_div_matrix(UNIT_SQUARE) @ coeffs
    assert np.abs(moments).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_divergence_lands_in_displacement_space(dim):
    # L2 projection of each shape function's divergence onto the local
    # displacement space leaves no residual
    box = random_box(dim, np.random.default_rng(dim))
    lo, hi = box
    h = hi - lo
    vol = float(np.prod(h))
    pts, w = tensor_rule(3, dim)

    from elastmix.element import eval_stress_basis_div

    div = eval_stress_basis_div(dim, pts, h)
    psi = eval_disp_basis(dim, pts)
    gram = disp_mass(box)
    for a in range(n_stress_dofs(dim)):
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
    # on random boxes and materials, the exact local matrices are zero exactly
    # where the Gauss oracle holds only round-off, and agree with it elsewhere
    # up to that round-off, which scales with the largest entry
    rng = np.random.default_rng(40 + dim)
    for lam in (0.0, 1.0, 1e4, 1e8):
        box = random_box(dim, rng)
        material = LameParams(rng.uniform(0.2, 2.0), lam)
        pairs = [
            (local_compliance_matrix(box, material), quadrature_compliance_matrix(box, material)),
            (local_div_matrix(box), quadrature_div_matrix(box)),
            (stress_l2_gram(box), quadrature_l2_gram(box)),
            (stress_divdiv_gram(box), quadrature_divdiv_gram(box)),
            (disp_mass(box), quadrature_disp_mass(box)),
        ]
        for exact, oracle in pairs:
            significant = np.abs(oracle) > 1e-12 * np.abs(oracle).max()
            assert np.array_equal(exact != 0.0, significant)
            assert np.abs(exact - oracle).max() <= 1e-14 * np.abs(oracle).max()
            if exact.shape[0] == exact.shape[1]:
                assert np.array_equal(exact, exact.T)
