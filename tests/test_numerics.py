import numpy as np
import pytest

from gridvolt.numerics import (
    SVD_ORTHOGONALITY_TOL,
    SVD_RECONSTRUCTION_RTOL,
    SingularMatrixError,
    _apply_sign_convention,
    invert,
    lu_factor,
    lu_solve,
    lu_solve_factored,
    svd,
    top_singular_pair,
)

# ---------------------------------------------------------------------------
# Independent oracle, written before the implementation under test: power
# iteration with deflation recovers the eigenvalues of a symmetric PSD
# matrix without any shared code path with the SVD under test.


def power_iteration_eigs(a: np.ndarray, tol: float = 1e-14,
                         max_iter: int = 20000) -> np.ndarray:
    a = np.array(a, dtype=float)
    n = a.shape[0]
    eigs = []
    work = a.copy()
    for _ in range(n):
        v = np.ones(n) / np.sqrt(n)
        lam = 0.0
        for _ in range(max_iter):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                lam = 0.0
                break
            v_new = w / norm
            lam_new = float(v_new @ work @ v_new)
            if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
                v = v_new
                lam = lam_new
                break
            v, lam = v_new, lam_new
        eigs.append(lam)
        work = work - lam * np.outer(v, v)
    return np.sort(np.array(eigs))[::-1]


def test_oracle_sanity_on_diagonal():
    got = power_iteration_eigs(np.diag([5.0, 2.0, 1.0]))
    assert np.allclose(got, [5.0, 2.0, 1.0], atol=1e-10)


# --------------------------------------------------------------------------- lu


def test_lu_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(lu_solve(np.eye(3), b), b)


def test_lu_solve_cofactor_2x2():
    # det([[15,-5],[-5,9]]) = 110; inverse by cofactors gives the expected
    # solution of a unit load on the first coordinate.
    a = np.array([[15.0, -5.0], [-5.0, 9.0]])
    x = lu_solve(a, np.array([1.0, 0.0]))
    assert np.allclose(x, [9.0 / 110.0, 5.0 / 110.0], atol=1e-14)


def test_lu_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_lu_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((3, 3)), np.zeros(3))


def test_lu_residual_bound_1000_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        try:
            x = lu_solve(a, b)
        except SingularMatrixError:
            continue
        norm_a = np.max(np.sum(np.abs(a), axis=1))
        resid = np.max(np.abs(a @ x - b))
        bound = 1e-9 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
        assert resid <= bound


def test_lu_factor_reconstructs():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    fac = lu_factor(a)
    lower = np.tril(fac.lu, -1) + np.eye(6)
    upper = np.triu(fac.lu)
    assert np.allclose(lower @ upper, a[fac.piv], atol=1e-12)


def test_lu_solve_agrees_with_hand_factorization():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((n, n)) + n * np.eye(n)  # well-conditioned
        fac = lu_factor(a)
        for b in (rng.standard_normal(n),
                  rng.standard_normal((n, int(rng.integers(1, 5))))):
            x = lu_solve(a, b)
            ref = lu_solve_factored(fac, b)
            assert x.shape == ref.shape
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_lu_solve_exactly_singular_3x3_raises_singular_error():
    # Row 1 is twice row 0: LAPACK meets an exactly zero pivot, and its
    # LinAlgError must surface as SingularMatrixError.
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.ones(3))


@pytest.mark.parametrize("a, b", [
    (np.ones((2, 3)), np.ones(2)),                      # not square
    (np.eye(3), np.ones(2)),                            # rhs row count
    (np.eye(3), np.ones((4, 2))),                       # 2-D rhs row count
    (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),  # non-finite
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2)),
])
def test_lu_solve_rejects_bad_input(a, b):
    with pytest.raises(ValueError):
        lu_solve(a, b)


# ------------------------------------------------------------------------ invert


def test_invert_cofactor_2x2():
    a = np.array([[15.0, -5.0], [-5.0, 9.0]])
    expected = np.array([[9.0, 5.0], [5.0, 15.0]]) / 110.0
    assert np.allclose(invert(a), expected, atol=1e-14)


def test_invert_identity():
    assert np.allclose(invert(np.eye(5)), np.eye(5), atol=1e-15)


def test_invert_diagonal():
    assert np.allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]),
                       atol=1e-15)


def test_invert_twice_is_identity_map():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n)) + n * np.eye(n)  # well-conditioned
        assert np.allclose(invert(invert(a)), a, atol=1e-7)


# --------------------------------------------------------------------------- svd


def check_svd_contract(a: np.ndarray):
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    res = svd(a)
    assert res.u.shape == (m, m)
    assert res.vt.shape == (n, n)
    assert res.sigma.shape == (min(m, n),)
    assert np.all(res.sigma >= 0.0)
    assert np.all(np.diff(res.sigma) <= 1e-15)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(m))) <= SVD_ORTHOGONALITY_TOL
    assert np.max(np.abs(res.vt @ res.vt.T - np.eye(n))) <= SVD_ORTHOGONALITY_TOL
    recon = res.u[:, :len(res.sigma)] @ np.diag(res.sigma) @ res.vt[:len(res.sigma)]
    denom = max(np.linalg.norm(a), 1e-300)
    assert np.linalg.norm(recon - a) / denom <= SVD_RECONSTRUCTION_RTOL \
        or np.linalg.norm(a) == 0.0
    for k in range(m):
        col = res.u[:, k]
        assert col[int(np.argmax(np.abs(col)))] >= 0.0
    return res


def test_svd_diagonal():
    res = check_svd_contract(np.diag([3.0, 1.0]))
    assert np.allclose(res.sigma, [3.0, 1.0], atol=1e-14)
    assert np.allclose(np.abs(res.u), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(res.vt), np.eye(2), atol=1e-14)


def test_svd_rank_one_1x1():
    res = check_svd_contract(np.array([[25.0 / 81.0]]))
    assert res.sigma[0] == pytest.approx(0.30864197530864196, abs=1e-15)


def test_svd_matches_power_iteration_oracle_on_psd():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = rng.standard_normal((6, 6))
        a = g @ g.T  # symmetric PSD
        res = check_svd_contract(a)
        oracle = power_iteration_eigs(a)
        assert np.allclose(res.sigma, oracle, atol=1e-8)


def test_svd_values_match_lapack():
    # second independent route: LAPACK through numpy
    rng = np.random.default_rng(18)
    for _ in range(50):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 16))
        a = rng.standard_normal((m, n))
        got = svd(a).sigma
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(got, ref, atol=1e-10 * max(1.0, ref[0]))


def test_svd_rectangular_both_orientations():
    rng = np.random.default_rng(19)
    check_svd_contract(rng.standard_normal((7, 3)))
    check_svd_contract(rng.standard_normal((3, 7)))


def test_svd_zero_and_rank_deficient():
    check_svd_contract(np.zeros((4, 3)))
    w = np.array([2.0, -1.0, 0.5])
    res = check_svd_contract(np.outer(w, w))
    assert res.sigma[0] == pytest.approx(float(w @ w), abs=1e-12)
    assert res.sigma[1] <= 1e-12
    assert res.sigma[2] <= 1e-12


def test_svd_values_invariant_under_row_permutation():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 5))
    sig = svd(a).sigma
    for _ in range(5):
        perm = rng.permutation(8)
        assert np.allclose(svd(a[perm]).sigma, sig, atol=1e-9)


def test_svd_u_equals_v_for_symmetric_psd():
    rng = np.random.default_rng(29)
    g = rng.standard_normal((5, 5))
    a = g @ g.T
    res = svd(a)
    for k in range(5):
        u_col = res.u[:, k]
        v_col = res.vt[k, :]
        agree = min(np.max(np.abs(u_col - v_col)), np.max(np.abs(u_col + v_col)))
        assert agree <= 1e-9


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_svd_nonconvergence_raises_convergence_error(monkeypatch):
    import gridvolt.numerics as numerics

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(numerics.SvdConvergenceError, match="did not converge"):
        svd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _sign_convention_loop(u, sigma, vt):
    # Per-column reference for the vectorised sign convention.
    r = len(sigma)
    for k in range(u.shape[0]):
        j = int(np.argmax(np.abs(u[:, k])))
        if u[j, k] < 0:
            u[:, k] = -u[:, k]
            if k < r:
                vt[k, :] = -vt[k, :]
    for k in range(r, vt.shape[0]):
        j = int(np.argmax(np.abs(vt[k, :])))
        if vt[k, j] < 0:
            vt[k, :] = -vt[k, :]
    return u, vt


def test_sign_convention_matches_per_column_loop():
    rng = np.random.default_rng(47)
    shapes = [(1, 1), (1, 6), (6, 1), (3, 9), (9, 3), (12, 12)]
    shapes += [tuple(int(d) for d in rng.integers(1, 13, size=2))
               for _ in range(100)]
    for m, n in shapes:
        a = rng.standard_normal((m, n))
        if rng.random() < 0.3:
            a = np.outer(a[:, 0], a[0])  # rank one
        u, sigma, vt = np.linalg.svd(a)
        ref_u, ref_vt = _sign_convention_loop(u.copy(), sigma, vt.copy())
        res = _apply_sign_convention(u, sigma, vt)
        assert np.array_equal(res.u, ref_u), (m, n)
        assert np.array_equal(res.vt, ref_vt), (m, n)


def test_svd_deterministic():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((9, 9))
    r1, r2 = svd(a), svd(a)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.sigma, r2.sigma)
    assert np.array_equal(r1.vt, r2.vt)


# ------------------------------------------------------------ top_singular_pair


def test_top_pair_rank_one_1x1():
    sigma_sq, u1 = top_singular_pair(np.array([[25.0 / 81.0]]))
    assert sigma_sq == pytest.approx(25.0 / 81.0, abs=1e-15)
    assert np.allclose(u1, [1.0])


def test_top_pair_diagonal():
    sigma_sq, u1 = top_singular_pair(np.diag([4.0, 1.0]))
    assert sigma_sq == pytest.approx(4.0, abs=1e-14)
    assert np.allclose(u1, [1.0, 0.0], atol=1e-14)


def test_top_pair_outer_product():
    rng = np.random.default_rng(37)
    for _ in range(10):
        w = rng.standard_normal(6)
        sigma_sq, u1 = top_singular_pair(np.outer(w, w))
        assert sigma_sq == pytest.approx(float(w @ w), rel=1e-12)
        aligned = min(np.max(np.abs(u1 - w / np.linalg.norm(w))),
                      np.max(np.abs(u1 + w / np.linalg.norm(w))))
        assert aligned <= 1e-10
        assert np.linalg.norm(u1) == pytest.approx(1.0, abs=1e-12)


def test_top_pair_agrees_with_svd():
    rng = np.random.default_rng(41)
    g = rng.standard_normal((7, 7))
    a = g @ g.T
    sigma_sq, u1 = top_singular_pair(a)
    res = svd(a)
    assert abs(sigma_sq - res.sigma[0]) <= 1e-9
    assert np.max(np.abs(u1 - res.u[:, 0])) <= 1e-9


def test_top_pair_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetric"):
        top_singular_pair(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_top_pair_rejects_indefinite():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        top_singular_pair(np.diag([4.0, -1.0]))


def test_top_pair_rejects_indefinite_with_tied_singular_values():
    # eigenvalues +1 and -1: both singular values are 1, so a singular pair
    # alone cannot tell this matrix from the identity
    with pytest.raises(ValueError, match=r"negative eigenvalue ~-1\.000e\+00"):
        top_singular_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sigma_sq, u1 = top_singular_pair(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert sigma_sq == pytest.approx(1.5, abs=1e-15)
    assert np.allclose(u1, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
