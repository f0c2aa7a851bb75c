import importlib
import pkgutil

import numpy as np
import pytest

import gridvolt
from gridvolt import numerics
from gridvolt.numerics import (
    LU_PIVOT_RTOL,
    SingularMatrixError,
    SvdConvergenceError,
    check_condition,
    lu_factor,
    lu_solve,
    lu_solve_factored,
    top_singular_pair,
)

from conftest import lu_inverse

# ---------------------------------------------------------------------------
# Independent oracle, written before the implementation under test: power
# iteration with deflation recovers the eigenvalues of a symmetric PSD
# matrix without any shared code path with the eigensolver under test.


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


# ----------------------------------------------- full inverse through the LU


def test_invert_cofactor_2x2():
    a = np.array([[15.0, -5.0], [-5.0, 9.0]])
    expected = np.array([[9.0, 5.0], [5.0, 15.0]]) / 110.0
    assert np.allclose(lu_inverse(a), expected, atol=1e-14)


def test_invert_identity():
    assert np.allclose(lu_inverse(np.eye(5)), np.eye(5), atol=1e-15)


def test_invert_diagonal():
    assert np.allclose(lu_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]),
                       atol=1e-15)


def test_invert_twice_is_identity_map():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n)) + n * np.eye(n)  # well-conditioned
        assert np.allclose(lu_inverse(lu_inverse(a)), a, atol=1e-7)


# ------------------------------------- inverse: lu_solve against the identity


def inverse(a) -> np.ndarray:
    """The inverse as the program forms it: LAPACK's solve against the
    identity."""
    return lu_solve(a, np.eye(len(a)))


def test_inverse_agrees_with_the_hand_factorization():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((n, n)) + n * np.eye(n)  # well-conditioned
        ref = lu_inverse(a)
        assert np.max(np.abs(inverse(a) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.allclose(inverse([[15.0, -5.0], [-5.0, 9.0]]),
                       np.array([[9.0, 5.0], [5.0, 15.0]]) / 110.0, atol=1e-14)


@pytest.mark.parametrize("a", [
    np.zeros((3, 3)),
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]]),
    np.diag([1e-310, 1.0]),  # finite pivots, an inverse beyond float range
])
def test_inverse_of_singular_or_overflowing_matrix_raises_singular_error(a):
    with pytest.raises(SingularMatrixError):
        inverse(a)


@pytest.mark.parametrize("a", [
    np.ones((2, 3)),
    np.ones(3),
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
])
def test_inverse_rejects_bad_input(a):
    with pytest.raises(ValueError):
        inverse(a)


# ------------------------------------------------- a non-finite right-hand side


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rhs_is_blamed_on_the_rhs_not_the_matrix(bad):
    # the matrix is well-conditioned, so the fault is the right-hand side's:
    # a ValueError naming it, as a non-finite matrix gets, never a
    # SingularMatrixError
    fac = lu_factor(np.eye(2))
    for b in ([bad, 1.0], [[1.0, 0.0], [bad, 1.0]]):
        for solve in (lambda b: lu_solve(np.eye(2), b),
                      lambda b: lu_solve_factored(fac, b)):
            with pytest.raises(ValueError, match="right-hand side") as exc:
                solve(b)
            assert not isinstance(exc.value, SingularMatrixError)


def test_hand_solve_overflowing_past_a_tiny_pivot_is_singular():
    # the factorization has only nonzero pivots; the solution overflows, and
    # that is the matrix's fault, as in lu_solve
    fac = lu_factor(np.diag([1e-310, 1.0]))
    with pytest.raises(SingularMatrixError, match="solution is not finite"):
        lu_solve_factored(fac, np.eye(2))


def test_lu_factor_refuses_only_an_exactly_zero_pivot():
    # singularity to working precision is check_condition's to judge
    for a in (np.zeros((3, 3)), np.ones((2, 2))):
        with pytest.raises(SingularMatrixError, match="zero pivot"):
            lu_factor(a)
    a = np.diag([1.0, 1e-300])
    fac = lu_factor(a)
    assert np.array_equal(fac.lu, a) and np.array_equal(fac.piv, [0, 1])
    # cond_1 of [[1, 1], [1, 1 + d]] is about 4/d: a pivot of d = 1e-13
    # passes the factorization and fails the condition rule
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    a_inv = lu_solve_factored(lu_factor(a), np.eye(2))
    with pytest.raises(SingularMatrixError, match="condition estimate"):
        check_condition(a, a_inv)


# ------------------------------------------------------------ check_condition


def test_check_condition_passes_a_well_conditioned_or_empty_matrix():
    a = np.array([[4.0, 1.0], [2.0, 3.0]])
    check_condition(a, inverse(a))
    check_condition(np.eye(3), np.eye(3))
    check_condition(np.zeros((0, 0)), np.zeros((0, 0)))


def test_check_condition_bound_is_the_pivot_tolerance():
    # 1-norm condition number of diag(1, d) is 1/d
    below = np.diag([1.0, 2.0 * LU_PIVOT_RTOL])
    check_condition(below, inverse(below))
    at = np.diag([1.0, LU_PIVOT_RTOL / 2.0])
    with pytest.raises(SingularMatrixError,
                       match=r"^condition estimate >= 2\.000e\+12$"):
        check_condition(at, inverse(at))


def test_check_condition_norm_overflow_is_singular_not_a_warning():
    # every entry finite, the inverse's column sum beyond float range
    a_inv = np.array([[1.5e308, 0.0], [1.5e308, 1.0]])
    with pytest.raises(SingularMatrixError, match="condition estimate >= inf"):
        check_condition(np.linalg.inv(a_inv), a_inv)


def test_only_the_sensitivity_model_binds_the_hand_lu():
    # the hand LU serves the model's Schur complement alone; every other
    # solve goes to LAPACK
    modules = [importlib.import_module(f"gridvolt.{info.name}")
               for info in pkgutil.iter_modules(gridvolt.__path__)]
    for name in ("lu_factor", "lu_solve_factored"):
        binders = {m.__name__ for m in modules
                   if m is not numerics and any(
                       value is getattr(numerics, name)
                       for value in vars(m).values())}
        assert binders == {"gridvolt.sensitivity"}, name


# ------------------------------------------------------------ top_singular_pair


def random_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    g = rng.standard_normal((n, n if rank is None else rank))
    return g @ g.T


def check_top_pair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """The top pair of ``a`` with its contract checked: unit norm, an
    eigenpair to working precision, the largest singular value, and the
    largest-magnitude entry of ``u1`` non-negative."""
    sigma, u1 = top_singular_pair(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert u1.shape == (a.shape[0],)
    assert abs(np.linalg.norm(u1) - 1.0) <= 1e-12
    assert np.linalg.norm(a @ u1 - sigma * u1) <= 1e-10 * scale
    assert abs(sigma - np.linalg.svd(a, compute_uv=False)[0]) <= 1e-10 * scale
    assert u1[int(np.argmax(np.abs(u1)))] >= 0.0
    return sigma, u1


def test_top_pair_rank_one_1x1():
    sigma_sq, u1 = check_top_pair(np.array([[25.0 / 81.0]]))
    assert sigma_sq == pytest.approx(25.0 / 81.0, abs=1e-15)
    assert np.allclose(u1, [1.0])


def test_svd_rank_one_1x1():
    sigma, _ = check_top_pair(np.array([[25.0 / 81.0]]))
    assert sigma == pytest.approx(0.30864197530864196, abs=1e-15)


def test_top_pair_diagonal():
    sigma_sq, u1 = check_top_pair(np.diag([4.0, 1.0]))
    assert sigma_sq == pytest.approx(4.0, abs=1e-14)
    assert np.allclose(u1, [1.0, 0.0], atol=1e-14)


def test_svd_diagonal():
    sigma, u1 = check_top_pair(np.diag([3.0, 1.0]))
    assert sigma == pytest.approx(3.0, abs=1e-14)
    assert np.allclose(u1, [1.0, 0.0], atol=1e-14)
    sigma, u1 = check_top_pair(np.diag([1.0, 3.0]))
    assert sigma == pytest.approx(3.0, abs=1e-14)
    assert np.allclose(u1, [0.0, 1.0], atol=1e-14)


def test_top_pair_outer_product():
    rng = np.random.default_rng(37)
    for _ in range(10):
        w = rng.standard_normal(6)
        sigma_sq, u1 = check_top_pair(np.outer(w, w))
        assert sigma_sq == pytest.approx(float(w @ w), rel=1e-12)
        aligned = min(np.max(np.abs(u1 - w / np.linalg.norm(w))),
                      np.max(np.abs(u1 + w / np.linalg.norm(w))))
        assert aligned <= 1e-10
        assert np.linalg.norm(u1) == pytest.approx(1.0, abs=1e-12)


def lapack_top_pair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """LAPACK's top singular pair through numpy, its vector's free sign
    fixed by the rule ``top_singular_pair`` documents."""
    u, sigma, _ = np.linalg.svd(a)
    ref = u[:, 0] if u[np.argmax(np.abs(u[:, 0])), 0] >= 0 else -u[:, 0]
    return float(sigma[0]), ref


def test_top_pair_agrees_with_svd():
    a = random_psd(np.random.default_rng(41), 7)
    sigma_sq, u1 = check_top_pair(a)
    sigma, ref = lapack_top_pair(a)
    assert abs(sigma_sq - sigma) <= 1e-9
    assert np.max(np.abs(u1 - ref)) <= 1e-9


def test_svd_values_match_lapack():
    # second independent route: LAPACK's SVD through numpy
    rng = np.random.default_rng(18)
    for _ in range(50):
        a = random_psd(rng, int(rng.integers(1, 16)))
        sigma_sq, u1 = check_top_pair(a)
        sigma, ref = lapack_top_pair(a)
        assert abs(sigma_sq - sigma) <= 1e-10 * max(1.0, sigma)
        assert np.max(np.abs(u1 - ref)) <= 1e-9


def test_top_pair_matches_power_iteration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_psd(rng, 6)
        sigma_sq, _ = check_top_pair(a)
        assert sigma_sq == pytest.approx(power_iteration_eigs(a)[0], abs=1e-8)


def test_top_pair_zero_and_rank_deficient():
    sigma_sq, u1 = check_top_pair(np.zeros((4, 4)))
    assert sigma_sq == 0.0
    w = np.array([2.0, -1.0, 0.5])
    sigma_sq, u1 = check_top_pair(np.outer(w, w))
    assert sigma_sq == pytest.approx(float(w @ w), abs=1e-12)
    assert np.max(np.abs(u1 - w / np.linalg.norm(w))) <= 1e-12
    rng = np.random.default_rng(19)
    for rank in (1, 2, 3):
        check_top_pair(random_psd(rng, 7, rank))


def test_top_pair_invariant_under_symmetric_permutation():
    rng = np.random.default_rng(23)
    a = random_psd(rng, 8)
    sigma_sq, u1 = top_singular_pair(a)
    for _ in range(5):
        perm = rng.permutation(8)
        got_sq, got_u1 = top_singular_pair(a[np.ix_(perm, perm)])
        assert abs(got_sq - sigma_sq) <= 1e-9 * sigma_sq
        assert np.max(np.abs(got_u1 - u1[perm])) <= 1e-9


def test_top_pair_sign_convention_holds_whatever_sign_lapack_returns(monkeypatch):
    rng = np.random.default_rng(29)
    a = random_psd(rng, 5)
    want_sq, want_u1 = top_singular_pair(a)
    eigh = np.linalg.eigh

    def negated_eigh(m):
        eigvals, eigvecs = eigh(m)
        return eigvals, -eigvecs

    monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
    got_sq, got_u1 = top_singular_pair(a)
    assert got_sq == want_sq
    assert np.array_equal(got_u1, want_u1)


def test_top_pair_rejects_nonfinite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            top_singular_pair(np.array([[1.0, bad], [bad, 1.0]]))


def test_top_pair_nonconvergence_raises_convergence_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(SvdConvergenceError, match="did not converge"):
        top_singular_pair(np.eye(2))


def test_top_pair_deterministic():
    rng = np.random.default_rng(31)
    a = random_psd(rng, 9)
    (s1, u1), (s2, u2) = top_singular_pair(a), top_singular_pair(a)
    assert s1 == s2
    assert np.array_equal(u1, u2)


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
