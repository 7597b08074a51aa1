"""Spectral helpers: ordering, matrix functions, norms, vectorization."""

import warnings

import numpy as np
import pytest

from quasirel import linalg, states
from quasirel.linalg import eigh, hermitian_part
from serial_search import trace_norm
from spectral_oracle import SpectralDomainError, eigvalsh_desc, mat_func


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def test_hermitian_part_symmetrizes_and_rejects():
    rng = _rng(1)
    h = _random_hermitian(4, rng)
    out = hermitian_part(h + 1e-14 * rng.standard_normal((4, 4)))
    np.testing.assert_allclose(out, out.conj().T)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_part(skew)
    for shape in ((2, 3), (4,), (3, 2, 3)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            hermitian_part(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(0.0, np.inf), complex(0.0, -np.inf),
                                 complex(0.5, np.inf)])
def test_hermitian_part_rejects_non_finite_entries(bad):
    # a NaN fails no < or > comparison, so the Hermiticity check alone passes
    # it; and A - A^dag is inf - inf wherever an infinity meets itself or
    # its mirror, which must raise no floating-point warning either
    good = np.diag([0.5, 0.5]).astype(complex)
    # a diagonal cell, a mirrored pair, and one off-diagonal cell whose
    # mirror stays finite
    for cells in (((0, 0),), ((0, 1), (1, 0)), ((1, 0),)):
        a = good.copy()
        for cell in cells:
            a[cell] = bad
        # one matrix, a stack, and a stack with the bad matrix after a good one
        for given in (a, a[np.newaxis], np.stack([good, a])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite entry"):
                    hermitian_part(given)


def test_hermitian_part_is_idempotent_bit_for_bit():
    # eigh decomposes an exactly Hermitian matrix as given on this premise
    rng = _rng(5)
    stack = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    h = hermitian_part((stack + stack.conj().swapaxes(-1, -2)) / 2.0
                       + 1e-14 * rng.standard_normal((6, 5, 5)))
    assert hermitian_part(h).tobytes() == h.tobytes()
    for a in (h, h[0]):  # a stack and one matrix
        given, validated = eigh(a), eigh(hermitian_part(a))
        assert given.eigenvalues.tobytes() == validated.eigenvalues.tobytes()
        assert given.eigenvectors.tobytes() == validated.eigenvectors.tobytes()


def test_state_stack_symmetrized_once(monkeypatch):
    # one hermitian_part per batch of pairs: rho's and sigma's stacks are
    # validated joined, rho's first
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return hermitian_part(a, *args, **kwargs)

    batch = states.random_pairs(3, states.trial_streams([(seed,) for seed in range(4)]))
    monkeypatch.setattr(linalg, "hermitian_part", counted)
    monkeypatch.setattr(states, "hermitian_part", counted)
    again = states.pair_batch(batch.rho, batch.sigma)
    assert calls == [(8, 3, 3)]
    for half in ("rho_spectral", "sigma_spectral"):
        for field in ("eigenvalues", "eigenvectors"):
            assert (getattr(getattr(again, half), field).tobytes()
                    == getattr(getattr(batch, half), field).tobytes())


def test_eigh_descending_and_reconstructs():
    rng = _rng(2)
    for dim in (2, 3, 5, 8):
        h = _random_hermitian(dim, rng)
        vals, vecs = eigh(h)
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-12)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(eigvalsh_desc(h), vals)


def test_norms_match_known_values():
    x = np.diag([3.0, -1.0, 0.5])
    assert trace_norm(x) == pytest.approx(4.5)
    # unitary invariance
    rng = _rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = np.linalg.qr(g)[0]
    assert trace_norm(u @ x @ u.conj().T) == pytest.approx(4.5)


def test_mat_func_agrees_with_series_identities():
    rng = _rng(4)
    h = _random_hermitian(4, rng)
    exp_h = mat_func(h, np.exp)
    np.testing.assert_allclose(mat_func(exp_h, np.log), h, atol=1e-10)
    np.testing.assert_allclose(
        mat_func(h, lambda v: v * v), h @ h, atol=1e-10
    )


def test_mat_func_rejects_out_of_domain():
    indefinite = np.diag([1.0, -2.0])
    with pytest.raises(SpectralDomainError):
        mat_func(indefinite, np.log)
    with pytest.raises(SpectralDomainError):
        mat_func(indefinite, np.sqrt)

