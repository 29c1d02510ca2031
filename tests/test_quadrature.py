import numpy as np
import pytest

from gupcert import quadrature
from gupcert.quadrature import dense_sum


def _wave(t, n):
    return np.exp(1j * t * n)


def _lorentz(t, n):
    return 1.0 / (1.0 + (t - n) ** 2)


@pytest.fixture
def data():
    rng = np.random.default_rng(3)
    targets = np.sort(rng.uniform(-30.0, 30.0, 41))
    nodes = np.sort(rng.uniform(-2.0, 2.0, 100))
    coeff = rng.normal(size=100) + 1j * rng.normal(size=100)
    return targets, nodes, coeff


def test_two_vectors_equal_two_single_calls(data, monkeypatch):
    targets, nodes, coeff = data
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1000)  # 10-row blocks
    both = dense_sum(_wave, targets, nodes, coeff, np.conj(coeff))
    assert isinstance(both, tuple) and len(both) == 2
    assert np.array_equal(both[0], dense_sum(_wave, targets, nodes, coeff))
    assert np.array_equal(both[1],
                          dense_sum(_wave, targets, nodes, np.conj(coeff)))


def test_single_vector_returns_the_blocked_product(data, monkeypatch):
    # 40 targets in 10-row blocks: the layout the plain blocked loop used
    targets, nodes, coeff = data[0][:40], data[1], data[2]
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1000)
    for kernel, c in ((_wave, coeff), (_lorentz, coeff.real.copy())):
        want = np.concatenate([kernel(targets[i:i + 10, None], nodes[None, :])
                               @ c for i in range(0, 40, 10)])
        got = dense_sum(kernel, targets, nodes, c)
        assert type(got) is np.ndarray
        assert np.array_equal(got, want)
    one = dense_sum(_wave, targets[:1], nodes, coeff)
    assert one.shape == (1,)
    assert np.array_equal(one, _wave(targets[:1, None], nodes[None, :]) @ coeff)


@pytest.mark.parametrize("entries", [1, 300, 1000, 4100])
def test_fourier_sums_do_not_depend_on_block_layout(data, monkeypatch,
                                                     entries):
    # 41 targets: plain 10-row blocks would leave a one-row block, whose
    # product rounds differently from the same row inside a larger block;
    # the mirror pairing of the position density relies on this
    targets, nodes, coeff = data
    whole = dense_sum(_wave, targets, nodes, coeff)
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", entries)
    assert np.array_equal(dense_sum(_wave, targets, nodes, coeff), whole)


def test_panel_error_reads_the_trailing_legendre_coefficients():
    # a polynomial of degree below n - 4 has no trailing coefficients; a
    # function whose coefficients decay slowly keeps its estimate above the
    # actual error of the rule
    x, w = quadrature.composite_rule(np.linspace(0.0, 2.0, 5), 16)
    cubic = 1.0 + x - 2.0 * x ** 3
    assert quadrature.panel_error(w, cubic, 16) < 1e-12  # rounding only
    kink = np.abs(x - 0.3) ** 1.5  # inside the panel [0, 0.5]
    actual = abs(float(np.dot(w, kink)) - (0.3 ** 2.5 + 1.7 ** 2.5) / 2.5)
    assert actual <= quadrature.panel_error(w, kink, 16) <= 1e3 * actual


def test_lattice_error_is_the_subsampled_trapezoid_gap():
    x = np.linspace(-8.0, 8.0, 161)
    gauss = np.exp(-x * x / 2.0)
    assert quadrature.lattice_error(x, gauss) < 1e-14
    narrow = np.exp(-(x - 0.03) ** 2 / (2.0 * 0.08 ** 2))  # unresolved at 2h
    gap = abs(np.trapezoid(narrow, x) - np.trapezoid(narrow[::2], x[::2]))
    assert quadrature.lattice_error(x, narrow) == gap > 1e-4
    # an even node count leaves the last interval out of both sums
    assert quadrature.lattice_error(x[:-1], narrow[:-1]) == abs(
        np.trapezoid(narrow[:-2], x[:-2])
        - np.trapezoid(narrow[:-2:2], x[:-2:2]))


def test_rules_of_degenerate_inputs():
    # an all-zero density has zero entropy, and fewer than three nodes hold
    # no every-other-node subsample to compare against
    assert quadrature.entropy_sum(np.ones(4), np.zeros(4)) == 0.0
    assert quadrature.lattice_error(np.array([0.0, 1.0]),
                                    np.array([1.0, 3.0])) == 0.0
