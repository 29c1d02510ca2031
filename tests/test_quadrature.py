import multiprocessing
import warnings

import numpy as np
import pytest

import gupcert as g
from gupcert import measurement, quadrature
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
    assert np.array_equal(both[0], dense_sum(_wave, targets, nodes, coeff)[0])
    assert np.array_equal(both[1],
                          dense_sum(_wave, targets, nodes, np.conj(coeff))[0])


def test_single_vector_returns_the_blocked_product(data, monkeypatch):
    # 40 targets in 10-row blocks: the layout the plain blocked loop used;
    # one vector gives a 1-tuple, as any number of vectors gives a tuple
    targets, nodes, coeff = data[0][:40], data[1], data[2]
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1000)
    for kernel, c in ((_wave, coeff), (_lorentz, coeff.real.copy())):
        want = np.concatenate([kernel(targets[i:i + 10, None], nodes[None, :])
                               @ c for i in range(0, 40, 10)])
        got = dense_sum(kernel, targets, nodes, c)
        assert type(got) is tuple and len(got) == 1
        assert type(got[0]) is np.ndarray
        assert np.array_equal(got[0], want)
    (one,) = dense_sum(_wave, targets[:1], nodes, coeff)
    assert one.shape == (1,)
    assert np.array_equal(one, _wave(targets[:1, None], nodes[None, :]) @ coeff)


@pytest.mark.parametrize("entries", [1, 300, 1000, 4100])
def test_fourier_sums_do_not_depend_on_block_layout(data, monkeypatch,
                                                     entries):
    # 41 targets: plain 10-row blocks would leave a one-row block, whose
    # product rounds differently from the same row inside a larger block;
    # the half-lattice position density relies on this
    targets, nodes, coeff = data
    (whole,) = dense_sum(_wave, targets, nodes, coeff)
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", entries)
    assert np.array_equal(dense_sum(_wave, targets, nodes, coeff)[0], whole)


def _serial_blocks(kernel, targets, nodes, coeffs, rows):
    # the plain loop over dense_sum's blocks; a last single row joins the
    # block before it
    cuts = [*range(0, targets.size - 1, rows), targets.size]
    blocks = [kernel(targets[a:b, None], nodes[None, :])
              for a, b in zip(cuts, cuts[1:])]
    return [np.concatenate([block @ c for block in blocks]) for c in coeffs]


def _table_j_sum():
    """The kernel, targets, nodes and masses of a tabulated J sum."""
    calls = []

    def spy(*args):
        calls.append(args)
        return dense_sum(*args)

    t = np.linspace(-4.0, 4.0, 65)
    table = g.custom_acceptance(t, np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "dense_sum", spy)
        table.j(np.linspace(-9.0, 9.0, 41), 0.3)
    kernel, targets, nodes, masses = calls[0]
    return kernel, targets, nodes, (masses,)


@pytest.mark.parametrize("rows", [2, 3, 10])
def test_pooled_sums_equal_the_serial_block_loop(data, monkeypatch, rows):
    # the complex pair of the half-lattice position density, and the real
    # kernel of a tabulated J, whose last bit depends on the block layout;
    # the pool has two workers whatever the number of CPUs
    targets, nodes, coeff = data
    j_sum = _table_j_sum()
    pool = quadrature._pool()
    assert pool._max_workers == 2
    submitted = []
    submit = pool.submit
    monkeypatch.setattr(pool, "submit",
                        lambda *a: submitted.append(1) or submit(*a))
    for kernel, t, n, coeffs in ((_wave, targets, nodes,
                                  (coeff, np.conj(coeff))), j_sum):
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", rows * n.size)
        want = _serial_blocks(kernel, t, n, coeffs, rows)
        submitted.clear()
        got = dense_sum(kernel, t, n, *coeffs)
        assert len(submitted) == len(range(0, t.size - 1, rows))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # a one-block call runs on the calling thread
        submitted.clear()
        one = dense_sum(kernel, t[:rows + 1], n, *coeffs)
        assert not submitted
        assert all(np.array_equal(a, b[:rows + 1]) for a, b in zip(
            one, _serial_blocks(kernel, t[:rows + 1], n, coeffs, rows)))


def _x_density_in_child(conn, state):
    conn.send_bytes(g.x_density(state).values.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_builds_its_own_pool(monkeypatch):
    # a child inherits the parent's pool without its threads; it must drop
    # it, or its first multi-block sum waits forever
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 2 ** 12)
    state = g.catalog_state("random_fourier_q", g.make_params(1.0),
                            shape_args=[8], seed=11)
    want = g.x_density(state).values
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    with warnings.catch_warnings():  # fork of a threaded process warns
        warnings.simplefilter("ignore", DeprecationWarning)
        proc = ctx.Process(target=_x_density_in_child, args=(child, state))
        proc.start()
    child.close()
    try:
        got = parent.recv_bytes() if parent.poll(30.0) else None
        proc.join(10.0)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert got == want.tobytes()


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
    # fewer than three nodes hold no every-other-node subsample to compare
    # against
    assert quadrature.lattice_error(np.array([0.0, 1.0]),
                                    np.array([1.0, 3.0])) == 0.0
