"""The block integrator: its G10/K21 rule, and rows whose bits are their
own."""

import numpy as np

from nlcasimir.quadrature import integrate


def test_the_rule_integrates_polynomials_of_degree_31_exactly():
    # K21 is exact to degree 31 and G10 to degree 19; the error estimate
    # is |K21 - G10|, so it is rounding only where G10 is exact too
    for degree, g10_exact in ((19, True), (31, False)):
        def f(rows, x):
            return (degree + 1) * x ** degree

        total, error, converged = integrate(f, np.array([[0.0, 1.0]]),
                                            1.0, abs_tol=np.inf)
        assert abs(total[0] - 1.0) <= 1e-15
        assert (error[0] <= 1e-15) == g10_exact
        assert converged[0]


def test_a_row_has_the_same_bits_in_any_batch_and_at_any_address():
    # random node values over e^-15..e^15: one row per integral, one panel
    # per row, nothing refined; a matrix product over the panels would give
    # a row bits that depend on its neighbours and on memory alignment
    rng = np.random.default_rng(16)
    values = np.exp(rng.uniform(-15.0, 15.0, (35, 64)))    # up to 64 nodes
    edges = np.column_stack([np.zeros(35), rng.uniform(0.5, 2.0, 35)])

    def block(rows, shift=0):
        def f(panels, x):
            # the rows' values, starting `shift` doubles into a fresh buffer
            buf = np.empty(x.size + shift)
            out = buf[shift:].reshape(x.shape)
            out[...] = values[rows][panels, :x.shape[1]]
            return out

        return integrate(f, edges[rows], 1.0, abs_tol=np.inf)

    whole = block(np.arange(35))
    assert whole[2].all()
    for size in (1, 3, 5, 7, 35):
        for shift in (0, 1, 3):
            for start in range(0, 35, size):
                rows = np.arange(start, min(start + size, 35))
                for got, want in zip(block(rows, shift), whole):
                    assert np.array_equal(got, want[rows])


def test_a_nan_row_misses_and_leaves_the_other_rows_alone():
    # NaN fails error > tol as well as error <= tol: rows 0 and 1 turn NaN
    # for x > 0.5 and must be reported unconverged, without a refinement
    # loop, while row 2 (sqrt x, refined at 1e-12) keeps its own bits
    def block(which):
        def f(panels, x):
            rows = which[panels][:, None]
            return np.where((rows < 2) & (x > 0.5), np.nan, np.sqrt(x))

        return integrate(f, np.tile([0.0, 1.0], (len(which), 1)), 1e-12)

    total, error, converged = block(np.arange(3))
    assert np.isnan(total[:2]).all() and np.isnan(error[:2]).all()
    assert converged.tolist() == [False, False, True]
    for got, want in zip((total, error, converged), block(np.array([2]))):
        assert got[2] == want[0]
