import numpy as np
import pytest

import bifurcbox as bb


@pytest.fixture(scope="session")
def square():
    return bb.DomainSpec.square()


@pytest.fixture(scope="session")
def cube():
    return bb.DomainSpec.cube()


@pytest.fixture(scope="session")
def sq_g1(square):
    return bb.find_group(square, j=1)


@pytest.fixture(scope="session")
def sq_g5(square):
    return bb.find_group(square, eigenvalue=5)


@pytest.fixture(scope="session")
def sq_g50(square):
    return bb.find_group(square, eigenvalue=50)


@pytest.fixture(scope="session")
def cube_g6(cube):
    return bb.find_group(cube, j=2)


@pytest.fixture(scope="session")
def f_sq1(sq_g1, square):
    return bb.ReducedFunctional.for_group(sq_g1, square)


@pytest.fixture(scope="session")
def f_sq5(sq_g5, square):
    return bb.ReducedFunctional.for_group(sq_g5, square)


@pytest.fixture(scope="session")
def f_cube6(cube_g6, cube):
    return bb.ReducedFunctional.for_group(cube_g6, cube)


def node_functional(group, domain, p=3.0):
    """The quadrature functional summed over its Gauss-Legendre nodes at
    exponent ``p``.  At p = 3 ``for_group`` integrates the quartic tensor's
    axis factors on those nodes instead, so this keeps the node evaluators
    checked against the tensor there.  The nodes do not depend on p."""
    nodes = bb.ReducedFunctional.for_group(group, domain, p=2.0, backend="quadrature")
    return bb.ReducedFunctional(group.k, p, "quadrature", group=group, domain=domain,
                                quad_points=nodes._E, quad_weights=nodes._w)


# --- independent quadrature oracle (kept free of package quadrature code) --

def gauss_axis(length, n=96):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * length * (x + 1.0), 0.5 * length * w


def integrate_box(fn, sides, n=96):
    """Tensor-product Gauss quadrature of fn(*coords) over the box."""
    axes = [gauss_axis(L, n) for L in sides]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    vals = fn(*grids)
    for _, w in reversed(axes):
        vals = vals @ w
    return float(vals)


def fd_gradient(func, a, h=1e-6):
    a = np.asarray(a, dtype=float)
    g = np.zeros_like(a)
    for i in range(a.size):
        e = np.zeros_like(a)
        e[i] = h
        g[i] = (func(a + e) - func(a - e)) / (2 * h)
    return g


def fd_jacobian(vec_func, a, h=1e-6):
    a = np.asarray(a, dtype=float)
    cols = []
    for i in range(a.size):
        e = np.zeros_like(a)
        e[i] = h
        cols.append((vec_func(a + e) - vec_func(a - e)) / (2 * h))
    return np.column_stack(cols)
