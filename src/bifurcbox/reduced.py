"""The reduced k-variable functional of an eigenvalue group.

For an orthonormal eigenbasis e_1..e_k of a group and exponent p > 1, the
functional is

    F(a) = |a|^2 / 2 - (1/(p+1)) * integral |a .  e|^(p+1)

Its nontrivial critical points are what the branch predictor counts and
classifies.  At p = 3 the integral term is a fully symmetric 4-index
tensor T of eigenfunction products, each entry a product over the axes of
1-D four-sine integrals; the backend decides only how those are integrated:
in closed form (``exact-quartic``, p = 3 only, authoritative), or on a
tensor-product rule (``quadrature``, any p > 1; at p != 3 the functional is
summed over the tensor grid of its nodes).  One constructor,
``ReducedFunctional._on_rule``, builds every rule's functional from the
modes' 1-D sines at the nodes of each axis and the node weights: the
predictor's composite Gauss-Legendre panels aligned to the nodal lines of
the highest mode, and the verifier's grid sum, the trapezoid rule on the
interior nodes of the finite-difference grid.

Through T the batched gradient and Hessian are one matrix product: the
pair products a_l a_m of a block of rows times T read as a k^2 x k^2
matrix give Y[n, i, h] = sum_lm T_ihlm a_l a_m, so the Hessian is I - 3Y
and the gradient a - Y a, index roles exactly those of the contraction.
On a tensor grid each gradient component is a cubic whose monomial table
is contracted with the powers of the grid axis, one axis at a time (an
n-mode product).

Functionals are immutable after construction and their evaluators are pure.
"""

from __future__ import annotations

import functools
import itertools
import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PatternMismatch, SupercriticalExponentWarning
from .spectrum import DomainSpec, EigenGroup

_SIGNS4 = list(itertools.product((1, -1), repeat=4))


def _signed_zero_sum(f0, f1, f2, f3):
    """Sum of prod(s) over the sign vectors s with s . f = 0, for integer
    frequencies or integer arrays of them broadcast together."""
    return sum(np.prod(s) * (s[0] * f0 + s[1] * f1 + s[2] * f2 + s[3] * f3 == 0)
               for s in _SIGNS4)


def sine_product_zero_coefficient(freqs) -> Fraction:
    """Constant Fourier coefficient of prod_i sin(f_i u), exact.

    Writing each sine as complex exponentials, the mean value over a full
    period is (1/16) * sum over sign vectors s with s . f = 0 of prod(s).
    """
    f = tuple(int(x) for x in freqs)
    if len(f) != 4 or any(x < 1 for x in f):
        raise ValueError("need four positive integer frequencies")
    return Fraction(int(_signed_zero_sum(*f)), 16)


def sine_product_integral(freqs, length: float) -> float:
    """integral_0^L of prod_{i=1..4} sin(f_i pi x / L) dx, exact.

    Only the constant term of the product's cosine expansion survives
    integration over [0, L], so the value is L times the exact rational
    coefficient.  Vanishes by parity whenever sum(f_i) is odd.
    """
    return float(sine_product_zero_coefficient(freqs)) * float(length)


@dataclass(frozen=True)
class QuarticTensor:
    """Fully symmetric 4-index array of eigenfunction product integrals."""

    k: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.k,) * 4:
            raise ValueError("entries must have shape (k, k, k, k)")
        object.__setattr__(self, "entries", e)

    @classmethod
    def from_pattern(cls, k: int, alpha: float, beta: float) -> "QuarticTensor":
        """Synthetic tensor with diagonal alpha and pair coefficient beta.

        Entries are alpha on (i,i,i,i), beta on permutations of (i,i,l,l)
        with i != l, zero elsewhere; this is the structure box eigenbases
        with pairwise-distinct mode indices produce.
        """
        T = np.zeros((k,) * 4)
        for i in range(k):
            T[i, i, i, i] = alpha
        for i in range(k):
            for l in range(k):
                if i == l:
                    continue
                for idx in set(itertools.permutations((i, i, l, l))):
                    T[idx] = beta
        return cls(k, T)

    def symmetry_defect(self) -> float:
        """Max absolute deviation under the 24 index permutations."""
        worst = 0.0
        for perm in itertools.permutations(range(4)):
            worst = max(worst, float(np.max(np.abs(
                self.entries - np.transpose(self.entries, perm)))))
        return worst

    def to_json(self, p: float = 3.0) -> str:
        """Serialize as {k, p, entries} with entries in lexicographic
        multi-index order (C order)."""
        payload = {"k": self.k, "p": p, "entries": self.entries.ravel(order="C").tolist()}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> tuple["QuarticTensor", float]:
        payload = json.loads(text)
        k = int(payload["k"])
        entries = np.asarray(payload["entries"], dtype=float).reshape((k,) * 4)
        return cls(k, entries), float(payload["p"])


def build_quartic_tensor(group: EigenGroup, domain: DomainSpec) -> QuarticTensor:
    """Tensor of integrals of products of four group eigenfunctions.

    Each entry factorizes over axes into 1D sine-product integrals times
    the normalization (2/L_d)^2 per axis, i.e. prod_d 4 c0_d / L_d with
    c0_d the exact zero coefficient, all index combinations at once.  No
    sparsity pattern is assumed: every entry is computed, because index
    coincidences across modes can make nominally "odd" entries survive.
    """
    factors = [4.0 * (_signed_zero_sum(*np.ix_(n, n, n, n)) / 16.0) / L
               for n, L in zip(np.array([m.indices for m in group.modes]).T, domain.sides)]
    return QuarticTensor(group.k, functools.reduce(np.multiply, factors) + 0.0)  # no -0.0


@dataclass(frozen=True)
class RectCoefficients:
    """The two numbers that determine a pattern tensor: alpha = integral of
    e_i^4 (same for all i), beta = integral of e_i^2 e_l^2 (same for all
    i != l, zero for k = 1)."""

    alpha: float
    beta: float


def extract_rect_coefficients(tensor: QuarticTensor, rtol: float = 1e-10) -> RectCoefficients:
    """Verify the two-coefficient pattern and read (alpha, beta) off it.

    Raises :class:`PatternMismatch` when diagonal entries differ, pair
    entries differ, or any odd entry (an index appearing an odd number of
    times) fails to vanish within ``rtol`` relative to alpha.
    """
    k = tensor.k
    T = tensor.entries
    alpha = float(T[(0,) * 4])
    if alpha <= 0:
        raise PatternMismatch("diagonal entry must be positive")
    beta = float(T[0, 0, 1, 1]) if k > 1 else 0.0
    ideal = QuarticTensor.from_pattern(k, alpha, beta).entries
    defect = float(np.max(np.abs(T - ideal)))
    if defect > rtol * max(1.0, alpha):
        raise PatternMismatch(
            f"tensor deviates from (alpha, beta) pattern by {defect:.3e}"
        )
    return RectCoefficients(alpha, beta)


def _axis_panels(group: EigenGroup, domain: DomainSpec, nodes_per_panel: int,
                 panels_per_halfwave: int):
    """Per axis, composite Gauss-Legendre nodes and weights on [0, L_d]
    (see :meth:`ReducedFunctional.for_group`)."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    axes = []
    for d, L in enumerate(domain.sides):
        n_panels = panels_per_halfwave * max(m.indices[d] for m in group.modes)
        edges = np.linspace(0.0, L, n_panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        axes.append(((mid[:, None] + half[:, None] * x[None, :]).ravel(),
                     (half[:, None] * w[None, :]).ravel()))
    return axes


class ReducedFunctional:
    """Evaluators for the reduced functional, its gradient and Hessian.

    Construct with :meth:`for_group` (the normal path) or
    :meth:`from_tensor` (synthetic pattern tensors, p = 3).  The evaluators
    satisfy F(0) = 0 and F(-a) = F(a) identically.
    """

    def __init__(self, k, p, backend, tensor=None, group=None, domain=None,
                 quad_points=None, quad_weights=None):
        self.k = k
        self.p = float(p)
        self.backend = backend
        self.tensor = tensor
        self.group = group
        self.domain = domain
        self._E = quad_points      # (n_quad, k) eigenfunction values
        self._w = quad_weights     # (n_quad,)
        if self.p <= 1:
            raise ValueError("exponent p must exceed 1")
        if backend not in ("exact-quartic", "quadrature"):
            raise ValueError(f"unknown backend {backend!r}")
        if tensor is not None and self.p != 3.0:
            raise ValueError("a quartic tensor only represents p = 3")
        if backend == "exact-quartic" and tensor is None:
            raise ValueError("exact-quartic backend requires p = 3 and a quartic tensor")
        if tensor is None and (quad_points is None or quad_weights is None):
            raise ValueError("quadrature backend needs a quartic tensor or nodes and weights")
        # T[i, h, l, m] as the (ih, lm) matrix of the batched derivatives
        self._M = tensor.entries.reshape(k * k, k * k) if tensor is not None else None

    @classmethod
    def for_group(cls, group: EigenGroup, domain: DomainSpec, p: float = 3.0,
                  backend: str | None = None, nodes_per_panel: int = 12,
                  panels_per_halfwave: int = 1) -> "ReducedFunctional":
        """Build the functional for a group's eigenbasis.

        ``backend`` defaults to exact-quartic at p = 3 and quadrature
        otherwise; at p = 3 both build the quartic tensor.  Quadrature
        panels per axis cover one half-wavelength of the highest mode each
        (times ``panels_per_halfwave``), so the integrand is smooth on every
        panel for odd integer p and nearly so in general.
        """
        p = float(p)
        if domain.dimension == 3 and p > 5.0:
            warnings.warn(
                "p exceeds the critical exponent 5 for dimension 3; the "
                "reduced functional is well defined but PDE verification "
                "will refuse this exponent",
                SupercriticalExponentWarning,
                stacklevel=2,
            )
        if backend is None:
            backend = "exact-quartic" if p == 3.0 else "quadrature"
        if backend == "exact-quartic":
            tensor = build_quartic_tensor(group, domain) if p == 3.0 else None
            return cls(group.k, p, backend, tensor=tensor, group=group, domain=domain)
        panels = _axis_panels(group, domain, nodes_per_panel, panels_per_halfwave)
        return cls._on_rule(group, domain, p, [
            (np.sqrt(2.0 / L) * np.sin(np.pi / L * np.outer(x, n)), w)
            for n, L, (x, w) in zip(np.array([m.indices for m in group.modes]).T,
                                    domain.sides, panels)])

    @classmethod
    def _on_rule(cls, group: EigenGroup, domain: DomainSpec, p: float,
                 axes) -> "ReducedFunctional":
        """The quadrature functional of a tensor-product rule.  ``axes`` holds,
        per axis, the modes' normalised 1-D sines at the nodes, (nodes, k),
        and the node weights.  At p = 3 it is the quartic tensor
        prod_d sum_x w s_i s_h s_l s_m; at any other p the functional on the
        tensor grid of the nodes, E the axes' row-wise Khatri-Rao product and
        w their outer product, in C order of the grid."""
        k = group.k
        if p == 3.0:
            T = functools.reduce(np.multiply, [
                np.einsum("x,xi,xh,xl,xm->ihlm", w, S, S, S, S, optimize=True) for S, w in axes])
            return cls(k, p, "quadrature", tensor=QuarticTensor(k, T + 0.0),  # no -0.0
                       group=group, domain=domain)
        E = functools.reduce(lambda A, B: (A[:, None, :] * B[None, :, :]).reshape(-1, k),
                             [S for S, _ in axes])
        w = functools.reduce(np.multiply.outer, [w for _, w in axes]).ravel()
        return cls(k, p, "quadrature", group=group, domain=domain, quad_points=E,
                   quad_weights=w)

    @classmethod
    def from_tensor(cls, tensor: QuarticTensor, p: float = 3.0) -> "ReducedFunctional":
        return cls(tensor.k, p, "exact-quartic", tensor=tensor)

    # -- evaluation ------------------------------------------------------

    def _nonlinear_integral(self, a):
        """integral of |a . e|^(p+1)."""
        if self.tensor is not None:
            return float(np.einsum("ihlm,i,h,l,m->", self.tensor.entries, a, a, a, a))
        W = self._E @ a
        return float(np.sum(self._w * np.abs(W) ** (self.p + 1)))

    def value(self, a) -> float:
        a = np.asarray(a, dtype=float)
        return 0.5 * float(a @ a) - self._nonlinear_integral(a) / (self.p + 1.0)

    def gradient(self, a) -> np.ndarray:
        return self.gradient_many(np.asarray(a, dtype=float)[None])[0]

    def hessian(self, a) -> np.ndarray:
        return self.hessian_many(np.asarray(a, dtype=float)[None])[0]

    def _row_blocks(self, n_rows: int):
        """Row slices whose intermediates stay bounded: the pair products and
        their product with the tensor, 2 k^2 numbers per row, take about 2^21
        numbers a block; on the nodes, k per node and row, about 2^22."""
        if self.tensor is not None:
            step = max(1, 2**20 // self.k**2)
        else:
            step = max(1, 2**22 // (self.k * len(self._E)))
        return (slice(s, s + step) for s in range(0, n_rows, step))

    def _pair_contraction(self, B: np.ndarray) -> np.ndarray:
        """Y[n, i, h] = sum_lm T_ihlm B_nl B_nm, one BLAS product."""
        n, k = B.shape
        return ((B[:, :, None] * B[:, None, :]).reshape(n, k * k) @ self._M.T).reshape(n, k, k)

    def gradient_many(self, A) -> np.ndarray:
        """Gradient at each row of ``A``, in bounded-memory row blocks."""
        A = np.asarray(A, dtype=float)
        out = np.empty_like(A)
        for rows in self._row_blocks(len(A)):
            B = A[rows]
            if self.tensor is not None:
                out[rows] = B - (self._pair_contraction(B) @ B[:, :, None])[:, :, 0]
            else:
                W = B @ self._E.T
                out[rows] = B - (self._w * np.abs(W) ** (self.p - 1.0) * W) @ self._E
        return out

    def gradient_sq_grid(self, axis) -> np.ndarray:
        """|grad F|^2 at every point of a tensor grid, grid axis d indexing
        coordinate d: ``axis`` is one coordinate array per grid axis, or a
        single array for all k of them.

        Through the tensor: gradient component i is a cubic whose (4,)^k table of
        monomial coefficients (:meth:`_gradient_monomials`) is contracted
        with x_d^0..x_d^3 along every grid axis d, an n-mode (Tucker)
        product; the squared components are summed into the result one at a
        time, so two grid-sized arrays are held.  On the nodes (p != 3): the
        gradient of each row block (:meth:`gradient_many`) at points built from their
        flat grid indices.  Neither holds an (n_points, k) array.
        """
        axes = [np.asarray(x, float) for x in ([axis] * self.k if np.ndim(axis[0]) == 0 else axis)]
        G = np.zeros([len(x) for x in axes])
        if self.tensor is not None:
            powers = [x[:, None] ** np.arange(4) for x in axes]
            for g in self._gradient_monomials():
                for V in powers:  # contracts the leading table axis,
                    g = np.tensordot(g, V, axes=([0], [1]))  # appends a grid axis
                G += np.square(g, out=g)
            return G
        flat = G.reshape(-1)
        for rows in self._row_blocks(len(flat)):
            span = range(len(flat))[rows]
            idx = np.unravel_index(np.arange(span.start, span.stop), G.shape)
            g = self.gradient_many(np.column_stack([x[i] for x, i in zip(axes, idx)]))
            flat[rows] = np.sum(np.square(g, out=g), axis=1)
        return G

    def _gradient_monomials(self) -> np.ndarray:
        """(k,) + (4,)^k coefficients of the gradient's components
        a_i - sum_hlm T_ihlm a_h a_l a_m: entry [i, e_1, ..., e_k] multiplies
        prod_d a_d^e_d in component i (p = 3 only)."""
        k, T = self.k, self.tensor.entries
        P = np.zeros((k,) + (4,) * k)
        for h, l, m in itertools.product(range(k), repeat=3):
            P[(slice(None), *np.bincount((h, l, m), minlength=k))] -= T[:, h, l, m]
        for i, unit in enumerate(np.eye(k, dtype=int)):
            P[(i, *unit)] += 1.0
        return P

    def hessian_many(self, A) -> np.ndarray:
        """Hessians at the rows of ``A``, (n, k, k), in bounded-memory row blocks."""
        A = np.asarray(A, dtype=float)
        out = np.empty((len(A), self.k, self.k))
        for rows in self._row_blocks(len(A)):
            B = A[rows]
            if self.tensor is not None:
                out[rows] = np.eye(self.k) - 3.0 * self._pair_contraction(B)
            else:
                d = self._w * self.p * np.abs(B @ self._E.T) ** (self.p - 1.0)
                out[rows] = np.eye(self.k) - np.swapaxes(d[:, :, None] * self._E, 1, 2) @ self._E
        return out

    def mode_scale(self) -> float:
        """Amplitude where the single-mode terms balance: the largest of
        (integral |e_i|^(p+1))^(-1/(p-1)) over the basis.  Used to size
        search boxes and seed radii."""
        scales = []
        for i in range(self.k):
            unit = np.zeros(self.k)
            unit[i] = 1.0
            q = self._nonlinear_integral(unit)
            scales.append(q ** (-1.0 / (self.p - 1.0)))
        return max(scales)
