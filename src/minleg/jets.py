"""Second-order forward-mode jets.

A :class:`Jet` carries a scalar value together with its gradient and Hessian
with respect to ``d`` underlying real coordinates.  Arithmetic on jets
propagates derivatives through the chain rule, so any map written in jet
operations comes with first and second partials that are analytic: exact up
to rounding, with no truncation error.

A jet may carry a batch of points at once (vector-mode propagation): ``val``
has batch shape B, ``grad`` and ``hess`` shapes that broadcast against
(d,) + B and (d, d) + B, and every operation acts pointwise along B; a single
point is the case B = ().  The batch axes come last, so each term of the
product and chain rules is one contiguous operation over the batch, not d or
d^2 short ones.  Operands broadcast as numpy arrays do, so on an
open mesh (one coordinate array per axis, as ``np.ix_`` builds them) a
function of one coordinate is computed along that coordinate's axis only,
and the product grid is formed by the first operation that mixes axes
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3 and 13).
Broadcasting changes which points an operation computes, never the bits of
any one of them.

Values may be real or complex.  Derivatives are always taken with respect to
real coordinates, so conjugation acts coefficient-wise and is a legal jet
operation.  The module-level helpers (:func:`sin`, :func:`cos`, :func:`exp`,
:func:`sqrt`, :func:`cis`, :func:`conj`) take and return jets.
"""

from __future__ import annotations

import numpy as np


class Jet:
    """Truncated second-order Taylor data of a scalar function of d reals.

    val has the batch shape B, grad (d,) + B and hess (d, d) + B, each up to
    broadcasting: the derivative axes lead, the batch axes follow.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val)
        self.grad = np.asarray(grad)
        self.hess = np.asarray(hess)

    @staticmethod
    def variables(u):
        """Jets for the d coordinate functions.

        u is a point, shape (d,), a point stack, shape B + (d,), or an open
        mesh: a tuple of d coordinate arrays that broadcast together to B.  A
        point stack is the trivial mesh of its own columns.  Each jet keeps
        the shape of its own coordinate array; its constant gradient, shape
        (d,) + ones, and zero Hessian, shape (d, d) + ones, have length-1
        batch axes.
        """
        if not isinstance(u, tuple):
            u = np.asarray(u, dtype=float)
            u = tuple(np.ascontiguousarray(np.moveaxis(u, -1, 0)))
        d = len(u)
        eye, zero = np.eye(d), np.zeros((d, d))
        eye.flags.writeable = zero.flags.writeable = False  # shared by every jet's views
        jets = []
        for i, x in enumerate(u):
            x = np.asarray(x, dtype=float)
            ones = (1,) * x.ndim
            jets.append(Jet(x, eye[i].reshape((d,) + ones), zero.reshape((d, d) + ones)))
        return jets

    # ---- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            sv, ov = self.val, other.val
            grad = self.grad * ov + sv * other.grad
            cross = self.grad[:, None] * other.grad[None, :]
            hess = self.hess * ov + sv * other.hess + cross + cross.swapaxes(0, 1)
            return Jet(sv * ov, grad, hess)
        return Jet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _chain(other, 1.0 / other.val, -1.0 / other.val**2, 2.0 / other.val**3)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return _chain(self, 1.0 / self.val, -1.0 / self.val**2, 2.0 / self.val**3) * other

    # ---- real-linear maps ------------------------------------------------

    def conj(self):
        return Jet(np.conj(self.val), np.conj(self.grad), np.conj(self.hess))

    def real_part(self):
        return Jet(np.real(self.val), np.real(self.grad), np.real(self.hess))


def _chain(x, f0, f1, f2):
    """Compose a scalar function with a jet given f(x), f'(x), f''(x)."""
    cross = x.grad[:, None] * x.grad[None, :]
    return Jet(f0, f1 * x.grad, f1 * x.hess + f2 * cross)


def sin(x):
    return _chain(x, np.sin(x.val), np.cos(x.val), -np.sin(x.val))


def cos(x):
    return _chain(x, np.cos(x.val), -np.sin(x.val), -np.cos(x.val))


def exp(x):
    e = np.exp(x.val)
    return _chain(x, e, e, e)


def sqrt(x):
    r = np.sqrt(x.val)
    return _chain(x, r, 0.5 / r, -0.25 / (r * x.val))


def cis(x):
    """exp(i*x) for a real jet."""
    return cos(x) + 1j * sin(x)


def conj(x):
    return x.conj()
