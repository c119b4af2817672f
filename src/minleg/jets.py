"""Second-order forward-mode jets.

A :class:`Jet` carries a scalar value together with its gradient and Hessian
with respect to ``d`` underlying real coordinates.  Arithmetic on jets
propagates derivatives through the chain rule, so any map written in jet
operations comes with first and second partials that are analytic: exact up
to rounding, with no truncation error.

A jet may carry a batch of points at once (vector-mode propagation): ``val``
has batch shape B, ``grad`` B + (d,) and ``hess`` B + (d, d), and every
operation acts pointwise along B; a single point is the case B = ().

Values may be real or complex.  Derivatives are always taken with respect to
real coordinates, so conjugation acts coefficient-wise and is a legal jet
operation.  The module-level helpers (:func:`sin`, :func:`cos`, :func:`exp`,
:func:`sqrt`, :func:`cis`, :func:`conj`) take and return jets.
"""

from __future__ import annotations

import numpy as np


class Jet:
    """Truncated second-order Taylor data of a scalar function of d reals."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val)
        self.grad = np.asarray(grad)
        self.hess = np.asarray(hess)

    @staticmethod
    def variables(u):
        """Jets for the coordinate functions at the point u, shape (d,), or at
        each point of a batch u, shape B + (d,)."""
        u = np.asarray(u, dtype=float)
        batch, d = u.shape[:-1], u.shape[-1]
        eye = np.eye(d)
        zero = np.zeros(batch + (d, d))
        return [Jet(u[..., i].copy(), np.broadcast_to(eye[i], batch + (d,)), zero)
                for i in range(d)]

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
            cross = self.grad[..., :, None] * other.grad[..., None, :]
            sv, ov = self.val[..., None], other.val[..., None]
            return Jet(
                self.val * other.val,
                self.grad * ov + sv * other.grad,
                self.hess * ov[..., None] + sv[..., None] * other.hess
                + cross + cross.swapaxes(-1, -2),
            )
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
    f1, f2 = f1[..., None], f2[..., None, None]
    return Jet(f0, f1 * x.grad, f1[..., None] * x.hess + f2 * (x.grad[..., :, None] * x.grad[..., None, :]))


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
