"""Scalar algebra: dual numbers, quaternions, dual quaternions.

All types are immutable value objects. The nilpotent rule eps**2 = 0 is
structural: no product ever produces a second-order dual term.
"""

import math
from dataclasses import dataclass

from .errors import DivisionUndefined, NotAppreciable, NotInvertible, ZeroInput

__all__ = [
    "DualNumber",
    "Quaternion",
    "DualQuaternion",
    "project_unit_dual_quaternion",
]


@dataclass(frozen=True)
class DualNumber:
    """Dual number st + du*eps with real parts."""

    st: float = 0.0
    du: float = 0.0

    def __add__(self, other):
        other = _as_dual(other)
        if other is None:
            return NotImplemented
        return DualNumber(self.st + other.st, self.du + other.du)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual(other)
        if other is None:
            return NotImplemented
        return DualNumber(self.st - other.st, self.du - other.du)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return DualNumber(-self.st, -self.du)

    def __mul__(self, other):
        other = _as_dual(other)
        if other is None:
            return NotImplemented
        return DualNumber(self.st * other.st, self.st * other.du + self.du * other.st)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division with the degenerate branch's free constant fixed to 0."""
        other = _as_dual(other)
        if other is None:
            return NotImplemented
        if other.st != 0.0:
            return DualNumber(
                self.st / other.st,
                self.du / other.st - self.st * other.du / (other.st * other.st),
            )
        if self.st == 0.0 and other.du != 0.0:
            return DualNumber(self.du / other.du, 0.0)
        raise DivisionUndefined(f"cannot divide {self} by {other}")

    def reciprocal(self) -> "DualNumber":
        if self.st == 0.0:
            raise DivisionUndefined("reciprocal needs an appreciable dual number")
        return DualNumber(1.0 / self.st, -self.du / (self.st * self.st))

    # lexicographic total order: standard part first, then dual part
    def _cmp(self, other):
        """-1, 0 or 1, or None when other is not a real or dual number."""
        other = _as_dual(other)
        if other is None:
            return None
        for a, b in ((self.st, other.st), (self.du, other.du)):
            if a != b:
                return -1 if a < b else 1
        return 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __repr__(self):
        return f"{self.st}{self.du:+}eps"


def _as_dual(x):
    if isinstance(x, DualNumber):
        return x
    if isinstance(x, (int, float)):
        return DualNumber(float(x), 0.0)
    return None


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        p, q = self, other
        return Quaternion(
            p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
            p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
            p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
            p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def scalar_part(self) -> float:
        """sc(q) = (q + conj(q))/2, reported as the real coefficient."""
        return self.w

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def magnitude(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_zero(self) -> bool:
        return self.w == 0.0 and self.x == 0.0 and self.y == 0.0 and self.z == 0.0

    def inverse(self) -> "Quaternion":
        """conj(q) / |q|^2."""
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise NotInvertible("zero quaternion has no inverse")
        return self.conj() * (1.0 / n2)

    def as_complex_pair(self):
        """q = a + b*j with a, b complex."""
        return complex(self.w, self.x), complex(self.y, self.z)

    @classmethod
    def one(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DualQuaternion:
    """Dual quaternion st + du*eps with quaternion parts."""

    st: Quaternion = Quaternion()
    du: Quaternion = Quaternion()

    @property
    def appreciable(self) -> bool:
        return not self.st.is_zero()

    def __add__(self, other):
        return DualQuaternion(self.st + other.st, self.du + other.du)

    def __sub__(self, other):
        return DualQuaternion(self.st - other.st, self.du - other.du)

    def __neg__(self):
        return DualQuaternion(-self.st, -self.du)

    def __mul__(self, other):
        """Product; the dual part keeps first-order cross terms only."""
        if isinstance(other, (int, float)):
            return DualQuaternion(self.st * other, self.du * other)
        if isinstance(other, DualNumber):
            # dual numbers commute with dual quaternions
            return DualQuaternion(
                self.st * other.st, self.st * other.du + self.du * other.st
            )
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(
            self.st * other.st, self.st * other.du + self.du * other.st
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float, DualNumber)):
            return self * other
        return NotImplemented

    def __truediv__(self, d: DualNumber):
        return self * d.reciprocal()

    def conj(self) -> "DualQuaternion":
        return DualQuaternion(self.st.conj(), self.du.conj())

    def magnitude(self) -> "DualNumber":
        """|p| as a dual number; pure-dual inputs fall to the |du|*eps branch."""
        if not self.st.is_zero():
            mag_st = self.st.magnitude()
            cross = (self.st.conj() * self.du).scalar_part()
            return DualNumber(mag_st, cross / mag_st)
        return DualNumber(0.0, self.du.magnitude())

    def inverse(self) -> "DualQuaternion":
        """inv(st) - inv(st) * du * inv(st) * eps."""
        if not self.appreciable:
            raise NotAppreciable("inverse needs an appreciable dual quaternion")
        sti = self.st.inverse()
        return DualQuaternion(sti, -(sti * self.du * sti))

    def is_unit(self, tol: float = 1e-12) -> bool:
        m = self.magnitude()
        return abs(m.st - 1.0) <= tol and abs(m.du) <= tol

    def is_zero(self) -> bool:
        return self.st.is_zero() and self.du.is_zero()

    @classmethod
    def one(cls) -> "DualQuaternion":
        return cls(Quaternion.one(), Quaternion())


def project_unit_dual_quaternion(q: DualQuaternion) -> DualQuaternion:
    """Nearest unit dual quaternion.

    Appreciable inputs divide by their magnitude; pure-dual inputs use the
    degenerate branch with the free quaternion fixed to zero.
    """
    if q.is_zero():
        raise ZeroInput("cannot project the zero dual quaternion")
    if q.appreciable:
        mag = q.st.magnitude()
        u_st = q.st * (1.0 / mag)
        scaled_du = q.du * (1.0 / mag)
        cross = (u_st.conj() * scaled_du).scalar_part()
        return DualQuaternion(u_st, scaled_du - u_st * cross)
    return DualQuaternion(q.du * (1.0 / q.du.magnitude()), Quaternion())
