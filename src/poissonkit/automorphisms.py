"""Elementary polynomial automorphisms and pushforward of multivectors.

Three invertible kinds are provided: translation of one coordinate by a
constant, invertible diagonal scaling, and a triangular shear adding a
polynomial in strictly later coordinates.  Each gives the images of its
exact inverse, so pushforwards stay inside polynomial arithmetic.  "Constant" data may
involve parameters (a deformation parameter t, say) but no coordinates.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from .polynomials import Polynomial, VariableTable, _substituted
from .scalars import Frozen, GaussRational
from .multivectors import Multivector, _built, _pushforward_sums


class ElementaryAutomorphism(Frozen):
    """Base class of immutable maps; subclasses fill in forward/inverse images."""

    __slots__ = ("table",)

    def __init__(self, table: VariableTable):
        object.__setattr__(self, "table", table)

    def __reduce__(self):
        return type(self), (self.table,)

    def forward_images(self) -> dict:
        """Coordinate name -> image Polynomial under the map."""
        return {}

    def inverse_images(self) -> dict:
        return {}

    def __repr__(self):
        return f"<{type(self).__name__} on {self.table.coordinates}>"


class _Shift(ElementaryAutomorphism):
    """x_c -> x_c + g; each kind names g and checks what it may involve."""

    __slots__ = ("coordinate", "_g")

    def __init__(self, table: VariableTable, coordinate: str, g: Polynomial, name: str):
        super().__init__(table)
        if not table.is_coordinate(coordinate):
            raise KeyError(f"not a coordinate: {coordinate!r}")
        if g.table != table:
            raise ValueError(f"{name} on a different variable table")
        object.__setattr__(self, "coordinate", coordinate)
        object.__setattr__(self, "_g", g)

    def __reduce__(self):
        return type(self), (self.table, self.coordinate, self._g)

    def forward_images(self):
        x = Polynomial.variable(self.table, self.coordinate)
        return {self.coordinate: x + self._g}

    def inverse_images(self):
        x = Polynomial.variable(self.table, self.coordinate)
        return {self.coordinate: x - self._g}


class Translation(_Shift):
    """x_c -> x_c + amount, amount free of coordinates."""

    __slots__ = ()
    amount = property(lambda self: self._g)

    def __init__(self, table: VariableTable, coordinate: str, amount: Polynomial):
        super().__init__(table, coordinate, amount, "amount")
        if amount.coordinate_degree() > 0:
            raise ValueError("translation amount must not involve coordinates")


class DiagonalScaling(ElementaryAutomorphism):
    """x_k -> s_k * x_k with nonzero exact scales (default 1)."""

    __slots__ = ("scales",)

    def __init__(self, table: VariableTable, scales: Mapping[str, object]):
        super().__init__(table)
        cleaned = {}
        for name, value in scales.items():
            if not table.is_coordinate(name):
                raise KeyError(f"not a coordinate: {name!r}")
            if not isinstance(value, GaussRational):
                value = GaussRational(value)
            if value.is_zero():
                raise ValueError(f"scale for {name} must be nonzero")
            cleaned[name] = value
        object.__setattr__(self, "scales", MappingProxyType(cleaned))

    def __reduce__(self):
        return DiagonalScaling, (self.table, dict(self.scales))

    def forward_images(self):
        return {
            name: Polynomial.variable(self.table, name).scale(s)
            for name, s in self.scales.items()
        }

    def inverse_images(self):
        one = GaussRational.one()
        return {
            name: Polynomial.variable(self.table, name).scale(one / s)
            for name, s in self.scales.items()
        }


class TriangularShear(_Shift):
    """x_c -> x_c + g where g involves strictly later coordinates only."""

    __slots__ = ()
    shear = property(lambda self: self._g)

    def __init__(self, table: VariableTable, coordinate: str, shear: Polynomial):
        super().__init__(table, coordinate, shear, "shear")
        pos = table.coordinates.index(coordinate)
        allowed = set(table.coordinates[pos + 1:]) | set(table.parameters)
        if not shear.variables_present() <= allowed:
            raise ValueError("shear must involve strictly later coordinates only")


def _odd_images(phi: ElementaryAutomorphism) -> dict:
    # flat xi_k  ->  sum_j (d phi_j / d x_k at the inverse image) xi_j; no
    # entry involves the moved coordinate, so the inverse leaves it as is
    table = phi.table
    shift = table._mask_shift
    forward = phi.forward_images()
    images = {}
    for k, name in enumerate(table.coordinates):
        image = images[k] = {}
        for j, target in enumerate(table.coordinates):
            f = forward.get(target)
            if f is None:
                if j == k:
                    image[1 << j << shift] = (1, 0, 1)
            else:
                for key, t in f.partial_derivative(name)._raw.items():
                    image[(1 << j << shift) + key] = t
    return images


def pushforward(phi, a: Multivector) -> Multivector:
    """Pushforward of a multivector.

    `phi` is an ElementaryAutomorphism or a sequence of them applied in
    order (first element acts first).
    """
    if isinstance(phi, Sequence):
        out = a
        for step in phi:
            out = pushforward(step, out)
        return out
    table = a.table
    if phi.table != table:
        raise ValueError("automorphism and multivector on different tables")
    images = _substituted(a._flat, table, phi.inverse_images())
    return _built(Multivector, table, a.degree,
                  _pushforward_sums(table, images, _odd_images(phi)))
