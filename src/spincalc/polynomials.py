"""Sparse integer polynomials with named generators.

Terms map exponent tuples, aligned with the generators, to nonzero integer
coefficients. Every arithmetic result is built by `_like`, which the quotient
ring Z[c2, c3] / (2 c3) of the odd Newton classes overrides to reduce mod 2 c3.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, DomainError, _integer


class IntPolynomial:
    """A polynomial over Z in a fixed tuple of named generators."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: tuple[str, ...], terms: dict):
        if isinstance(gens, str):
            raise DomainError(f"generators {gens!r} are a string, not a tuple of names")
        self.gens = tuple(gens)
        if not all(isinstance(g, str) and g for g in self.gens):
            raise DomainError(f"generator names {self.gens} are not nonempty strings")
        if len(set(self.gens)) != len(self.gens):
            raise DomainError(f"generator names repeat in {self.gens}")
        if not isinstance(terms, dict):
            raise TypeError(f"terms {terms!r} are not a dict")
        clean: dict[tuple, int] = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != len(self.gens):
                raise DimensionMismatchError(
                    f"exponent tuple {expo} does not match generators {self.gens}"
                )
            # errors._integer's rule, inline per term: an int, never a bool
            if not all(type(e) is int and e >= 0 for e in expo):
                raise DomainError(f"exponents {expo} are not nonnegative integers")
            if type(coeff) is not int:
                raise DomainError(f"coefficient {coeff!r} is not an integer")
            if coeff != 0:
                clean[expo] = clean.get(expo, 0) + coeff
                if clean[expo] == 0:
                    del clean[expo]
        self.terms = clean

    @classmethod
    def zero(cls, gens: tuple[str, ...]) -> "IntPolynomial":
        return cls(gens, {})

    @classmethod
    def constant(cls, gens: tuple[str, ...], c: int) -> "IntPolynomial":
        return cls(gens, {tuple(0 for _ in gens): c})

    @classmethod
    def generator(cls, gens: tuple[str, ...], name: str) -> "IntPolynomial":
        if name not in gens:
            raise DomainError(f"{name!r} is not among the generators {gens}")
        expo = tuple(1 if g == name else 0 for g in gens)
        return cls(gens, {expo: 1})

    def _like(self, terms: dict) -> "IntPolynomial":
        """A polynomial of this type and ring: every arithmetic result."""
        return IntPolynomial(self.gens, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_ring(self, other: "IntPolynomial") -> None:
        if type(self) is not type(other) or self.gens != other.gens:
            raise DimensionMismatchError(
                f"cannot combine {type(self).__name__} over {self.gens} "
                f"with {type(other).__name__} over {other.gens}"
            )

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if type(other) is int:
            other = self._like({(0,) * len(self.gens): other})
        elif not isinstance(other, IntPolynomial):
            return NotImplemented
        self._require_same_ring(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "IntPolynomial":
        if type(other) is not int and not isinstance(other, IntPolynomial):
            return NotImplemented  # -True would pass as the int -1
        return self + (-other)

    def __rsub__(self, other) -> "IntPolynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "IntPolynomial":
        if type(other) is int:
            return self._like({e: other * c for e, c in self.terms.items()})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._require_same_ring(other)
        terms: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return self._like(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        _integer(n, 0, "negative powers are not allowed")
        result = self._like({(0,) * len(self.gens): 1})
        for bit in bin(n)[2:]:  # by squaring, from the high bit down
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = self._like({(0,) * len(self.gens): other})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        same_ring = type(self) is type(other) and self.gens == other.gens
        return same_ring and self.terms == other.terms

    def substitute(
        self, target_gens: tuple[str, ...], mapping: dict[str, "IntPolynomial | int"]
    ) -> "IntPolynomial":
        """Evaluate by sending each generator to a polynomial over target_gens.

        Every generator that actually occurs must be mapped; an image is an
        IntPolynomial or an int, and anything else raises TypeError.
        """
        result = IntPolynomial.zero(target_gens)  # checks the names
        target_gens = result.gens
        if not isinstance(mapping, dict):
            raise TypeError(f"mapping {mapping!r} is not a dict")
        images: dict[str, IntPolynomial] = {}
        for name, value in mapping.items():
            if type(value) is int:
                value = IntPolynomial.constant(target_gens, value)
            elif not isinstance(value, IntPolynomial):
                raise TypeError(f"image of {name!r} is {value!r}, not a polynomial")
            if value.gens != target_gens:
                raise DimensionMismatchError(
                    f"image of {name!r} lives over {value.gens}, not {target_gens}"
                )
            images[name] = value
        for expo, coeff in self.terms.items():
            term = IntPolynomial.constant(target_gens, coeff)
            for g, e in zip(self.gens, expo):
                if e == 0:
                    continue
                if g not in images:
                    raise DomainError(f"no image supplied for generator {g!r}")
                term = term * images[g] ** e
            result = result + term
        return result

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in display order: total degree descending, then lexicographic."""
        return sorted(
            self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def render(self) -> str:
        """Human form such as '2*p1^2 - 8*c2 + 3'."""
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for g, e in zip(self.gens, expo):
                if e == 1:
                    factors.append(g)
                elif e > 1:
                    factors.append(f"{g}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def json_terms(self) -> list[dict]:
        """Deterministic JSON form: a list of coefficient/exponent records."""
        records = []
        for expo, coeff in self.sorted_terms():
            exps = {g: e for g, e in zip(self.gens, expo) if e != 0}
            records.append({"coeff": str(coeff), "exponents": exps})
        return records

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"


QUOTIENT_GENS = ("c2", "c3")


class QuotientedPolynomial(IntPolynomial):
    """Z[c2, c3] / (2 c3): an IntPolynomial whose c3-monomials have coefficient 1."""

    __slots__ = ()

    def __init__(self, poly: IntPolynomial):
        if not isinstance(poly, IntPolynomial):
            raise TypeError(f"expected an IntPolynomial, got {poly!r}")
        if poly.gens != QUOTIENT_GENS:
            raise DimensionMismatchError(
                f"quotient ring generators are {QUOTIENT_GENS}, got {poly.gens}"
            )
        self._reduce(poly.terms)

    def _reduce(self, terms: dict) -> "QuotientedPolynomial":
        # any monomial containing c3 has its coefficient read mod 2
        reduced = {e: c % 2 if e[1] else c for e, c in terms.items()}
        IntPolynomial.__init__(self, QUOTIENT_GENS, reduced)
        return self

    def _like(self, terms: dict) -> "QuotientedPolynomial":
        # raw terms are reduced and checked once, with no lifted copy built
        return object.__new__(QuotientedPolynomial)._reduce(terms)

    @property
    def poly(self) -> IntPolynomial:
        """The reduced representative, lifted to a plain IntPolynomial."""
        return IntPolynomial(QUOTIENT_GENS, self.terms)
