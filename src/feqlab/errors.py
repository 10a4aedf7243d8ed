"""Exception hierarchy shared across the package.

The CLI maps these to process exit codes: StructuralError -> 2,
ParseError -> 3, HypothesisError -> 4, UsageError -> 64. Verification
failures (a residual above tolerance) are not exceptions; commands
report them through exit code 1.
"""

from __future__ import annotations


class FeqlabError(Exception):
    """Base class for all package errors."""


class StructuralError(FeqlabError):
    """Input data is malformed at the mathematical level."""


class EntryOutOfRange(StructuralError):
    def __init__(self, x: int, y: int, value: int, n: int):
        super().__init__(f"table[{x}][{y}] = {value} is outside 0..{n - 1}")
        self.x, self.y, self.value, self.n = x, y, value, n


class NotAssociative(StructuralError):
    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"associativity fails at triple ({x}, {y}, {z})")
        self.triple = (x, y, z)


class BadParams(StructuralError):
    """Parameters outside a constructor's documented domain."""


class TooLarge(StructuralError):
    """Order exceeds an enumeration cap."""


class PointOutOfRange(StructuralError):
    def __init__(self, point: int, n: int):
        super().__init__(f"atom point {point} is outside 0..{n - 1}")
        self.point, self.n = point, n


class LengthMismatch(StructuralError):
    def __init__(self, got: int, expected: int):
        super().__init__(f"function has {got} values, semigroup has {expected} elements")
        self.got, self.expected = got, expected


class NotInvolutive(StructuralError):
    """map o map is not the identity."""


class NotMorphism(StructuralError):
    """map violates the structure law of its declared kind."""


class NonFiniteResidual(StructuralError):
    """A residual or battery term overflowed or met a non-finite value."""


class ParseError(FeqlabError):
    """JSON input violates the documented schema."""


class HypothesisError(FeqlabError):
    """A standing hypothesis of the targeted statement fails for this input."""


class NonCentralSupport(HypothesisError):
    """Measure support must lie in the center of the semigroup."""


class NotSigmaInvariant(HypothesisError):
    """Measure must equal its pushforward under sigma."""


class WrongMorphismKind(HypothesisError):
    """This equation requires the other morphism kind."""


class NotAMonoid(HypothesisError):
    """Semigroup has no identity element."""


class NotCentral(HypothesisError):
    """Base point must be central."""


class DegenerateIntegral(HypothesisError):
    """mean of f under mu vanishes, so the companion function is undefined."""


class NotSpherical(HypothesisError):
    """Supplied function is not upsilon-spherical."""


class EmptySolutionSet(HypothesisError):
    """Campaign fixture has no base solutions but config requires them."""


class UsageError(FeqlabError):
    """Command-line arguments are inconsistent or incomplete."""


class DegenerateMeasureWarning(UserWarning):
    """Zero-norm measure: equation degenerates, solution set is empty."""
