"""Exception types shared across the package."""


class LatuniError(Exception):
    pass


class NotAPartialOrder(LatuniError):
    """The cover relation contains a cycle."""


class NotBounded(LatuniError):
    """The declared bottom/top is not least/greatest."""


class NotALattice(LatuniError):
    """Some pair has no unique meet or join."""

    def __init__(self, pair, which):
        self.pair = pair
        self.which = which  # "meet" | "join"
        super().__init__(f"pair {pair} has no unique {which}")


class UnknownElement(LatuniError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"unknown element {element!r}")


class BoundsNotComparable(LatuniError):
    pass


class MismatchedLattice(LatuniError):
    pass


class AxiomViolation(LatuniError):
    """An algebraic axiom failed; carries its name and refuting witnesses."""

    def __init__(self, axiom, witnesses):
        self.axiom = axiom
        self.witnesses = tuple(witnesses)
        super().__init__(f"axiom {axiom} violated at {self.witnesses}")


class OutOfDomainOutput(LatuniError):
    def __init__(self, x, y, value):
        self.x, self.y, self.value = x, y, value
        super().__init__(f"table output {value!r} at ({x!r}, {y!r}) leaves the domain")


class NotAPartition(LatuniError):
    pass


class NotCommutative(LatuniError):
    pass


class NotAUninorm(LatuniError):
    pass


class HypothesesNotChecked(LatuniError):
    """check_characteristic was called on a spec whose hypotheses fail."""


class LatticeTooLarge(LatuniError):
    pass


class InvalidArgument(LatuniError, ValueError):
    """An argument outside the values a call accepts, such as a bound as
    the neutral element or a repeated element id."""


class ParseError(LatuniError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ReferenceToUnknownElement(ParseError):
    pass
