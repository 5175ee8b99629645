"""Exception hierarchy and the exit-code taxonomy.

Every error raised by the package derives from SemiconvError, and each
class declares in `exit_code` the code the command line exits with when
it is raised: 1 for input that cannot be read, parsed or written; 2, the
default, for invalid semigroup or distribution data; 3 for a theorem or
verification failure.  This module is the one place the mapping lives:
`cli.main` returns `exc.exit_code` for every SemiconvError.
"""


class SemiconvError(Exception):
    exit_code = 2


class MalformedInput(SemiconvError):
    """Input file or literal does not parse into the expected shape."""

    exit_code = 1


class InvalidTable(MalformedInput):
    """A table that parses but does not describe a semigroup's elements."""

    exit_code = 2


class IndexOutOfRange(InvalidTable):
    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"table[{row}][{col}] = {value} is not a valid element index")


class NonAssociative(SemiconvError):
    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for (a,b,c) = ({a},{b},{c})")


class OrderCapExceeded(SemiconvError):
    def __init__(self, order, cap):
        self.order, self.cap = order, cap
        super().__init__(f"order {order} exceeds the configured cap {cap}")


class MismatchedParent(SemiconvError):
    pass


class EmptySet(SemiconvError):
    pass


class NotASubsemigroup(SemiconvError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"not closed: product of elements {a} and {b} lies outside the set")


class NotAGroup(SemiconvError):
    def __init__(self, reason, witness=None):
        self.reason, self.witness = reason, witness
        msg = reason if witness is None else f"{reason} (witness: {witness})"
        super().__init__(msg)


class NotSimple(SemiconvError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"semigroup is not simple: witness element {witness}")


class NotIdempotent(SemiconvError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not idempotent")


class NotPrimitive(SemiconvError):
    def __init__(self, element, below):
        self.element, self.below = element, below
        super().__init__(f"idempotent {element} is not primitive: {below} lies strictly below it")


class NotInFactor(SemiconvError):
    def __init__(self, factor, element):
        self.factor, self.element = factor, element
        super().__init__(f"element {element} does not belong to the {factor} factor")


class VerificationFailed(SemiconvError):
    """An internally derived identity failed to check out.  Signals a bug."""

    exit_code = 3

    def __init__(self, clause, detail=""):
        self.clause = clause
        msg = f"internal verification failed: {clause}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidSandwichEntry(SemiconvError):
    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"sandwich[{row}][{col}] = {value} is not a group element index")


class InvalidDistribution(MalformedInput):
    exit_code = 2


class SupportOutsideDecomposition(SemiconvError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"support element {element} lies outside the decomposed carrier")


class TheoremViolation(SemiconvError):
    """A verified-by-construction conclusion failed on concrete data."""

    exit_code = 3

    def __init__(self, clause, detail=""):
        self.clause = clause
        msg = f"theorem check failed: {clause}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PreconditionViolated(SemiconvError):
    def __init__(self, condition, witness=None):
        self.condition, self.witness = condition, witness
        msg = f"precondition violated: {condition}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class HypothesisViolated(SemiconvError):
    exit_code = 3

    def __init__(self, condition, witness=None):
        self.condition, self.witness = condition, witness
        msg = f"hypothesis violated: {condition}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class SingularDecomposition(SemiconvError):
    exit_code = 3


class ParameterOutOfRange(SemiconvError):
    pass
