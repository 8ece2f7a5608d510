"""The base class of every mathematical failure, and the cross-check one.

Two routes that must agree disagree, a function that must be symmetric
is not, or an expansion that must be integral is not. The CLI maps any
of these to exit code 2 and verify suites report them as FAIL. Each
subclass also keeps the builtin base it had before (AssertionError,
ValueError, ArithmeticError), so callers that catch those still work.
"""


class MathematicalError(Exception):
    """A computed result contradicts a mathematical identity."""


class CrossCheckError(MathematicalError, AssertionError):
    """Two supposedly equal computation paths disagreed."""
