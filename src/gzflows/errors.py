"""Exception types shared across the package.  The CLI maps each failure to one exit
code: ValidationError (a domain invariant failed) to 2, ToleranceError (a defect above
its tolerance) to 3, and the built-in ValueError or TypeError (malformed input, at any
intake) to 65."""


class ValidationError(Exception):
    """A domain object failed its validity invariant (rejected input)."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else [message]


class ToleranceError(Exception):
    """A numerical defect exceeded its stated tolerance."""

    def __init__(self, message, defect=None, tolerance=None):
        super().__init__(message)
        self.defect = defect
        self.tolerance = tolerance


def _gate(defect, tol: float, message: str):
    """defect if it is at most tol; a larger or NaN defect raises ToleranceError (exit 3)
    with message formatted by ``defect`` and ``tol``."""
    if not defect <= tol:
        raise ToleranceError(message.format(defect=defect, tol=tol), defect=defect, tolerance=tol)
    return defect
