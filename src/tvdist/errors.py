"""Exception types shared across the package.

Each type names its `kind`, the word after `error:` on the command line's
one-line refusal; a package error of no narrower type is `internal`.
"""


class TVDistError(Exception):
    """Base class for all errors raised by this package."""
    kind = "internal"


class DimensionError(TVDistError, ValueError):
    """Inputs have incompatible lengths or shapes."""
    kind = "dimension"


class ParameterError(TVDistError, ValueError):
    """A numeric parameter lies outside its allowed range."""
    kind = "parameter"


class ValidityError(TVDistError, ValueError):
    """A distribution or ratio table violates its invariants."""
    kind = "validity"


class SizeError(TVDistError, RuntimeError):
    """An enumeration or support-size cap would be exceeded."""
    kind = "size"


class ParseError(TVDistError, ValueError):
    """An instance or report document is malformed."""
    kind = "parse"
