"""Shared exception types, and the size check that raises CapacityError."""


class CapacityError(RuntimeError):
    """A configured enumeration or size limit would be exceeded."""


class SolverStatusError(RuntimeError):
    """An optimization problem turned out infeasible or unbounded."""


def check_power(what: str, base: int, exp: int, limit: int) -> int:
    """``base**exp`` for base, exp >= 0, or CapacityError naming ``what``
    when it exceeds ``limit``. The size test comes first, so a huge
    exponent never builds (or formats) a huge integer."""
    if exp * (base.bit_length() - 1) >= limit.bit_length() or base**exp > limit:
        raise CapacityError(f"{what} = {base}**{exp} exceeds limit {limit}")
    return base**exp
