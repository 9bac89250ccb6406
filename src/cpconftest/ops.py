"""The 64-bit range of input values, integer division and relational-operator
tables.  Arithmetic is exact: only a literal or a data or parameter value is
checked against the 64-bit range, as input validation."""

import operator

from .errors import EvaluationError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check64(v):
    if v < INT64_MIN or v > INT64_MAX:
        raise EvaluationError(f"integer {v} outside the signed 64-bit range")
    return v


def div_trunc(a, b):
    """Integer division truncating toward zero, like most modeling languages."""
    if b == 0:
        raise EvaluationError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# Negation of a relational operator.
FLIP = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

# Swapping the two sides of a relation.
MIRROR = {
    "==": "==",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}

# The truth of a op b, per relational operator.
RELATIONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def rel_holds(op, a, b):
    return RELATIONS[op](a, b)
