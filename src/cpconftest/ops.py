"""Checked 64-bit integer arithmetic and relational-operator tables."""

from .errors import EvaluationError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check64(v):
    if v < INT64_MIN or v > INT64_MAX:
        raise EvaluationError(f"integer overflow: {v} outside signed 64-bit range")
    return v


def add64(a, b):
    return check64(a + b)


def mul64(a, b):
    return check64(a * b)


def div64(a, b):
    """Integer division truncating toward zero, like most modeling languages."""
    if b == 0:
        raise EvaluationError("division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return check64(q)


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

def rel_holds(op, a, b):
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvaluationError(f"unknown relational operator {op!r}")
