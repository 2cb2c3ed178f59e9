"""Checks shared by the tests of the operator tables (``hylo.formula.Op``)."""


def operands(op):
    """How many operands a row has: 0 (constant), 1 (prefix or postfix) or 2."""
    return (op.left is not None) + (op.right is not None)


def placed(cls, op, inner, other):
    """The nodes of a row with inner as each of its operands in turn."""
    if operands(op) == 2:
        return [cls(inner, other), cls(other, inner)]
    return [cls(inner)] if operands(op) else []


def rows_beside_rows(ops, atoms, roundtrip):
    """Check that every row of ops, holding every row (atoms as its
    operands) as its left and as its right operand, reads back as itself;
    the number of nodes checked."""
    checked = 0
    for inner_cls, inner_op in ops.items():
        inner = inner_cls(*atoms[: operands(inner_op)])
        for cls, op in ops.items():
            for f in placed(cls, op, inner, atoms[1]):
                assert roundtrip(f) is f, f
                checked += 1
    return checked


def unary_floors_clear_infix(ops):
    """Whether every prefix and postfix floor of ops is above every infix
    strength, so that a parser can read such an operand as a unary."""
    infix = max(op.strength for op in ops.values() if operands(op) == 2)
    return all((op.left or op.right) > infix for op in ops.values() if operands(op) == 1)
