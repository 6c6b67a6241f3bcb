"""Only `model.py` tells the program operation classes apart.

Both semantics, the TSO oracle and the summarized machine, read an
operation through its operand record (`model.operands`, resolved once per
program in `ProgramIndex.ops`).  An `isinstance` test on an operation class
in any other module would be a second place that decides an operation's
operands.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tsocbmc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "model.py")
OP_CLASSES = {"Assign", "NewValue", "Guard", "Read", "Write", "Arw"}


def op_class_tests(source: str) -> list[str]:
    """The operation classes named as the second argument of an isinstance
    call, bare or as a module attribute, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        cls = node.args[1]
        for c in cls.elts if isinstance(cls, ast.Tuple) else [cls]:
            name = c.id if isinstance(c, ast.Name) else getattr(c, "attr", None)
            if name in OP_CLASSES:
                found.append(name)
    return found


def test_finds_op_class_tests():
    src = ("isinstance(op, Read)\nisinstance(op, (Write, int))\n"
           "isinstance(op, model.Arw)\nisinstance(e, ValueError)\n")
    assert op_class_tests(src) == ["Read", "Write", "Arw"]


def test_model_is_the_one_dispatcher():
    # the check sees model's own dispatch (Arw is its fall-through case)
    assert op_class_tests((SRC / "model.py").read_text())


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_dispatch_on_op_classes(module):
    assert op_class_tests((SRC / module).read_text()) == []
