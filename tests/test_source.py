"""Static checks on the package source: every import is used, __all__ is sound, and every private definition is named elsewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import convring

SRC = Path(convring.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _annotation_names(node):
    """Names inside a quoted annotation such as -> "ConvCode"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def _used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def _imported_names(tree):
    """(name, line) for each name an import binds, except submodules of the package.

    `from . import files` binds the submodule as a package attribute, which is
    its use; `from __future__ import ...` binds nothing.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (node.level and node.module is None):
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _all_entries(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | set(_all_entries(tree))
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_all_is_complete_and_unique():
    entries = _all_entries(ast.parse((SRC / "__init__.py").read_text()))
    assert entries == list(convring.__all__)
    twice = [name for name, count in Counter(entries).items() if count > 1]
    assert not twice, f"listed more than once in __all__: {twice}"
    missing = [name for name in entries if not hasattr(convring, name)]
    assert not missing, f"__all__ names what the package does not define: {missing}"


def _private_definitions(tree):
    """(name, line) of each module-level function or class, and each method, named _x but not a dunder."""
    for node in tree.body:
        scopes = [node]
        if isinstance(node, ast.ClassDef):
            scopes += node.body
        for item in scopes:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and item.name.startswith("_")
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ):
                yield item.name, item.lineno


def test_no_unnamed_private_definitions():
    # a private helper that no other line of the package names is dead code
    lines = [(path, k, line) for path in MODULES for k, line in enumerate(path.read_text().splitlines(), 1)]
    unnamed = []
    for path in MODULES:
        for name, lineno in _private_definitions(ast.parse(path.read_text(), filename=str(path))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for p, k, line in lines if (p, k) != (path, lineno)):
                unnamed.append(f"{path.name}:{lineno} {name}")
    assert not unnamed, f"private definitions that no other line names: {unnamed}"


def test_z2_elimination_is_one_kernel():
    # a Z_2 matrix is one int: rref_mod_p, rank_mod_p and reduce_stage all
    # eliminate with _rref_2, the packers return one int, and no column-list
    # kernel or per-column packer is left
    tree = ast.parse((SRC / "linsolve.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("rref_mod_p", "rank_mod_p", "reduce_stage"):
        assert "_rref_2" in _used_names(defs[name]), f"{name} does not eliminate with _rref_2"
    assert ast.unparse(defs["_pack_2"].returns) == "int", "_pack_2 does not return one int"
    leftovers = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in ("_eliminate_2", "_column_2", "_fields_2")
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert not leftovers, f"the column-list Z_2 kernel or a second packer is still named: {leftovers}"


def test_window_rows_have_one_dense_form():
    # a window's rows are one column gather of the code's window array, as
    # dense matrices: no band, span run, padding helper or per-row block
    # gather is left
    leftovers = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in ("_span_runs", "_dense", "_window_coeffs", "_parity_block_rows", "orig_band")
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert not leftovers, f"a banded row form is still named: {leftovers}"


def test_symbols_and_coefficients_have_one_stored_form():
    # a window system reads the stream it was built from, and a code keeps
    # its coefficients as arrays only: no copied symbol table or cached
    # coefficient matrices are left
    leftovers = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in ("table", "_parity_coeffs", "_generator_coeffs", "_coeff_matrices")
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert not leftovers, f"a second stored form is still named: {leftovers}"


def test_one_block_convolution_and_one_toeplitz_builder():
    # every polynomial-matrix product is polymat._convolve and every
    # block-Toeplitz matrix polymat._toeplitz: no other module defines
    # either, and PolyMatrix keeps no entry-wise sum, difference or negation
    homes = {
        name: [
            path.stem
            for path in MODULES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        for name in ("_convolve", "_toeplitz")
    }
    assert homes == {"_convolve": ["polymat"], "_toeplitz": ["polymat"]}
    assert not [name for name in ("__add__", "__sub__", "__neg__") if hasattr(convring.PolyMatrix, name)]


def _identifiers(tree) -> set[str]:
    """Every name a module binds or reads: names, attributes, definitions and arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def test_window_equations_have_one_layout_and_form():
    # the window array of a delay T covers the window's own times only, so
    # no module but codes knows a history offset; a pattern keeps its erased
    # entries as flat indices alone, and its matrices have no row view: no
    # WindowRow, parameter assignment iterator, pair-form column copy or
    # nu * n offset is left
    leftovers = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in ("WindowRow", "assignments")
        if name in _identifiers(ast.parse(path.read_text()))
    ]
    assert not leftovers, f"a second form of the window equations is still named: {leftovers}"
    assert "columns" not in convring.decoder._Pattern.__slots__
    assert not re.search(r"\bnu\s*\*\s*(?:code\.)?n\b", (SRC / "decoder.py").read_text())
    code = convring.ConvCode.from_parity_coeffs(
        convring.RingContext(3, 2), [[[1, 0, 3], [0, 1, 3]], [[0, 1, 1], [1, 0, 1]]]
    )
    m, n = code._parity_array.shape[1:]
    for T in range(4):
        assert code._window_array(T).shape == ((T + 1) * m, (T + 1) * n)
