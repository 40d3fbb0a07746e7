"""The package surface: its public names, and the README's library sketch."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import framelab as fl

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(fl.__file__).resolve().parent

PUBLIC = """
    Atom MeasureSpace make_atomic quadrature_discretize
    Frame FrameBounds CoefficientVector BesselBoundReport LipschitzReport analysis synthesis
    frame_operator frame_bounds is_mu_complete bessel_norm_bound_check magnitudes lipschitz_check
    apply_operator parsevalize gen_onb gen_mercedes gen_harmonic gen_random gen_deficient_plus_tail
    HOLDS FAILS INCONCLUSIVE Certificate AlphaResult complement_property
    phase_retrieval_certify r_operator alpha_certify norm_retrieval_certify near_riesz_detect
    PerturbationResult SweepPoint break_phase_retrieval break_norm_retrieval stability_sweep
    TensorFrame TensorPRReport TensorNRReport tensor_product tensor_pr_check tensor_nr_check
    inner DEFAULT_RANK_TOL DEFAULT_ORTHO_TOL DEFAULT_MATCH_TOL DEFAULT_ENUM_CAP
    FramelabError EnumerationCapExceeded
    frame_to_doc doc_to_frame save_frame load_frame load_provenance vector_to_json dumps_canonical
    file_digest certificate_to_dict build_report __version__
""".split()


def test_the_package_exports_each_public_name_once():
    assert len(PUBLIC) == len(set(PUBLIC)) == 64
    assert len(fl.__all__) == len(set(fl.__all__))
    assert set(fl.__all__) == set(PUBLIC)
    assert all(hasattr(fl, name) for name in fl.__all__)
    assert "norm_retrieval_oracle" not in fl.__all__
    assert not hasattr(fl, "norm_retrieval_oracle")


def _bound_names(statement: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    names = [t for target in targets for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
    return [t.id for t in names if isinstance(t, ast.Name)]


def _referenced_names(node: ast.AST) -> set[str]:
    """The names a node reads, imports or looks up as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_every_private_top_level_name_is_used_elsewhere_in_the_package():
    # A private helper that only its own definition mentions is left over from a removal.
    statements = [statement for path in sorted(SRC.glob("*.py")) for statement in ast.parse(path.read_text()).body]
    references = [_referenced_names(statement) for statement in statements]
    unused = [
        name
        for i, statement in enumerate(statements)
        for name in _bound_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in found for j, found in enumerate(references) if j != i)
    ]
    assert unused == []


def _unread_parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """The parameters that a function's body never reads."""
    arguments = function.args
    names = [a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs]
    names += [a.arg for a in (arguments.vararg, arguments.kwarg) if a is not None]
    read = {
        sub.id
        for statement in function.body
        for sub in ast.walk(statement)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }
    return [name for name in names if name not in read]


def _values(tree: ast.AST) -> set[str]:
    """The names a tree reads other than as the function of a call: those passed or stored as values."""
    called = {id(sub.func) for sub in ast.walk(tree) if isinstance(sub, ast.Call)}
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(tree)
        if id(sub) not in called
        and (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) or isinstance(sub, ast.Attribute))
    }


def test_every_private_top_level_function_reads_its_parameters():
    # A parameter that nothing reads is left over from a removal, unless the function is passed as a
    # value: such a callback takes the signature its caller gives it.
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    values = set().union(*(_values(tree) for tree in trees))
    unread = [
        (statement.name, name)
        for tree in trees
        for statement in tree.body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        and statement.name.startswith("_") and not statement.name.startswith("__")
        and statement.name not in values
        for name in _unread_parameters(statement)
    ]
    assert unread == []


def _sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_library_sketch_gives_its_commented_values():
    # Run the block statement by statement, keeping the value of each bare expression.
    block, namespace, values = _sketch(), {}, []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    for comment in ("lower=1.5, upper=1.5", "(1, -0.5, -0.5)", "# holds", "# 0.375", '# "fails"'):
        assert comment in block
    bounds, coefficients, alpha, verdict = values
    assert (bounds.lower, bounds.upper) == pytest.approx((1.5, 1.5), abs=1e-9)
    assert tuple(coefficients.values) == pytest.approx((1.0, -0.5, -0.5), abs=1e-9)
    assert namespace["cert"].verdict == fl.HOLDS
    assert alpha == pytest.approx(0.375, abs=1e-9)
    assert verdict == fl.FAILS == "fails"
