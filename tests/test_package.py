"""The package surface: one list of public names, the README example, and two
checks of the source: docstring roles resolve and every import is used."""

import ast
import contextlib
import dataclasses
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krausfock
from krausfock import catalog, channel, cli, dequantization, dilation, linalg, subproduct

MODULES = (linalg, channel, subproduct, dilation, dequantization, catalog)


def test_public_names_are_the_modules_lists():
    submodules = {module.__name__.rsplit(".", 1)[1] for module in MODULES}
    assert set(krausfock.__all__) - submodules == set().union(*(m.__all__ for m in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(krausfock, name) is getattr(module, name)
    assert all(hasattr(krausfock, name) for name in krausfock.__all__)
    assert "as_matrix" not in krausfock.__all__


def test_correlation_consumers_read_the_channel_from_corr():
    # correlation data carries the Kraus family and level spaces it was built from
    readers = set()
    for name in dequantization.__all__:
        fn = getattr(dequantization, name)
        if inspect.isfunction(fn):
            params = set(inspect.signature(fn).parameters)
            if "corr" in params:
                readers.add(name)
                assert not params & {"kraus", "system"}, name
    assert {"dequantize", "phi_symmetry_residual", "convergence_rows", "convergence_report"} <= readers


def test_level_spaces_carry_their_family():
    # a system holds the Kraus family it was built from, so a function that
    # takes a system is not given the family again; the three that still are
    # take it positionally in the benchmark scripts
    both = {
        name
        for module in (subproduct, dilation, dequantization)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        and {"kraus", "system"} <= set(inspect.signature(getattr(module, name)).parameters)
    }
    assert both == {"correlation_matrix", "normal_ordering_residual", "covariant_symbol"}
    for cls, names in (
        (subproduct.SubproductSystem, ["factors", "kraus", "_cache"]),
        (dequantization.CorrelationData, ["system", "state", "_cache"]),
    ):
        assert [f.name for f in dataclasses.fields(cls)] == names
    kraus = catalog.random_unital(2, 3)
    assert subproduct.build_subproduct(kraus, 3).kraus is kraus
    assert not hasattr(krausfock, "correlations")


def test_each_value_is_given_once():
    # a level count, a Kraus set or an operator count that another argument fixes is not asked for
    signatures = {
        dequantization.CorrelationData: ["system", "state", "_cache"],
        dequantization.phi_symmetry_residual: ["corr"],
        dequantization.convergence_rows: ["corr", "a", "b"],
        dequantization.convergence_report: ["corr", "a", "b"],
        dilation.stinespring_isometry: ["system", "m"],
        cli._split_rows: ["system"],
    }
    for fn, params in signatures.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert catalog.PARAMETERS["projective"] == ("d", "ranks")


def test_each_family_is_declared_by_its_constructor():
    # names and defaults live in the signature alone
    constructors = {
        "identity": catalog.identity_channel,
        "unitary": catalog.unitary_channel,
        "projective": catalog.projective_measurement,
        "commuting_generic": catalog.commuting_generic,
        "random_unital": catalog.random_unital,
        "sequential_projective": catalog.sequential_projective,
    }
    assert catalog.FAMILIES == tuple(constructors)
    for family, constructor in constructors.items():
        assert catalog.PARAMETERS[family] == tuple(inspect.signature(constructor).parameters)


def test_the_spec_refuses_what_the_build_cannot_build():
    # a missing size or an oversized instance raises at CatalogSpec, not at build_catalog
    for family in catalog.FAMILIES:
        sizes = [name for name in ("d", "n") if name in catalog.PARAMETERS[family]]
        for missing in sizes:
            given = {name: 2 for name in sizes if name != missing}
            with pytest.raises(ValueError, match=f"needs parameter '{missing}'"):
                catalog.CatalogSpec(family, **given)
        with pytest.raises(ValueError, match="needs parameter 'd'"):
            catalog.CatalogSpec(family)
        # d^2 = 2^26 entries a Kraus operator, over MAX_ENTRIES = 2^24
        with pytest.raises(ValueError, match="Kraus entries"):
            catalog.CatalogSpec(family, **{name: 2**13 for name in sizes})


def test_convergence_report_stores_no_verdicts():
    # derived when read, so converge, which never reads them, never computes them
    names = [f.name for f in dataclasses.fields(dequantization.ConvergenceReport)]
    assert "verdicts" not in names and "residual_tol" in names


def test_tolerances_enter_through_the_kraus_set():
    # a family gets other tolerances only as KrausSet(family.ops, tol=...)
    for name in catalog.__all__:
        fn = getattr(catalog, name)
        if inspect.isfunction(fn):
            assert "tol" not in inspect.signature(fn).parameters, name
    spec = catalog.CatalogSpec("random_unital", n=2, d=3)
    assert catalog.build_catalog(spec).tol == linalg.Tolerances()


def test_readme_example_prints_its_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines() if "print(" in line]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(block, {})
    printed = buf.getvalue().splitlines()
    assert len(printed) == len(comments) == 3
    for value, comment in zip(printed, comments):
        assert comment == value or comment.startswith(value + ":"), (value, comment)


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_scipy_out():
    # a cold CLI run pays for every import: numpy alone takes about 0.1 s,
    # numpy with scipy.linalg about 0.25 s
    env = _src_env()
    probe = (
        "import sys, krausfock.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_converge_imports_nothing_lazily(tmp_path):
    # np.median imports numpy.ma on its first call: about 0.8 MB kept alive and
    # 15 ms of a cold converge
    (tmp_path / "chan.json").write_text(
        json.dumps({"catalog": {"family": "commuting_generic", "n": 2, "d": 4, "seed": 1}})
    )
    for name, matrix in (("a", np.diag([1.0, 2.0, 3.0, 4.0])), ("b", np.eye(4)[::-1])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"matrix": {"re": matrix.tolist()}}))
    argv = ["converge", "chan.json", "--observables", "a.json", "b.json", "--max-m", "4"]
    probe = (
        "import sys, krausfock.cli; "
        f"code = krausfock.cli.main({argv!r}); "
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=_src_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "0 False"
    rows = [line for line in result.stdout.splitlines() if line[:1].isdigit()]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]


def test_dilate_draws_no_random_numbers(tmp_path):
    # the compression probe is fixed, so a document that lists its Kraus
    # matrices loads no numpy.random: 13-17 ms of a cold dilate
    kraus = catalog.commuting_generic(2, 4, seed=1)
    doc = {"dim": 4, "kraus": [{"re": k.real.tolist(), "im": k.imag.tolist()} for k in kraus.ops]}
    (tmp_path / "chan.json").write_text(json.dumps(doc))
    argv = ["dilate", "chan.json", "--max-m", "3"]
    probe = (
        "import sys, krausfock.cli; "
        f"code = krausfock.cli.main({argv!r}); "
        "print(code, 'numpy.random' in sys.modules, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=_src_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "0 False"
    levels = json.loads(result.stdout)["payload"]["levels"]
    assert [level["m"] for level in levels] == [1, 2, 3]
    assert all(level["compression_residual"] <= 1e-9 for level in levels)


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "krausfock").glob("*.py"))
ROLE = re.compile(r":(?:func|class|exc):`~?([\w.]+)`")


def test_docstring_roles_resolve():
    # a bare name resolves in the module whose docstring names it, a dotted
    # name by import; a role naming a deleted function fails here
    unresolved = []
    for path in SOURCES:
        module = "krausfock" if path.stem == "__init__" else f"krausfock.{path.stem}"
        tree = ast.parse(path.read_text())
        nodes = [tree] + [
            n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in nodes:
            for role in ROLE.findall(ast.get_docstring(node) or ""):
                try:
                    pkgutil.resolve_name(role if "." in role else f"{module}:{role}")
                except (ImportError, AttributeError, ValueError):
                    unresolved.append(f"{path.name}: {role}")
    assert unresolved == []


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
