"""The package surface: one list of public names, and the README example."""

import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import krausfock
from krausfock import catalog, channel, dequantization, dilation, linalg, subproduct

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
    assert {"dequantize", "phi_symmetry_residual", "convergence_report"} <= readers


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


def test_cli_import_leaves_scipy_out():
    # a cold CLI run pays for every import: numpy alone takes about 0.1 s,
    # numpy with scipy.linalg about 0.25 s
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, krausfock.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
