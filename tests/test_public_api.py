"""The public API surface: exports, errors, doctests."""

import ast
import doctest
import importlib
from pathlib import Path

import pytest


class TestExports:
    def test_top_level(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.storage",
            "repro.distance",
            "repro.index",
            "repro.baselines",
            "repro.datasets",
            "repro.sequence",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None, f"{module}.{name}"

    def test_version(self):
        import repro

        assert repro.__version__


class TestErrors:
    def test_hierarchy(self):
        from repro.errors import InfeasibleBufferError, ReproError

        assert issubclass(InfeasibleBufferError, ReproError)
        assert issubclass(ReproError, Exception)

    def test_infeasible_is_catchable_as_repro_error(self, rng):
        from repro.core.join import IndexedDataset, join
        from repro.errors import ReproError

        r = IndexedDataset.from_points(rng.random((400, 2)), page_capacity=4)
        with pytest.raises(ReproError):
            join(r, r, 0.3, method="bfrj", buffer_pages=2)


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.geometry.rect",
            "repro.core.prediction",
            "repro.distance.vector",
        ],
    )
    def test_module_doctests(self, module):
        mod = importlib.import_module(module)
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0
        assert result.attempted > 0  # the module advertises examples


class TestLayout:
    """Test-only code (the frozen reference oracles) stays out of the package."""

    def test_package_never_imports_tests(self):
        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(root)}: {name}"
                    for name in names
                    if name == "tests" or name.startswith("tests.")
                ]
        assert offenders == []

    @pytest.mark.parametrize(
        "module", ["repro.core.sweep_reference", "repro.core.clusters_reference"]
    )
    def test_oracles_are_not_in_the_package(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


class TestExperimentsCli:
    def test_main_module_runs_tiny(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["figure10", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "[figure10" in out
