"""The package names the benchmark reads must exist.

The benchmark's scripts under bench/ call tmscat by module attribute, some
of them only in traced runs, which the test suite never starts.  This test
parses those scripts (it runs and modifies none of them) and resolves every
module-level name they read from tmscat and its submodules, so that a
deletion or rename in the package that would break a benchmark run fails
here.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _is_submodule(module: str, name: str) -> bool:
    """True if module.name imports as a module; a failing import inside the
    package raises, so a broken package cannot pass for a short surface."""
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{module}.{name}":
            raise
        return False
    return True


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> tmscat module it is bound to, from the import statements."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "tmscat":
                    # `import tmscat.cli` binds tmscat; `import tmscat as tm` binds tm
                    aliases[a.asname or "tmscat"] = a.name if a.asname else "tmscat"
        elif isinstance(node, ast.ImportFrom) and node.module == "tmscat":
            for a in node.names:
                if _is_submodule("tmscat", a.name):
                    aliases[a.asname or a.name] = f"tmscat.{a.name}"
    return aliases


def _dotted(node: ast.Attribute) -> list[str] | None:
    """['tm', 'cli', 'main'] for tm.cli.main; None unless rooted at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def bench_reads() -> set[tuple[str, str]]:
    """(module, name) for every module-level tmscat name a bench script reads."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tmscat":
                reads.update((node.module, a.name) for a in node.names
                             if not _is_submodule(node.module, a.name))
            if not isinstance(node, ast.Attribute):
                continue
            chain = _dotted(node)
            if chain is None or chain[0] not in aliases:
                continue
            module = aliases[chain[0]]
            # descend through submodules to the first module-level name
            for attr in chain[1:]:
                if not _is_submodule(module, attr):
                    reads.add((module, attr))
                    break
                module = f"{module}.{attr}"
    return reads


@pytest.fixture(scope="module")
def reads():
    return bench_reads()


def test_every_name_the_bench_reads_resolves(reads):
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_surface_includes_traced_only_and_alias_names(reads):
    # names reached only by a traced run or kept only as aliases for the bench
    assert {("tmscat", "effective_hamiltonian"),
            ("tmscat.closedforms", "delta2d_operator"),
            ("tmscat.threed", "compose_3d"),
            ("tmscat.threed", "solve_outgoing_3d"),
            ("tmscat.threed", "amplitude3d"),
            ("tmscat.cli", "main")} <= reads


def test_threed_defines_nothing_and_re_exports_the_layer_modules(reads):
    # tmscat.threed keeps the import path the bench reads, and only that; a
    # definition there would be a second copy of a layer module's 3D code
    tree = ast.parse((ROOT / "src" / "tmscat" / "threed.py").read_text())
    definitions = [type(node).__name__ for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Assign, ast.AnnAssign, ast.AugAssign))]
    assert definitions == []
    from tmscat import threed
    names = {name for module, name in reads if module == "tmscat.threed"}
    assert names
    layers = {f"tmscat.{m}" for m in ("closedforms", "evolution", "grid", "operators")}
    for name in names:
        obj = getattr(threed, name)
        assert obj.__module__ in layers, name
        assert getattr(importlib.import_module(obj.__module__), obj.__name__) is obj, name
    # and nothing else, private names included
    assert {n for n in vars(threed) if not n.startswith("__")} == names


# what a run is built from; engine helpers are module attributes, not root names
ROOT_NAMES = [
    # potentials and their documents
    "Delta2D", "Delta3D", "GaussianBump", "Slab", "SlabWithDefect", "SumPotential",
    "potential_from_document", "potential_to_document",
    # grids
    "DiscGrid", "MomentumGrid", "build_disc_grid", "build_grid", "quadrature",
    # the operator pipeline
    "EvolutionConfig", "LowRank", "TransferOperator", "amplitude", "amplitude3d",
    "auto_config", "compose", "effective_hamiltonian", "evolve_transfer",
    "scattering_result", "solve_outgoing",
    # closed forms
    "SlabParams", "born2d_amplitude", "delta2d_amplitude", "delta3d_amplitude",
    "point_operator", "scattering_length", "slab_defect_amplitudes", "slab_entries",
    "slab_operator", "slab_xyz", "slab_y", "spectral_singularity", "threshold_gain_curve",
    "wire_modes", "wire_strength",
    # the oracle
    "born1_transfer", "convergence_report", "transfer_1d",
    # result types
    "ConvergenceReport", "DefectAmplitudes", "ScatteringResult", "SingularityFlag",
    "SingularitySearch", "SpectralAmplitude", "Transfer1D",
    # errors
    "AccuracyWarning", "ConsistencyError", "DivergenceError", "NearResonanceError",
    "NoRootError", "SpectralSingularityError", "TmscatError", "UnsupportedEvaluationError",
]


def test_root_exports_each_object_once_and_no_module():
    # one name per operation: an alias or a submodule in __all__ would be a
    # second way to spell what another export already names; and the root
    # exports exactly the pinned list, so a helper cannot drift into it
    import tmscat
    values = [getattr(tmscat, name) for name in tmscat.__all__]
    assert not [name for name, v in zip(tmscat.__all__, values) if isinstance(v, ModuleType)]
    assert len({id(v) for v in values}) == len(values)
    assert len(ROOT_NAMES) == 57
    assert tmscat.__all__ == sorted(ROOT_NAMES)
