"""The package's public names, its import cost, and the independence of
the test oracles."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import setshaping

PUBLIC = [
    "AverageReport",
    "BlockLengthError",
    "ClassOrder",
    "CorruptStreamError",
    "DEFAULT_COMPOSITION_CAP",
    "DegenerateSampleError",
    "ExperimentReport",
    "InvalidSymbolError",
    "McConfig",
    "McEstimate",
    "NotInImageError",
    "ResourceLimitError",
    "ShapingError",
    "ShapingParameters",
    "SourceEnsemble",
    "average_info_exact",
    "class_order",
    "composition_count",
    "composition_of",
    "decode",
    "empirical_information_content",
    "encode",
    "encoded_bit_length",
    "estimate_average_info",
    "estimate_shaped_average_info",
    "estimate_table",
    "in_image",
    "info_from_counts",
    "information_content",
    "multinomial",
    "order_product",
    "rank_info_series",
    "redundancy_bound_bits",
    "sample_compositions",
    "shape",
    "shaped_average_info",
    "shaped_average_info_exact",
    "shaping_experiment",
    "shard_generator",
    "string_rank",
    "string_unrank",
    "unshape",
    "validate_symbols",
]


def test_public_names_are_pinned():
    # a new public name is a deliberate change to this list
    assert sorted(setshaping.__all__) == sorted(PUBLIC)
    assert len(set(setshaping.__all__)) == len(setshaping.__all__)
    assert all(hasattr(setshaping, name) for name in PUBLIC)


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "setshaping"]


def test_import_leaves_scipy_special_unloaded():
    # scipy.special costs most of the import time; only float input to
    # info_from_counts needs it
    src = str(Path(setshaping.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, setshaping; print('scipy.special' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"
