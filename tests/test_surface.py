"""The package's public names and signatures, its import cost, and the
independence of the test oracles."""

import ast
import inspect
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


# Parameters of every public callable but the exception classes; a trailing
# "=" marks one with a default.
SIGNATURES = {
    "AverageReport": (
        "alphabet_size block_length surplus source_bits shaped_bits "
        "method= source_stderr= shaped_stderr= samples= seed="
    ),
    "ClassOrder": "n a",
    "ExperimentReport": (
        "alphabet_size block_length surplus samples seed "
        "mean_bits_raw mean_bits_shaped mean_emp_info_raw mean_emp_info_shaped"
    ),
    "McConfig": "alphabet_size n k= samples= seed= threads=",
    "McEstimate": "mean std_error samples_used",
    "ShapingParameters": "alphabet_size n k=",
    "SourceEnsemble": "probabilities",
    "average_info_exact": "ensemble n interpretation=",
    "class_order": "n a",
    "composition_of": "symbols alphabet_size",
    "decode": "blob n= alphabet_size=",
    "empirical_information_content": "symbols alphabet_size",
    "encode": "symbols alphabet_size",
    "encoded_bit_length": "blob",
    "estimate_average_info": "config",
    "estimate_shaped_average_info": "config",
    "estimate_table": "configs method=",
    "in_image": "symbols params",
    "info_from_counts": "counts",
    "information_content": "ensemble symbols interpretation=",
    "multinomial": "counts",
    "order_product": "counts",
    "rank_info_series": "a n k",
    "redundancy_bound_bits": "n alphabet_size",
    "sample_compositions": "rng n a size",
    "shape": "symbols params",
    "shaped_average_info": "ensemble n k interpretation=",
    "shaped_average_info_exact": "a n k",
    "shaping_experiment": "params samples= seed=",
    "shard_generator": "seed shard_index",
    "string_rank": "symbols alphabet_size",
    "string_unrank": "rank n alphabet_size",
    "unshape": "symbols params",
    "validate_symbols": "symbols alphabet_size",
}


def test_public_names_are_pinned():
    # a new public name is a deliberate change to this list
    assert sorted(setshaping.__all__) == sorted(PUBLIC)
    assert len(set(setshaping.__all__)) == len(setshaping.__all__)
    assert all(hasattr(setshaping, name) for name in PUBLIC)


def test_public_signatures_are_pinned():
    # a new parameter, or a new default, is a deliberate change to this dict
    got = {}
    for name in setshaping.__all__:
        obj = getattr(setshaping, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            got[name] = " ".join(
                p.name + ("=" if p.default is not p.empty else "")
                for p in inspect.signature(obj).parameters.values()
            )
    assert got == SIGNATURES


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


def sites(match):
    """(file, function) of each node of the package that match accepts.

    A function is named with the class or functions around it, dotted.
    """

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                yield from walk(child, owner)

    found = []
    for path in sorted(Path(setshaping.__file__).parent.glob("*.py")):
        found.extend((path.name, owner) for owner in walk(ast.parse(path.read_text()), None))
    return found


def call_of(name, owner=None):
    """A match for a call of name, or of owner.name when owner is given."""

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if owner is not None:
            return (
                isinstance(func, ast.Attribute)
                and func.attr == name
                and isinstance(func.value, ast.Name)
                and func.value.id == owner
            )
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    return match


def raise_saying(text):
    """A match for a raise statement whose message holds text."""
    return lambda node: isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str) and text in part.value
        for part in ast.walk(node)
    )


def test_walk_budget_is_read_once_in_the_walk():
    # A walk is charged where it keeps its rows: the byte budget is read at
    # one site, compositions._partition_rows, which refuses in its walk, and
    # no guard counts compositions any more.
    def reads_budget(node):
        return isinstance(node, (ast.Name, ast.Attribute)) and (
            getattr(node, "id", None) or node.attr
        ) == "WALK_BYTE_BUDGET" and isinstance(node.ctx, ast.Load)

    def names_the_cap(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", "")
        return "composition_cap" in str(name).lower()

    assert sites(reads_budget) == [("compositions.py", "_partition_rows")]
    assert sites(raise_saying("byte budget")) == [("compositions.py", "_partition_rows.walk")]
    assert sites(names_the_cap) == []


def test_complete_order_is_built_only_below_a_tail():
    # A complete order is built only for a rank or selection query below a
    # tail; a reader of the whole order takes compositions._tie_groups.
    assert sites(call_of("_whole_order")) == [
        ("compositions.py", "ClassOrder.strings_before_class"),
        ("compositions.py", "ClassOrder.locate_string"),
    ]


def test_each_rule_has_one_copy():
    # The container header is read, an interpretation name checked, a
    # rank's range checked and integer fields taken through operator.index
    # in one place each, for every caller.
    assert sites(call_of("unpack", owner="HEADER")) == [("codec.py", "_read_header")]
    assert sites(raise_saying("unknown interpretation")) == [
        ("source.py", "_check_interpretation")
    ]
    assert sites(raise_saying("out of range for")) == [
        ("compositions.py", "ClassOrder.locate_string")
    ]
    assert sites(call_of("_index_fields")) == [
        ("bijection.py", "ShapingParameters.__post_init__"),
        ("montecarlo.py", "McConfig.__post_init__"),
    ]
    # The order has one direction, product descending, for all its readers.
    from setshaping.compositions import _exact_order

    assert list(inspect.signature(_exact_order).parameters) == ["rows", "tol"]


def test_each_input_rule_has_one_owner():
    # Each size rule and the nonempty-string rule is raised in one function
    # for every caller, the coder's block-size rule is written once, for
    # encode and for a container's header, and so is each symbol rejection.
    for text in (
        "alphabet must have at least one symbol",
        "block length must be positive",
        "length surplus must be positive",
        "need at least one sample",
    ):
        assert sites(raise_saying(text)) == [("source.py", "_check_sizes")], text
    assert sites(raise_saying("a string must be nonempty")) == [
        ("source.py", "_nonempty_symbols")
    ]
    compared = sites(
        lambda node: isinstance(node, ast.Compare)
        and any(isinstance(name, ast.Name) and name.id == "_MAX_TOTAL" for name in ast.walk(node))
    )
    assert compared == [("codec.py", "_fits_coder")]
    # Each rejection of a symbol is raised in one function of source.py, on
    # validate_symbols' route, so the list route of the block calls keeps no
    # copy of a check.
    for text, owner in (
        ("symbols must lie in", "validate_symbols"),
        ("symbols must be integers", "_as_int_array"),
        ("symbols must be whole numbers", "_as_int_array"),
        ("one-dimensional", "_as_int_array"),
    ):
        assert sites(raise_saying(text)) == [("source.py", owner)], text


def test_partition_walk_places_parts_in_one_loop():
    # _partition_rows nests one function, the walk, and one loop places
    # every part, the last two included.
    from setshaping.compositions import _partition_rows

    tree = ast.parse(inspect.getsource(_partition_rows)).body[0]
    nested = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert nested == ["_partition_rows", "walk"]
    assert len([node for node in ast.walk(tree) if isinstance(node, ast.For)]) == 1


def test_analyzer_checks_no_shaping_instance_itself():
    # ShapingParameters checks (a, n, k) for every analyzer function that
    # takes one, and source._check_sizes the block length of
    # average_info_exact, which takes a source ensemble and no shaping
    # instance.  What the analyzer raises itself is the series limit alone.
    raised = sites(lambda node: isinstance(node, ast.Raise))
    assert [site for site in raised if site[0] == "analyzer.py"] == [
        ("analyzer.py", "rank_info_series"),
    ]
    checked = [site for site in sites(call_of("_check_sizes")) if site[0] == "analyzer.py"]
    assert checked == [("analyzer.py", "average_info_exact")]
    built = [site for site in sites(call_of("ShapingParameters")) if site[0] == "analyzer.py"]
    assert built == [
        ("analyzer.py", "shaped_average_info_exact"),
        ("analyzer.py", "shaped_average_info"),
        ("analyzer.py", "rank_info_series"),
    ]


def fresh_interpreter(code):
    """Standard output of code run in a new interpreter that imports this package."""
    src = str(Path(setshaping.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


def test_import_leaves_scipy_special_unloaded():
    # scipy is a test dependency only: neither the import nor the float path
    # of info_from_counts loads any of it
    code = (
        "import sys, setshaping\n"
        "setshaping.info_from_counts([[1.5, 2.5], [4.0, 0.0]])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_interpreter(code) == "[]"


def test_import_leaves_thread_pools_unloaded():
    # concurrent.futures, and the logging it imports, load only when a
    # Monte Carlo run starts its worker threads
    code = (
        "import sys, setshaping\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    assert fresh_interpreter(code) == "[]"


def test_shaped_mean_leaves_statistics_unloaded():
    # the normal quantile of a tail's product limit comes from math alone,
    # so a cold shaped mean, or a cold order build, imports no statistics;
    # nor any other module, such as the numpy.ma that np.unique loads
    code = (
        "import sys, setshaping\n"
        "loaded = set(sys.modules)\n"
        "setshaping.shaped_average_info_exact(3, 100, 1)\n"
        "setshaping.class_order(101, 3)\n"
        "print(sorted(set(sys.modules) - loaded))"
    )
    assert fresh_interpreter(code) == "[]"


def test_shaped_estimate_loads_only_the_sampler():
    # a cold shaped estimate, its window's chi-square quantile and the exact
    # order of its tie band included, imports no module beyond numpy's
    # sampler, which numpy loads on first use; at n=3 it draws twice
    code = (
        "import sys, setshaping, numpy.random\n"
        "loaded = set(sys.modules)\n"
        "for n in (100, 3):\n"
        "    config = setshaping.McConfig(alphabet_size=10, n=n, k=1, samples=5000)\n"
        "    setshaping.estimate_shaped_average_info(config)\n"
        "print(sorted(set(sys.modules) - loaded))"
    )
    assert fresh_interpreter(code) == "[]"


# What the traced mc-table probe in benchmarks/workloads.py calls, beside the
# estimators: the shard split and the per-shard sampler and content calls.
# Only a traced run reaches the probe, so an untraced benchmark run would not
# notice a rename.
PROBE_SIGNATURES = {
    "_shard_sizes": "total",
    "info_from_counts": "counts",
    "sample_compositions": "rng n a size",
    "shard_generator": "seed shard_index",
}


def test_benchmark_probe_names_are_pinned():
    from setshaping import montecarlo

    assert isinstance(montecarlo.SHARD_SIZE, int) and montecarlo.SHARD_SIZE > 0
    got = {
        name: " ".join(inspect.signature(getattr(montecarlo, name)).parameters)
        for name in PROBE_SIGNATURES
    }
    assert got == PROBE_SIGNATURES
    workloads = Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    read = {
        node.attr
        for node in ast.walk(ast.parse(workloads.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "montecarlo"
    }
    assert read == {"SHARD_SIZE", "_shard_sizes"}


def test_benchmark_order_reads_are_pinned():
    # The traced benchmark reads these off a class order: the group_* tables
    # in _build and the two queries of the stream-roundtrip probe.  Only a
    # traced run reaches them, so an untraced benchmark run would not notice
    # that ClassOrder lost one.
    from setshaping import ClassOrder

    workloads = Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    read = set()
    for node in ast.walk(ast.parse(workloads.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        # `order.name` in _build, `self.orders[key].name` in the probe
        owner = node.value.value if isinstance(node.value, ast.Subscript) else node.value
        if (isinstance(owner, ast.Name) and owner.id == "order") or (
            isinstance(owner, ast.Attribute) and owner.attr == "orders"
        ):
            read.add(node.attr)
    assert read == {"group_partitions", "group_products", "strings_before_class", "locate_string"}
    assert [name for name in sorted(read) if not hasattr(ClassOrder, name)] == []
