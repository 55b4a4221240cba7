"""What each command loads, and the package's exports: scalar commands start
without numpy, no command loads a process pool, and the bulk names are
served lazily."""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gphi

SRC = Path(gphi.__file__).resolve().parent.parent

# Runs gphi's main on the arguments, then prints the loaded modules, the
# OPENBLAS_NUM_THREADS setting and the process's thread count (None where
# /proc is missing) as the last line of stderr.
_PROBE = """\
import json, os, sys
from gphi.cli import main
code = main(sys.argv[1:])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([sorted(sys.modules), os.environ.get("OPENBLAS_NUM_THREADS"), threads]), file=sys.stderr)
sys.exit(code)
"""


def probe(*argv, openblas=None):
    """(modules, OPENBLAS_NUM_THREADS, threads) at the end of `gphi <argv>`,
    run in a fresh interpreter with OPENBLAS_NUM_THREADS set to openblas or
    unset."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("GPHI_JOBS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    modules, setting, threads = json.loads(proc.stderr.splitlines()[-1])
    return set(modules), setting, threads


def modules_after(*argv):
    """The modules loaded by the end of `gphi <argv>`, run in a fresh interpreter."""
    return probe(*argv)[0]


def under(modules, *packages):
    return sorted(m for m in modules if m.split(".")[0] in packages)


@pytest.mark.parametrize("argv", [
    ("orbit", "--n", "3114"),
    ("scan-orbits", "--limit", "20"),
    ("families",),
    ("trace", "--n", "70"),
])
def test_scalar_commands_load_no_numpy_and_no_pool(argv):
    modules = modules_after(*argv)
    assert "gphi.orbits" in modules
    assert under(modules, "numpy", "concurrent", "multiprocessing") == []
    assert "gphi.diophantine" not in modules and "gphi.sieve" not in modules


@pytest.mark.parametrize("argv", [
    ("verify-theorem", "--limit", "1000"),
    ("search-relaxed", "--limit", "1000"),
    ("search-exotic", "--from", "2", "--to", "100000", "--jobs", "1"),
    ("search-exotic", "--from", "2", "--to", "100000", "--jobs", "2"),
])
def test_serial_bulk_commands_load_no_pool(argv):
    modules = modules_after(*argv)
    assert "numpy" in modules and "gphi.diophantine" in modules
    assert "concurrent.futures.process" not in modules
    assert under(modules, "multiprocessing") == []
    if argv[0] == "search-exotic":
        assert under(modules, "concurrent", "multiprocessing") == []


# gphi calls no BLAS routine: numpy starts with one OpenBLAS thread, not
# one per core, unless the user chose a count.
@pytest.mark.parametrize("openblas, expected", [(None, "1"), ("3", "3")])
def test_numpy_starts_with_one_blas_thread_unless_set(openblas, expected):
    modules, setting, threads = probe("verify-theorem", "--limit", "10", openblas=openblas)
    assert "numpy" in modules and setting == expected
    if expected == "1" and threads is not None:
        assert threads == 1


# Every name the package exported when it imported all its modules eagerly,
# with the module that defines it.
EXPORTS = {
    "arith": ("Factorization", "LemmaKind", "LemmaVerdict", "NaturalOverflowError", "Orbit",
              "euler_phi", "factorize", "g", "is_prime", "iterate_g", "lemma_predicate",
              "odd_part", "v2"),
    "equation": ("InternalInconsistencyError", "ProofTrace", "SolutionKind", "TraceCase",
                 "case_trace", "family_members", "is_solution"),
    "diophantine": ("ExoticWitness", "SolutionClass", "brute_force_solutions", "classify",
                    "classify_range", "exotic_prime_search", "relaxed_search"),
    "orbits": ("OrbitRelation", "Persistence", "PersistenceResult", "detect_relations",
               "doubling_persistence", "reduce_to_diophantine", "scan_orbits"),
    "sieve": ("SearchCheckpoint", "SieveSegment", "base_primes", "primes_in_class",
              "read_checkpoint", "sieve_segment", "totient_progression", "write_checkpoint"),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", EXPORTED)
def test_every_export_is_the_defining_modules_object(module, name):
    import gphi.diophantine

    defining = sys.modules[f"gphi.{module}"]
    obj = getattr(gphi, name)
    assert obj is getattr(defining, name)
    assert obj.__module__ == defining.__name__
    namespace = {}
    exec(f"from gphi import {name}", namespace)
    assert namespace[name] is obj
    # the names the scalar module defines stay importable from diophantine
    if module == "equation":
        assert getattr(gphi.diophantine, name) is obj


def test_bulk_names_are_not_stored_in_the_package():
    before = dict(vars(gphi))
    for module, names in EXPORTS.items():
        for name in names:
            getattr(gphi, name)
    assert vars(gphi).keys() - before.keys() <= {"diophantine", "sieve"}
    assert not any(name in vars(gphi) for name in EXPORTS["diophantine"] + EXPORTS["sieve"])


def test_dir_and_unknown_names():
    listed = dir(gphi)
    assert {name for _, name in EXPORTED} <= set(listed)
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        gphi.no_such_name
    with pytest.raises(ImportError):
        exec("from gphi import no_such_name", {})


# The full-range sweep's window size, window loop and width rule live in
# gphi.sieve.  No code of diophantine reads sieve_segment, whose binding
# there stays for perfbench's tracer test only, so a stub of
# diophantine.sieve_segment would go unseen: stub sieve.sieve_segment, which
# sweep_windows calls.  Nor does diophantine hold a window-size constant.
def test_diophantine_reads_the_sweep_only_through_its_window_stream():
    import gphi.diophantine
    import gphi.sieve

    module = compile(inspect.getsource(gphi.diophantine), gphi.diophantine.__file__, "exec")
    stack, read = [c for c in module.co_consts if isinstance(c, types.CodeType)], set()
    while stack:  # every function and class body, not the imports
        code = stack.pop()
        read.update(code.co_names)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    assert "sieve_segment" not in read and "sweep_windows" in read
    names = vars(gphi.diophantine)
    assert [name for name, value in names.items() if "WINDOW" in name.upper() and isinstance(value, int)] == []
    assert gphi.diophantine.sweep_windows is gphi.sieve.sweep_windows


# The strike rule, the least j with d | first + modulus*j, is spelled once,
# in sieve._first_index; _sparse_strikes vectorizes it through _inverses,
# which inverts residues modulo the modulus, not the modulus.  So no other
# function of sieve or diophantine calls pow(x, -1, y).
def test_the_first_index_rule_is_spelled_once():
    import ast

    import gphi.diophantine
    import gphi.sieve

    inverting = set()
    for module in (gphi.sieve, gphi.diophantine):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "pow"
                            and len(call.args) == 3 and ast.unparse(call.args[1]) == "-1"):
                        inverting.add(f"{module.__name__}.{node.name}")
    assert inverting == {"gphi.sieve._first_index", "gphi.sieve._inverses"}
    assert gphi.diophantine._first_index is gphi.sieve._first_index


# Whether the oracle and the classifier agree on n is decided once, in
# diophantine.oracle_comparison, which yields both verdicts: no handler of
# cli tells a solution by its kind.  Only the --kind choices of build_parser
# name NOT_SOLUTION, to leave it out.
def test_the_oracle_comparison_has_one_owner():
    import ast

    import gphi.cli
    import gphi.diophantine

    def reads(node):
        return [a for a in ast.walk(node) if isinstance(a, ast.Attribute) and a.attr == "NOT_SOLUTION"]

    tree = ast.parse(inspect.getsource(gphi.cli))
    parser = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "build_parser")
    kind, = (c for c in ast.walk(parser) if isinstance(c, ast.Call) and [ast.unparse(a) for a in c.args] == ["'--kind'"])
    assert len(reads(kind)) == 1
    assert reads(tree) == reads(kind)
    assert not hasattr(gphi.diophantine, "theorem_mismatches")


# The job-count rule is spelled once, in cli.resolve_jobs: no other module
# names MAX_JOBS, and the library's exotic search takes no job count.
def test_the_job_count_has_one_owner():
    import ast

    from gphi.diophantine import exotic_prime_search

    paths = sorted(Path(gphi.__file__).parent.glob("*.py"))
    assert {"cli.py", "diophantine.py", "limits.py"} <= {path.name for path in paths}
    readers = {path.name for path in paths for node in ast.walk(ast.parse(path.read_text()))
               if "MAX_JOBS" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))}
    assert readers == {"cli.py"}
    assert "jobs" not in inspect.signature(exotic_prime_search).parameters


# Every command runs in one process: no module of the package imports
# concurrent or multiprocessing, at its top or inside a function.
def test_the_cli_knows_no_pool():
    import ast

    paths = sorted(Path(gphi.__file__).parent.glob("*.py"))
    assert {"cli.py", "diophantine.py", "sieve.py"} <= {path.name for path in paths}
    imported = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert [(name, module) for name, module in imported
            if module.split(".")[0] in ("concurrent", "multiprocessing")] == []


# The solution-shape rules (the family index's precedence over the exotic
# shapes, the shapes' order and the class built from them) are spelled once,
# in diophantine.classify: classify_range asks classify about each candidate
# and builds no SolutionClass of its own.
def test_the_shape_rules_have_one_owner():
    import ast

    import gphi.diophantine

    tree = ast.parse(inspect.getsource(gphi.diophantine.classify_range))
    called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "classify" in called
    assert "SolutionClass" not in called


# The doubling law's persistence certificate is spelled once, in
# orbits._doubling_refusal: detect_relations and doubling_persistence both
# ask it, and orbits binds no g to re-derive the equation with.
def test_the_persistence_certificate_has_one_owner():
    import ast

    import gphi.orbits

    for function in (gphi.orbits.detect_relations, gphi.orbits.doubling_persistence):
        tree = ast.parse(inspect.getsource(function))
        called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "_doubling_refusal" in called, function.__name__
    assert not hasattr(gphi.orbits, "_is_power_of_two")
    assert not hasattr(gphi.orbits, "g")
