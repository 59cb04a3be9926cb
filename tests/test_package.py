"""The package's top-level surface: the names its callers import."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import lockstepsim
from helpers import run_with_records

CONFIG_DIR = Path(__file__).parent.parent / "configs"

# The benchmark's child process calls load_config, ExperimentRunner,
# run_experiment, run_to_directory, infer, gen_weights and gen_frame.
PUBLIC = {
    "load_config",
    "config_from_dict",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentReport",
    "run_experiment",
    "run_to_directory",
    "compare_runs",
    "gen_weights",
    "gen_frame",
    "infer",
    "ConfigError",
    "HarnessError",
    "__version__",
}


def test_all_is_the_public_surface():
    assert sorted(lockstepsim.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in lockstepsim.__all__:
        assert getattr(lockstepsim, name) is not None, name


# What the benchmark's child process and its span tests call on the package.
BENCHMARK_CALLS = ("load_config", "config_from_dict", "ExperimentRunner", "run_experiment",
                   "run_to_directory", "infer", "gen_weights", "gen_frame")


def test_the_benchmark_calls_resolve():
    for name in BENCHMARK_CALLS:
        assert name in lockstepsim.__all__, name
        assert callable(getattr(lockstepsim, name)), name


def test_the_benchmark_cycle_call_chains_on_a_shipped_config():
    # perfbench/bench_child.py's sim_cycles, word for word
    ls = lockstepsim
    cfg, _, records = run_with_records(json.loads((CONFIG_DIR / "tight-baseline.json").read_text()))
    wl = cfg.workload
    cycles = ls.infer(ls.gen_weights(0, wl.arch), ls.gen_frame(0, 0, wl.input_shape),
                      cfg.topology.engine)[1]
    assert records[0]["kind"] == "header" and records[0]["compute_cycles"] == cycles


def test_gen_frame_is_the_one_frame_block_of_gen_frames():
    frames = lockstepsim.replica.gen_frames(3, range(5), (2, 3))
    for f in range(5):
        block = lockstepsim.gen_frame(3, f, (2, 3))
        assert block.shape == (1, 2, 3) and np.array_equal(block[0], frames[f])


def test_import_leaves_out_dataclasses_and_copy():
    # Both cost import time in every process; numpy imports neither. A run
    # must not import numpy.ma either: np.unique over an axis or
    # np.percentile pulls it in, about 13 ms per process. Nor the command
    # line, `lockstepsim.cli` and its `argparse`: a run through the package
    # has no use for them.
    config = str(CONFIG_DIR / "fault-campaign.json")
    code = (
        "import json, sys, tempfile, lockstepsim\n"
        "print(sorted({'dataclasses', 'copy'} & set(sys.modules)))\n"
        f"raw = json.loads(open({config!r}).read())\n"
        "raw['workload']['frame_count'] = 2\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    lockstepsim.run_to_directory(lockstepsim.config_from_dict(raw), out)\n"
        "print('numpy.ma' in sys.modules)\n"
        "print(sorted({'lockstepsim.cli', 'argparse'} & set(sys.modules)))\n"
    )
    src = str(Path(lockstepsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=src)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["[]", "False", "[]"]


def test_a_traced_run_leaves_out_hashlib():
    # `import hashlib` loads OpenSSL's libcrypto, which raised the peak RSS
    # of a traced run by about 3.5 MiB: the trace header's config digest is
    # FNV-1a (`rng.fnv1a64`) instead.
    raw = json.loads((CONFIG_DIR / "tight-baseline.json").read_text())
    raw["workload"]["frame_count"] = 2
    code = (
        "import json, sys, tempfile, lockstepsim\n"
        f"raw = json.loads({json.dumps(raw)!r})\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    lockstepsim.run_to_directory(lockstepsim.config_from_dict(raw), out)\n"
        "    print(open(out + '/trace.jsonl').readline().count('config_digest'))\n"
        "print('_hashlib' in sys.modules)\n"
    )
    src = str(Path(lockstepsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=src)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["1", "False"]


def test_no_call_takes_numpys_hashed_set_path():
    # NumPy 2.4 finds the distinct values of a plain `np.unique` (no
    # `return_*`) and of the set functions by hashing, and the first such
    # call in a process costs 8-14 ms: a `np.unique(width)` made a
    # tight-2oo3-faults benchmark run 38% slower, and `union1d` made the
    # first `compare_runs` take 8.65 ms, against 0.15 ms warm. Sort instead.
    hashed = {"union1d", "intersect1d", "setdiff1d", "isin", "in1d"}
    calls = []
    for path in sorted(Path(lockstepsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                plain = name == "unique" and not any((k.arg or "").startswith("return_") for k in node.keywords)
                if name in hashed or plain:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []


def test_no_call_asks_numpy_for_an_inverse_map():
    # `np.unique(..., return_inverse=True)` took 1.34 ms on 20k int64
    # samples, against 0.061 ms for `return_counts=True`: read a sorted
    # value table, or take an already sorted array's runs, instead.
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(lockstepsim.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and any(k.arg == "return_inverse" and not (
                 isinstance(k.value, ast.Constant) and k.value.value is False) for k in node.keywords)]
    assert calls == []


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs here, and a deletion can leave an import behind; a name
    # listed in `__all__` is re-exported, so used
    unused = []
    for path in sorted(Path(lockstepsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(*(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                      and any(getattr(target, "id", None) == "__all__" for target in node.targets)))
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
