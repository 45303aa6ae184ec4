"""Every statement of src/misac is one the pipeline runs.

One chain of in-process ``misac`` commands covers every command, task and
flag, on data that takes the paths only some data takes: samples without a
map or with CSI alone, modality dropout, CSI noise, batches with complete
samples for the contrastive term, and all three CSI mask schemes. It runs
under ``sys.settrace``, and the test fails on every statement of a function
in src/misac that no command ran, listed as ``module:line: source``.

Exempt are ``raise`` statements and every statement of a block that ends in
one (the guard that leads there still has to run), docstrings, and what
compiles to no bytecode (``global``, ``try:``). Module and class bodies run
at import, before the trace, and are not checked. Anything else the chain
cannot reach goes in ALLOWED below, keyed by module, qualified name and
statement text, with the reason; an entry the chain reaches, or that names
no statement, fails the test too.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import misac
from misac.cli import main
from misac.downstream import TASKS

SRC = Path(misac.__file__).resolve().parent

# (module, qualified name, first line of the statement): why no command runs it
ALLOWED = {
    ("tensor", "Tensor.size", "return self.data.size"):
        "benchmarks/workloads.py reads it; it goes when the benchmark stops",
    ("synth", "RadarMaps.ra", "return ComplexTensor(self.data[0])"):
        "benchmarks/workloads.py reads it; it goes when the benchmark stops",
    ("synth", "RadarMaps.rv", "return ComplexTensor(self.data[1])"):
        "benchmarks/workloads.py reads it; it goes when the benchmark stops",
    ("synth", "SceneMap.bev", "return self._dense(slice(1, 4))"):
        "benchmarks/workloads.py reads it; it goes when the benchmark stops",
    ("synth", "SceneMap.height", "return self._dense(slice(4, 5))"):
        "benchmarks/workloads.py reads it; it goes when the benchmark stops",
    ("synth", "SceneMap._dense", "res = self.resolution"): "the helper of SceneMap.bev and .height",
    ("synth", "SceneMap._dense", "grid = np.zeros((res * res, columns.stop - columns.start))"):
        "the helper of SceneMap.bev and .height",
    ("synth", "SceneMap._dense", "grid[self.index] = self.rows[:, columns]"): "the helper of SceneMap.bev and .height",
    ("synth", "SceneMap._dense", "return grid.reshape(res, res, -1)"): "the helper of SceneMap.bev and .height",
    ("tensor", "_unbroadcast", "g = g.sum(axis=axes, keepdims=True)"):
        "no operand that needs a gradient broadcasts along a size-1 axis in the pipeline, but add, sub, mul "
        "and matmul accept one, and tests/test_tensor.py checks that gradient",
    ("downstream", "nmse_db", "return floor_db"):
        "only an exact reconstruction reaches the -120 dB floor; tests/test_downstream.py checks it",
}


@contextlib.contextmanager
def traced_lines():
    """Yields the set that collects (file, line) of every line run in src/misac
    while the block runs; the tracer set before it is restored after."""
    lines: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == SRC
        return local if ours[name] else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        yield lines
    finally:
        sys.settrace(previous)


def code_lines(path: Path) -> set[int]:
    """The lines that compile to bytecode, over every code object of the module."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out |= {line for _, _, line in code.co_lines() if line is not None}
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def checked_statements(path: Path):
    """(line, qualified name, first source line, own lines) of each statement
    in a function body of the module that the trace can see: not a docstring,
    not in a block that ends in raise, and with bytecode on its own lines (a
    compound statement's own lines are its header, up to its first child)."""
    source = path.read_text()
    lines, has_code = source.splitlines(), code_lines(path)
    out = []

    def block(stmts, scope, in_function, exempt):
        exempt = exempt or bool(stmts and isinstance(stmts[-1], ast.Raise))
        for i, node in enumerate(stmts):
            docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            children = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
            children += [h.body for h in getattr(node, "handlers", [])]
            first_child = min((c[0].lineno for c in children if c), default=node.end_lineno + 1)
            own = set(range(node.lineno, max(first_child, node.lineno + 1)))
            if in_function and not exempt and not docstring and own & has_code:
                out.append((node.lineno, ".".join(scope), lines[node.lineno - 1].strip(), own))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                block(node.body, scope + [node.name], isinstance(node, ast.FunctionDef), exempt)
            else:
                for child in children:
                    block(child, scope, in_function, exempt)

    block(ast.parse(source).body, [], False, False)
    return out


def write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def run_chain(tmp: Path) -> None:
    """Every command, task and flag at least once, each with the exit code it must give."""
    tiny = {
        "model": {
            "d": 16, "n_heads": 2, "n_layers": 1, "n_experts": 4, "top_k": 2,
            "csi_patch": [2, 4], "map_patch": [16, 16], "radar_size": 16, "radar_patch": [4, 4],
        },
        # every sample keeps its CSI, which the reconstruction tasks rebuild;
        # some lack the map (the routing context) and some hold CSI alone
        "data": {"n_samples": 6, "seed": 3, "availability": {"csi": 1.0, "radar": 0.5, "map": 0.67}},
        "pretrain": {"steps": 2, "batch_size": 6, "save_every": 1, "modality_dropout": 0.2},
        "finetune": {"steps": 1, "batch_size": 2, "snr_range": [5.0, 20.0]},
    }
    first = write(tmp / "first.json", tiny)
    cfg = write(tmp / "cfg.json", {**tiny, "pretrain": {**tiny["pretrain"], "steps": 3}})
    diverging = write(tmp / "diverging.json", {**tiny, "finetune": {"steps": 2, "lr_min": 1e300, "lr_max": 1e300}})
    paper = write(tmp / "paper.json", {"preset": "paper", "data": {"n_samples": 1}})
    data, ckpt = str(tmp / "data"), str(tmp / "pre.msck")

    chain = [
        (["synth", "--config", cfg, "--out", data], 0),
        (["synth", "--config", paper, "--out", str(tmp / "paper"), "--seed", "1"], 0),
        (["pretrain", "--config", first, "--data", data, "--out", ckpt], 0),
        (["pretrain", "--config", cfg, "--data", data, "--out", ckpt, "--force"], 0),  # resumes at step 2
        (["pretrain", "--config", cfg, "--data", data, "--out", ckpt], 0),  # the schedule is done
    ]
    for i, task in enumerate(TASKS):
        flags = [["--freeze", "head"], ["--freeze", "full"], ["--freeze", "head"], ["--scratch"], ["--force"]][i]
        source = flags if "--scratch" in flags else ["--checkpoint", ckpt, *flags]
        out = str(tmp / f"{task}.msck")
        chain += [
            (["finetune", "--config", cfg, "--data", data, "--task", task, *source, "--out", out], 0),
            (["eval", "--config", cfg, "--data", data, "--task", task, "--checkpoint", out,
              "--drop-modality", "radar" if i % 2 else "map,radar"], 0),
        ]
    chain += [
        (["eval", "--config", cfg, "--data", data, "--checkpoint", str(tmp / "localization.msck"),
          "--task", "localization", "--force"], 0),
        (["stats", "--config", cfg, "--data", data, "--checkpoint", ckpt, "--out", str(tmp / "routing.csv"),
          "--force"], 0),
        (["finetune", "--config", cfg, "--data", data, "--task", "hovering"], 1),  # a config error
        (["stats", "--data", str(tmp / "nowhere"), "--checkpoint", ckpt], 2),  # an i/o error
        # a step size that overflows the weights: a runtime error
        (["finetune", "--config", diverging, "--data", data, "--scratch", "--task", "localization"], 2),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        codes = [main(argv) for argv, _ in chain]
    assert codes == [code for _, code in chain], err.getvalue()


def test_every_src_statement_runs(tmp_path):
    with traced_lines() as lines:
        run_chain(tmp_path)
    hit = {(str(Path(f).resolve()), n) for f, n in lines}
    unreached, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, qualname, text, own in checked_statements(path):
            if any((str(path), n) in hit for n in own):
                continue
            key = (path.stem, qualname, text)
            if key in ALLOWED:
                used.add(key)
            else:
                unreached.append(f"{path.stem}:{line}: {text}")
    stale = sorted(set(ALLOWED) - used)
    assert not unreached, "statements no command runs:\n" + "\n".join(unreached)
    assert not stale, f"ALLOWED entries the chain runs, or that name no statement: {stale}"
