"""Start-up cost: what importing the package and running one command load."""

from __future__ import annotations

import ast
import builtins
import contextlib
import functools
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

from schubflex import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def _imports(path: Path):
    """(line, modules, names) of each import statement in a module's source, at any depth.

    ``import a, b`` gives modules [a, b] and no names; ``from x import y, z``
    gives modules [x] and names [y, z].
    """
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""], [alias.name for alias in node.names]
        else:
            stack.extend(ast.iter_child_nodes(node))


def _package_modules():
    return sorted((SRC / "schubflex").glob("*.py"))


def test_package_does_not_import_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and builds each
    # record class at import time; the records are slots classes whose
    # fields Frozen.__init__ stores.
    found = [
        f"{path.name}:{line}"
        for path in _package_modules()
        for line, modules, _ in _imports(path)
        if any(m.split(".")[0] == "dataclasses" for m in modules)
    ]
    assert found == [], f"dataclasses imported in the package: {found}"


def test_no_function_body_runs_an_import_statement():
    # A module that loads on first need loads through diagram._module, whose
    # cache makes a repeated call run no import statement.  A module-level
    # "if TYPE_CHECKING:" block is not a function body, so it may import.
    found = {
        f"{path.name}:{node.lineno}"
        for path in _package_modules()
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }  # a set: a nested function's imports are also its outer function's
    assert found == set(), f"import statements inside functions: {sorted(found)}"


def test_constructions_and_verification_import_no_classifier():
    # The witness engines and the verify pipeline decide flexibility by their
    # own constructions, so "multi-rigid or witnessed" compares two
    # independent answers; they meet the classifiers only in cli classify.
    found = [
        f"{name}:{line}"
        for name in ("witness.py", "witnesses.py", "moduli.py", "certify.py", "verify.py")
        for line, modules, names in _imports(SRC / "schubflex" / name)
        if any(n.split(".")[-1] == "rigidity" for n in modules + names)
    ]
    assert found == [], f"classifier imported by a construction module: {found}"


_START_UP = (
    "cli.py", "commands.py", "weyl.py", "closed_forms.py", "frozen.py", "poset.py", "diagram.py",
)


def test_the_modules_every_command_loads_import_no_later_layer():
    # cli imports commands (which imports weyl and poset) at the top, weyl
    # imports closed_forms, and poset imports diagram and frozen, so every
    # command compiles them; what they import, every command compiles too.
    # specs loads on the first class-spec command, and exports on the first
    # poset export.
    later = {
        "classical", "isotropic", "golden", "rigidity", "witness", "witnesses", "moduli", "tits",
        "certify", "verify", "specs", "exports",
    }
    found = [
        f"{name}:{line}"
        for name in _START_UP
        for line, modules, names in _imports(SRC / "schubflex" / name)
        if later & {n.split(".")[-1] for n in modules + names}
    ]
    assert found == [], f"a start-up module imports a later layer: {found}"


def _compile_peaks(paths) -> dict[str, tuple[int, int]]:
    """The traced peak, in bytes, of compiling each module, and its token count, by file name."""
    return {path.name: _compile_peak(path) for path in paths}


@functools.lru_cache(maxsize=None)
def _compile_peak(path: Path) -> tuple[int, int]:
    """The traced peak, in bytes, of compiling one module, and its token count.

    The module compiles in a fresh interpreter, so what earlier tests loaded
    or interned does not count for or against it.  Comments, blank lines and
    the encoding marker are not tokens; a docstring is one.
    """
    source = path.read_text()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    count = sum(token.type not in skip for token in tokens)
    proc = _python(
        f"""
import tracemalloc
source = open({str(path)!r}, encoding="utf-8").read()
tracemalloc.start()
compile(source, {str(path)!r}, "exec")
print(tracemalloc.get_traced_memory()[1])
"""
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout), count


# Calibrated on CPython 3.11.7.  cli.py (1,388 KiB) and poset.py (1,234 KiB)
# held over 1 MiB before each was split in two; commands.py (956 KiB),
# weyl.py (927 KiB) and classical.py (897 KiB) held over 768 KiB, which then
# bounded only the modules hasse and degree load, before each was split in
# two; and so did verify.py (945 KiB, now verify and certify) and
# witnesses.py (845 KiB, now witnesses, moduli and witness).  diagram.py
# holds 554 KiB at 1,439 tokens compiled in a fresh interpreter, since its
# JSON and DOT writers moved to exports.py (188 KiB); it held 659 KiB at
# 1,703 tokens with them, 709 KiB at 1,870 while it held the rho-vector leq,
# 735 KiB at 1,927 while it held the upper covers, and 749 KiB at 2,024,
# traced in the test process, while it held the lookup by dimension and
# degree.  The largest module is now cli.py, at 600 KiB and 1,361 tokens.
# jsonout.py, the JSON writer, holds 240 KiB.  The peak steps up by about
# 120 KiB where a module passes 2,048 tokens: diagram.py held 756 KiB at
# 2,042 tokens and 873 KiB at 2,061, and witnesses.py 845 KiB at 2,058.
COMPILE_PEAK_BOUND = 768 * 1024


def test_no_module_compile_holds_more_than_a_mib():
    # The bound before the last splits; the 768 KiB test below is stricter.
    peaks = _compile_peaks(_package_modules())
    over = {name: peak // 1024 for name, (peak, _) in peaks.items() if peak > 1024 * 1024}
    assert over == {}, f"modules whose compile holds more than 1 MiB (KiB): {over}"


def test_no_module_hasse_or_degree_loads_compiles_in_more_than_768_kib():
    # The modules these commands leave loaded, read in a fresh process: the
    # start-up modules, golden for text hasse's tokens and classical for degree.
    proc = _python(
        """
import contextlib, io, sys
from schubflex.cli import main

argvs = (["hasse", "gr:5,11", "--json"], ["hasse", "lg:8"], ["degree", "gr:2,5:1,3"])
with contextlib.redirect_stdout(io.StringIO()):
    print(*(main(argv) for argv in argvs), file=sys.stderr)
print(*sorted(name[10:] for name in sys.modules if name.startswith("schubflex.")))
"""
    )
    assert proc.returncode == 0 and proc.stderr.split() == ["0", "0", "0"], proc.stderr
    names = {f"{name}.py" for name in proc.stdout.split()}
    assert names >= set(_START_UP), names
    peaks = _compile_peaks(SRC / "schubflex" / name for name in sorted(names))
    over = {name: peak // 1024 for name, (peak, _) in peaks.items() if peak > COMPILE_PEAK_BOUND}
    assert over == {}, f"modules of hasse or degree whose compile holds over 768 KiB (KiB): {over}"


def test_no_module_compile_holds_more_than_768_kib():
    # Compiling a module holds all its tokens and its syntax tree at once, so
    # the largest module a command compiles sets the floor of its peak memory.
    peaks = _compile_peaks(_package_modules())
    over = {
        name: f"{peak // 1024} KiB, {count} tokens"
        for name, (peak, count) in peaks.items()
        if peak > COMPILE_PEAK_BOUND
    }
    assert over == {}, f"modules whose compile holds more than 768 KiB: {over}"


def test_no_package_module_imports_cli():
    # python -m schubflex.cli runs cli as __main__, so a package module that
    # imported schubflex.cli would compile it a second time.
    def imports_cli(modules, names):
        return any(
            m.split(".")[-1] == "cli" or (m in ("", "schubflex") and "cli" in names)
            for m in modules
        )

    found = [
        f"{path.name}:{line}"
        for path in _package_modules()
        for line, modules, names in _imports(path)
        if imports_cli(modules, names)
    ]
    assert found == [], f"schubflex.cli imported in the package: {found}"
    # The handlers load modules by name, too.
    assert not any(
        isinstance(node, ast.Constant) and node.value in (".cli", "schubflex.cli")
        for path in _package_modules()
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_no_package_module_imports_json():
    # json's pure-Python indented encoder and its modules raise a command's
    # peak memory.  The poset export spells its schema out, and jsonout
    # spells every other report, so no module imports json, not even inside
    # a function, and no handler loads it by name (diagram._module).
    found = [
        f"{path.name}:{line}"
        for path in _package_modules()
        for line, modules, _ in _imports(path)
        if any(m.split(".")[0] == "json" for m in modules)
    ]
    assert found == [], f"json imported in the package: {found}"
    loaders = {"_module", "import_module", "__import__"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in _package_modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in loaders
        and any(
            isinstance(arg, ast.Constant) and str(arg.value).split(".")[0] == "json"
            for arg in node.args
        )
    ]
    assert found == [], f"json loaded by name in the package: {found}"


def test_commands_load_only_what_they_run():
    proc = _python(
        """
import contextlib, io, sys
from schubflex.cli import main

def loaded():
    names = ("dataclasses", "inspect", "schubflex.certify", "schubflex.verify", "schubflex.tits")
    return sorted(name for name in names if name in sys.modules)

with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [main(["hasse", "e7", "--json"]), main(["classify", "gr:2,5:1,3"])]
    codes.append(main(["classify", "e6:30:1"]))  # refused token: nothing more to load
print(codes, loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", "all"])
print(code, out.getvalue().count("RESULT"), loaded())
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[0, 0, 2] []",
        "0 3 ['schubflex.certify', 'schubflex.tits', 'schubflex.verify']",
    ]


# What each command of a fixed list loads in a fresh interpreter beyond the
# start-up modules, its exit code, and a bound on the AST nodes of every
# package module it loads.  A command compiles each module it loads, so the
# sum pins its start-up work, and unlike a time it does not drift with the
# machine.  Each bound sits about 1% above the sum when it was set, and
# classify e6:30:1 is a refused token.
_PINNED = (
    (("hasse", "gr:5,11", "--json"), 0, "exports", 7_900),
    (("hasse", "og:9", "--dot"), 0, "exports", 7_900),
    (("hasse", "lg:8"), 0, "golden", 8_850),
    (("tits", "e6", "6", "1", "--json"), 0, "jsonout tits witness", 8_900),
    (
        ("verify", "all", "--json"),
        0,
        "certify classical golden isotropic jsonout moduli tits verify witness witnesses",
        16_550,
    ),
    (("verify", "table1"), 0, "certify golden tits verify witness witnesses", 13_150),
    (("classify", "gr:2,5:1,3"), 0, "classical moduli rigidity specs witness", 11_550),
    (("degree", "gr:2,5:1,3"), 0, "classical specs", 9_950),
    (("classify", "e7:22:5586"), 0, "certify golden specs tits witness witnesses", 13_200),
    (("classify", "e6:30:1"), 2, "golden specs", 10_050),
)


def _ast_nodes(name: str) -> int:
    path = SRC / "schubflex" / f"{name}.py"
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_each_command_loads_its_pinned_modules_and_ast_nodes():
    # hasse, tits and verify never load specs, and only hasse --json and
    # --dot load the exports.
    start_up = [name[:-3] for name in _START_UP]
    wrong = []
    for argv, code, later, bound in _PINNED:
        proc = _python(
            f"""
import contextlib, io, sys
from schubflex.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({list(argv)!r})
print(code, *sorted(name[10:] for name in sys.modules if name.startswith("schubflex.")))
"""
        )
        assert proc.returncode == 0, proc.stderr
        got, *names = proc.stdout.split()
        nodes = sum(map(_ast_nodes, names))
        if got != str(code) or names != sorted(start_up + later.split()) or nodes > bound:
            wrong.append(f"{' '.join(argv)}: exit {got}, {nodes} nodes (bound {bound}), {names}")
    assert wrong == [], "\n".join(wrong)


_LATER = (
    "classical", "isotropic", "golden", "rigidity", "witness", "witnesses", "moduli", "certify",
    "verify", "jsonout", "exports",
)


def _loaded_after(*commands) -> list[str]:
    """Which later modules, json, argparse and gettext a fresh process holds after ``commands``."""
    proc = _python(
        f"""
import contextlib, io, sys
from schubflex.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(list(argv)) for argv in {commands!r}]
names = [f"schubflex.{{name}}" for name in {_LATER!r}] + ["json", "argparse", "gettext"]
print(codes, sorted(name for name in names if name in sys.modules))
"""
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_json_reports_load_the_writer_and_not_json():
    # tits --json and verify --json spell their reports with jsonout.
    for argv in (("verify", "all"), ("verify", "e6"), ("tits", "e6", "6", "1")):
        codes, names = _loaded_after((*argv, "--json")).split(" ", 1)
        names = ast.literal_eval(names)
        assert codes == "[0]" and "schubflex.jsonout" in names, (argv, names)
        assert "json" not in names, (argv, names)


def test_hasse_json_dot_and_refusals_load_no_later_module_but_the_exports():
    commands = (("hasse", "gr:2,5", "--json"), ("hasse", "og:9", "--dot"), ("hasse", "og:40"))
    assert _loaded_after(*commands) == "[0, 0, 2] ['schubflex.exports']"
    assert _loaded_after(("hasse", "og:40", "--json"),) == "[2] []"  # refused before export


def test_class_specs_refused_for_their_family_or_selector_load_no_classical():
    # The selector part is read, and its rank bounded, before the classical
    # index types are needed.
    commands = (
        ("classify", "zz:1:2"),
        ("degree", "gr:x,5:1"),
        ("dual", "og:5,5:1"),
        ("classify", "gr:3,1000000:1,3,4"),
        ("dual", "og:1000000:1,2"),
        ("degree", "gr:3,30000:29998,29999,30000"),
    )
    assert _loaded_after(*commands) == "[2, 2, 2, 2, 2, 2] []"


def test_table1_and_e7_classify_load_no_classical():
    # Only the og:5 cone gate of the e6 certificates and the moduli engines
    # run classical code, and neither command reaches them; an e7 class's row
    # needs the certificates and not the reports.
    pipeline = ["schubflex.certify", "schubflex.golden", "schubflex.witness", "schubflex.witnesses"]
    assert _loaded_after(("verify", "table1")) == f"[0] {sorted(pipeline + ['schubflex.verify'])}"
    assert _loaded_after(("classify", "e7:22:5586")) == f"[0] {pipeline}"


def test_classical_classify_loads_no_poset_engine():
    # The moduli engines decide from the index, so a gr or quad class loads
    # neither the poset engines nor the isotropic index type.
    commands = (("classify", "gr:2,5:1,3"), ("classify", "quad:7:linear-2"))
    loaded = ["schubflex.classical", "schubflex.moduli", "schubflex.rigidity", "schubflex.witness"]
    assert _loaded_after(*commands) == f"[0, 0] {loaded}"


def test_hasse_text_loads_golden_for_its_tokens_only():
    assert _loaded_after(("hasse", "lg:8"),) == "[0] ['schubflex.golden']"


def test_import_help_usage_errors_and_degree_load_no_argument_parser():
    # cli reads argv against its own command table; argparse and the gettext
    # it imports would cost every command their compile time.
    assert _loaded_after() == "[] []"
    assert _loaded_after(("--help",), ("bogus",), ("hasse", "gr:2,4", "--json", "--dot")) == (
        "[0, 2, 2] []"
    )
    assert _loaded_after(("degree", "gr:2,5:1,3"), ("degree", "e7:22:5586")) == (
        "[0, 0] ['schubflex.classical', 'schubflex.golden']"
    )


def test_dual_loads_only_classical_and_golden():
    assert _loaded_after(("dual", "gr:2,5:1,3"), ("dual", "e6:9:9")) == (
        "[0, 0] ['schubflex.classical', 'schubflex.golden']"
    )


def test_degree_og_builds_no_quotient():
    # Schur's formula answers; the og poset stays the tests' oracle.
    proc = _python(
        """
import contextlib, io
from schubflex import cli, poset

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["degree", "og:12:1,5,7"])
print(code, out.getvalue().strip(), poset._quotient.cache_info().misses)
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "266412594390371520", "0"]


def test_repeated_commands_run_no_import_statement(monkeypatch):
    commands = [
        ["classify", "gr:2,5:1,3"],
        ["classify", "og:5:2,3"],
        ["classify", "quad:7:linear-2"],
        ["classify", "e6:9:9"],
        ["degree", "gr:2,5:1,3"],
        ["degree", "og:5:2,3"],
        ["degree", "quad:6:max-plus"],
        ["degree", "e7:22:5586"],
        ["dual", "lg:3:1,2"],
        ["dual", "e6:9:9"],
        ["degree", "lg:1:1"],
        ["dual", "gr:2,5:1,3"],
        ["dual", "quad:6:max-plus"],
        ["classify", "lg:3:1,2"],
        ["hasse", "e6"],
        ["hasse", "gr:2,5", "--json"],
        ["hasse", "og:5", "--dot"],
    ]

    def run_all():
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in commands]

    assert run_all() == [0] * len(commands)  # the warm-up loads what each needs
    imports = []
    original = builtins.__import__

    def counting(*args, **kwargs):
        imports.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting)
    assert run_all() == [0] * len(commands)
    assert imports == []


def test_verify_all_builds_each_sweep_context_once():
    # verify_all meets 7 distinct (P, Q) sweeps: 6/1, 6/5 and 5/6 on E6 and
    # 7/1, 1/7, 7/6 and 6/7 on E7; the E7 interval pair serves both the e7
    # certificates and the transform table.
    proc = _python(
        """
from schubflex import tits
from schubflex.verify import verify_all

built = []

class CountingContext(tits.TitsContext):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        built.append(self.label())

tits.TitsContext = CountingContext
print(all(report.ok for report in verify_all()), len(built), len(set(built)))
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "7", "7"]
