"""Start-up cost: what importing the package and running one command load."""

from __future__ import annotations

import ast
import builtins
import contextlib
import io
import os
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path

from schubflex import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def _imports(path: Path, top_level_only: bool = False):
    """(line, modules, names) of each import statement in a module's source.

    ``import a, b`` gives modules [a, b] and no names; ``from x import y, z``
    gives modules [x] and names [y, z].  With ``top_level_only``, imports
    inside a function body are left out.
    """
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""], [alias.name for alias in node.names]
        elif not (top_level_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
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
    "cli.py", "commands.py", "specs.py", "weyl.py", "closed_forms.py", "frozen.py", "poset.py",
    "diagram.py",
)


def test_the_modules_every_command_loads_import_no_later_layer():
    # cli imports commands and specs (which import weyl and poset) at the
    # top, weyl imports closed_forms, and poset imports diagram and frozen, so
    # every command compiles them; what they import, every command compiles too.
    later = {
        "classical", "isotropic", "golden", "rigidity", "witness", "witnesses", "moduli", "tits",
        "certify", "verify",
    }
    found = [
        f"{name}:{line}"
        for name in _START_UP
        for line, modules, names in _imports(SRC / "schubflex" / name)
        if later & {n.split(".")[-1] for n in modules + names}
    ]
    assert found == [], f"a start-up module imports a later layer: {found}"


def _compile_peaks(paths) -> dict[str, tuple[int, int]]:
    """The traced peak, in bytes, of compiling each module, and its token count, by file name.

    Comments, blank lines and the encoding marker are not tokens; a
    docstring is one.
    """
    peaks = {}
    for path in paths:
        source = path.read_text()
        skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        count = sum(token.type not in skip for token in tokens)
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1], count
        finally:
            tracemalloc.stop()
    return peaks


# Calibrated on CPython 3.11.7.  cli.py (1,388 KiB) and poset.py (1,234 KiB)
# held over 1 MiB before each was split in two; commands.py (956 KiB),
# weyl.py (927 KiB) and classical.py (897 KiB) held over 768 KiB, which then
# bounded only the modules hasse and degree load, before each was split in
# two; and so did verify.py (945 KiB, now verify and certify) and
# witnesses.py (845 KiB, now witnesses, moduli and witness).  The largest
# module is now diagram.py, at 749 KiB and 2,024 tokens.  The peak steps up by
# about 120 KiB where a module passes 2,048 tokens: diagram.py held 756 KiB at
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


def test_no_package_module_imports_json_at_the_top():
    # json's pure-Python encoder serves indented output; the poset export
    # spells its schema out, and only the commands that print other JSON
    # load it (commands._module).
    found = [
        f"{path.name}:{line}"
        for path in _package_modules()
        for line, modules, _ in _imports(path, top_level_only=True)
        if any(m.split(".")[0] == "json" for m in modules)
    ]
    assert found == [], f"json imported at module level: {found}"


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


_LATER = (
    "classical", "isotropic", "golden", "rigidity", "witness", "witnesses", "moduli", "certify",
    "verify",
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


def test_hasse_json_dot_and_refusals_load_no_later_module():
    commands = (("hasse", "gr:2,5", "--json"), ("hasse", "og:9", "--dot"), ("hasse", "og:40"))
    assert _loaded_after(*commands) == "[0, 0, 2] []"


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
