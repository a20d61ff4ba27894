"""Command line front end.

Exit codes: 0 on success, 1 when a verification target fails, 2 on usage
errors (including malformed or ambiguous class specs), 3 when the shipped
decoration tables are unreadable or internally inconsistent, 141 (128 +
SIGPIPE) when the reader of stdout closes it early, as ``| head`` does; that
exit prints nothing on stderr.

:data:`COMMANDS` is the one table of the six commands: each one's handler,
help line, positionals and options.  :meth:`Parser.parse_args` reads an argv
against it in one pass, and ``-h`` prints help built from it and exits 0.
Options are matched by their exact names, as ``--opt value`` or
``--opt=value``; a word after ``--`` is always a positional.  An unknown
command or option, a missing or extra argument, a bad number or choice, and
``--json`` with ``--dot`` each raise :class:`SpecError`, so :func:`main`
reports every usage error in the same one ``error:`` line and exit 2 as a
malformed spec.  The table names each handler by its module and function:
the selector reader and the ``hasse``, ``tits`` and ``verify`` handlers live
in :mod:`~schubflex.commands`, and the class-spec grammar, its reader and
the ``classify``, ``degree`` and ``dual`` handlers in :mod:`~schubflex.specs`.
The parser loads a handler's module on its first dispatch (the cached
:func:`schubflex.commands._module`), so ``hasse``, ``tits`` and ``verify``
never compile :mod:`~schubflex.specs`.  ``parse_class_spec`` still resolves
here, for the benchmark's tracer, which wraps it by that name: the module
``__getattr__`` loads :mod:`~schubflex.specs` on that lookup.

Each command is one process, so start-up is most of its time, and most of
start-up is compiling the modules it imports.  Compiling a module holds all
of its tokens and its syntax tree at once, so the largest module a command
compiles sets the floor of its peak memory.  That is why this front end, the
handlers of :mod:`~schubflex.commands`, the Weyl arithmetic
(:mod:`~schubflex.weyl`) and its closed forms (:mod:`~schubflex.closed_forms`),
and the poset's construction (:mod:`~schubflex.poset`) and its diagram
(:mod:`~schubflex.diagram`) are six modules: every command compiles all six,
with :mod:`~schubflex.frozen`, but no one compile holds more than 768 KiB.
Beyond those, a command loads only what it runs: the class-spec commands
:mod:`~schubflex.specs`, ``hasse --json`` and ``--dot`` the writers of
:mod:`~schubflex.exports`, and the rest as :mod:`~schubflex.commands` and
:mod:`~schubflex.specs` say.  argv is read without :mod:`argparse`.
"""

from __future__ import annotations

import functools
import os
import sys

from .commands import SpecError, _module
from .frozen import Frozen
from .poset import DEFAULT_SIZE_CAP, QUOTIENTS, GoldenDataError


class Command(Frozen):
    """One command: its handler, its help line, its positionals and its options.

    ``handler`` is ``(module, function)``: the package module, like
    ``".commands"``, that holds the handler and loads on the command's first
    dispatch, and the handler's name there.
    ``args`` holds one ``(NAME, converter, allowed values or None, help)`` per
    positional, and the handler takes their values in that order.  ``options``
    maps each option to ``(keyword, converter, METAVAR, help)``.  A flag has
    converter and METAVAR None and sets its keyword to its own name without
    the dashes, so two flags that share a keyword exclude each other.
    """

    __slots__ = ("handler", "help", "args", "options")


_JSON = ("output", None, None, "machine-readable output")
_GOLDEN_DIR = ("golden_dir", str, "DIR", "decoration tables to check instead of the shipped ones")
_SPEC = ("SPEC", str, None, "a class spec, like gr:2,5:1,3 or e6:9:9")

COMMANDS = {
    "hasse": Command(
        (".commands", "cmd_hasse"),
        "print a quotient poset (text, JSON or DOT)",
        (("SELECTOR", str, None, " ".join(form for form, _ in QUOTIENTS.values())),),
        {
            "--json": _JSON,
            "--dot": ("output", None, None, "Graphviz input"),
            "--size-cap": ("size_cap", int, "N", f"most classes to build ({DEFAULT_SIZE_CAP})"),
        },
    ),
    "classify": Command(
        (".specs", "cmd_classify"),
        "rigidity verdict and a witness for one class",
        (_SPEC,),
        {"--golden-dir": _GOLDEN_DIR},
    ),
    "degree": Command(
        (".specs", "cmd_degree"), "degree of one class in its minimal embedding", (_SPEC,), {}
    ),
    "dual": Command((".specs", "cmd_dual"), "Poincare dual of one class", (_SPEC,), {}),
    "tits": Command(
        (".commands", "cmd_tits"),
        "incidence sweep of one quotient into another",
        (
            ("TYPE", str, None, "a family letter and rank, like e6"),
            ("P", int, None, "marked node of the target quotient"),
            ("Q", int, None, "marked node of the swept quotient"),
        ),
        {"--json": _JSON},
    ),
    "verify": Command(
        (".commands", "cmd_verify"),
        "check the shipped decoration tables from scratch",
        (("TARGET", str, ("e6", "e7", "table1", "all"), "e6, e7, table1 or all"),),
        {"--golden-dir": _GOLDEN_DIR, "--json": _JSON},
    ),
}


def _usage(name: str) -> str:
    command = COMMANDS[name]
    words = [name, *(meta for meta, _, _, _ in command.args)]
    for opt, (_, _, meta, _) in command.options.items():
        words.append(f"[{opt} {meta}]" if meta else f"[{opt}]")
    return "schubflex " + " ".join(words)


def _help() -> int:
    lines = ["Schubert-class posets, rigidity verdicts and movability certificates."]
    for name, command in COMMANDS.items():
        lines += ["", _usage(name), f"  {command.help}"]
        lines += [f"    {meta:<18s}{text}" for meta, _, _, text in command.args]
        lines += [
            f"    {f'{opt} {meta}' if meta else opt:<18s}{text}"
            for opt, (_, _, meta, text) in command.options.items()
        ]
    print("\n".join(lines))
    return 0


def _is_option(word: str) -> bool:
    """Whether ``word`` names an option; as in argparse, "-", "-1", "-.5" and "-a b" are values."""
    if word[:1] != "-" or word == "-" or " " in word:
        return False
    return not word[1:].replace(".", "", 1).isdecimal()


def _convert(name: str, label: str, convert, choices, word: str):
    try:
        value = convert(word)
    except ValueError:
        raise SpecError(f"{name} {label}: invalid {convert.__name__} value {word!r}") from None
    if choices is not None and value not in choices:
        raise SpecError(f"{name} {label}: invalid choice {word!r} (want {', '.join(choices)})")
    return value


class Parser:
    """Reads an argv against :data:`COMMANDS` in one pass; it keeps no state between calls."""

    def parse_args(self, argv) -> tuple:
        """``(handler, positional values, option keywords)`` of ``argv``.

        ``-h`` or ``--help`` anywhere before a ``--`` gives the help handler,
        and every word after the ``--`` is a positional value.  Every other
        malformed argv raises :class:`SpecError`.
        """
        cut = argv.index("--") if "--" in argv else len(argv)
        if "-h" in argv[:cut] or "--help" in argv[:cut]:
            return _help, (), {}
        if not argv or argv[0] not in COMMANDS:
            got = f"unknown command {argv[0]!r}" if argv else "missing command"
            raise SpecError(f"{got} (want one of {', '.join(COMMANDS)}; -h describes them)")
        name = argv[0]
        command, values, keywords = COMMANDS[name], [], {}
        words = iter(argv[1:cut])
        for word in words:
            if not _is_option(word):
                values.append(word)
                continue
            opt, eq, text = word.partition("=")
            if opt not in command.options:
                raise SpecError(f"{name}: unknown option {opt!r} (usage: {_usage(name)})")
            keyword, convert, meta, _ = command.options[opt]
            if convert is None:
                prior = keywords.setdefault(keyword, opt[2:])
                if eq or prior != opt[2:]:
                    why = "takes no value" if eq else f"is not allowed with --{prior}"
                    raise SpecError(f"{name}: {opt} {why}")
                continue
            if not eq:
                text = next(words, "--")
                if _is_option(text):
                    raise SpecError(f"{name}: {opt} needs a value {meta}")
            keywords[keyword] = _convert(name, opt, convert, None, text)
        values += argv[cut + 1 :]
        if len(values) != len(command.args):
            missing = " ".join(meta for meta, _, _, _ in command.args[len(values) :])
            extra = values[len(command.args) :]
            got = f"missing {missing}" if missing else f"extra argument {extra[0]!r}"
            raise SpecError(f"{name}: {got} (usage: {_usage(name)})")
        args = [
            _convert(name, meta, convert, choices, word)
            for (meta, convert, choices, _), word in zip(command.args, values)
        ]
        module, function = command.handler
        return getattr(_module(module), function), args, keywords


def __getattr__(name):  # bench/tracer.py wraps cli.parse_class_spec; looking it up loads specs
    if name != "parse_class_spec":
        raise AttributeError(name)
    return _module(".specs").parse_class_spec


def build_parser() -> Parser:
    """A new parser of :data:`COMMANDS`; a caller may rebind its ``parse_args``, say to time it."""
    return Parser()


@functools.lru_cache(maxsize=None)
def _parser() -> Parser:
    """The one parser of this process; it keeps no per-parse state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        handler, args, keywords = _parser().parse_args(sys.argv[1:] if argv is None else argv)
        code = handler(*args, **keywords)
        sys.stdout.flush()
        return code
    except GoldenDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit stays quiet
        # (the recipe in the Python docs on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
