"""Guards on the package's module layout.

``gillab.thirds`` is the generator layer: C_1, C_0 and the local cover
tree.  The removal-schedule search in ``gillab.cantor`` stands on it, so
it imports nothing of gillab but ``exact`` and ``errors``, and the
search reads none of the generators' memos: ``CantorGen`` owns them and
decides from them when its walks sweep a cover.

Every module stays under 8,192 parser tokens.  The benchmark's workers
run from source with no bytecode, so each one compiles every module it
imports, and CPython 3.11's compile peak grows by about 0.45 MiB once
one module passes 8,192 tokens.  The count is ``tokenize``'s, without
comments and non-logical newlines; a docstring is one token.
"""

import ast
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gillab"
TOKEN_LIMIT = 8192


def gillab_imports(source: str) -> set[str]:
    """The gillab modules a module's source imports, by their names in
    the package ("gillab" for the package itself)."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module if not node.level else (
                f"gillab.{node.module}" if node.module else "gillab")
            if module == "gillab":
                # from . import x and from gillab import x name submodules
                modules += [f"gillab.{alias.name}" for alias in node.names]
            else:
                modules.append(module)
    return {m.split(".")[1] if "." in m else m
            for m in modules if m.split(".")[0] == "gillab"}


def token_count(path: Path) -> int:
    with tokenize.open(path) as f:
        return sum(1 for tok in tokenize.generate_tokens(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_thirds_imports_only_exact_and_errors_of_gillab():
    imported = gillab_imports((SRC / "thirds.py").read_text())
    assert "exact" in imported and imported <= {"exact", "errors"}
    # the search imports the generator layer, never the other way round
    assert "thirds" in gillab_imports((SRC / "cantor.py").read_text())


def test_the_search_reads_no_generator_memo():
    read = {node.attr for node in ast.walk(ast.parse((SRC / "cantor.py").read_text()))
            if isinstance(node, ast.Attribute)}
    assert not read & {"_stage_memo", "_walks_past_memo", "_children_memo"}


def test_the_import_reader_sees_every_form():
    # the guard above is only as good as the reader
    source = ("import gillab\nimport gillab.cache\nfrom gillab import cli\n"
              "from gillab.bonding import eval_F\nfrom . import dynamics\n"
              "from .exact import rat\nimport json\nfrom json import dumps\n")
    assert gillab_imports(source) == {"gillab", "cache", "cli", "bonding",
                                      "dynamics", "exact"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_compile_token_step(path):
    assert token_count(path) < TOKEN_LIMIT
