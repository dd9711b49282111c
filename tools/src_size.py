"""Print the size of src/bochnerkit: its `wc -l` total, its code lines, the
code lines of each module, and the public names that neither the package nor
the benchmark uses.

A code line holds a token that is not a comment and lies outside every
docstring.  A public name is an entry of a module's ``__all__``; it counts as
used when some module of the package or of ``perfbench/`` reads it as a name
or an attribute (imports and ``__all__`` strings do not count).  Run from
anywhere: ``python3 tools/src_size.py``.
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bochnerkit"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def names_read(tree: ast.AST) -> set:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


lines = 0
public, used, per_module = [], set(), {}
for path in sorted((ROOT / "perfbench").glob("*.py")):
    used |= names_read(ast.parse(path.read_text()))
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    lines += text.count("\n")
    docstrings = set()
    tree = ast.parse(text)
    used |= names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(name, ast.Name) and name.id == "__all__" for name in node.targets):
            public += [(path.stem, entry) for entry in ast.literal_eval(node.value)]
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIP]
    per_module[path.name] = len({n for t in tokens for n in range(t.start[0], t.end[0] + 1)}
                                - docstrings)
print(f"lines {lines}")
print(f"code_lines {sum(per_module.values())}")
for name, count in per_module.items():
    print(f"code_lines {name} {count}")
print("unreferenced_public", *(f"{mod}.{name}" for mod, name in public if name not in used))
