"""Print the size of src/bochnerkit: its `wc -l` total, then its code lines.

A code line holds a token that is not a comment and lies outside every
docstring.  Run from anywhere: ``python3 tools/src_size.py``.
"""

import ast
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bochnerkit"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

lines = code = 0
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    lines += text.count("\n")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIP]
    code += len({n for t in tokens for n in range(t.start[0], t.end[0] + 1)} - docstrings)
print(f"lines {lines}")
print(f"code_lines {code}")
