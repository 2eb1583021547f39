"""The library has no surface that only tests call.

Every name that ``fodeabm`` exports must be used by the library itself, by
the benchmark or by the tools.  A use is a name token in a module of
``src/`` (re-exporting ``__init__.py`` files aside), ``perfbench/`` or
``tools/``.  The name after its own ``def`` or ``class``, its ``__all__``
entries (strings) and comments are not uses.
"""

import io
import tokenize
from pathlib import Path

import fodeabm

ROOT = Path(__file__).resolve().parents[1]
USER_DIRS = ("src", "perfbench", "tools")


def used_names() -> set[str]:
    names = set()
    for top in USER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            previous = None
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            for tok in tokens:
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    names.add(tok.string)
                if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                    previous = tok.string
    return names


def test_every_export_has_a_user_outside_tests():
    used = used_names()
    unused = [name for name in fodeabm.__all__ if name not in used]
    assert unused == [], f"exported but used only by tests: {unused}"
