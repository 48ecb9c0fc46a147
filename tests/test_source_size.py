"""Every module of the package stays within one 4,096-slot token buffer.

CPython's parser grows its token array by doubling and allocates a token
struct for each new slot, so the first token past 4,096 in a module costs
about 0.25 MB of peak RSS in every process that compiles it. The count is
the parser's: `tokenize` tokens without comments, blank-line NL tokens and
the encoding marker."""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowad"
TOKEN_BUDGET = 4096
_NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(t.type not in _NOT_PARSED for t in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_fits_one_token_buffer(path):
    assert parser_tokens(path) <= TOKEN_BUDGET
