import contextlib
import io

import pytest

from liecohom.cli import main


@pytest.fixture(scope="session")
def verify_all_json():
    """(exit code, stdout) of `liecohom verify all --json`, run once per
    session: the golden test compares the text, the acceptance tests read
    their own records from it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--json"])
    return code, out.getvalue()
