"""The README's quick starts run as written and give the values they state:
the two Python blocks of "Quick start (Python)" in one namespace, in
order, each path with the soundness it declares, and the path file of
"Quick start (CLI)" through ``specflow compute``. Each paper claim names a
test that exists, and no code span names a private."""

import json
import re
from pathlib import Path

from specflowlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading: str) -> str:
    """The README section headed ``heading``."""
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
    return text[start : text.find("\n## ", start + 1)]


def _blocks(section: str, lang: str) -> list[str]:
    """The fenced ``lang`` blocks of the README section headed ``section``."""
    return re.findall(rf"```{lang}\n(.*?)```", _section(section), flags=re.S)


def test_python_quick_start_states_its_values(capsys):
    blocks = _blocks("Quick start (Python)", "python")
    assert len(blocks) == 2
    names: dict = {}
    exec(compile(blocks[0], "README block 0", "exec"), names)
    result = names["result"]
    assert result["value"] == 1
    assert result["methods"] == {"phillips": 1, "pairsum": 1, "endpoints": 1, "crossing_oracle": 1}
    assert result["phillips_certificate"].soundness == "lipschitz"
    segments = result["phillips_certificate"].segments
    assert len(capsys.readouterr().out.splitlines()) == len(segments)

    exec(compile(blocks[1], "README block 1", "exec"), names)
    result = names["sf_all_methods"](names["line"], names["SfOptions"]())
    assert result["value"] == 1
    assert result["phillips_certificate"].soundness == "piecewise-affine"


def test_cli_quick_start_computes_its_path(tmp_path):
    (path_json,) = _blocks("Quick start (CLI)", "json")
    inp, out = tmp_path / "path.json", tmp_path / "flow.json"
    inp.write_text(path_json)
    assert cli.main(["compute", "--input", str(inp), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == 1
    assert set(payload["methods"].values()) == {1}


def test_every_paper_claim_names_a_test_that_exists():
    """A claim names ``tests/<file>.py::<test>`` or an acceptance
    criterion, and the test it names is defined."""
    tests = README.parent / "tests"
    claims = re.split(r"\n- ", _section("Paper claims and the names that reproduce them"))[1:]
    assert len(claims) >= 6
    for claim in claims:
        claim = " ".join(claim.split())
        named = [(f, f"\ndef {t}(") for f, t in re.findall(r"`tests/(\w+\.py)::(\w+)`", claim)]
        named += [
            ("test_acceptance.py", f"\ndef test_criterion_{int(n):02d}_")
            for n in re.findall(r"[Aa]cceptance criterion (\d+)", claim)
        ]
        assert named, claim
        for file, definition in named:
            assert definition in (tests / file).read_text(), (file, definition)


def test_no_code_span_names_a_private():
    """A single-underscore name is a mechanism, which its docstring owns."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    assert [s for s in spans if re.search(r"(?<![\w])_[A-Za-z0-9]", s)] == []
