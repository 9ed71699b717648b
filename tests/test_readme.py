import re
from pathlib import Path

from fofe_wsd.cli import main
from fofe_wsd.corpus import read_labeled_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert main(["gen-synthetic", "--outdir", str(tmp_path), "--seed", "0"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    printed = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == read_labeled_corpus(tmp_path / "test.tsv").ids
