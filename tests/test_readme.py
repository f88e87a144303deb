"""README's library snippet runs as written and writes the CLI's report, and
README names the stream spec the code implements."""

import json
import re
from pathlib import Path

import rankbench.resampling
from rankbench.cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_matches_cli_report(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    lines = ["solver,instance,seed,status,cpu_time,quality"]
    for i, solver in enumerate(("alpha", "beta", "gamma")):
        for j in range(6):
            status = "solved" if j < 6 - 2 * i else "timeout"
            lines.append(f"{solver},i{j},0,{status},{1.25 + i + j},")
    (tmp_path / "runs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # One declared stratum, so the CLI's `--stratified auto` resamples uniformly
    # as the snippet's AnalysisConfig does.
    config = {"cutoff_seconds": 100.0, "strata": {f"i{j}": "all" for j in range(6)}}
    (tmp_path / "comp.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    exec(compile(blocks[0], str(README), "exec"), {})
    assert run_cli(["analyze", "--input", "runs.csv", "--config", "comp.json",
                    "--mechanism", "solved_count", "--output", "cli.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "cli.json").read_bytes()


def test_readme_and_resampling_name_the_same_stream_spec():
    readme = README.read_text(encoding="utf-8")
    headings = re.findall(r"^## Replicates: stream spec (v\d+)$", readme, re.M)
    named = re.findall(r"\bstream spec (v\d+)\b", rankbench.resampling.__doc__)
    assert len(headings) == 1 and named, (headings, named)
    assert set(named) == set(headings)
