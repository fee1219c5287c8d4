"""The README's CLI walkthrough runs as written, and its config key table
is the config's own.

Every ``ecoc ...`` command of the walkthrough block and its ``cat > FILE
<<'TAG'`` heredocs are replayed in a fresh directory, so the docs cannot
keep a removed flag, a removed config key or a command that warns.
"""

import os
import shlex
import warnings
from dataclasses import fields

from ecoc.cli import ExperimentConfig, format_value, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def walkthrough_lines() -> list[str]:
    """Logical lines of the ``sh`` block under ``## CLI walkthrough``, with
    backslash continuations joined."""
    text = open(README).read()
    section = text.split("\n## CLI walkthrough\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines: list[str] = []
    pending = ""
    for raw in block.splitlines():
        if raw.endswith("\\"):
            pending += raw[:-1]
            continue
        lines.append(pending + raw)
        pending = ""
    assert not pending, "walkthrough ends inside a continued line"
    return lines


def test_cli_walkthrough_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = iter(walkthrough_lines())
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        words = shlex.split(stripped)
        if words[:2] == ["cat", ">"] and len(words) == 4 and words[3].startswith("<<"):
            tag = words[3][2:]
            body = []
            for body_line in lines:
                if body_line == tag:
                    break
                body.append(body_line + "\n")
            else:
                raise AssertionError(f"heredoc {tag} is never closed")
            with open(words[2], "w") as fh:
                fh.writelines(body)
            continue
        assert words[0] == "ecoc", f"walkthrough line not replayed: {line!r}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(words[1:])
        err = capsys.readouterr().err
        assert code == 0, f"{stripped!r} exited {code}: {err}"
        assert err == "", f"{stripped!r} wrote to stderr: {err}"
        assert not caught, f"{stripped!r} warned: {[str(w.message) for w in caught]}"
    for name in ("confusion.csv", "ablation.csv", "corr.csv"):
        assert os.path.exists(name), name


def config_key_rows() -> list[list[str]]:
    """Cells of the table under ``### `train` config keys``, header and rule
    excluded."""
    section = open(README).read().split("\n### `train` config keys\n", 1)[1]
    table = section.split("\n|", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in ("|" + table).splitlines()]
    assert rows[0] == ["Key", "Type", "Allowed", "Default"] and set(rows[1]) == {"---"}
    return rows[2:]


def test_config_key_table_matches_experiment_config():
    def shown(default) -> str:
        if default is None:
            return "—"
        if default == "":
            return "required"
        return f"`{format_value(default)}`"

    def allowed(values) -> str:
        if values is None:
            return "—"
        if isinstance(values, str):
            return f"`{values}`"
        return ", ".join(f"`{v}`" for v in values[:-1]) + f" or `{values[-1]}`"

    documented = [(key, values, default) for key, _, values, default in config_key_rows()]
    assert documented == [(f"`{f.name}`", allowed(f.metadata.get("allowed")), shown(f.default))
                          for f in fields(ExperimentConfig)]
