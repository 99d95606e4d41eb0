"""The README's library quickstart must run as written, on the package's
public names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert out.startswith("Converged")


def test_star_import_provides_public_names():
    namespace = {}
    exec("from gsmf import *", namespace)
    used = {"solve", "step", "update_u", "update_v", "z_star", "theta",
            "spectral_norm_sq", "RelaxationParams", "SolverConfig", "snmf_spec"}
    assert not used - namespace.keys()


def test_readme_config_passes_check(tmp_path, capsys):
    from gsmf.cli import main

    block = re.search(r"Example `config.yaml`:\n\n```yaml\n(.*?)```",
                      README.read_text(), re.S)
    assert block, "README.md has no example config.yaml"
    path = tmp_path / "config.yaml"
    path.write_text(block.group(1))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
