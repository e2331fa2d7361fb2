"""The two demo scripts run end to end, in-process."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_demo(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main = load_script("corpus_demo").main
    assert main(["--rounds", "1", "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out.endswith("\n15 fans, 0 verification failures\n")
    assert len(list(out_dir.glob("*.fan.json"))) == 15
    assert len(list(out_dir.glob("*.cert.json"))) == 15


def test_chart_gallery(capsys):
    assert load_script("chart_gallery").main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== punctured affine plane ==\n")
    assert "quotient: invariant factors [2], order 2" in out
