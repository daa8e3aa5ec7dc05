"""A start loads only what its command runs.

`import omnikey` loads no submodule and `import omnikey.cli` only the
error types; each subcommand imports its own modules.  numpy is loaded
only where arrays are built: the subset tables (`analyze`, `protocol`
synthesis through the optimum) and the exhaustive oracle (`verify`)
import it on first use.  Every other command, and every refusal, runs in
a fresh interpreter without loading it; these tests start one per command
and look at sys.modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omnikey
from omnikey import protocol_to_json, split_gap_protocol

SRC = str(Path(omnikey.__file__).resolve().parents[1])

# Runs main(argv) in the child and reports its exit code and whether
# numpy was imported, on the last line of stderr.
CHILD = """
import json, sys
from omnikey.cli import main
code = main(json.loads(sys.argv[1]))
sys.stderr.write("\\n" + json.dumps({"code": code, "numpy": "numpy" in sys.modules}) + "\\n")
"""


def python(tmp_path, *args) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


def run_fresh(tmp_path, *argv) -> dict:
    done = python(tmp_path, "-c", CHILD, json.dumps(list(argv)))
    return json.loads(done.stderr.splitlines()[-1])


@pytest.mark.parametrize("module", ["omnikey", "omnikey.cli"])
def test_import_loads_no_numpy(tmp_path, module):
    done = python(tmp_path, "-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert done.stdout == "False\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["protocol", "--gap", "6", "-o", "f.json"], 0),
        (["protocol", "--preset", "pin:4", "--chain", "-o", "f.json"], 0),
        (["reduce", "--input", "cover.json", "--solve"], 0),
        (["example", "--preset", "gap:4"], 0),
        (["analyze", "--preset", "gap:4000"], 3),
        (["protocol", "--gap", "1000"], 3),
        (["analyze", "--input", "missing.json"], 2),
        (["protocol", "--preset", "pin:128", "--kind", "secret-key", "--tau", "1", "-o", "f.json"], 3),
    ],
)
def test_pure_python_commands_and_refusals_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "cover.json").write_text(
        json.dumps({"universe": [1, 2, 3, 4], "sets": [[1, 2], [3], [3, 4], [2, 3]]})
    )
    assert run_fresh(tmp_path, *argv) == {"code": code, "numpy": False}


def test_subset_tables_and_oracle_load_numpy(tmp_path):
    # the check above can see numpy: the commands that build arrays load it
    assert run_fresh(tmp_path, "analyze", "--preset", "pin:4", "--tau", "1") == {
        "code": 0,
        "numpy": True,
    }
    assert run_fresh(tmp_path, "protocol", "--gap", "4", "-o", "g4.json")["numpy"] is False
    assert run_fresh(tmp_path, "verify", "--protocol", "g4.json", "--gap", "4") == {
        "code": 0,
        "numpy": True,
    }


def test_oracle_names_resolve_through_the_package():
    from omnikey import oracle

    assert omnikey.verify_exhaustive is oracle.verify_exhaustive
    assert omnikey.JointHistogram is oracle.JointHistogram
    namespace: dict = {}
    exec("from omnikey import *", namespace)
    assert [name for name in omnikey.__all__ if name not in namespace] == []
    for name in omnikey.__all__:
        assert namespace[name] is getattr(omnikey, name)
    with pytest.raises(AttributeError):
        omnikey.no_such_name


def run_main(*argv) -> str:
    return f"from omnikey.cli import main\nassert main({list(argv)!r}) == 0"


CLI = {"cli", "errors"}
SOLVE = CLI | {"network", "omniscience", "secrecy"}
SYNTH = SOLVE | {"fields", "protocols"}


@pytest.mark.parametrize(
    "start, loaded",
    [
        ("import omnikey", set()),
        ("import omnikey.cli", CLI),
        (run_main("example", "--preset", "gap:4"), CLI | {"network"}),
        (run_main("reduce", "--input", "cover.json", "--solve"), SOLVE),
        (run_main("analyze", "--preset", "pin:4", "--tau", "1"), SOLVE),
        (run_main("analyze", "--preset", "pin:4", "--witness"), SOLVE | {"connectivity"}),
        (run_main("protocol", "--gap", "6", "-o", "f.json"), SYNTH),
        (run_main("verify", "--protocol", "g6.json", "--gap", "6"), SYNTH | {"oracle"}),
    ],
    ids=["import", "import-cli", "example", "reduce", "analyze", "witness", "protocol", "verify"],
)
def test_each_start_loads_only_the_modules_it_runs(tmp_path, start, loaded):
    (tmp_path / "cover.json").write_text(
        json.dumps({"universe": [1, 2, 3, 4], "sets": [[1, 2], [3], [3, 4], [2, 3]]})
    )
    (tmp_path / "g6.json").write_text(protocol_to_json(split_gap_protocol(6)))
    report = 'import sys\nprint(sorted(m for m in sys.modules if m.startswith("omnikey")), file=sys.stderr)'
    done = python(tmp_path, "-c", f"{start}\n{report}")
    assert done.stderr.splitlines()[-1] == str(sorted({"omnikey"} | {f"omnikey.{m}" for m in loaded}))


def test_names_and_submodules_resolve_after_a_bare_import(tmp_path):
    python(
        tmp_path,
        "-c",
        """
import sys, omnikey
assert omnikey.network.make_pin(4).n == 4
assert omnikey.network is sys.modules["omnikey.network"]
assert "omnikey.secrecy" not in sys.modules
assert omnikey.make_gap is omnikey.network.make_gap
assert vars(omnikey)["make_gap"] is omnikey.network.make_gap
assert set(omnikey.__all__) | {"network", "oracle"} <= set(dir(omnikey))
assert "omnikey.oracle" not in sys.modules
""",
    )
