"""tools/compare_outputs.py digests outputs without their wall times."""

import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_digest_ignores_only_the_runtime_ms_column(tmp_path):
    def digest(name, text):
        path = tmp_path / name
        path.write_text(text)
        return compare_outputs.digest(path)

    base = digest("a.csv", "rho,T,runtime_ms,err\n0.5,40,1.25,0.1\n")
    assert digest("b.csv", "rho,T,runtime_ms,err\n0.5,40,9.75,0.1\n") == base
    assert digest("c.csv", "rho,T,runtime_ms,err\n0.5,40,1.25,0.2\n") != base
    # a file without the column, CSV or not, is digested as it stands
    assert digest("d.csv", "key,value\nx,1\n") != digest("e.csv", "key,value\nx,2\n")
    assert digest("f.json", '{"runtime_ms": 1}') != digest("g.json", '{"runtime_ms": 2}')


def test_runs_cover_every_subcommand():
    # the workloads' jobs and the extra commands together run all eight
    spec = importlib.util.spec_from_file_location(
        "_compare_workloads", TOOL.parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    spec.loader.exec_module(workloads)
    argvs = [job.argv for w in workloads.WORKLOADS for job in workloads.build(w, 1, tiny=True)]
    argvs += [argv for _, argv in compare_outputs.EXTRA_COMMANDS]
    commands = {" ".join(argv[:2]) if argv[0] == "exp" else argv[0] for argv in argvs}
    assert commands == {"simulate", "estimate", "hokalman", "pe-check", "pe-campaign",
                        "exp figure1", "exp double-descent", "validate"}


def test_loading_the_tool_sets_no_environment():
    # main pins the BLAS thread knobs; importing the tool, as these tests
    # do, must leave the test process's environment as it was
    before = dict(os.environ)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert dict(os.environ) == before
    assert fresh.BLAS_THREADS == ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
