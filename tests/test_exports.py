import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boundprop

EXPORTS = {
    "ActiveSet", "BeliefNetwork", "CoherenceError", "ConflictingEvidenceError",
    "CutsetOverflowError", "Interval", "IntervalVector", "LoopCluster",
    "NetworkFormatError", "Node", "QueryResult", "StopCriterion", "answer_query",
    "bel_hat", "enumerate_marginal", "find_loop_clusters", "is_polytree", "iv_mul",
    "lambda_hat", "lambda_msg", "parse_network", "pi_hat", "pi_msg", "polytree_exact",
    "propagate", "relevant_set", "select_loop_cutset", "serialize_network",
    "simplex_dot", "vacuous",
}
README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_are_the_pinned_set():
    # A name joins or leaves the public surface only on purpose.
    assert set(boundprop.__all__) == EXPORTS


def test_readme_documents_every_export():
    # The README's Public API list has one "- `name`: ..." line per
    # export and names nothing else.
    section = README.read_text(encoding="utf-8").split("\n### Public API\n", 1)[1]
    section = section.split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(boundprop.__all__)


def test_every_export_resolves():
    assert len(set(boundprop.__all__)) == len(boundprop.__all__)
    missing = [name for name in boundprop.__all__ if not hasattr(boundprop, name)]
    assert not missing


# Run in a fresh interpreter in which only the standard library and the
# package itself can be imported.  It writes a loopy network to argv[1]
# and answers it through the oracle and the CLI's ``exact``.
STDLIB_ONLY = """
import sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "boundprop" and top not in sys.stdlib_module_names:
            raise ImportError(f"{name} is not in the standard library")

sys.meta_path.insert(0, StdlibOnly())
try:
    import pytest
except ImportError:
    pass
else:
    sys.exit("an installed third-party module was imported")
import boundprop, boundprop.cli
from boundprop import enumerate_marginal, serialize_network
from boundprop.netgen import GenSpec, gen_loopy
net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.3, seed=2))
print(*enumerate_marginal(net, {"n11": 0}, "n3"))
with open(sys.argv[1], "w") as fh:
    fh.write(serialize_network(net))
sys.exit(boundprop.cli.main(["exact", sys.argv[1], "--node", "n3", "--evidence", "n11=s0"]))
"""


def test_package_runs_on_the_standard_library_alone(tmp_path):
    # The package declares no runtime dependency: no module outside the
    # standard library is imported to load it or to answer exactly.
    src = Path(boundprop.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", STDLIB_ONLY, str(tmp_path / "net.txt")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    marginal, line = done.stdout.splitlines()
    label, *cells = line.split()
    assert label == "exact"
    printed = [float(cell.split("=")[1]) for cell in cells]
    assert printed == pytest.approx([float(p) for p in marginal.split()], abs=1e-9)
