import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_numpy_unloaded():
    # Only the exact-inference oracle uses NumPy, and imports it when called.
    src = Path(boundprop.__file__).resolve().parent.parent
    code = "import sys, boundprop, boundprop.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
