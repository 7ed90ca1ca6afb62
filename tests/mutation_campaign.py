"""Mutation campaign over the library's guards, its periodic Markov kernel and its shared jobs.

Each mutant replaces one exact text, which must occur once, in one file under
``src/ltpsid``. For each mutant in turn the script copies ``src/``, ``tests/``
and what the tests read (``bench/``, ``README.md``, ``pyproject.toml``) into a
temporary directory, applies the mutant there, runs ``python -m pytest -x -q``
and prints KILLED (a test failed, named when pytest names it) or SURVIVED (the
suite passed). The tree it is run from is never written. Before the mutants it
runs the unmutated copy, which must pass.

Usage: ``python tests/mutation_campaign.py [substring ...]``; with arguments,
only the mutants whose label contains one of them run. pytest does not collect
this file. A surviving mutant takes one full suite run, about 10 s. The script
exits 1 when a mutant is STALE (its old text is not found exactly once) or
survives without being listed in ``NEAR_EQUIVALENT``, else 0.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, file under src/ltpsid, old text, new text)
MUTANTS = [
    # Guard thresholds, each a decade off or with its comparison flipped.
    ("etfe RANK_TOL 1e-10 -> 1e-13", "etfe.py", "RANK_TOL = 1e-10", "RANK_TOL = 1e-13"),
    ("etfe RANK_TOL 1e-10 -> 1e-8", "etfe.py", "RANK_TOL = 1e-10", "RANK_TOL = 1e-8"),
    # Near-equivalent: it differs from the original only where s_min equals RANK_TOL*s_max.
    ("etfe rank verdict <= -> <", "etfe.py",
     "s[:, -1] <= RANK_TOL * s[:, 0]", "s[:, -1] < RANK_TOL * s[:, 0]"),
    ("estimate_AC shift rank 1e-12 -> 0", "subspace.py",
     "deficient = s[:, -1] <= 1e-12", "deficient = s[:, -1] <= 0"),
    ("estimate_AC shift rank 1e-12 -> 1e-6", "subspace.py",
     "deficient = s[:, -1] <= 1e-12", "deficient = s[:, -1] <= 1e-6"),
    ("normalize_gain degenerate 1e-12 -> 0", "model.py",
     "abs(gamma) <= 1e-12 *", "abs(gamma) <= 0 *"),
    ("normalize_gain degenerate 1e-12 -> 1e-6", "model.py",
     "abs(gamma) <= 1e-12 *", "abs(gamma) <= 1e-6 *"),
    ("resolvent cond bound 1e14 -> 1e12", "model.py",
     "if not cond <= 1e14:", "if not cond <= 1e12:"),
    ("resolvent cond bound 1e14 -> 1e16", "model.py",
     "if not cond <= 1e14:", "if not cond <= 1e16:"),
    ("config_failed > -> >=", "evaluation.py",
     "len(self.trials) > FAILURE_RATE_LIMIT", "len(self.trials) >= FAILURE_RATE_LIMIT"),
    ("experiment CSV header: t column name unchecked", "fileio.py",
     "header == _header(nu, len(header) - 1 - nu)",
     "header[1:] == _header(nu, len(header) - 1 - nu)[1:]"),
    ("experiment CSV non-finite check deleted", "fileio.py",
     "~np.isfinite(data).all(axis=1) | ", ""),
    ("estimate_B regressor limit 1e12 -> 1e14", "subspace.py",
     "REGRESSOR_COND_LIMIT = 1e12", "REGRESSOR_COND_LIMIT = 1e14"),
    ("estimate_B regressor limit 1e12 -> 1e10", "subspace.py",
     "REGRESSOR_COND_LIMIT = 1e12", "REGRESSOR_COND_LIMIT = 1e10"),
    ("estimate_B regressor zero check deleted", "subspace.py",
     "bad = (s[:, -1] <= 0) | ", "bad = "),
    ("stability rule < -> <=", "model.py", "stable=rho < 1.0", "stable=rho <= 1.0"),
    ("_array_fits disabled", "errors.py",
     "if 8 * math.prod(counts) > sys.maxsize:", "if False:"),
    ("_block_counts bound one lag loose", "subspace.py",
     "if q + r - 1 > lags:", "if q + r - 1 > lags + 1:"),
    ("estimate_AC order bound one block loose", "subspace.py",
     "if bases.shape[2] > bases.shape[1] - ny:", "if bases.shape[2] > bases.shape[1]:"),
    ("svd_order order bound one loose", "subspace.py",
     "if order < 1 or order > s.shape[1]:", "if order < 1 or order > s.shape[1] + 1:"),
    ("Ensemble J >= P*n_u one loose", "signal.py",
     "if self.J < self.P * self.nu:", "if self.J < self.P * self.nu - 1:"),
    ("seed index upper bound deleted", "signal.py", "(i < 0) | (i > _WORD)", "(i < 0)"),
    ("trial count bound 2**32 -> 2**33", "evaluation.py",
     '_integer("trials", self.trials, 1, 2**32)', '_integer("trials", self.trials, 1, 2**33)'),
    ("sweep N grid may repeat a length", "evaluation.py",
     "any(b <= a for a, b", "any(b < a for a, b"),
    ("export mirror keeps imaginary part", "fileio.py",
     "G[own_mirror] = G[own_mirror].real", "G[own_mirror] = G[own_mirror]"),
    ("fit_metric degenerate reference 1e-30 -> 0", "evaluation.py",
     "if den <= 1e-30 * float", "if den < 0 * float"),
    # The periodic Markov kernel and the rows read from it.
    ("markov_rows steps by the next A", "model.py", "shifted[r % P]", "shifted[(r + 1) % P]"),
    ("markov_rows shift table transposed", "model.py",
     "A[(np.arange(P)[None, :] - np.arange(P)[:, None]) % P]",
     "A[(np.arange(P)[:, None] - np.arange(P)[None, :]) % P]"),
    ("markov_rows stops after one period", "model.py",
     "for r in range(1, max_lag):", "for r in range(1, min(P, max_lag)):"),
    ("_monodromies reads lag 1", "model.py", "len(A) + 1)[:, -1]", "len(A) + 1)[:, 0]"),
    ("lift_model A one lag short", "model.py", "A=state_rows[0, P],", "A=state_rows[0, P - 1],"),
    ("lift_model B blocks one lag late", "model.py",
     "_with_inputs(state_rows[:, :P], model.B)", "_with_inputs(state_rows[:, 1:], model.B)"),
    # The one owner of each shared job: the aliasing resolvent, the B-fit residual, CSV text.
    ("aliasing resolvent stability raise deleted", "model.py",
     "    if not verdict.stable:\n        raise error(", "    if False:\n        raise error("),
    ("aliasing resolvent power N -> 1", "model.py",
     "np.linalg.matrix_power(psi, N)", "np.linalg.matrix_power(psi, 1)"),
    ("estimate_B residual -= -> +=", "subspace.py",
     "[tag, :, slot] -= fit", "[tag, :, slot] += fit"),
    ("estimate_B residual formed from zeros", "subspace.py",
     "residual = h.copy()", "residual = np.zeros_like(h)"),
    ("CSV row join CRLF -> LF", "fileio.py",
     'replace("], [", "\\r\\n")', 'replace("], [", "\\n")'),
]
# Mutants that differ from the original only on inputs no test can reach; their survival is
# expected and does not fail the campaign.
NEAR_EQUIVALENT = {"etfe rank verdict <= -> <"}


def run_suite(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test id or else the exit code) of ``pytest -x -q`` in ``tree``."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else f"exit {done.returncode}"


def copy_tree(tmp: Path) -> None:
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp)


def main(selectors: list[str]) -> int:
    chosen = [m for m in MUTANTS if not selectors or any(s in m[0] for s in selectors)]
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        passed, failure = run_suite(Path(tmp))
        if not passed:
            print(f"unmutated suite fails ({failure}); no mutant run")
            return 1
    killed, faults = 0, 0
    for label, name, old, new in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            path = Path(tmp) / "src" / "ltpsid" / name
            text = path.read_text()
            if text.count(old) != 1:
                print(f"STALE     {label}: {name} holds the old text {text.count(old)} times")
                faults += 1
                continue
            path.write_text(text.replace(old, new))
            passed, failure = run_suite(Path(tmp))
        killed += not passed
        faults += passed and label not in NEAR_EQUIVALENT
        print(f"SURVIVED  {label}" if passed else f"KILLED    {label} ({failure})", flush=True)
    print(f"{killed} of {len(chosen)} killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
