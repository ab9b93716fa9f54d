"""Compare two directories of seeded `fps` outputs (.github/seeded_outputs.sh).

    python .github/compare_seeded.py A B

Every output must be present in both, and agree:
  - {phase,rho,persist,clique,stall}_results.csv, non-empty, in every cell
    but wall_ms; stall_results.csv must also record an error in some trial,
    since it is there to compare a sweep's NotConverged path;
  - their .summary.json byte for byte (they hold no timing);
  - sigma.csv (block-sparse) and s.csv (dense), the inputs that
    save_matrix_csv writes, and solve.out, h.csv (sparse by rows),
    certify.out and pipeline.out, non-empty, byte for byte.
Each differing cell (or line) is printed with its absolute difference when
both sides are numbers.  Exits 1 on any difference, 0 otherwise.
"""

import csv
import sys
from pathlib import Path

SWEEPS = ("phase", "rho", "persist", "clique", "stall")
OUTPUTS = ("sigma.csv", "s.csv", "solve.out", "h.csv", "certify.out", "pipeline.out")


def _delta(a, b):
    try:
        return f" (|diff| {abs(float(a) - float(b)):.3e})"
    except ValueError:
        return ""


def _cells(label, rows_a, rows_b):
    """Print every differing cell of two row lists; returns whether any differ."""
    if len(rows_a) != len(rows_b):
        print(f"{label}: {len(rows_a)} rows against {len(rows_b)}")
        return True
    differ = False
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for col in sorted(set(ra) | set(rb), key=str):
            a, b = ra.get(col), rb.get(col)
            if a != b:
                print(f"{label} row {i} {col}: {a!r} against {b!r}{_delta(a, b)}")
                differ = True
    return differ


def _sweep(a_dir, b_dir, name):
    path = f"{name}_results.csv"
    rows = []
    for d in (a_dir, b_dir):
        with open(d / path, newline="") as f:
            rows.append([{k: v for k, v in row.items() if k != "wall_ms"}
                         for row in csv.DictReader(f)])
    if not rows[0]:
        print(f"{path}: no rows")
        return True
    if name == "stall" and not any(row["error"] for row in rows[0]):
        print(f"{path}: no trial recorded an error")
        return True
    return _cells(path, *rows)


def _exact(a_dir, b_dir, path, nonempty=True):
    a, b = ((d / path).read_bytes() for d in (a_dir, b_dir))
    if nonempty and not a:
        print(f"{path}: empty")
        return True
    if a == b:
        return False
    if path.endswith(".csv"):
        rows = [[dict(enumerate(r)) for r in csv.reader(x.decode().splitlines())]
                for x in (a, b)]
    else:
        rows = [[{"": line} for line in x.decode().splitlines()] for x in (a, b)]
    if not _cells(path, *rows):
        print(f"{path}: differs in bytes outside its cells (line ends or a final newline)")
    return True


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    a_dir, b_dir = (Path(d) for d in argv)
    differ = False
    for name in SWEEPS:
        differ |= _sweep(a_dir, b_dir, name)
        differ |= _exact(a_dir, b_dir, f"{name}_results.summary.json", nonempty=False)
    for path in OUTPUTS:
        differ |= _exact(a_dir, b_dir, path)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
