#!/usr/bin/env bash
# Seeded `fps` outputs of one source tree, for comparing two runs or two trees.
#
#   .github/seeded_outputs.sh SRC OUT
#
# runs the package under SRC (the directory holding `fantope/`) with FPS_SEED
# unset and writes into OUT (created if missing):
#   - sigma.csv and s.csv: a seeded spiked model at p = 60 and its sample
#     covariance, the input of `fps solve` and `fps certify`;
#   - {phase,rho,persist,clique}_results.csv and .summary.json: a phase
#     sweep, a phase sweep on a rho grid (rho = 0 leaves the best-effort
#     condition cells empty), a persist sweep (the budget form; one of its
#     trials runs 719 iterations) and a planted clique (the full loop with
#     Ritz steps);
#   - stall_results.csv and .summary.json: a phase sweep at a small penalty
#     with max_iters = 40: every trial runs out of iterations and records a
#     NotConverged in its error cell, so a sweep's failure path is compared;
#   - solve.out and h.csv: `fps solve` on s.csv (the accelerated 5x5 block);
#   - certify.out: `fps certify` (the witness's restricted solve), which
#     exits 3 there: the paper's deterministic conditions fail at p = 60,
#     while the witness is built and valid;
#   - pipeline.out: the in-process pipeline no `fps` command runs, on s.csv
#     and sigma.csv at rho = 0.3 in one process: solve_fps, a cold
#     uniqueness_probe and build_witness on the one SymMat of S, so the probe
#     and the witness re-read the solve's kept run; it prints the solve, the
#     probe's verdict, the witness fields and whether Htilde equals H.
set -euo pipefail
src="$(cd "$1" && pwd)"
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$src"
unset FPS_SEED

python - <<'EOF'
from fantope import gen_spiked, sample_covariance, sample_gaussian
from fantope.models import save_matrix_csv
model = gen_spiked(60, 2, range(5), (3.0, 2.0), 1.0, 12)
save_matrix_csv("sigma.csv", model.Sigma.entries)
save_matrix_csv("s.csv", sample_covariance(sample_gaussian(model, 8000, 9)).entries)
EOF
printf '%s\n' 'model = spiked' 'p = 30' 'k = 1' 's = 4' 'spike_values = 2.0' \
  'noise = 1.0' 'grid_n = 20, 500, 4000' 'trials = 3' 'seed = 5' > sweep.cfg
printf '%s\n' 'model = spiked' 'p = 60' 'k = 2' 's = 5' 'spike_values = 3.0, 2.0' \
  'grid_n = 500, 4000' 'grid_rho = 0.0, 0.3' 'seed = 9' \
  'output_path = rho_results.csv' > rho.cfg
printf '%s\n' 'model = spiked' 'p = 30' 'k = 1' 's = 5' 'spike_values = 2.0' \
  'noise = 1.0' 'grid_n = 0, 500' 'grid_r = 2, 3' 'trials = 2' 'seed = 3' > persist.cfg
printf '%s\n' 'model = spiked' 'p = 30' 'k = 1' 's = 4' 'spike_values = 2.0' \
  'grid_n = 300' 'grid_rho = 0.05' 'trials = 2' 'seed = 1' 'max_iters = 40' \
  'output_path = stall_results.csv' > stall.cfg

for args in "phase --config sweep.cfg" "phase --config rho.cfg" \
    "persist --config persist.cfg" "clique --p 60 --s 12 --trials 3 --seed 2" \
    "phase --config stall.cfg"; do
  # word splitting of $args is intended
  python -m fantope.cli $args > /dev/null
done
python -m fantope.cli solve s.csv --k 2 --rho 0.3 --out-h h.csv > solve.out
python -m fantope.cli certify sigma.csv s.csv --k 2 --j 0,1,2,3,4 --rho 0.3 \
  > certify.out || test $? -eq 3
python - > pipeline.out <<'EOF'
import json
import numpy as np
from fantope import SolverConfig, as_sym, build_witness, solve_fps, uniqueness_probe
from fantope.models import load_matrix_csv
sigma, smat = as_sym(load_matrix_csv("sigma.csv")), as_sym(load_matrix_csv("s.csv"))
cfg = SolverConfig(k=2, rho=0.3)
sol = solve_fps(smat, cfg)
probe, _ = uniqueness_probe(smat, cfg)
wit = build_witness(sigma, smat, 2, range(5), 0.3)
print(json.dumps({
    "solve": {"support": list(sol.support.indices), "iters": sol.iters,
              "working_set": sol.working_set, "objective": sol.objective},
    "probe": {"unique": probe.unique, "discrepancy": probe.discrepancy,
              "tau": probe.tau, "gap": probe.gap},
    "witness": wit.to_flat_dict(),
    "htilde_equals_h": bool(np.array_equal(wit.Htilde.entries, sol.H.entries)),
}, indent=2))
EOF
