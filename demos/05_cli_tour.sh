#!/bin/sh
# Walk through every CLI subcommand on a throwaway directory.
#
# The same engine backs the library and the command line, so the numbers
# printed here are bit-identical to what the demos' Python calls produce.
set -e
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== simulate: 2000 draws from a Pareto-radial model =="
python3 -m sephill simulate --family pareto --alpha 3 --dim 2 \
    --n 2000 --seed 42 --out "$work/sample.csv" \
    --radii-out "$work/radii.csv"
head -3 "$work/sample.csv"

echo
echo "== estimate: known parameters vs both estimation methods =="
python3 -m sephill estimate --data "$work/sample.csv" --k 44 \
    --mu 0,0 --sigma identity --out -
python3 -m sephill estimate --data "$work/sample.csv" --k 44 \
    --method mean-cov --out -
python3 -m sephill estimate --data "$work/sample.csv" --k 44 \
    --method median-tyler --out -

echo
echo "== hillplot: the estimate across a k sweep =="
python3 -m sephill hillplot --data "$work/sample.csv" \
    --k-min 20 --k-max 200 --k-step 40 --method mean-cov --out -

echo
echo "== verify-bounds: randomized envelope trials =="
python3 -m sephill verify-bounds --family pareto --alpha 3 --dim 2 \
    --n 500 --trials 40 --perturbation-scale 1e-4 --seed 7 \
    --out "$work/bounds.json"
python3 - "$work/bounds.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    rep = json.load(fh)
print({k: rep[k] for k in ("trials", "applicable_count", "violations")})
EOF

echo
echo "== experiment: a miniature Monte Carlo run =="
python3 -m sephill experiment --family pareto --alpha 4 --dim 2 \
    --n-values 500,1000 --replications 30 --method mean-cov \
    --seed 99 --workers 4 --out "$work/exp.json"
python3 - "$work/exp.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    aggregates = json.load(fh)["aggregates"]
for agg in aggregates:
    print(f"n={agg['n']:>5}  k={agg['k']:>3}  "
          f"median|err|={agg['median_abs_error']:.4f}  ks={agg['ks_stat']:.4f}")
EOF
