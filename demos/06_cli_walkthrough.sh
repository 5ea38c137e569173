#!/bin/sh
# The same capabilities through the `amp-lab` command-line harness.
# Run with:  sh demos/06_cli_walkthrough.sh   (a few seconds)
set -e

out=$(mktemp -d)

echo "== free cumulants of MP(0.2), with a Monte-Carlo cross-check =="
amp-lab cumulants --law mp:alpha=0.2 --order 4 --mc --dim 1000 --replicas 3

echo
echo "== state-evolution prediction only (no matrices sampled) =="
cat > "$out/config.json" <<'EOF'
{
  "law": "mp:alpha=0.2",
  "N": 600,
  "T": 5,
  "theta": 1.5,
  "omega": 0.3,
  "runs": 4,
  "seed_base": 0,
  "algo": "ri-amp-mp",
  "denoiser": "linear-mmse-combining",
  "matrix_fn": "mp-denoise",
  "mc_samples": 200000
}
EOF
amp-lab se --config "$out/config.json"

echo
echo "== full experiment: seeded runs vs prediction, CSV + SVG + metadata =="
amp-lab run --config "$out/config.json" --out "$out/experiment"
head -3 "$out/experiment/mse.csv"
ls "$out/experiment"

echo
echo "== built-in verification suites =="
amp-lab verify --suite cumulants
amp-lab verify --suite se-equivalence

rm -rf "$out"
