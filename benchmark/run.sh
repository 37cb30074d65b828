#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --check-stability [seed]
#
# The second form runs every workload end to end twice at one seed and
# prints, per workload and metric, both values and their relative
# difference against the metric's bound in BENCHMARK.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/qsel-benchmark"

if [[ "${1:-}" != "--check-stability" ]]; then
    exec "$bin" --root "$here" "$@"
fi

seed="${2:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
mkdir -p "$here/out"
tmp="$(mktemp -d "$here/out/stability.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
status=0
for w in steady_batched_n5 steady_unbatched_n7 failover_n7 league_traced; do
    for pass in 1 2; do
        "$bin" --root "$here" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1 >"$tmp/$w.$pass.json"
    done
    python3 - "$here/../BENCHMARK.json" "$w" "$tmp/$w.1.json" "$tmp/$w.2.json" <<'PY' || status=1
import json, sys
manifest, workload, first, second = sys.argv[1:5]
bounds = {m["name"]: m["bound"] for m in json.load(open(manifest))["end_to_end"]}
a = json.load(open(first))["metrics"]
b = json.load(open(second))["metrics"]
ok = True
print(f"{workload}")
for name, bound in bounds.items():
    x, y = a[name]["value"], b[name]["value"]
    diff = abs(x - y) / max(abs(x), abs(y))
    verdict = "ok" if diff <= bound else "OUTSIDE BOUND"
    ok &= diff <= bound
    print(f"  {name:<28} {x:>18.4f} {y:>18.4f} {a[name]['unit']:<6} diff {diff:8.4%}  bound {bound:.0%}  {verdict}")
sys.exit(0 if ok else 1)
PY
done
exit "$status"
