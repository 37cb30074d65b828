#!/usr/bin/env bash
# The verify-before-use, determinism, panic, unsafe, sans-io and
# quorum-arithmetic checks (S1, H1, D1–D3, S2, P1, P2, P3) are enforced
# by rustc and clippy. This script proves that configuration still
# rejects each check's bad fixtures and accepts its good twin:
#
#   tests/lint/clippy_fixtures.sh          # from the repo root
#
# Each `tests/lint/fixtures/<check>_bad*.rs` and `<check>_good.rs`
# becomes the `lib.rs` of a throwaway crate in a scratch workspace that
# carries the root manifest's `[workspace.lints.*]` tables verbatim and
# the root `clippy.toml`, and depends on the real `qsel-types` (P2's
# fixtures use its opaque `Faults`, S1's its `Signed`). A bad fixture must fail
# `cargo clippy -- -D warnings`, and for every `//! rejected-by: CODE
# NEEDLE` line it carries, some error must have code CODE (a lint name
# or a rustc error code) and mention NEEDLE. A good fixture must pass
# with no diagnostics at all.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
fixtures=$root/tests/lint/fixtures
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

{
    printf '[workspace]\nmembers = ["fixture"]\nresolver = "2"\n\n'
    awk '/^\[/ { on = ($0 ~ /^\[workspace\.lints/) } on' "$root/Cargo.toml"
} > "$work/Cargo.toml"
grep -q '^\[workspace\.lints' "$work/Cargo.toml" || { echo "no [workspace.lints] in $root/Cargo.toml"; exit 1; }
cp "$root/clippy.toml" "$work/"

mkdir -p "$work/fixture/src" "$work/rand/src"
cat > "$work/fixture/Cargo.toml" <<'TOML'
[package]
name = "fixture"
version = "0.0.0"
edition = "2021"
publish = false

[lints]
workspace = true

[dependencies]
rand = { path = "../rand" }
TOML
printf 'qsel-types = { path = "%s/crates/types" }\n' "$root" >> "$work/fixture/Cargo.toml"
# The D3 fixtures need the real `rand` API's ambient entry points, which
# the workspace's offline shim deliberately lacks. Defining them is not
# using them, so this stand-in is exempt from the bans.
cat > "$work/rand/Cargo.toml" <<'TOML'
[package]
name = "rand"
version = "0.0.0"
edition = "2021"
publish = false
TOML
cat > "$work/rand/src/lib.rs" <<'RS'
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
    fn from_entropy() -> Self {
        Self::seed_from_u64(0)
    }
}
pub mod rngs {
    pub struct StdRng(pub u64);
    pub struct OsRng;
    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }
    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }
    impl super::RngCore for OsRng {
        fn next_u64(&mut self) -> u64 {
            4
        }
    }
}
pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng(4)
}
RS

export CARGO_TARGET_DIR=$work/target
failures=0

# Prints `code<TAB>message` for every error diagnostic of the last build.
errors() {
    python3 -c '
import json, sys
for line in sys.stdin:
    m = json.loads(line)
    d = m.get("message") if m.get("reason") == "compiler-message" else None
    if d and d["level"] == "error":
        print(((d.get("code") or {}).get("code") or "") + "\t" + d["message"])
'
}

for fixture in "$fixtures"/*.rs; do
    name=$(basename "$fixture")
    case $name in
        *_good.rs) kind=good ;;
        *) kind=bad ;;
    esac
    cp "$fixture" "$work/fixture/src/lib.rs"
    touch "$work/fixture/src/lib.rs"
    set +e
    out=$(cd "$work" && cargo clippy -q --offline -p fixture --message-format=json -- -D warnings 2>/dev/null)
    status=$?
    set -e
    diags=$(printf '%s\n' "$out" | errors)
    if [ "$kind" = good ]; then
        if [ $status -ne 0 ] || [ -n "$diags" ]; then
            echo "FAIL $name: expected clean, got:"; printf '%s\n' "$diags"
            failures=$((failures + 1))
        else
            echo "ok   $name accepted"
        fi
        continue
    fi
    if [ $status -eq 0 ]; then
        echo "FAIL $name: accepted"
        failures=$((failures + 1))
        continue
    fi
    expectations=$(sed -n 's|^//! rejected-by: ||p' "$fixture")
    if [ -z "$expectations" ]; then
        echo "FAIL $name: no rejected-by line"
        failures=$((failures + 1))
        continue
    fi
    while read -r lint needle; do
        if printf '%s\n' "$diags" | awk -F '\t' -v l="$lint" -v n="$needle" \
            '$1 == l && index($2, n) { found = 1 } END { exit !found }'; then
            echo "ok   $name rejected by $lint ($needle)"
        else
            echo "FAIL $name: no $lint error mentioning $needle; got:"
            printf '%s\n' "$diags"
            failures=$((failures + 1))
        fi
    done <<< "$expectations"
done

if [ $failures -ne 0 ]; then
    echo "clippy_fixtures: $failures failure(s)"
    exit 1
fi
echo "clippy_fixtures: all fixtures behave"
