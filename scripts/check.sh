#!/usr/bin/env bash
# Full local gate: build, a no-external-crates gate, a vocabulary-literal
# gate, every test (incl. the bench_incremental smoke test), clippy with
# warnings denied, a CLI metrics smoke (train + scan with --metrics-out, validating the JSON
# key set of DESIGN.md §10), a format smoke (binary model reload + registry
# scans must be byte-identical, DESIGN.md §12), a serve smoke (spawn the
# JSON-RPC daemon, handshake, analyze, shutdown, DESIGN.md §13), a watch
# smoke (touch one line under `namer watch`, expect a findings diff and the
# unchanged files served from the file cache, DESIGN.md §14), a quick
# incremental benchmark (its exit code enforces both byte-identity and a
# ≥5× 1-line-dirty speedup over a full re-scan), and rustdoc with warnings
# denied (catches doc drift and broken intra-doc links). CI and pre-push
# both run this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# No external crates: every package cargo resolves must come from this
# workspace (a registry or git package carries a non-null "source").
cargo metadata --offline --format-version 1 | python3 -c '
import json, sys
external = [p["name"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
if external:
    sys.exit("check.sh: external crates in the workspace: " + ", ".join(sorted(external)))
'
# Vocabulary gate (DESIGN.md §7): fixed node values and labels go through
# `sym!`/`vocab`, which cache their symbol at first use. A string literal
# handed to `Sym::intern`, `terminal` or `non_terminal` outside the
# interner and the vocabulary re-hashes it on every call — reject it.
# Only non-test lines count: those before a file's first `#[cfg(test)]`,
# comments excluded.
if find crates/namer-syntax/src crates/namer-analysis/src crates/namer-patterns/src \
        crates/namer-core/src -name '*.rs' ! -name intern.rs ! -name vocab.rs -print0 \
    | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && !/^[[:space:]]*\/\// && /(Sym::intern|terminal)\([[:space:]]*"/ {
            print FILENAME ":" FNR ": " $0
            found = 1
        }
        END { exit !found }'; then
    echo "check.sh: uncached vocabulary literal; use sym!(\"…\") or a vocab function" >&2
    exit 1
fi
echo "vocab gate: ok (vocabulary literals cached at first use)"
# Fast gates: the binary-container unit tests (DESIGN.md §12) and the
# serve protocol unit tests (DESIGN.md §13) run first so a format or wire
# regression fails in seconds, before the full workspace suite.
cargo test -q -p namer-core binfmt
cargo test -q -p namer-serve serve_
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Exits non-zero if any phase diverges from its full-scan reference or the
# 1-line-dirty phase is less than 5x faster than a full re-scan.
cargo run --release -p namer-bench --bin bench_incremental -- --quick --out /tmp/BENCH_incremental_check.json

# Metrics smoke: corpus -> train -> scan --metrics-out, then check the
# snapshot carries the full §10 key set. scan exits 1 when it finds issues,
# which the synthetic corpus is built to contain — tolerate exactly that.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
target/release/namer corpus --out "$smoke/playground" --seed 7
target/release/namer train \
    --corpus "$smoke/playground/repos" \
    --commits "$smoke/playground/fixes" \
    --labels "$smoke/playground/labels.tsv" \
    -o "$smoke/model.json"
scan_rc=0
target/release/namer scan --model "$smoke/model.json" \
    --metrics-out "$smoke/metrics.json" \
    "$smoke/playground/repos" >/dev/null || scan_rc=$?
if [ "$scan_rc" -gt 1 ]; then
    echo "check.sh: metrics smoke scan failed (exit $scan_rc)" >&2
    exit "$scan_rc"
fi
for key in schema_version counters phases \
           files_scanned statements_scanned pattern_matches cache_hits \
           cache_degraded_cold detect process scan assemble classify; do
    grep -q "\"$key\"" "$smoke/metrics.json" || {
        echo "check.sh: metrics.json missing key \"$key\"" >&2
        exit 1
    }
done
echo "metrics smoke: ok ($smoke/metrics.json validated)"

# JS smoke: the third-language frontend end-to-end — corpus -> train ->
# scan entirely in JavaScript, through the same Language-trait seam the
# Python/Java paths use. The synthetic JS corpus contains injected issues,
# so scan exiting 1 is the expected success mode.
target/release/namer corpus --js --out "$smoke/js-playground" --seed 11
target/release/namer train --js \
    --corpus "$smoke/js-playground/repos" \
    --commits "$smoke/js-playground/fixes" \
    --labels "$smoke/js-playground/labels.tsv" \
    -o "$smoke/js-model.json"
js_rc=0
target/release/namer scan --model "$smoke/js-model.json" \
    "$smoke/js-playground/repos" > "$smoke/js-findings.txt" 2>/dev/null || js_rc=$?
if [ "$js_rc" -gt 1 ]; then
    echo "check.sh: JS smoke scan failed (exit $js_rc)" >&2
    exit "$js_rc"
fi
echo "js smoke: ok (JavaScript corpus -> train -> scan completed)"

# Language-dispatch gate: every per-language `match` lives in the registry
# module (crates/namer-syntax/src/lang.rs). Any other `match <expr>lang`
# means a frontend grew a second dispatch site — reject it.
if grep -rnE 'match [a-zA-Z_.]*lang\b' --include='*.rs' src crates tests \
    | grep -v 'crates/namer-syntax/src/lang.rs'; then
    echo "check.sh: language dispatch found outside the registry module" >&2
    exit 1
fi
echo "lang dispatch gate: ok (registry-only dispatch)"

# Fault smoke (DESIGN.md §11): salt the corpus with hostile inputs — a
# non-UTF-8 source and a dangling symlink — and scan over a truncated
# cache. The scan must complete (exit 0 or 1, never crash), quarantine the
# bad inputs, degrade the damaged cache to cold, and still emit valid
# metrics JSON.
printf '\xc3\x28\xff\xfe' > "$smoke/playground/repos/binary.py"
ln -s missing-target.py "$smoke/playground/repos/dangling.py"
mkdir -p "$smoke/cache"
target/release/namer scan --model "$smoke/model.json" \
    --cache-dir "$smoke/cache" \
    "$smoke/playground/repos" >/dev/null 2>&1 || true
head -c 40 "$smoke/cache/scan-cache.json" > "$smoke/cache/scan-cache.json.trunc"
mv "$smoke/cache/scan-cache.json.trunc" "$smoke/cache/scan-cache.json"
fault_rc=0
target/release/namer scan --model "$smoke/model.json" \
    --cache-dir "$smoke/cache" \
    --metrics-out "$smoke/fault-metrics.json" \
    "$smoke/playground/repos" >/dev/null 2>"$smoke/fault-stderr.txt" || fault_rc=$?
if [ "$fault_rc" -gt 1 ]; then
    echo "check.sh: fault smoke scan crashed (exit $fault_rc)" >&2
    cat "$smoke/fault-stderr.txt" >&2
    exit "$fault_rc"
fi
grep -Eq '"quarantined_files": *[1-9]' "$smoke/fault-metrics.json" || {
    echo "check.sh: fault smoke quarantined nothing" >&2
    exit 1
}
grep -Eq '"cache_degraded_cold": *[1-9]' "$smoke/fault-metrics.json" || {
    echo "check.sh: truncated cache did not degrade to cold" >&2
    exit 1
}
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$smoke/fault-metrics.json" || {
    echo "check.sh: fault smoke metrics are not valid JSON" >&2
    exit 1
}
grep -q "quarantined" "$smoke/fault-stderr.txt" || {
    echo "check.sh: fault smoke printed no quarantine diagnostics" >&2
    exit 1
}
echo "fault smoke: ok (bad inputs quarantined, truncated cache degraded cold)"

# Format smoke (DESIGN.md §12): a model saved in the binary container must
# reload — directly and through a --model-dir registry — and produce
# byte-identical findings to the original file-loaded scan.
mkdir -p "$smoke/models"
cp "$smoke/model.json" "$smoke/models/smoke.bin"
scan_out() { # $1 = extra args..., writes stdout to the named file
    local out="$1"; shift
    local rc=0
    target/release/namer scan "$@" "$smoke/playground/repos" \
        > "$out" 2>/dev/null || rc=$?
    if [ "$rc" -gt 1 ]; then
        echo "check.sh: format smoke scan failed (exit $rc)" >&2
        exit "$rc"
    fi
}
scan_out "$smoke/findings-file.txt" --model "$smoke/model.json"
scan_out "$smoke/findings-reload.txt" --model "$smoke/models/smoke.bin"
scan_out "$smoke/findings-registry.txt" --model-dir "$smoke/models"
cmp -s "$smoke/findings-file.txt" "$smoke/findings-reload.txt" || {
    echo "check.sh: binary save -> reload changed the findings" >&2
    exit 1
}
cmp -s "$smoke/findings-file.txt" "$smoke/findings-registry.txt" || {
    echo "check.sh: registry-served model changed the findings" >&2
    exit 1
}
echo "format smoke: ok (binary reload and registry scans byte-identical)"

# Serve smoke (DESIGN.md §13): spawn the JSON-RPC daemon over stdio, run
# handshake -> analyze -> shutdown, and validate that the handshake
# advertises the protocol, every request gets a result, and the analyze
# response's per-request MetricsSnapshot carries the full §10 key set.
printf '%s\n' \
  '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"protocol":1}}' \
  '{"jsonrpc":"2.0","id":2,"method":"file.analyze","params":{"files":[{"path":"buggy.py","content":"class T(TestCase):\n    def t(self):\n        self.assertTrue(widget.size, 12)\n"}]}}' \
  '{"jsonrpc":"2.0","id":3,"method":"shutdown"}' \
  | target/release/namer serve --model "$smoke/model.json" \
  > "$smoke/serve-out.jsonl" || {
    echo "check.sh: serve smoke daemon failed" >&2
    exit 1
}
python3 - "$smoke/serve-out.jsonl" <<'PY' || exit 1
import json, sys

lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 3, f"expected 3 responses, got {len(lines)}"
init, analyze, shutdown = lines
for resp in lines:
    assert "error" not in resp, f"unexpected error response: {resp}"
assert init["result"]["protocol"] == 1, "handshake protocol mismatch"
assert init["result"]["server"] == "namer-serve"
assert "file.analyze" in init["result"]["methods"]
langs = init["result"]["capabilities"]["languages"]
assert langs == ["python", "java", "javascript"], f"bad languages: {langs}"
result = analyze["result"]
for key in ("findings", "summary", "diagnostics", "metrics"):
    assert key in result, f"analyze result missing {key!r}"
metrics = result["metrics"]
for key in ("schema_version", "counters", "phases"):
    assert key in metrics, f"MetricsSnapshot missing {key!r}"
for counter in ("serve_requests", "files_scanned", "statements_scanned"):
    assert counter in metrics["counters"], f"counters missing {counter!r}"
assert metrics["counters"]["serve_requests"] == 1
assert metrics["phases"]["serve"]["calls"] == 1
assert shutdown["result"] == {"ok": True}
PY
echo "serve smoke: ok (handshake, analyze, shutdown; snapshot keys valid)"

# Watch smoke (DESIGN.md §14): start `namer watch` over the salted corpus,
# let it take its findings baseline, then touch one line — delete the line
# behind an existing finding — and expect (a) a `- ` findings-diff line and
# a clean bounded exit, and (b) the file cache to have served the unchanged
# files (`cache_hits > 0` in the cumulative metrics): only the edited file is
# re-scanned fresh.
scan_rc=0
target/release/namer scan --model "$smoke/model.json" \
    "$smoke/playground/repos" > "$smoke/watch-findings.txt" 2>/dev/null || scan_rc=$?
if [ "$scan_rc" -gt 1 ]; then
    echo "check.sh: watch smoke baseline scan failed (exit $scan_rc)" >&2
    exit "$scan_rc"
fi
finding=$(grep -m1 -E ':[0-9]+: replace ' "$smoke/watch-findings.txt") || {
    echo "check.sh: watch smoke found no finding to edit away" >&2
    exit 1
}
ffile=${finding%%:*}
fline=$(printf '%s\n' "$finding" | cut -d: -f2)
mkdir -p "$smoke/watch-cache"
target/release/namer watch --model "$smoke/model.json" \
    --cache-dir "$smoke/watch-cache" \
    --metrics-out "$smoke/watch-metrics.json" \
    --interval-ms 200 --max-polls 100 --max-changes 1 \
    "$smoke/playground/repos" > "$smoke/watch-out.txt" 2>/dev/null &
watch_pid=$!
for _ in $(seq 1 50); do
    grep -q 'finding(s) at baseline' "$smoke/watch-out.txt" 2>/dev/null && break
    sleep 0.2
done
grep -q 'finding(s) at baseline' "$smoke/watch-out.txt" || {
    echo "check.sh: namer watch never reported its baseline" >&2
    kill "$watch_pid" 2>/dev/null || true
    exit 1
}
sed -i "${fline}d" "$smoke/playground/repos/$ffile"
watch_rc=0
wait "$watch_pid" || watch_rc=$?
if [ "$watch_rc" -ne 0 ]; then
    echo "check.sh: namer watch exited $watch_rc" >&2
    cat "$smoke/watch-out.txt" >&2
    exit 1
fi
grep -q '^- ' "$smoke/watch-out.txt" || {
    echo "check.sh: one-line touch produced no findings diff" >&2
    cat "$smoke/watch-out.txt" >&2
    exit 1
}
python3 - "$smoke/watch-metrics.json" <<'PY' || exit 1
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters["cache_hits"] > 0, f"no file-cache hits: {counters}"
assert counters["watch_events"] >= 1, f"no watch event counted: {counters}"
PY
echo "watch smoke: ok (findings diff delivered, cache_hits > 0)"

RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
