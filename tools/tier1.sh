#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#   1. full build (libs, binaries, benches, examples, tests)
#   2. the whole test suite
#   3. smrlint, the source-level protocol/style gate (tools/lint)
#   4. dune-file formatting (@fmt is restricted to dune files in
#      dune-project because ocamlformat is not in the build image)
#   5. JSON emission smoke test: one short popbench cell with --json
#      must produce a parseable file that contains a finite throughput
#      (a broken cell emits null, which must fail here). The same cell
#      run with --csv fixes the stats schema: its stat columns (every
#      column after max_us) are the exact, ordered key list every
#      Runner cell's "smr" object must carry in steps 5, 6, 8 and 9
#   6. churn smoke test: a fixed-seed thread-churn cell (exit + crash +
#      join) under the SmrSan sanitizer must fire its events, stay
#      violation-free, and emit the churn counters plus the full
#      per-category violation breakdown (all eleven categories, all
#      zero) in its JSON
#   7. segment smoke test: the bench's segmented-retire-buffer figure
#      (--fig seg) must emit a parseable BENCH_seg.json with its three
#      cell arrays (pass_cost, era_span, donor_churn) sane: blocks
#      recycled, freed-set parity, block-level era verdicts firing,
#      zero stale stamps and zero splice moves (run from _build so the
#      committed repo-root baseline is not overwritten)
#   8. KV smoke test: the bench's KV-service figure (--fig kv) must
#      emit a parseable BENCH_kv.json whose cells carry the open-loop
#      latency fields (p50/p99/p999/max and the max reclamation-pass
#      pause) as finite non-negative numbers in order, with samples
#      recorded and the sanitized run violation-free (fixed seed: the
#      figure pins Runner's default seed; run from _build so the
#      committed repo-root baseline is not overwritten)
#   9. tournament smoke test: a fixed-seed 2-scheme x 3-scenario slice
#      of the robustness tournament (sanitized) must emit parseable
#      JSON where every cell carries a scenario descriptor, a finite
#      max_unreclaimed high-watermark and finite recovery scores
#      (pre_mops / recovery_ns / recovered), with zero sanitizer
#      violations and zero UAF everywhere
#  10. typestate suite guard: the negative-compilation cases under
#      test/typestate (run as part of step 2) must still exist in
#      force — at least four violation categories, each with a
#      recorded type error
#  11. allocator smoke test: the bench's constant-time-allocator
#      figure (--fig alloc, a deterministic replay) must emit a
#      parseable BENCH_alloc.json with its three thread sweeps
#      (balanced, imbalanced, churn) sane: finite positive ns/op in
#      every cell, balanced cells never touching the shared pool,
#      block grabs AND returns nonzero wherever producer/consumer
#      imbalance exists (threads >= 2), zero UAF and zero double
#      frees everywhere (run from _build so the committed repo-root
#      baseline is not overwritten)
# Every python check loads its file through one loader that fails on a
# duplicate key in any object (json.load alone keeps the last one and
# hides the first), and checks Runner cells' stats through its one
# schema helper, assert_smr_schema. When python3 is absent every python assertion falls
# back to greps that check the load-bearing keys exist and no null
# snuck into a numeric field — the gate must never pass vacuously.
# Run from the repository root: sh tools/tier1.sh
set -e
cd "$(dirname "$0")/.."
# json_check FILE runs the python check read from stdin with FILE
# already parsed into `doc`.
json_loader='import json, os, sys
def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dups = sorted({k for k in keys if keys.count(k) > 1})
    assert not dups, "%s: duplicate keys %s" % (sys.argv[1], dups)
    return dict(pairs)
def assert_smr_schema(cells):
    want = os.environ["SMR_STAT_KEYS"].split(",")
    for c in cells:
        got = list(c["smr"])
        assert got == want, "%s: smr keys %s differ from the CSV stat columns %s" \
            % (c.get("label", sys.argv[1]), got, want)
with open(sys.argv[1]) as f:
    doc = json.load(f, object_pairs_hook=unique_keys)
'
json_check() {
  python3 -c "$json_loader$(cat)" "$1"
}
dune build
dune runtest
dune build @lint
dune build @fmt
json_smoke=_build/popbench_smoke.json
csv_smoke=_build/popbench_smoke.csv
churn_smoke=_build/popbench_churn_smoke.json
seg_smoke_dir=_build/seg_smoke
kv_smoke_dir=_build/kv_smoke
alloc_smoke_dir=_build/alloc_smoke
tournament_smoke=_build/popbench_tournament_smoke.json
trap 'rm -f "$json_smoke" "$csv_smoke" "$churn_smoke" "$tournament_smoke"; rm -rf "$seg_smoke_dir" "$kv_smoke_dir" "$alloc_smoke_dir"' EXIT
./_build/default/bin/popbench.exe --ds hml --smr epoch-pop -t 2 -d 0.2 \
  --json "$json_smoke" > /dev/null
./_build/default/bin/popbench.exe --ds hml --smr epoch-pop -t 2 -d 0.2 \
  --csv > "$csv_smoke"
SMR_STAT_KEYS=$(head -n 1 "$csv_smoke" | sed -n 's/^.*,max_us,//p')
export SMR_STAT_KEYS
if [ -z "$SMR_STAT_KEYS" ]; then
  echo "csv smoke: FAIL (no stat columns after max_us)" >&2
  exit 1
fi
if command -v python3 > /dev/null 2>&1; then
  json_check "$json_smoke" <<'EOF'
cells = doc
assert isinstance(cells, list) and cells, "expected a non-empty JSON array"
for cell in cells:
    assert "mops" in cell, "throughput key missing"
    assert isinstance(cell["mops"], (int, float)), "mops is not a finite number (null cell?)"
    assert cell["scheme"] == "epoch-pop", "scheme name missing or wrong"
assert_smr_schema(cells)
print("json smoke: ok (%d cells, %d stat keys)" % (len(cells), len(cells[0]["smr"])))
EOF
else
  for k in orphans_adopted max_pause_ns; do
    if ! echo ",$SMR_STAT_KEYS," | grep -q ",$k,"; then
      echo "csv smoke: FAIL (stat column $k missing)" >&2
      exit 1
    fi
  done
  grep -q '"mops"' "$json_smoke"
  grep -q '"snapshot_reuses"' "$json_smoke"
  grep -q '"scheme": "epoch-pop"' "$json_smoke"
  if grep -q '"mops": null' "$json_smoke"; then
    echo "json smoke: FAIL (null throughput)" >&2
    exit 1
  fi
  echo "json smoke: ok (grep only; python3 unavailable)"
fi
./_build/default/bin/popbench.exe --ds hml --smr hp-pop -t 4 -d 0.5 \
  --churn 1,1,1 --ping-timeout 20 --sanitize --seed 7 \
  --json "$churn_smoke" > /dev/null
if command -v python3 > /dev/null 2>&1; then
  json_check "$churn_smoke" <<'EOF'
cells = doc
assert len(cells) == 1, "expected one churn cell"
c = cells[0]
for k in ("exited", "crashed", "joined"):
    assert k in c, "churn counter %s missing" % k
assert c["exited"] + c["crashed"] >= 1, "no churn event fired"
assert c["consistent"], "churn cell inconsistent"
assert c["smr"]["violations"] == 0, "sanitizer flagged the churn cell"
for k in ("suspects", "quarantine_rounds", "orphans_donated", "orphans_adopted",
          "orphan_stripe_contention", "stale_stamps"):
    assert k in c["smr"], "stat %s missing" % k
assert c["smr"]["stale_stamps"] == 0, "stale block stamps observed"
cats = c["violations_by_category"]
expected_cats = {"read_outside_op", "check_unreserved", "double_retire",
                 "write_phase_misuse", "slot_out_of_bounds",
                 "use_after_deregister", "unbalanced_op", "churn_misuse",
                 "orphan_misuse", "segment_misuse", "stamp_misuse"}
assert set(cats) == expected_cats, \
    "violation breakdown keys drifted: %s" % sorted(set(cats) ^ expected_cats)
for k, v in cats.items():
    assert v == 0, "sanitizer category %s nonzero: %d" % (k, v)
assert_smr_schema(cells)
print("churn smoke: ok (exited=%d crashed=%d joined=%d, %d categories clean)"
      % (c["exited"], c["crashed"], c["joined"], len(cats)))
EOF
else
  grep -q '"crashed"' "$churn_smoke"
  grep -q '"orphans_adopted"' "$churn_smoke"
  grep -q '"violations_by_category"' "$churn_smoke"
  grep -q '"churn_misuse": 0' "$churn_smoke"
  if grep -q '"mops": null' "$churn_smoke"; then
    echo "churn smoke: FAIL (null throughput)" >&2
    exit 1
  fi
  echo "churn smoke: ok (grep only; python3 unavailable)"
fi
mkdir -p "$seg_smoke_dir"
bench_exe="$(pwd)/_build/default/bench/main.exe"
(cd "$seg_smoke_dir" && "$bench_exe" --fig seg --json > /dev/null)
if command -v python3 > /dev/null 2>&1; then
  json_check "$seg_smoke_dir/BENCH_seg.json" <<'EOF'
assert isinstance(doc, dict), "expected a keyed object of cell arrays"
for key in ("pass_cost", "era_span", "donor_churn"):
    assert doc.get(key), "missing or empty %s cells" % key
for c in doc["pass_cost"]:
    assert c["segments_recycled"] > 0, "no segment blocks recycled"
    assert c["freed_per_pass"] == c["uncovered"], "freed-set parity broken"
    assert c["fresh_ns_per_pass"] > 0 and c["forced_ns_per_pass"] > 0, "missing timings"
for c in doc["era_span"]:
    assert c["freed_per_pass"] == c["uncovered"], "era freed-set parity broken"
    assert c["block_keeps"] > 0 and c["block_skips"] > 0, "block-level era fast path never fired"
    assert c["stale_stamps"] == 0, "stale block stamps observed"
    assert c["fresh_ns_per_pass"] > 0, "missing era timings"
for c in doc["donor_churn"]:
    assert c["splice_moves"] == 0, "donate/adopt copied nodes"
    assert c["donated"] == c["adopted"] == c["nodes"], "orphan hand-off not exactly-once"
    assert isinstance(c["handoff_mops"], (int, float)) and c["handoff_mops"] > 0, \
        "missing churn throughput"
print("seg smoke: ok (%d+%d+%d cells, %d blocks recycled)"
      % (len(doc["pass_cost"]), len(doc["era_span"]), len(doc["donor_churn"]),
         sum(c["segments_recycled"] for c in doc["pass_cost"])))
EOF
else
  grep -q '"segments_recycled"' "$seg_smoke_dir/BENCH_seg.json"
  grep -q '"block_skips"' "$seg_smoke_dir/BENCH_seg.json"
  grep -q '"splice_moves": 0' "$seg_smoke_dir/BENCH_seg.json"
  if grep -q 'null' "$seg_smoke_dir/BENCH_seg.json"; then
    echo "seg smoke: FAIL (null field)" >&2
    exit 1
  fi
  echo "seg smoke: ok (grep only; python3 unavailable)"
fi
mkdir -p "$kv_smoke_dir"
(cd "$kv_smoke_dir" && "$bench_exe" --fig kv --json > /dev/null)
if command -v python3 > /dev/null 2>&1; then
  json_check "$kv_smoke_dir/BENCH_kv.json" <<'EOF'
cells = doc
assert isinstance(cells, list) and cells, "expected a non-empty JSON array"
for cell in cells:
    assert cell["kv"], "cell not in KV mode"
    assert cell["lat_count"] > 0, "no latency samples recorded"
    for k in ("p50", "p99", "p999", "max", "max_pause"):
        v = cell.get(k)
        assert isinstance(v, (int, float)), "%s is not a finite number (null cell?)" % k
        assert v >= 0, "%s negative: %r" % (k, v)
    assert cell["p50"] <= cell["p99"] <= cell["p999"] <= cell["max"], \
        "latency percentiles out of order"
    assert cell["consistent"], "KV cell inconsistent"
    assert cell["smr"]["violations"] == 0, "sanitizer flagged a KV cell"
assert_smr_schema(cells)
print("kv smoke: ok (%d cells, worst p999 %.1f us)"
      % (len(cells), max(c["p999"] for c in cells)))
EOF
else
  grep -q '"p999"' "$kv_smoke_dir/BENCH_kv.json"
  grep -q '"max_pause"' "$kv_smoke_dir/BENCH_kv.json"
  grep -q '"kv": true' "$kv_smoke_dir/BENCH_kv.json"
  for k in p50 p99 p999 max max_pause; do
    if grep -q "\"$k\": null" "$kv_smoke_dir/BENCH_kv.json"; then
      echo "kv smoke: FAIL (null $k)" >&2
      exit 1
    fi
  done
  echo "kv smoke: ok (grep only; python3 unavailable)"
fi
mkdir -p "$alloc_smoke_dir"
(cd "$alloc_smoke_dir" && "$bench_exe" --fig alloc --json > /dev/null)
if command -v python3 > /dev/null 2>&1; then
  json_check "$alloc_smoke_dir/BENCH_alloc.json" <<'EOF'
assert isinstance(doc, dict), "expected a keyed object of thread sweeps"
for key in ("balanced", "imbalanced", "churn"):
    assert doc.get(key), "missing or empty %s sweep" % key
    for c in doc[key]:
        v = c.get("ns_per_op")
        assert isinstance(v, (int, float)) and v > 0, \
            "%s t=%s: ns_per_op not a finite positive number" % (key, c.get("threads"))
        assert c["uaf"] == 0, "%s t=%d: use-after-free" % (key, c["threads"])
        assert c["double_free"] == 0, "%s t=%d: double free" % (key, c["threads"])
for c in doc["balanced"]:
    assert c["block_grabs"] == 0 and c["block_returns"] == 0, \
        "balanced t=%d touched the shared pool" % c["threads"]
imb = [c for c in doc["imbalanced"] if c["threads"] >= 2]
assert imb, "no imbalanced cells with threads >= 2"
for c in imb:
    assert c["block_grabs"] > 0 and c["block_returns"] > 0, \
        "imbalanced t=%d: no block circulation through the shared pool" % c["threads"]
print("alloc smoke: ok (%d+%d+%d cells, %d blocks circulated under imbalance)"
      % (len(doc["balanced"]), len(doc["imbalanced"]), len(doc["churn"]),
         sum(c["block_grabs"] for c in imb)))
EOF
else
  grep -q '"balanced"' "$alloc_smoke_dir/BENCH_alloc.json"
  grep -q '"imbalanced"' "$alloc_smoke_dir/BENCH_alloc.json"
  grep -q '"churn"' "$alloc_smoke_dir/BENCH_alloc.json"
  grep -q '"block_grabs"' "$alloc_smoke_dir/BENCH_alloc.json"
  if grep -q '"ns_per_op": null' "$alloc_smoke_dir/BENCH_alloc.json"; then
    echo "alloc smoke: FAIL (null ns_per_op)" >&2
    exit 1
  fi
  if grep -Eq '"uaf": [1-9]|"double_free": [1-9]' "$alloc_smoke_dir/BENCH_alloc.json"; then
    echo "alloc smoke: FAIL (heap safety counter nonzero)" >&2
    exit 1
  fi
  echo "alloc smoke: ok (grep only; python3 unavailable)"
fi
./_build/default/bin/popbench.exe --tournament --smrs ebr,hyaline-1s \
  --scenarios stall-poll,crash,kv-skew --json "$tournament_smoke" > /dev/null
if command -v python3 > /dev/null 2>&1; then
  json_check "$tournament_smoke" <<'EOF'
cells = doc
assert len(cells) == 6, "expected 2 schemes x 3 scenarios, got %d cells" % len(cells)
scenarios = set()
for c in cells:
    label = c["label"]
    scenarios.add(label.split("/")[0])
    assert isinstance(c.get("scenario"), dict), "%s: scenario descriptor missing" % label
    assert c["scenario"]["sanitize"], "%s: tournament cell not sanitized" % label
    for k in ("max_unreclaimed", "recovery_ns", "pre_mops"):
        v = c.get(k)
        assert isinstance(v, (int, float)), "%s: %s not a finite number" % (label, k)
        assert v >= 0, "%s: %s negative: %r" % (label, k, v)
    assert isinstance(c.get("recovered"), bool), "%s: recovered flag missing" % label
    assert c["smr"]["violations"] == 0, "%s: sanitizer flagged the cell" % label
    assert c["uaf"] == 0, "%s: use-after-free detected" % label
    assert c["double_free"] == 0, "%s: double free detected" % label
    assert c["consistent"], "%s: cell inconsistent" % label
assert_smr_schema(cells)
assert scenarios == {"stall-poll", "crash", "kv-skew"}, \
    "scenario labels drifted: %s" % sorted(scenarios)
stalled = [c for c in cells if c["label"].startswith("stall-poll/")]
assert all(c["scenario"]["stall"] is not None for c in stalled), \
    "stall cells carry no stall shape in their descriptor"
print("tournament smoke: ok (%d cells, scenarios %s)"
      % (len(cells), ",".join(sorted(scenarios))))
EOF
else
  grep -q '"label": "stall-poll/' "$tournament_smoke"
  grep -q '"label": "crash/' "$tournament_smoke"
  grep -q '"label": "kv-skew/' "$tournament_smoke"
  grep -q '"max_unreclaimed"' "$tournament_smoke"
  grep -q '"recovery_ns"' "$tournament_smoke"
  grep -q '"scenario"' "$tournament_smoke"
  for k in max_unreclaimed recovery_ns pre_mops; do
    if grep -q "\"$k\": null" "$tournament_smoke"; then
      echo "tournament smoke: FAIL (null $k)" >&2
      exit 1
    fi
  done
  if grep -q '"uaf": [1-9]' "$tournament_smoke"; then
    echo "tournament smoke: FAIL (use-after-free)" >&2
    exit 1
  fi
  if grep -q '"violations": [1-9]' "$tournament_smoke"; then
    echo "tournament smoke: FAIL (sanitizer violations)" >&2
    exit 1
  fi
  echo "tournament smoke: ok (grep only; python3 unavailable)"
fi
# The typestate negative-compilation suite already ran under `dune
# runtest`; guard it against going vacuous (cases deleted or .expected
# files emptied would make the driver's floor the only defence).
neg_cases=$(ls test/typestate/cases/neg_*.ml 2> /dev/null | wc -l)
if [ "$neg_cases" -lt 4 ]; then
  echo "typestate suite: FAIL (only $neg_cases negative cases; need >= 4)" >&2
  exit 1
fi
for exp in test/typestate/cases/neg_*.expected; do
  if ! grep -q "Error" "$exp"; then
    echo "typestate suite: FAIL ($exp records no type error)" >&2
    exit 1
  fi
done
echo "typestate suite: ok ($neg_cases negative cases recorded)"
echo "tier-1: ok"
