#!/bin/sh
# End-to-end test of the scifinder pipeline subcommands:
#  - `run --artifact-dir` and the four phase subcommands (generate,
#    optimize, identify, infer) write byte-identical artifact trees;
#  - `run` honours --chunk-records;
#  - a flag that a command does not read (or does not read in the
#    mode the other flags select), a removed flag, a number outside
#    its flag's range and an unknown workload or bug name are usage
#    errors (2);
#  - an SCI database index beyond the model is a corrupt artifact (3),
#    and so is a fuzz campaign that cannot read or write its files;
#  - the security-dataflow audit is sound and byte-identical across
#    --jobs, and identify's triage lines print its rank qualities.
#
# usage: cli_pipeline_test.sh <scifinder binary> <scratch dir>

set -u

B=$1
D=$2
rm -rf "$D"
mkdir -p "$D"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# expect STATUS CMD...: run CMD (stdout to $D/out, stderr to $D/err)
# and require its exit status to be STATUS.
expect() {
    want=$1
    shift
    "$@" >"$D/out" 2>"$D/err"
    got=$?
    if [ "$got" -ne "$want" ]; then
        cat "$D/out" "$D/err" >&2
        fail "exit $got, want $want: $*"
    fi
}

# has FILE PATTERN: FILE must contain PATTERN.
has() {
    grep -q -- "$2" "$D/$1" || {
        cat "$D/out" "$D/err" >&2
        fail "no '$2' in $1"
    }
}

# One run, then each phase with the flags it reads: the trees match.
expect 0 "$B" run --jobs 2 --validation 2 --chunk-records 512 \
    --artifact-dir "$D/A"
expect 0 "$B" generate --artifact-dir "$D/B" --jobs 2 \
    --chunk-records 512
expect 0 "$B" optimize --artifact-dir "$D/B"
expect 0 "$B" identify --artifact-dir "$D/B" --jobs 2 --validation 2 \
    --chunk-records 512
has out "^b1: [1-9][0-9]* true SCI"
expect 0 "$B" infer --artifact-dir "$D/B" --jobs 2
for f in traces.bin invariants.raw.bin invariants.bin validation.bin \
    violations.bin scidb.bin inference.txt; do
    cmp -s "$D/A/$f" "$D/B/$f" || fail "run and the phases differ: $f"
done

# Every stream of the training set is cut at 512 records.
expect 0 "$B" trace count "$D/A/traces.bin"
awk 'NR > 2 && NF == 3 {
         n++
         if ($3 != int(($2 + 511) / 512)) bad = 1
     }
     END { exit (n == 17 && !bad) ? 0 : 1 }' "$D/out" ||
    fail "traces.bin is not cut at 512 records: $(cat "$D/out")"

# Flags are read from one table: an unread or removed flag, a sign, a
# value beyond its field and a thread count beyond the cap (256) are
# usage errors. The cap is tried only at 257 and on an empty
# directory, so a missing check starts at most 257 threads and then
# fails on the absent model.
expect 2 "$B" optimize --artifact-dir "$D/B" --jobs 4
has err "scifinder optimize does not read --jobs"
expect 2 "$B" run --interpreted-eval
has err "does not read --interpreted-eval"
expect 2 "$B" run --interpreted-sim
has err "scifinder run does not read --interpreted-sim"
expect 2 "$B" generate --artifact-dir "$D/I" --interpreted-sim
has err "scifinder generate does not read --interpreted-sim"
expect 2 "$B" identify --artifact-dir "$D/B" --interpreted-sim b1
has err "scifinder identify does not read --interpreted-sim"
expect 2 "$B" trace capture --interpreted-sim gzip "$D/I.bin"
has err "scifinder trace capture does not read --interpreted-sim"
expect 2 "$B" trace dump "$D/A/traces.bin" --limit -1
has err "--limit expects a number, got '-1'"
expect 2 "$B" fuzz --count 4294967297
has err "--count expects a number from 0 to 4294967295"
mkdir -p "$D/empty"
expect 2 "$B" infer --artifact-dir "$D/empty" --jobs 257
has err "--jobs expects a number from 0 to 256, got '257'"
expect 1 "$B" infer --artifact-dir "$D/empty" --jobs 0x2
has err "missing artifact"
expect 2 "$B" fuzz --fleet 2
has err "scifinder fuzz does not read --fleet"
expect 2 "$B" fuzz --grain 7
has err "scifinder fuzz does not read --grain"
expect 2 "$B" serve --artifact-dir "$D/B" --fuzz 1 \
    --batch-records 1099511627776
has err "--batch-records expects a number from 1 to 65536"

# A name outside the workload and bug registries is a usage error,
# found before any phase runs.
expect 2 "$B" generate --artifact-dir "$D/U" bogus
has err "unknown workload 'bogus'"
expect 2 "$B" trace capture bogus "$D/U.bin"
has err "unknown workload 'bogus'"
expect 2 "$B" identify --artifact-dir "$D/B" bogus
has err "unknown bug 'bogus'"
expect 2 "$B" identify bogus
has err "unknown bug 'bogus'"
expect 2 "$B" audit --artifact-dir "$D/B" nope
has err "unknown bug 'nope'"

# A flag that a command reads only in some modes is a usage error in
# the others: trace sets are written only with --artifact-dir, serve
# generates programs only with --fuzz, and a replay generates none.
expect 2 "$B" identify --chunk-records 7 --validation 1 b1
has err "scifinder identify reads --chunk-records only with --artifact-dir"
expect 2 "$B" run --chunk-records 512 --no-inference
has err "scifinder run reads --chunk-records only with --artifact-dir"
expect 2 "$B" serve --artifact-dir "$D/B" --workloads --seed 3
has err "scifinder serve reads --seed only with --fuzz"
expect 2 "$B" fuzz --replay "$D/empty" --count 3
has err "scifinder fuzz reads --count only without --replay"

# A fuzz campaign that cannot read or write its files is an I/O error
# (3), not a failed campaign (1).
expect 3 "$B" fuzz --replay "$D/missing"
has err "cannot read replay directory"
expect 3 "$B" fuzz --replay "$D/empty"
has err "contains no .s programs"
mkdir -p "$D/bad"
echo "l.bogus r1" >"$D/bad/a.s"
expect 3 "$B" fuzz --replay "$D/bad"
has err "a.s' does not assemble: line 1"
: >"$D/file"
expect 3 "$B" fuzz --count 2 --artifact-dir "$D/file/x"
has err "cannot create directory"
has err "path:   $D/file/x/corpus"

# b1's first true SCI index (byte 30 of scidb.bin: the 8-byte header,
# the result count, the bug id "b1" and its SCI count) set to 10^9.
cp -r "$D/B" "$D/C"
printf '\000\312\232\073\000\000\000\000' |
    dd of="$D/C/scidb.bin" bs=1 seek=30 conv=notrunc 2>/dev/null
expect 3 "$B" serve --artifact-dir "$D/C" --fuzz 1
has err "index 1000000000 is beyond the"
has err "offset: 30"
expect 3 "$B" infer --artifact-dir "$D/C"
has err "offset: 30"

# The audit artifact is byte-identical for any thread count, and exit
# 0 certifies the soundness cross-check (every dynamic SCI statically
# reachable).
expect 0 "$B" generate --artifact-dir "$D/S" vmlinux basicmath parser \
    mesa
expect 0 "$B" optimize --artifact-dir "$D/S"
expect 0 "$B" identify --artifact-dir "$D/S" --validation 6 b1 b3 b8 \
    b13
cp "$D/out" "$D/identify.txt"
expect 0 "$B" audit --artifact-dir "$D/S" --jobs 1
cp "$D/S/audit.txt" "$D/audit-jobs1.txt"
expect 0 "$B" audit --artifact-dir "$D/S" --jobs 4
cmp -s "$D/audit-jobs1.txt" "$D/S/audit.txt" ||
    fail "audit.txt differs between --jobs 1 and --jobs 4"

# identify's "triage <bug>:" lines give each detected bug's rank
# quality and first SCI rank exactly as audit.txt does.
# "triage b1: rank quality 0.717, first SCI at rank 31/20811" and
# "dynamic cross-check: 57 SCI; rank quality 0.717; first SCI at rank
# 31" under "== b1: ..." both become "b1 0.717 31".
awk '/^triage [^ ]*: rank quality/ {
         bug = $2; sub(/:$/, "", bug)
         q = $5; sub(/,$/, "", q)
         r = $10; sub(/\/.*/, "", r)
         print bug, q, r
     }' "$D/identify.txt" >"$D/triage-identify"
awk '/^== / { bug = $2; sub(/:$/, "", bug) }
     /^dynamic cross-check: .*rank quality/ {
         q = $7; sub(/;$/, "", q)
         print bug, q, $12
     }' "$D/S/audit.txt" >"$D/triage-audit"
[ -s "$D/triage-identify" ] || fail "identify printed no triage lines"
cmp -s "$D/triage-identify" "$D/triage-audit" ||
    fail "identify's triage lines differ from audit.txt:
$(cat "$D/triage-identify")
---
$(cat "$D/triage-audit")"

rm -rf "$D"
echo "cli pipeline: ok"
