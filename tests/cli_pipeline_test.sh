#!/bin/sh
# End-to-end test of the scifinder pipeline subcommands:
#  - `run --artifact-dir` and the four phase subcommands (generate,
#    optimize, identify, infer) write byte-identical artifact trees;
#  - `run` honours --chunk-records;
#  - a flag that a command does not read, and a number outside its
#    flag's range, are usage errors (2);
#  - an SCI database index beyond the model is a corrupt artifact (3);
#  - the security-dataflow audit is sound and byte-identical across
#    --jobs.
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
expect 2 "$B" trace dump "$D/A/traces.bin" --limit -1
has err "--limit expects a number, got '-1'"
expect 2 "$B" fuzz --count 4294967297
has err "--count expects a number from 0 to 4294967295"
mkdir -p "$D/empty"
expect 2 "$B" infer --artifact-dir "$D/empty" --jobs 257
has err "--jobs expects a number from 0 to 256, got '257'"
expect 1 "$B" infer --artifact-dir "$D/empty" --jobs 0x2
has err "missing artifact"

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
expect 0 "$B" audit --artifact-dir "$D/S" --jobs 1
cp "$D/S/audit.txt" "$D/audit-jobs1.txt"
expect 0 "$B" audit --artifact-dir "$D/S" --jobs 4
cmp -s "$D/audit-jobs1.txt" "$D/S/audit.txt" ||
    fail "audit.txt differs between --jobs 1 and --jobs 4"

rm -rf "$D"
echo "cli pipeline: ok"
