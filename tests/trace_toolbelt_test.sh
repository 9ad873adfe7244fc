#!/bin/sh
# End-to-end test of the `scifinder trace` toolbelt and of the exit
# codes the CLI gives for I/O and format errors (3), usage errors (2)
# and missing artifacts (1).
#
# usage: trace_toolbelt_test.sh <scifinder binary> <scratch dir>

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

# Capture one workload twice: the files and the record streams match.
expect 0 "$B" trace capture basicmath "$D/a.bin" --chunk-records 256
expect 0 "$B" trace capture basicmath "$D/b.bin" --chunk-records 256
cmp -s "$D/a.bin" "$D/b.bin" || fail "two captures differ in bytes"
expect 0 "$B" trace diff "$D/a.bin" "$D/b.bin"
has out "trace sets are identical (1 streams)"

# A record range is a different stream from the whole capture.
expect 0 "$B" trace extract "$D/a.bin" "$D/x.bin" --stream basicmath \
    --from 10 --count 20
has out "extracted 20 records of stream basicmath"
expect 1 "$B" trace diff "$D/a.bin" "$D/x.bin"
has out "stream basicmath: first difference at record 0"

expect 0 "$B" trace count "$D/a.bin" --points
has out "l.add"
expect 0 "$B" trace count "$D/x.bin"
has out "1 streams, 20 records, 1 chunks"
expect 0 "$B" trace dump "$D/x.bin" --limit 3 --vars PC,OPDEST
has out "stream basicmath: 20 records, 1 chunks"
[ "$(grep -c ' PC .* OPDEST ' "$D/out")" -eq 3 ] || fail "dump --limit 3"
expect 1 "$B" trace dump "$D/x.bin" --stream nope
has err "no stream named 'nope'"

# Merging copies streams; two streams of one name are an error.
expect 0 "$B" trace capture twolf "$D/t.bin"
expect 0 "$B" trace merge "$D/m.bin" "$D/a.bin" "$D/t.bin"
has out "(2 streams,"
expect 3 "$B" trace merge "$D/dup.bin" "$D/a.bin" "$D/b.bin"
has err "duplicate stream 'basicmath'"

# A truncated set is a format error with an offset.
size=$(wc -c <"$D/a.bin")
head -c $((size / 2)) "$D/a.bin" >"$D/cut.bin"
expect 3 "$B" trace count "$D/cut.bin"
has err "truncated or corrupt"
has err "offset:"
expect 3 "$B" trace diff "$D/a.bin" "$D/missing.bin"
has err "errno:"

# Numeric flags are checked.
expect 2 "$B" trace dump "$D/a.bin" --limit abc
has err "--limit expects a number, got 'abc'"
expect 2 "$B" trace extract "$D/a.bin" "$D/y.bin" --stream basicmath \
    --from x --count 1
has err "--from expects a number"
expect 2 "$B" trace extract "$D/a.bin" "$D/y.bin" --stream basicmath \
    --from 0 --count 1y
has err "--count expects a number"

# The pipeline phases share the policy: a missing artifact exits 1, a
# truncated one exits 3.
mkdir -p "$D/art"
expect 1 "$B" identify --artifact-dir "$D/art"
has err "missing artifact"
printf 'VICS\001\000\000\000\005\000\000' >"$D/art/invariants.bin"
expect 3 "$B" identify --artifact-dir "$D/art"
has err "invariant model '$D/art/invariants.bin' is truncated or corrupt"
has err "offset: 8"

rm -rf "$D"
echo "trace toolbelt: ok"
