#!/usr/bin/env bash
# Golden-digest check: runs one canonical paper output through the `flit`
# CLI and compares the SHA-256 of its bytes with the digest checked into
# tests/golden/.  The identity matrices only prove that configurations
# agree with each other; these digests pin the absolute bytes, so a change
# that shifts every configuration at once still fails here.
#
#   table1  the Table-1 study database: `flit explore <test> --db` for the
#           19 mini-MFEM examples over the 244-compilation space, all
#           recorded into one ResultsDb TSV;
#   blame   the `flit blame MFEM_ex5` report (stdout);
#   gen     the study CSV of 64 generated kernels at --gen-seed 1.
#
# Usage: golden.sh <path-to-flit-binary> <digest-file> <table1|blame|gen>
#
# A mismatch prints both digests.  Changing a digest file needs a line in
# CHANGES.md saying why the bytes moved.

set -u

flit=${1:?usage: golden.sh <flit-binary> <digest-file> <table1|blame|gen>}
digest_file=${2:?usage: golden.sh <flit-binary> <digest-file> <case>}
case_name=${3:?usage: golden.sh <flit-binary> <digest-file> <case>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
out="$workdir/output"

case "$case_name" in
  table1)
    for n in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19; do
      "$flit" explore "MFEM_ex$n" --db "$out" > /dev/null 2>&1 || {
        echo "FAIL: flit explore MFEM_ex$n --db did not complete" >&2
        exit 1
      }
    done
    ;;
  blame)
    "$flit" blame MFEM_ex5 > "$out" 2> /dev/null || {
      echo "FAIL: flit blame MFEM_ex5 did not complete" >&2
      exit 1
    }
    ;;
  gen)
    "$flit" explore GenSuite --gen-seed 1 --gen-count 64 --csv \
        > "$out" 2> /dev/null || {
      echo "FAIL: the 64-kernel GenSuite study did not complete" >&2
      exit 1
    }
    ;;
  *)
    echo "golden.sh: unknown case '$case_name' (table1|blame|gen)" >&2
    exit 2
    ;;
esac

expected=$(grep -v '^#' "$digest_file" | head -n 1 | tr -d '[:space:]')
actual=$(sha256sum "$out" | cut -d ' ' -f 1)
if [ -z "$expected" ]; then
  echo "FAIL: no digest in $digest_file" >&2
  exit 1
fi
if [ "$actual" != "$expected" ]; then
  echo "FAIL: $case_name output digest moved" >&2
  echo "  expected $expected ($digest_file)" >&2
  echo "  actual   $actual" >&2
  exit 1
fi
echo "PASS: $case_name output matches $digest_file ($actual)"
