#!/usr/bin/env bash
# Public-surface audit: sort every line-leading `pub` item declared under
# crates/*/src (`pub fn|struct|enum|trait|type|const|static|mod`, before
# the file's first `#[cfg(test)]`) by who names it (DESIGN.md §19).
#
#   outside    named by another crate's non-test code (its src, the
#              crates/bench/src/bin programs, benches, examples), or by
#              outside tests while its own crate's non-test code uses it
#   frozen     named outside only by the frozen benchmark/ crate
#              (ROADMAP item 1(a)'s debt; printed, never a failure)
#   test-only  named outside only by tests (crates/*/tests, tests/, other
#              crates' `#[cfg(test)]` modules)
#   signature  a type named nowhere outside, but carried by a `pub` fn,
#              const, static, type or field of its own crate (outside the
#              type's own `impl`): callers hold its values without naming
#              it, and rustc's `private_interfaces` keeps it `pub`
#   internal   named nowhere outside its crate
#
# The audit is name-level: an identifier counts wherever it appears as a
# whole word outside `//` comments and string literals, so an item whose
# name is common elsewhere reads `outside`. That errs towards keeping an
# item public; `#![warn(unreachable_pub)]` and `dead_code` are the
# precise half.
#
# Every `internal` or `test-only` item must be listed, with a one-line
# reason, in scripts/pub_audit.allow ("<file> <name> <reason>"). The run
# fails when one is not, and when an entry is stale: its item is gone or
# now reads `outside` or `signature`.
#
# Usage:
#   scripts/pub_audit.sh          print the frozen list, the allow-listed
#                                 items, any failure and the counts
#   scripts/pub_audit.sh --all    print every item with its category
set -euo pipefail
cd "$(dirname "$0")/.."

all=0
case "${1:-}" in
    --all) all=1 ;;
    "") ;;
    *) echo "usage: $0 [--all]" >&2; exit 2 ;;
esac

allow=scripts/pub_audit.allow
[ -f "$allow" ] || { echo "FAIL: $allow is missing" >&2; exit 1; }

roots=()
for dir in crates/*/src crates/*/tests crates/*/benches crates/*/examples \
    tests examples benchmark/src benchmark/tests; do
    [ -d "$dir" ] && roots+=("$dir")
done
files=$(find "${roots[@]}" -name '*.rs' | sort)

# shellcheck disable=SC2086
awk -v all="$all" -v allow="$allow" '
    BEGIN {
        while ((getline line < allow) > 0) {
            if (line ~ /^[ \t]*(#|$)/) continue
            n = split(line, f, /[ \t]+/)
            key = f[1] " " f[2]
            if (n < 3) { bad_allow[++nbad] = line; continue }
            listed[key] = 1; listed_line[key] = line
        }
    }
    FNR == 1 {
        test_region = 0
        file = FILENAME
        if (file ~ /^crates\/[^\/]+\/src\/bin\//) class = "prog"
        else if (file ~ /^crates\/[^\/]+\/src\//) {
            crate = file; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
            class = "src"; crates[crate] = 1
        }
        else if (file ~ /^crates\/[^\/]+\/(benches|examples)\// || file ~ /^examples\//) class = "prog"
        else if (file ~ /^benchmark\//) class = "frozen"
        else class = "test"
    }
    /^[ \t]*#!?\[cfg\(test\)\]/ { test_region = 1 }
    {
        code = $0
        gsub("\047\"\047", "", code); gsub(/\\./, "", code); gsub(/"[^"]*"/, "\"\"", code)
        sub(/\/\/.*/, "", code)
        # The type an `impl` block at column 0 is for: its own methods
        # naming it do not put it in the signature of another item.
        if (code ~ /^impl[ <]/) {
            self_ty = code; sub(/^impl(<[^>]*>)? /, "", self_ty)
            sub(/^.* for /, "", self_ty); sub(/[^A-Za-z0-9_].*/, "", self_ty)
        } else if (code ~ /^}/) self_ty = ""
        src = class == "src" && !test_region
        if (src && code ~ /^[ \t]*pub (unsafe )?(const )?fn /) in_sig = 1
        sig = in_sig || (src && code ~ /^[ \t]*pub ([a-z_][a-z0-9_]*:|(type|const|static) )/)
        if (in_sig && code ~ /[{;]/) in_sig = 0
        if (src && match(code, /^[ \t]*pub (unsafe )?(fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/)) {
            decl = substr(code, RSTART, RLENGTH)
            sub(/^[ \t]*pub (unsafe )?/, "", decl)
            split(decl, d, " ")
            ni++; ifile[ni] = file; iline[ni] = FNR; ikind[ni] = d[1]; iname[ni] = d[2]; icrate[ni] = crate
        }
        where = class
        if (class == "src") where = (test_region ? "test:" : "src:") crate
        nt = split(code, tok, /[^A-Za-z0-9_]+/)
        for (t = 1; t <= nt; t++) if (tok[t] != "") {
            seen[tok[t], where]++
            if (sig && tok[t] != self_ty) seen[tok[t], "sig:" crate]++
        }
    }
    END {
        for (i = 1; i <= ni; i++) {
            n = iname[i]; c = icrate[i]
            ext = seen[n, "prog"] > 0; ext_test = seen[n, "test"] > 0
            for (o in crates) if (o != c) {
                if (seen[n, "src:" o] > 0) ext = 1
                if (seen[n, "test:" o] > 0) ext_test = 1
            }
            if (ext || (ext_test && seen[n, "src:" c] >= 2)) cat = "outside"
            else if (seen[n, "frozen"] > 0) cat = "frozen"
            else if (ext_test) cat = "test-only"
            else if (ikind[i] ~ /^(struct|enum|trait|type)$/ && seen[n, "sig:" c] > 0) cat = "signature"
            else cat = "internal"
            count[cat]++
            key = ifile[i] " " n
            where = ifile[i] ":" iline[i] "\t" ikind[i] " " n
            if (all) print cat "\t" where
            if (cat == "frozen") { if (!all) frozen_out = frozen_out "frozen\t" where "\n"; continue }
            if (cat == "outside" || cat == "signature") { if (key in listed) stale[key] = 1; continue }
            if (key in listed) {
                used[key] = 1
                if (!all) allowed_out = allowed_out cat "\t" where "\n"
            } else {
                missing_out = missing_out "FAIL: " cat " item not in " allow ": " where "\n"
                fail = 1
            }
        }
        if (!all) printf "%s%s", frozen_out, allowed_out
        printf "%s", missing_out
        for (k in listed) if (!(k in used) || (k in stale)) {
            print "FAIL: stale entry in " allow " (item gone, or it now reads outside or signature): " listed_line[k]
            fail = 1
        }
        for (b = 1; b <= nbad; b++) {
            print "FAIL: entry in " allow " has no reason: " bad_allow[b]
            fail = 1
        }
        printf "pub items: %d outside, %d signature, %d frozen, %d test-only, %d internal\n",
            count["outside"], count["signature"], count["frozen"], count["test-only"], count["internal"]
        exit fail
    }
' $files
