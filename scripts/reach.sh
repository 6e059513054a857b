#!/bin/sh
# Reachability ledger: every non-test function declared under internal/ is
# linked into a shipped binary (cmd/, examples/, benchmark) or into a stub
# that uses every exported func and var of the cdb facade — or it has one
# line in scripts/reach.allow whose reason this script can check:
#
#   <symbol> oracle                          a reference tests compare the product against
#                                            (some _test.go file names the function)
#   <symbol> inventory:<S1…S20|5b> "<words>" the words appear in that row of DESIGN.md
#                                            (5b: in the extensions table)
#   <symbol> ablation:<Benchmark>            the benchmark exists in a _test.go file
#   <symbol> interface:<pkg.Iface>           the function is a method that interface declares
#   <symbol> fixture:<Test|Benchmark|Fuzz>   that test exists outside the function's
#                                            package and names the function
#
# A symbol is pkg.F, pkg.T.M or pkg.(*T).M with pkg the directory under
# internal/. Lines starting with # and blank lines are ignored. The script
# fails when an unlinked function has no line, when a line names a function
# that is linked or gone (a stale line), or when a reason does not check. A
# helper only its own package's tests use belongs in a _test.go file.
#
# Run: scripts/reach.sh (scripts/check.sh runs it). Binaries are built with
# inlining off so that small functions keep their symbols.
set -eu
cd "$(dirname "$0")/.."
W=$(mktemp -d "${TMPDIR:-/tmp}/cdb_reach.XXXXXX")
STUB=.reach_stub # a dot-directory: ./..., gofmt and git leave it alone
trap 'rm -rf "$W" "$STUB"' EXIT
ALLOW=scripts/reach.allow

# The facade stub references every exported top-level func and var of
# cdb.go, so a new facade entry needs no edit here.
mkdir -p "$STUB"
{
    echo 'package main'
    echo 'import "cdb"'
    echo 'var Sink []any'
    echo 'func main() {'
    echo 'Sink = []any{'
    awk '
        /^func [A-Z][A-Za-z0-9_]*\(/ { n = $2; sub(/\(.*/, "", n); print "cdb." n "," }
        /^var \(/ { invar = 1; next }
        invar && /^\)/ { invar = 0 }
        invar && /^\t[A-Z][A-Za-z0-9_]* / { print "cdb." $1 "," }
        /^var [A-Z][A-Za-z0-9_]* / { print "cdb." $2 "," }
    ' cdb.go
    echo '}'
    echo '}'
} > "$STUB/main.go"

mkdir -p "$W/bin"
go build -gcflags=all=-l -o "$W/bin/" ./cmd/cqacdbd ./cmd/cqacdb ./cmd/cdbbench ./examples/... ./benchmark
go build -gcflags=all=-l -o "$W/bin/facade" "./$STUB"

# Linked: the text symbols of cdb/internal/... in any binary, with generic
# instantiations (brackets nest and hold spaces) and closure, go/defer
# wrapper and method-value suffixes stripped.
for b in "$W"/bin/*; do
    go tool nm "$b"
done | sed -n 's#^ *[0-9a-f]* [Tt] cdb/internal/\(.*\)$#\1#p' \
     | sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta' \
           -e 's/-fm$//' \
           -e ':b' -e 's/\.\(func\|gowrap\|deferwrap\)[0-9][0-9.]*$//' -e 'tb' \
     | sort -u > "$W/linked"

# Declared: every non-test func under internal/ as "symbol file:line lines".
for f in internal/*/*.go; do
    case $f in *_test.go) continue ;; esac
    pkg=${f#internal/}
    pkg=${pkg%%/*}
    awk -v pkg="$pkg" -v file="$f" '
        function emit() { if (sym != "") print sym, file ":" start, NR - start + 1 }
        /^func / {
            s = $0
            sub(/^func /, "", s)
            recv = ""
            if (s ~ /^\(/) {
                recv = substr(s, 2, index(s, ")") - 2)
                s = substr(s, index(s, ")") + 2)
                sub(/^[A-Za-z0-9_]+ /, "", recv) # receiver name
                sub(/\[.*\]/, "", recv)          # type parameters
                recv = (recv ~ /^\*/) ? "(" recv ")." : recv "."
            }
            name = s
            sub(/[\[(].*/, "", name)
            sym = (name == "init" || name == "_") ? "" : pkg "." recv name
            start = NR
            if ($0 ~ /}$/) { emit(); sym = "" }
            next
        }
        sym != "" && /^}/ { emit(); sym = "" }
    ' "$f"
done | sort > "$W/declared"

awk 'FILENAME == ARGV[1] { linked[$1] = 1; next } !($1 in linked)' "$W/linked" "$W/declared" > "$W/unlinked"
grep -v '^[[:space:]]*\(#\|$\)' "$ALLOW" > "$W/allow" || true

# Unlisted: unlinked and no ledger line.
awk -v allow="$ALLOW" 'FILENAME == ARGV[1] { allowed[$1] = 1; next }
     !($1 in allowed) { print "unlisted: " $1 " (" $2 ", " $3 " lines): no binary links it and " allow " has no line" }' \
    "$W/allow" "$W/unlinked" > "$W/errors"
# Stale: a line for a function that is linked or gone, or a second line.
awk 'FILENAME == ARGV[1] { unlinked[$1] = 1; next }
     seen[$1]++ { print "stale: " $1 " has two lines"; next }
     !($1 in unlinked) { print "stale: " $1 " is linked or no longer declared; delete its line" }' \
    "$W/unlinked" "$W/allow" >> "$W/errors"

# Reasons.
tests=$(git ls-files --cached --others --exclude-standard '*_test.go')
while read -r sym reason words; do
    pkg=${sym%%.*}
    name=${sym##*.}
    case $reason in
    oracle)
        grep -qw "$name" $tests ||
            echo "reason: $sym oracle: no _test.go file names $name" ;;
    inventory:*)
        row=${reason#inventory:}
        w=$(printf '%s' "$words" | sed -n 's/^"\(.*\)"$/\1/p')
        if [ -z "$w" ]; then
            echo "reason: $sym $reason: needs quoted words from the row"
        elif [ "$row" = 5b ]; then
            sed -n '/^## 5b\./,/^## 6\./p' DESIGN.md | grep -qF -- "$w" ||
                echo "reason: $sym $reason: \"$w\" is not in DESIGN.md's 5b table"
        else
            grep "^| $row |" DESIGN.md | grep -qF -- "$w" ||
                echo "reason: $sym $reason: \"$w\" is not in DESIGN.md's $row row"
        fi ;;
    ablation:Benchmark*)
        grep -q "^func ${reason#ablation:}(" $tests ||
            echo "reason: $sym $reason: no such benchmark" ;;
    interface:*.*)
        iface=${reason#interface:}
        doc="$W/doc.$(printf '%s' "$iface" | tr '/' '_')"
        [ -f "$doc" ] || go doc -u "$iface" > "$doc" 2>/dev/null || true
        case $sym in
        *.*.*) grep -q "^[[:space:]]*$name(" "$doc" ||
                   echo "reason: $sym $reason: $iface declares no method $name" ;;
        *) echo "reason: $sym $reason: not a method" ;;
        esac ;;
    fixture:Test* | fixture:Benchmark* | fixture:Fuzz*)
        t=${reason#fixture:}
        files=$(grep -l "^func $t(" $tests | grep -v "^internal/$pkg/" || true)
        if [ -z "$files" ]; then
            echo "reason: $sym $reason: no such test outside internal/$pkg"
        else
            grep -qw "$name" $files ||
                echo "reason: $sym $reason: $t's file does not name $name"
        fi ;;
    *)
        echo "reason: $sym $reason: not one of oracle, inventory:, ablation:, interface:, fixture:" ;;
    esac
done < "$W/allow" >> "$W/errors"

echo "reach: $(wc -l < "$W/declared") functions declared under internal/, $(wc -l < "$W/unlinked") unlinked ($(awk '{n += $3} END {print n + 0}' "$W/unlinked") lines), $(wc -l < "$W/allow") ledger lines"
if [ -s "$W/errors" ]; then
    cat "$W/errors"
    echo "reach: $(wc -l < "$W/errors") problem(s); see the header of scripts/reach.sh"
    exit 1
fi
