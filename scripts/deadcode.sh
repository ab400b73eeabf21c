#!/usr/bin/env bash
# Dead-code gate: fails on any function that no binary of the module links.
#
#   scripts/deadcode.sh        (or: make deadcode)
#
# Every main package (cmd/*, examples/*, bench/swload) is built with
# inlining off (-gcflags=all=-l, so a called function keeps its own symbol)
# for linux/amd64 and darwin/arm64. The second target covers the arm64
# kernel selection and the non-Linux fallbacks; the union of the two is the
# linked set. `go tool nm` lists each binary's text symbols, and every
# function or method declared in a non-test file (outside bench/ and
# testdata/) must appear among them: a package's symbols in any binary, a
# main package's in its own binary. A method counts as linked under either
# receiver form, pkg.(*T).M or pkg.T.M.
#
# scripts/deadcode.allow lists the functions kept on purpose although no
# binary links them, one per line: the symbol as this script prints it and a
# reason, one of
#   oracle   a reference implementation the tests check a linked path against
#   seam     a fault-injection or control hook that only tests drive
#   harness  a constructor, reader or probe tests need to build inputs for,
#            or observe, linked code
# An entry that is now linked or no longer declared fails the gate too, so
# the list cannot go stale.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
allow="$root/scripts/deadcode.allow"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./... | sed "s|^$root/||")

# declared prints "pkg.Recv.Name" for every top-level function of the
# non-test Go files in directory $1, with pkg the import path ("main.Recv.Name"
# for a main package) and Recv empty for a plain function.
declared() {
	local dir=$1 path
	path=$(go list -f '{{if eq .Name "main"}}main{{else}}{{.ImportPath}}{{end}}' "./$dir")
	for f in "$dir"/*.go; do
		case $f in *_test.go) continue ;; esac
		awk -v pkg="$path" '
			/^func \(/ {
				s = $0; sub(/^func \(/, "", s)
				recv = substr(s, 1, index(s, ")") - 1)
				name = substr(s, index(s, ")") + 2)
				sub(/[[(].*/, "", name)
				sub(/\[.*/, "", recv); n = split(recv, w, " "); recv = w[n]; sub(/^\*/, "", recv)
				print pkg "." recv "." name; next
			}
			/^func [A-Za-z_]/ {
				s = $0; sub(/^func /, "", s); sub(/[[(].*/, "", s)
				if (s != "init" && s != "main" && s != "_") print pkg "." s
			}' "$f"
	done
}

# linked prints the normalized text symbols of binary $1: instantiation
# brackets dropped, (*T) folded to T, ABI and method-value suffixes cut.
linked() {
	go tool nm "$1" | awk '$2 == "T" || $2 == "t" { print $3 }' |
		sed -E -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
			-e 's/\(\*([^)]*)\)/\1/' -e 's/\.abi0$//' -e 's/-fm$//'
}

for target in linux/amd64 darwin/arm64; do
	for m in $mains; do
		bin="$tmp/$(echo "$m" | tr / _).${target%/*}_${target#*/}"
		GOOS=${target%/*} GOARCH=${target#*/} go build -gcflags=all=-l -o "$bin" "./$m"
		linked "$bin" | grep -v '^main\.' >>"$tmp/linked.lib"
		linked "$bin" | grep '^main\.' >>"$tmp/linked.$(echo "$m" | tr / _)"
	done
done
sort -u -o "$tmp/linked.lib" "$tmp/linked.lib"

: >"$tmp/dead"
for dir in $(go list -f '{{.Dir}}' ./... | sed -e "s|^$root/\{0,1\}||" -e 's|^$|.|'); do
	case $dir in bench | bench/* | */testdata/*) continue ;; esac
	if echo "$mains" | grep -qx "$dir"; then
		have="$tmp/linked.$(echo "$dir" | tr / _)"
		sort -u -o "$have" "$have"
		declared "$dir" | sed "s|^main\.|$dir:main.|" >>"$tmp/declared"
		declared "$dir" | sort -u | comm -23 - "$have" | sed "s|^main\.|$dir:main.|" >>"$tmp/dead"
	else
		declared "$dir" >>"$tmp/declared"
		declared "$dir" | sort -u | comm -23 - "$tmp/linked.lib" >>"$tmp/dead"
	fi
done
sort -u -o "$tmp/dead" "$tmp/dead"
sort -u -o "$tmp/declared" "$tmp/declared"

# The allowlist: "symbol reason" per line; # starts a comment.
sed -e 's/#.*//' "$allow" | awk 'NF' >"$tmp/allow.lines"
status=0
if awk 'NF != 2 || ($2 != "oracle" && $2 != "seam" && $2 != "harness")' "$tmp/allow.lines" | grep .; then
	echo "deadcode: the allowlist lines above need a symbol and one reason (oracle|seam|harness)" >&2
	status=1
fi
awk '{ print $1 }' "$tmp/allow.lines" | sed -E 's/\(\*([^)]*)\)/\1/' | sort -u >"$tmp/allowed"
if comm -23 "$tmp/dead" "$tmp/allowed" | grep .; then
	echo "deadcode: no binary links the functions above; delete them or list them in scripts/deadcode.allow" >&2
	status=1
fi
if comm -13 "$tmp/dead" "$tmp/allowed" | grep .; then
	echo "deadcode: the allowlist entries above are linked or no longer declared; drop them from scripts/deadcode.allow" >&2
	status=1
fi
[ $status -eq 0 ] && echo "deadcode: $(wc -l <"$tmp/declared") functions declared, $(wc -l <"$tmp/allowed") unlinked and allowed"
exit $status
