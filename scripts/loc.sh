#!/usr/bin/env bash
# loc.sh prints the size every simplicity change is judged by: non-test
# Go lines per internal/ package and for the whole module, bench/
# excluded.
#
#   scripts/loc.sh          the working tree's count
#   scripts/loc.sh <ref>    git ref <ref>'s count, the working tree's and
#                           the delta, per package and in total
#
# A ref is read with git ls-tree and git show, so a comparison needs no
# second worktree or checkout. `make loc` and `make loc BASE=<ref>` run
# the two forms.
set -euo pipefail
cd "$(dirname "$0")/.."

# sizes prints "<path> <lines>" for every counted file of the working
# tree or, given a ref, of that ref.
sizes() {
	if [ $# -eq 0 ]; then
		find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | sed 's|^\./||' |
			while read -r f; do echo "$f $(wc -l <"$f")"; done
	else
		git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v -e '_test\.go$' -e '^bench/' |
			while read -r f; do echo "$f $(git show "$1:$f" | wc -l)"; done
	fi
}

# tally folds sizes into "<package> <lines>" rows, one per internal/
# package and then the total.
tally() {
	awk '{ n = split($1, p, "/"); if (p[1] == "internal" && n > 2) pkg["internal/" p[2]] += $2; total += $2 }
	     END { for (k in pkg) print k, pkg[k]; print "total", total }' | sort
}

if [ $# -eq 0 ]; then
	sizes | tally | awk '{ printf "%-22s %6d\n", $1, $2 }'
	exit 0
fi
if ! git rev-parse --verify --quiet "$1^{commit}" >/dev/null; then
	echo "loc: $1 is not a git commit" >&2
	exit 2
fi
printf '%-22s %6s %6s %6s\n' package base tree delta
{ sizes "$1" | tally | sed 's/^/base /'; sizes | tally | sed 's/^/tree /'; } |
	awk '{ n[$1, $2] = $3; seen[$2] = 1 }
	     END { for (p in seen) printf "%-22s %6d %6d %+6d\n", p, n["base", p], n["tree", p], n["tree", p] - n["base", p] }' |
	sort
