#!/usr/bin/env bash
# Prints the src/ line counts the ROADMAP tracks: obs/, fo/, service/ and
# transport/, each counted as `cat src/<m>/*.h src/<m>/*.cc | wc -l`, plus
# the total over every header and source file under src/.
#
# Usage: scripts/src_loc.sh   (from any directory inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."
for m in obs fo service transport; do
  printf '%-10s %6d\n' "$m/" "$(cat src/"$m"/*.h src/"$m"/*.cc | wc -l)"
done
printf '%-10s %6d\n' "src/" \
  "$(find src -name '*.h' -o -name '*.cc' | sort | xargs cat | wc -l)"
