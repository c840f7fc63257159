#!/usr/bin/env bash
# Fails when a workspace crate declares a `pub` item (item, method,
# field or module) whose name appears nowhere outside the crate.
#
# Callers are the other crates, the root package (`src/`), `tests/`,
# `examples/` and `benchmark/`, plus the crate's own `src/bin/` and
# `tests/`. The match is by name, so it undercounts: a `pub fn reset`
# passes if any caller says `reset`. The narrowing itself is the
# compiler's: make the item `pub(crate)` and see what fails to build.
#
# An item that must stay `pub` although no caller names it — a type
# that only appears in a used public signature — is listed in
# scripts/pub-surface-exempt.txt as `<crate> <name> <signature>`. A
# line whose name that crate no longer declares `pub` is stale and
# fails too.
#
# Usage: scripts/pub-surface.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."
exempt=scripts/pub-surface-exempt.txt
status=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    names=$(find "${dir}src" -name '*.rs' -not -path '*/src/bin/*' -print0 |
        xargs -0 grep -hoP '^\s*pub (unsafe |const )*(fn|struct|enum|trait|type|const|static|mod|union) \K\w+|^\s*pub \K\w+(?=\s*:[^:])' |
        sort -u)
    used=$( (find crates src tests examples benchmark/src benchmark/tests -name '*.rs' -not -path "${dir}src/*"
        find "${dir}src/bin" -name '*.rs' 2>/dev/null || true) |
        xargs cat | grep -oE '\w+' | sort -u)
    for name in $(comm -23 <(echo "$names") <(echo "$used")); do
        if ! grep -qE "^$crate $name " "$exempt"; then
            echo "crates/$crate: \`pub\` item \`$name\` is named nowhere outside the crate"
            status=1
        fi
    done
    for name in $(awk -v c="$crate" '$1 == c { print $2 }' "$exempt"); do
        if ! grep -qx "$name" <<<"$names"; then
            echo "$exempt: crates/$crate declares no \`pub\` item \`$name\`"
            status=1
        fi
    done
done
exit $status
