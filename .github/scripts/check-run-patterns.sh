#!/usr/bin/env bash
# Fails when a `go test -run` pattern in a workflow matches no test: a
# renamed test would otherwise turn its CI step into a silent no-op. Every
# top-level alternative of a pattern (split on |) must match at least one
# test listed by `go test -list` in the step's packages. The '^$' idiom
# (run no tests, only benchmarks) is skipped.
#
# Usage: .github/scripts/check-run-patterns.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

fail=0
checked=0
while IFS= read -r cmd; do
  pattern=$(sed -nE "s/.*-run '([^']*)'.*/\1/p" <<<"$cmd")
  if [ -z "$pattern" ] || [ "$pattern" = '^$' ]; then
    continue
  fi
  read -ra pkgs <<<"$(grep -oE '(^| )\./[^ ]*' <<<"$cmd" | tr '\n' ' ')"
  listing=$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Example|Fuzz)' || true)
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    checked=$((checked + 1))
    if ! grep -qE -- "$alt" <<<"$listing"; then
      echo "-run '$pattern' in ${pkgs[*]}: '$alt' matches no test"
      fail=1
    fi
  done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' .github/workflows/*.yml | grep -E 'go test .*-run ')

echo "checked $checked -run alternatives across .github/workflows"
exit "$fail"
