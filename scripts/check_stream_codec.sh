#!/usr/bin/env bash
# The four mini systems keep one codec style: production code reads and
# writes its messages with the streaming `proto::Reader`/`proto::Writer`
# and builds no `MessageValue`. The value-tree API stays for tests, tools
# and benchmark fixtures, so everything from a file's `#[cfg(test)]` line
# down is exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(
  for file in crates/{kvstore,dfs,mq,coord}/src/*.rs; do
    awk -v file="$file" '
      /^#\[cfg\(test\)\]/ { exit }
      /MessageValue::new|proto::decode\(|proto::encode\(/ { print file ":" FNR ": " $0 }
    ' "$file"
  done
)
if [ -n "$hits" ]; then
  echo "value-tree codec calls in a mini system's production code:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "mini systems: streaming codec only"
