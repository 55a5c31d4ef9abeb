#!/usr/bin/env bash
# The four mini systems keep one style on their two hot paths, in production
# code (everything from a file's `#[cfg(test)]` line down is exempt):
# - codec: messages are read and written with the streaming
#   `proto::Reader`/`proto::Writer`; no `MessageValue` is built. The
#   value-tree API stays for tests, tools and benchmark fixtures.
# - client requests: a command is borrowed (`String::from_utf8_lossy`
#   without `.into_owned()`) and split with `dup_core::split_words`, not
#   collected into a `Vec`.
set -euo pipefail
cd "$(dirname "$0")/.."

scan() {
  for file in crates/{kvstore,dfs,mq,coord}/src/*.rs; do
    awk -v file="$file" -v pattern="$1" '
      /^#\[cfg\(test\)\]/ { exit }
      $0 ~ pattern { print file ":" FNR ": " $0 }
    ' "$file"
  done
}

status=0
hits=$(scan 'MessageValue::new|proto::decode\(|proto::encode\(')
if [ -n "$hits" ]; then
  echo "value-tree codec calls in a mini system's production code:" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(scan 'split_whitespace\(\)[.]collect|from_utf8_lossy\(payload\)[.]into_owned\(\)')
if [ -n "$hits" ]; then
  echo "owned client commands in a mini system's production code:" >&2
  echo "$hits" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "mini systems: streaming codec, borrowed client commands"
exit "$status"
