#!/usr/bin/env bash
# Fail when the event core's per-spike path makes a call (ARCHITECTURE.md
# §1.12). Reads the objects of an optimized (Release, GCC, x86-64) build:
#   * event_core.cpp.o must hold no call relocation (R_X86_64_PLT32) to
#     vector push_back, EventCore::fire or EventCore::fanout_segmented;
#   * parallel_sim.cpp.o must hold no push_back call relocation under
#     Shard::fan_out.
# In a relocatable object a `call` line names no symbol; the relocation line
# under it does, so the check counts relocation lines per function.
#
#   tools/check_hot_inlining.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 || ! -d $1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi

find_object() {
  local obj
  obj=$(find "$1" -path "*/snn/$2.o" -print -quit)
  if [[ -z $obj ]]; then
    echo "check_hot_inlining: no $2.o under $1 (build sgalib first)" >&2
    exit 2
  fi
  echo "$obj"
}

# Print "<function> -> <callee>" for every call relocation in object $1
# whose function matches regex $2 and whose callee matches regex $3.
calls() {
  objdump -dr -C --no-show-raw-insn "$1" | awk -v fn="$2" -v callee="$3" '
    /^[0-9a-f]+ <.*>:$/ {
      cur = substr($0, index($0, "<") + 1)
      cur = substr(cur, 1, length(cur) - 2)
      next
    }
    /R_X86_64_PLT32/ {
      sym = $0
      sub(/^.*R_X86_64_PLT32[ \t]+/, "", sym)
      if (cur ~ fn && sym ~ callee) print cur " -> " sym
    }'
}

core=$(find_object "$1" event_core.cpp)
psim=$(find_object "$1" parallel_sim.cpp)

found=$(
  calls "$core" '.' 'push_back|EventCore::fire<|EventCore::fanout_segmented<'
  calls "$psim" 'Shard::fan_out\(' 'push_back'
)
if [[ -n $found ]]; then
  echo "check_hot_inlining: hot-path calls left out of line:" >&2
  echo "$found" | sort | uniq -c >&2
  exit 1
fi
echo "check_hot_inlining: 0 hot-path call relocations in" \
  "$(basename "$core") and under Shard::fan_out in $(basename "$psim")"
