#!/bin/bash
# Regenerates every table and figure. Outputs land in results/.
set -x
cd "$(dirname "$0")/.."
B=./target/release
{ time $B/fig1   --scale 1.0            ; } > results/fig1.txt   2> results/fig1.log
{ time $B/table4 --scale 0.25           ; } > results/table4.txt 2> results/table4.log
{ time $B/table5 --scale 0.25           ; } > results/table5.txt 2> results/table5.log
{ time $B/table6 --scale 0.25           ; } > results/table6.txt 2> results/table6.log
{ time $B/fig8   --scale 0.25           ; } > results/fig8.txt   2> results/fig8.log
{ time $B/fig9                          ; } > results/fig9.txt   2> results/fig9.log
{ time $B/memcost --scale 0.25          ; } > results/memcost.txt 2> results/memcost.log
{ time $B/fig7   --scale 0.25           ; } > results/fig7.txt   2> results/fig7.log
{ time $B/drift                         ; } > /dev/null          2> results/drift.log
{ time $B/serve  --scale 0.25           ; } > /dev/null          2> results/serve.log
echo ALL_DONE
