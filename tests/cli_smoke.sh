#!/bin/sh
# Smoke test of the command-line interface as a user starts it: every
# subcommand runs, refused input exits 2, and the adversary reports hold
# what they promise.
#
#   usage: sh tests/cli_smoke.sh COMMAND DIR
#
# COMMAND starts the CLI and is split on spaces ("splitio" for the installed
# console script, "python -m splitio.cli" for the source tree); DIR is an
# existing directory for the files the checks write.
set -eu
cli=$1
dir=$2

$cli echo --duration 0.01 --format json
$cli echo --duration 0.01 --notification interrupt:2000 --format csv
$cli ipsec --duration 0.01
$cli ipsec --ipsec inline --duration 0.01 --format json
$cli factors-report
# more connections than the link carries: the text report names the clamp
$cli load --connections 5000 > "$dir/load.txt"
grep -qx 'clamped    5000 connections to the 1562 the link carries' "$dir/load.txt"
# copy = none is a zero-copy profile, by flag or config key; any other
# config value is refused
$cli echo --copy none --duration 0.01 --format csv
printf 'copy = none\n' > "$dir/run.cfg"
$cli ipsec --config "$dir/run.cfg" --duration 0.01 --format json
printf 'copy = maybe\n' > "$dir/bad.cfg"
rc=0; $cli echo --config "$dir/bad.cfg" || rc=$?
test "$rc" -eq 2
# a command takes only the flags its run reads
rc=0; $cli load --adversary /nonexistent || rc=$?
test "$rc" -eq 2
rc=0; $cli load --duration 1 || rc=$?
test "$rc" -eq 2
rc=0; $cli factors-report --payload 1 || rc=$?
test "$rc" -eq 2
# 10^9 sends would keep more memory than an echo run may
rc=0; $cli echo --rate 1e12 --duration 0.001 || rc=$?
test "$rc" -eq 2
# nor can a load run carry one connection at that rate over the link
rc=0; $cli load --rate 1e12 || rc=$?
test "$rc" -eq 2
# adversary reports are JSON only: the default, and csv is refused; the
# plan attacks the configured traffic, 50 packets in 10 ms, and a bad
# traffic flag is refused as it is without a plan
printf 'drop_packet target=a count=1\n' > "$dir/plan.txt"
$cli echo --adversary "$dir/plan.txt" --duration 0.01 > "$dir/adversary.json"
python -c "import json, pathlib, sys; r = json.loads(pathlib.Path(sys.argv[1]).read_text()); sys.exit(0 if len(r['sent']) == 50 else 1)" "$dir/adversary.json"
# under ESP the breach scan looks for the rig's own SA keys
$cli ipsec --ipsec inline --adversary "$dir/plan.txt" --duration 0.01 > "$dir/esp-adversary.json"
python -c "import json, pathlib, sys; r = json.loads(pathlib.Path(sys.argv[1]).read_text()); sys.exit(0 if r['breach'] is False else 1)" "$dir/esp-adversary.json"
# a device write of the canary into shared memory is a breach: exit 3
printf 'tamper_shared target=a when=27000 region=1 offset=0 data=c396c396c396c396c396c396c396c396\n' > "$dir/breach.txt"
rc=0; $cli echo --adversary "$dir/breach.txt" --duration 0.01 > "$dir/breach.json" || rc=$?
test "$rc" -eq 3
python -c "import json, pathlib, sys; r = json.loads(pathlib.Path(sys.argv[1]).read_text()); sys.exit(0 if r['breach'] is True else 1)" "$dir/breach.json"
rc=0; $cli echo --adversary "$dir/plan.txt" --format csv || rc=$?
test "$rc" -eq 2
# and a plan action takes only the keys it reads
printf 'drop_packet target=a slot=3\n' > "$dir/bad-plan.txt"
rc=0; $cli echo --adversary "$dir/bad-plan.txt" --duration 0.01 || rc=$?
test "$rc" -eq 2
rc=0; $cli echo --adversary "$dir/plan.txt" --duration abc || rc=$?
test "$rc" -eq 2
# a plan value must fit the 16-bit device field it fills
printf 'forge_address target=a when=0 region=2 offset=0 length=70000\n' > "$dir/wide-plan.txt"
rc=0; $cli echo --adversary "$dir/wide-plan.txt" --duration 0.01 || rc=$?
test "$rc" -eq 2
# a flag is spelled in full, never abbreviated
rc=0; $cli echo --dur 0.01 || rc=$?
test "$rc" -eq 2
# the top-level help keeps the command table as written
$cli -h > "$dir/help.txt"
grep -qF '    splitio echo            round-trip latency through the full stack' "$dir/help.txt"
