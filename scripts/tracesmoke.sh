#!/usr/bin/env sh
# tracesmoke.sh [BINDIR]
#
# End-to-end proof that tracing is purely observational: a tiny Figure 3
# sweep runs untraced and traced in two configurations — a static
# overlay, and the same sweep under -churn, whose drops, joins and
# leaves take the trace hooks down their less-travelled paths — and each
# traced CDF CSV must be byte-identical to its untraced twin. All trace
# exports are then validated with scripts/tracecheck: the trace_event
# JSON must have the shape Perfetto loads and the binary spool must
# decode to the same event count. Any tracing hook that perturbs
# simulation state, any export regression, shows up here. CI runs this
# on every push (make trace-smoke).
set -eu

bin="${1:-$(mktemp -d)}"
go build -o "$bin" ./cmd/bcbpt-sim ./scripts/tracecheck

sweep="-experiment figure3 -nodes 120 -runs 5 -seed 1"

fail=0
for leg in static churn; do
    flags=""
    if [ "$leg" = churn ]; then
        flags="-churn"
    fi

    echo "tracesmoke: untraced run ($leg)"
    "$bin/bcbpt-sim" $sweep $flags -csv "$bin/plain-$leg.csv" > /dev/null

    echo "tracesmoke: traced run ($leg)"
    "$bin/bcbpt-sim" $sweep $flags -trace "$bin/trace-$leg.json" -csv "$bin/traced-$leg.csv" > /dev/null

    if cmp -s "$bin/traced-$leg.csv" "$bin/plain-$leg.csv"; then
        echo "tracesmoke: OK — traced-$leg.csv is byte-identical to the untraced output"
    else
        echo "tracesmoke: FAIL — traced-$leg.csv differs from untraced output (tracing perturbed the simulation)" >&2
        diff "$bin/traced-$leg.csv" "$bin/plain-$leg.csv" >&2 || true
        fail=1
    fi

    "$bin/tracecheck" "$bin/trace-$leg.json" "$bin/trace-$leg.json.bin" || fail=1
done
exit "$fail"
