// Fixture for the hookcost analyzer: checked as-if it were a hot-path
// package (repro/internal/measure). Hook call sites — obs.Shard.Record
// and calls through On* func-typed fields — must be nil-guarded and
// allocation-free in their arguments.
package fixture

import (
	"fmt"

	"repro/internal/obs"
)

type Probe struct {
	trace   *obs.Shard
	OnDrop  func(code uint8, n uint64)
	OnBatch func(ids []uint64)
	OnEvt   func(e *obs.Event)
}

func flagged(p *Probe, buf []byte, name string) {
	p.trace.Record(obs.Event{P1: 1}) // want `obs\.Shard\.Record call is not nil-guarded`
	p.OnDrop(1, 2)                   // want `hook OnDrop call is not nil-guarded`
	OnTick := p.OnDrop
	OnTick(1, 1) // want `hook OnTick call is not nil-guarded`

	if p.trace != nil && p.OnBatch != nil && p.OnEvt != nil {
		p.trace.Record(obs.Event{P1: uint64(len(fmt.Sprintf("x-%s", name)))}) // want `argument allocates: fmt\.Sprintf`
		p.trace.Record(obs.Event{P2: uint64(len(name + "!"))})                // want `argument allocates: string concatenation`
		p.trace.Record(obs.Event{P3: uint64(len(string(buf)))})               // want `argument allocates: string conversion`
		p.trace.Record(obs.Event{P1: uint64(len(append(buf, 1)))})            // want `argument allocates: append`
		p.trace.Record(obs.Event{P2: uint64(func() int { return 1 }())})      // want `argument allocates: function literal`
		p.OnBatch([]uint64{1, 2})                                             // want `argument allocates: slice/map literal`
		p.OnEvt(&obs.Event{Code: 3})                                          // want `argument allocates: pointer to composite literal`
	}
}

func clean(p *Probe, tr *obs.Tracer) {
	// The three guard shapes: direct check, init-bound check, and a
	// terminating == nil early return.
	if p.trace != nil {
		p.trace.Record(obs.Event{P1: 1, Code: 2})
	}
	if t := p.trace; t != nil {
		t.Record(obs.Event{P2: 3})
	}
	// Tracer.Shard returns a valid shard by contract: locals bound from
	// it need no guard.
	sh := tr.Shard()
	sh.Record(obs.Event{P1: 4})
	// Guard facts survive into closures built on the guarded path.
	if p.OnDrop != nil {
		f := func() { p.OnDrop(0, 1) }
		f()
	}
	earlyReturn(p)
}

func earlyReturn(p *Probe) {
	if p.OnDrop == nil {
		return
	}
	p.OnDrop(5, 6)
}

func allowed(p *Probe) {
	//bcbptlint:allow hookcost — fixture: deliberate unguarded hook to exercise the directive
	p.OnDrop(9, 9)
}
