package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/measure"
)

// warmupInjections is the prefix of each unit's campaign left out of the
// per-injection metrics: it pays for pools and buffers filling. The
// end-to-end metrics keep it, because users pay it on every replication.
const warmupInjections = 10

// probeSample is how many nodes of a built BCBPT network the ranking
// probe re-ranks.
const probeSample = 64

// unitTrace holds one traced unit's counts, read from public snapshots.
type unitTrace struct {
	bcbpt          bool
	nodes          int
	build          time.Duration
	bootEvents     uint64 // Scheduler().Executed() after Build
	bootMsgs       uint64 // Network.Stats() messages after Build
	core           core.Stats
	injects        int
	events         uint64 // kernel events during the campaign
	msgs, bytes    uint64 // messages and framed bytes during the campaign
	dropped        uint64 // messages dropped because an endpoint churned away
	leaves         uint64
	arrivals       uint64
	steadyInjects  int // injections after the warm-up prefix
	allocObjs      uint64
	allocBytes     uint64
	campaign       time.Duration // the campaign loop's wall time
	probe          time.Duration // the ranking probe's wall time
	recommendProbe []float64     // µs per DNSSeed.Recommend call
}

// runtime/metrics samples read around the traced work.
const (
	mAllocObjs = "/gc/heap/allocs:objects"
	mAllocB    = "/gc/heap/allocs:bytes"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
)

func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// makeTx mirrors the transactions experiment's campaigns inject, so the
// traced loop floods byte-identical transactions.
func makeTx() func(i int) *chain.Tx {
	const seed = 1000
	key, err := chain.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(fmt.Sprintf("perfbench: keygen: %v", err)) // P-256 keygen from a live reader cannot fail
	}
	return func(i int) *chain.Tx {
		return chain.Coinbase(uint64(i)+1, chain.Amount(seed%1000+1), key.Address())
	}
}

// tracedIteration runs one iteration of w at seed with every unit driven
// serially by tracedUnit, pooling shards as the runner does.
func tracedIteration(ctx context.Context, rec *recorder, w workload, seed int64) ([]series, []unitTrace, error) {
	it := rec.begin("bench.iteration", -1)
	defer rec.end(it)
	camps := w.campaigns(seed)
	var out []series
	var traces []unitTrace
	for _, cs := range camps {
		cs = cs.WithDefaults()
		shards := make([]measure.CampaignResult, 0, cs.Replications)
		for rep := 0; rep < cs.Replications; rep++ {
			res, ut, err := tracedUnit(ctx, rec, cs, rep)
			if err != nil {
				return nil, nil, fmt.Errorf("traced %s replication %d: %w", cs.Name, rep, err)
			}
			shards = append(shards, res)
			traces = append(traces, ut)
		}
		merged, err := measure.MergeCampaignResults(shards...)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, series{Name: cs.Name, Bcbpt: cs.Spec.Protocol == experiment.ProtoBCBPT,
			Dist: merged.Dist, Lost: merged.Lost})
	}
	return out, traces, nil
}

// tracedUnit is replication rep of cs: experiment.Build, then a campaign
// loop of ResetInventory + MeasureOnce + fold that mirrors
// measure.MeasuringNode.RunContext on the exact pooling path, with a span
// around each public call.
func tracedUnit(ctx context.Context, rec *recorder, cs experiment.CampaignSpec, rep int) (measure.CampaignResult, unitTrace, error) {
	var ut unitTrace
	spec := cs.Spec
	spec.Seed = cs.ReplicationSeed(rep)
	ut.bcbpt = spec.Protocol == experiment.ProtoBCBPT
	ut.nodes = spec.Nodes
	u := rec.begin("experiment.unit", -1)
	defer rec.end(u)

	sb := rec.begin("experiment.build", -1)
	b, err := experiment.Build(ctx, spec)
	ut.build = rec.end(sb)
	if err != nil {
		return measure.CampaignResult{}, ut, err
	}
	defer b.Close()
	net := b.Net
	ut.bootEvents = net.Scheduler().Executed()
	ut.bootMsgs = net.Stats().TotalMessages()
	if b.BCBPT != nil {
		ut.core = b.BCBPT.Stats()
		ps := rec.begin("topology.recommend_probe", -1)
		ut.recommendProbe = recommendProbe(b)
		ut.probe = rec.end(ps)
	}

	inject := int32(-1) // the open injection's span, parent of churn spans
	if d := b.ChurnDriver; d != nil {
		arrive, leave := d.OnArrive, d.OnLeave
		d.OnArrive = func() (uint64, bool) {
			s := rec.begin("churn.arrive", int(rec.spans[inject].Seq))
			id, ok := arrive()
			rec.end(s)
			return id, ok
		}
		d.OnLeave = func(id uint64) {
			s := rec.begin("churn.leave", int(rec.spans[inject].Seq))
			leave(id)
			rec.end(s)
		}
	}

	mk := makeTx()
	var out measure.CampaignResult
	var samples []time.Duration
	ev0, st0 := net.Scheduler().Executed(), net.Stats()
	var churn0 [2]uint64
	if b.ChurnDriver != nil {
		churn0[0], churn0[1] = b.ChurnDriver.Stats()
	}
	var alloc0 []float64
	sc := rec.begin("measure.campaign", -1)
	for i := 0; i < cs.Runs; i++ {
		if i == warmupInjections {
			alloc0 = readMetrics(mAllocObjs, mAllocB)
		}
		inject = rec.begin("measure.inject", i)
		s := rec.begin("p2p.reset", i)
		net.ResetInventory()
		rec.end(s)
		tx := mk(i)
		s = rec.begin("measure.measure_once", i)
		res, err := b.Measurer.MeasureOnce(ctx, tx, cs.Deadline)
		rec.end(s)
		if err != nil {
			rec.end(inject)
			rec.end(sc)
			return measure.CampaignResult{}, ut, fmt.Errorf("run %d: %w", i, err)
		}
		s = rec.begin("measure.fold", i)
		out.Lost += len(res.Missing)
		out.PerRun = append(out.PerRun, res)
		samples = append(samples, res.All()...)
		rec.end(s)
		rec.end(inject)
	}
	if alloc0 != nil {
		a := readMetrics(mAllocObjs, mAllocB)
		ut.allocObjs, ut.allocBytes = uint64(a[0]-alloc0[0]), uint64(a[1]-alloc0[1])
		ut.steadyInjects = cs.Runs - warmupInjections
	}
	ut.campaign = rec.end(sc)
	out.Dist = measure.NewDistribution(samples)
	out.Fingerprint = cs.Fingerprint()

	ut.injects = cs.Runs
	st := net.Stats()
	ut.events = net.Scheduler().Executed() - ev0
	ut.msgs = st.TotalMessages() - st0.TotalMessages()
	ut.bytes = st.TotalBytes() - st0.TotalBytes()
	ut.dropped = st.Dropped - st0.Dropped
	if b.ChurnDriver != nil {
		l, a := b.ChurnDriver.Stats()
		ut.leaves, ut.arrivals = l-churn0[0], a-churn0[1]
	}
	return out, ut, nil
}

// recommendProbe re-issues the build's candidate-ranking query,
// DNSSeed.Recommend(id, loc, 4×Candidates), for an evenly spaced sample
// of the built network's nodes and returns each call's time in µs. It is
// a probe: the build already ranked every node, and the probe's answers
// are discarded.
func recommendProbe(b *experiment.Built) []float64 {
	ids := b.Net.NodeIDs()
	k := 4 * b.BCBPT.Config().Candidates
	n := probeSample
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := ids[i*len(ids)/n]
		node, ok := b.Net.Node(id)
		if !ok {
			continue
		}
		t0 := time.Now()
		b.Seed.Recommend(id, node.Location(), k)
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out
}
