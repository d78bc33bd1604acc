// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's public packages for a wall-clock
// budget, checks the outputs, and prints every metric by name with its
// unit and sample count; the last line of standard output is one JSON
// object with the result. Build and run it from the repository root with
// perfbench/run.sh; README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload figure3 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 it drives the same units serially with spans around every
// public call and reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hardLimit cancels a run that would otherwise overrun the time a
// benchmark run may take; the cancelled work counts as failed.
const hardLimit = 170 * time.Second

// minIterations is the fewest untraced iterations a run makes, so every
// timing it reports is a median of at least this many; the Δt figures
// are medians over exactly this many.
const minIterations = 5

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement budget in wall-clock seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	printEnv(os.Stdout)

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	var r report
	goldenErr := checkGolden(ctx)
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		r = untraced(ctx, w, *seed, budget)
	} else {
		r = traced(ctx, w, *seed, budget)
	}
	if goldenErr != nil {
		r.problem("%v", goldenErr)
		r.failed = r.attempted
	}
	r.print(os.Stdout)
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// more reports whether a run with budget left should start another
// iteration after n iterations, the last of which took last.
func more(start time.Time, budget time.Duration, n int, last time.Duration) bool {
	if n < minIterations {
		return true
	}
	return time.Since(start)+last/2 < budget
}

// untraced runs iterations of w through the campaign runner, as users run
// the simulator, and reports the end-to-end metrics.
func untraced(ctx context.Context, w workload, seed int64, budget time.Duration) report {
	var r report
	var walls, setups, rates []float64
	var first sweepRun
	var dt50, dt75, dt90 []float64
	var dtN, samples, lost int
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC() // each iteration starts from the same heap, untimed
		s := sweep(ctx, w, iterationSeed(seed, i), w.workers)
		if i == 0 {
			first = s
		}
		dt := bcbptDist(s.series)
		if i < minIterations {
			dt50 = append(dt50, float64(dt.Percentile(50))/1e6)
			dt75 = append(dt75, float64(dt.Percentile(75))/1e6)
			dt90 = append(dt90, float64(dt.Percentile(90))/1e6)
			dtN += dt.N()
		}
		fmt.Printf("iteration %d: wall %.4fs setup %.4fs campaigns %.4fs injections %d, bcbpt Δt p50 %.3fms p90 %.3fms\n",
			i, s.wall.Seconds(), s.build.Seconds(), s.run.Seconds(), s.injects,
			float64(dt.Percentile(50))/1e6, float64(dt.Percentile(90))/1e6)
		r.attempted += s.injects
		if err := w.check(s); err != nil {
			r.failed += s.injects
			r.problem("iteration %d: %v", i, err)
		} else {
			walls = append(walls, s.wall.Seconds())
			setups = append(setups, s.build.Seconds())
			rates = append(rates, float64(s.injects)/s.run.Seconds())
			for _, ss := range s.series {
				samples += ss.Dist.N()
				lost += ss.Lost
			}
		}
		if ctx.Err() != nil || !more(start, budget, i+1, s.wall) {
			break
		}
	}
	if w.churn {
		if err := checkChurn(ctx, w, seed); err != nil {
			r.problem("%v", err)
			r.failed = r.attempted
		}
	}
	fmt.Printf("digest %s seed=%d: %016x\n", w.name, seed, digest(first.series))

	r.timing("wall_s", "s", walls, "untraced sweep, call to result")
	r.timing("setup_s", "s", setups, "Σ unit experiment.Build")
	r.timing("inject_per_s", "1/s", rates, "injections ÷ Σ unit campaign time")
	r.add("peak_rss_mb", "MiB", peakRSSMiB(), 1, "VmHWM")
	// Δt is the median over the first minIterations iterations, which
	// every run makes, of the BCBPT series' percentile: a pure function of
	// the seed that one network with an unusually slow tail cannot move.
	// The 90th percentile is printed but not bounded: under churn it sits
	// at the knee of the slow tail and jumps between about 110 and 250 ms
	// from one network to the next.
	dtNote := fmt.Sprintf("virtual time, BCBPT series, %d samples in iterations 0-%d", dtN, minIterations-1)
	r.timing("dt_p50_ms", "ms", dt50, dtNote)
	r.timing("dt_p75_ms", "ms", dt75, dtNote)
	q1, _, q3 := quartiles(dt90)
	r.note("dt_p90_ms", "ms", median(dt90), len(dt90), fmt.Sprintf("%s; median of %d, q1 %.6g q3 %.6g", dtNote, len(dt90), q1, q3))
	r.note("lost_frac", "ratio", float64(lost)/float64(samples+lost), samples+lost,
		fmt.Sprintf("%d lost of %d connection-runs", lost, samples+lost))
	r.note("fail_frac", "ratio", float64(r.failed)/float64(r.attempted), r.attempted,
		fmt.Sprintf("%d failed of %d injections", r.failed, r.attempted))
	return r
}

// traced measures the per-layer split. It first runs iteration 0 as the
// untraced workload does (for the runner's busy share and the reference
// digest), then alternates, per iteration, an untraced serial sweep and
// the traced serial loop over the same units: the pair's wall times give
// the tracing overhead, and their digests must be equal.
func traced(ctx context.Context, w workload, seed int64, budget time.Duration) report {
	var r report
	rec := newRecorder()
	start := time.Now()

	runtime.GC()
	ref := sweep(ctx, w, seed, w.workers)
	r.attempted += ref.injects
	if err := w.check(ref); err != nil {
		r.failed += ref.injects
		r.problem("untraced iteration 0: %v", err)
	}
	refDigest := digest(ref.series)
	fmt.Printf("digest %s seed=%d: %016x\n", w.name, seed, refDigest)

	var first, all []unitTrace
	var builds, overheads []float64
	var gcCPU, totalCPU float64
	for i := 0; ; i++ {
		is := iterationSeed(seed, i)
		var a sweepRun
		var ss []series
		var uts []unitTrace
		var err error
		var tw time.Duration
		var g0, g1 []float64
		plain := func() {
			runtime.GC()
			a = sweep(ctx, w, is, 1)
		}
		withSpans := func() {
			runtime.GC()
			g0 = readMetrics(mGCCPU, mTotalCPU)
			t0 := time.Now()
			ss, uts, err = tracedIteration(ctx, rec, w, is)
			tw = time.Since(t0)
			g1 = readMetrics(mGCCPU, mTotalCPU)
		}
		// Alternate which side of the pair runs first, so drift in the
		// machine's speed does not bias the overhead one way.
		if i%2 == 0 {
			plain()
			withSpans()
		} else {
			withSpans()
			plain()
		}
		r.attempted += a.injects
		if err := w.check(a); err != nil {
			r.failed += a.injects
			r.problem("untraced serial iteration %d: %v", i, err)
		}
		injects := injections(w.campaigns(is))
		r.attempted += injects
		if err == nil {
			err = w.checkSeries(ss)
		}
		if err == nil && digest(ss) != digest(a.series) {
			err = fmt.Errorf("traced digest %016x differs from untraced %016x", digest(ss), digest(a.series))
		}
		if err == nil && i == 0 && digest(ss) != refDigest {
			err = fmt.Errorf("traced digest %016x differs from the runner's %016x", digest(ss), refDigest)
		}
		if err != nil {
			r.failed += injects
			r.problem("traced iteration %d: %v", i, err)
		} else {
			if i == 0 {
				first = uts
				fmt.Printf("traced digest %s seed=%d: %016x\n", w.name, seed, digest(ss))
			}
			all = append(all, uts...)
			var build, probe time.Duration
			for _, u := range uts {
				build += u.build
				probe += u.probe
			}
			builds = append(builds, build.Seconds())
			overheads = append(overheads, (tw-probe).Seconds()/a.wall.Seconds()-1)
			gcCPU += g1[0] - g0[0]
			totalCPU += g1[1] - g0[1]
		}
		if ctx.Err() != nil || time.Since(start)+(tw+a.wall)/2 >= budget {
			break
		}
	}

	workers := w.workers
	if ref.units < workers {
		workers = ref.units
	}
	r.timing("experiment.build_s", "s", builds, "Σ unit Build per traced iteration")
	r.timing("experiment.unit_run_s.p50", "s", pick(all, func(u unitTrace) (float64, bool) { return u.campaign.Seconds(), true }), "per unit campaign")
	r.add("experiment.runner_busy_frac", "ratio", (ref.build+ref.run).Seconds()/(float64(workers)*ref.wall.Seconds()), 1,
		fmt.Sprintf("Σ unit time ÷ (%d workers × wall), untraced iteration 0", workers))

	var probes []float64
	for _, u := range all {
		probes = append(probes, u.recommendProbe...)
	}
	r.timing("topology.recommend_us.p50", "us", probes, "probe: DNSSeed.Recommend(id, loc, 4×Candidates)")
	r.timing("topology.recommend_total_s", "s", pick(all, func(u unitTrace) (float64, bool) {
		return mean(u.recommendProbe) * float64(u.nodes) / 1e6, u.bcbpt
	}), "probe mean × N per BCBPT unit: serial cost of ranking every node")

	var cs struct{ events, msgs, probes, joins, founded, units uint64 }
	var ex struct{ injects, events, msgs, bytes, dropped, leaves, arrivals uint64 }
	for _, u := range first {
		ex.injects += uint64(u.injects)
		ex.events += u.events
		ex.msgs += u.msgs
		ex.bytes += u.bytes
		ex.dropped += u.dropped
		ex.leaves += u.leaves
		ex.arrivals += u.arrivals
		if u.bcbpt {
			cs.units++
			cs.events += u.bootEvents
			cs.msgs += u.bootMsgs
			cs.probes += u.core.Probes
			cs.joins += u.core.Joins
			cs.founded += u.core.Founded
		}
	}
	bootNote := fmt.Sprintf("exact, Σ over %d BCBPT builds of iteration 0", cs.units)
	r.add("core.bootstrap_events", "count", float64(cs.events), int(cs.units), bootNote)
	r.add("core.bootstrap_msgs", "count", float64(cs.msgs), int(cs.units), bootNote)
	r.add("core.probes", "count", float64(cs.probes), int(cs.units), bootNote)
	r.add("core.joins", "count", float64(cs.joins), int(cs.units), bootNote)
	r.add("core.founded", "count", float64(cs.founded), int(cs.units), bootNote)

	steady := func(name string, scale float64) []float64 {
		var out []float64
		for _, s := range rec.spans {
			if s.Name == name && int(s.Seq) >= warmupInjections {
				out = append(out, float64(s.dur())/scale)
			}
		}
		return out
	}
	injMS := steady("measure.inject", 1e6)
	r.timing("measure.inject_ms.p50", "ms", injMS, "after warm-up")
	t := highestTail(injMS)
	r.add("measure.inject_ms.pmax", "ms", t.Value, len(injMS), fmt.Sprintf("p%g, %d samples beyond", t.Pct, t.Beyond))
	r.add("measure.inject_ms.pmax_pct", "%", t.Pct, len(injMS), "percentile of measure.inject_ms.pmax")
	r.timing("measure.fold_us.p50", "us", steady("measure.fold", 1e3), "after warm-up")
	r.timing("p2p.reset_us.p50", "us", steady("p2p.reset", 1e3), "after warm-up")

	exNote := fmt.Sprintf("exact, over the %d injections of iteration 0", ex.injects)
	per := func(v uint64) float64 { return float64(v) / float64(ex.injects) }
	r.add("sim.events_per_inject", "count", per(ex.events), int(ex.injects), exNote)
	r.add("p2p.msgs_per_inject", "count", per(ex.msgs), int(ex.injects), exNote)
	r.add("p2p.bytes_per_inject", "B", per(ex.bytes), int(ex.injects), exNote)

	var floodNS float64
	var events, msgs, allocObjs, allocBytes uint64
	var allInjects, steadyInjects int
	for _, s := range rec.spans {
		if s.Name == "measure.measure_once" {
			floodNS += float64(s.dur())
		}
	}
	for _, u := range all {
		events += u.events
		msgs += u.msgs
		allocObjs += u.allocObjs
		allocBytes += u.allocBytes
		allInjects += u.injects
		steadyInjects += u.steadyInjects
	}
	r.add("sim.events_per_s", "1/s", float64(events)/(floodNS/1e9), allInjects, "kernel events ÷ MeasureOnce time")
	r.add("p2p.ns_per_msg", "ns", floodNS/float64(msgs), allInjects, "MeasureOnce time ÷ messages sent")
	r.add("measure.allocs_per_inject", "count", float64(allocObjs)/float64(steadyInjects), steadyInjects, "heap objects, after warm-up")
	r.add("measure.alloc_bytes_per_inject", "B", float64(allocBytes)/float64(steadyInjects), steadyInjects, "heap bytes, after warm-up")
	r.add("runtime.gc_cpu_frac", "ratio", gcCPU/totalCPU, len(builds), "GC CPU ÷ total CPU over traced iterations")

	arrive, leave := steady("churn.arrive", 1e3), steady("churn.leave", 1e3)
	r.timing("churn.arrive_us.p50", "us", arrive, "Driver.OnArrive, after warm-up")
	r.timing("churn.leave_us.p50", "us", leave, "Driver.OnLeave, after warm-up")
	r.add("churn.arrivals_per_inject", "count", per(ex.arrivals), int(ex.injects), exNote)
	r.add("churn.leaves_per_inject", "count", per(ex.leaves), int(ex.injects), exNote)
	r.add("p2p.dropped_per_inject", "count", per(ex.dropped), int(ex.injects), exNote)
	r.add("churn.write_share", "ratio", (sum(arrive)+sum(leave))/(sum(injMS)*1e3), len(injMS), "churn callback time ÷ injection time, after warm-up")
	if w.churn {
		if err := churnActive(ex.leaves, ex.arrivals); err != nil {
			r.problem("traced iteration 0: %v", err)
			r.failed = r.attempted
		}
	}
	r.timing("bench.trace_overhead_frac", "ratio", overheads, "traced ÷ untraced serial wall − 1, paired by iteration")

	fmt.Println("layer self time (traced iterations):")
	for _, lt := range rec.layerTimes() {
		fmt.Printf("  %-26s n=%-7d total %10.3fs  self %10.3fs\n", lt.Name, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := rec.writeJSON(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("spans: %s (%d)\n", path, len(rec.spans))
	}
	return r
}

// pick collects f over the units for which it reports true.
func pick(us []unitTrace, f func(unitTrace) (float64, bool)) []float64 {
	var out []float64
	for _, u := range us {
		if v, ok := f(u); ok {
			out = append(out, v)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return finite(sum(xs) / float64(len(xs))) }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printEnv records the environment the numbers were taken in.
func printEnv(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%016x\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the code measured where no commit is recorded.
func sourceDigest() uint64 {
	h := fnv.New64a()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write(data)
			}
		}
		return nil
	})
	return h.Sum64()
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name, Unit string
	Value      float64
	N          int
	Note       string
	// JSON is false for figures printed for the reader only.
	JSON bool
}

// report collects a run's result.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: finite(v), N: n, Note: note, JSON: true})
}

// note adds a figure that is printed but left out of the JSON result.
func (r *report) note(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: finite(v), N: n, Note: note})
}

// timing adds the median of xs, with its quartiles in the note.
func (r *report) timing(name, unit string, xs []float64, note string) {
	q1, _, q3 := quartiles(xs)
	r.add(name, unit, median(xs), len(xs), fmt.Sprintf("%s; median of %d, q1 %.6g q3 %.6g", note, len(xs), q1, q3))
}

// print writes the human-readable table and, as the last line, the JSON
// result.
func (r *report) print(w io.Writer) {
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].JSON && !ms[j].JSON })
	for _, m := range ms {
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
		if m.JSON {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(fmt.Sprintf("perfbench: result JSON: %v", err)) // every value is finite
	}
	fmt.Fprintln(w, string(data))
}
