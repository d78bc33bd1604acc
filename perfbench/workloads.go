package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/sim"
)

// workload is one named set of inputs. Every workload runs the serial
// event kernel and exact sample pooling; README.md records why each was
// chosen and which layers it stresses.
type workload struct {
	name string
	// campaigns returns the sweep of one iteration, generated from seed.
	campaigns func(seed int64) []experiment.CampaignSpec
	// workers is the campaign runner's pool size in untraced runs.
	workers int
	// ordered requires the paper's Fig. 3 ordering of Δt medians.
	ordered bool
	// churn requires churn arrivals and departures to happen.
	churn bool
}

var nproc = runtime.NumCPU()

var workloads = []workload{
	{
		name: "figure3",
		campaigns: func(seed int64) []experiment.CampaignSpec {
			return experiment.Figure3Campaigns(experiment.Options{
				Nodes: 1000, Runs: 200, Replications: 2, Seed: seed, BuildWorkers: 1,
			})
		},
		workers: nproc,
		ordered: true,
	},
	{
		name: "build-5k",
		campaigns: func(seed int64) []experiment.CampaignSpec {
			return bcbptSeries(experiment.Options{Nodes: 5000, Runs: 30, Seed: seed})
		},
		workers: nproc,
	},
	{
		name: "churn-1k",
		campaigns: func(seed int64) []experiment.CampaignSpec {
			return bcbptSeries(experiment.Options{Nodes: 1000, Runs: 100, Replications: 2, Seed: seed, ChurnOn: true})
		},
		workers: 1,
		churn:   true,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bcbptSeries returns Fig. 3's BCBPT (dt = 25 ms) campaign alone, so the
// single-series workloads use exactly the spec the figure measures.
func bcbptSeries(o experiment.Options) []experiment.CampaignSpec {
	for _, c := range experiment.Figure3Campaigns(o) {
		if c.Spec.Protocol == experiment.ProtoBCBPT {
			return []experiment.CampaignSpec{c}
		}
	}
	panic("perfbench: Figure3Campaigns has no BCBPT series")
}

// iterationSeed derives the seed of iteration i of a run from the run's
// seed. Iteration 0 uses the seed itself, so the digest a run prints is
// that of the workload at exactly --seed.
func iterationSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return sim.DeriveSeed(seed, fmt.Sprintf("perfbench/iteration/%d", i))
}

// injections counts the measurement injections a sweep attempts.
func injections(camps []experiment.CampaignSpec) int {
	n := 0
	for _, c := range camps {
		c = c.WithDefaults()
		n += c.Replications * c.Runs
	}
	return n
}

func units(camps []experiment.CampaignSpec) int {
	n := 0
	for _, c := range camps {
		n += c.WithDefaults().Replications
	}
	return n
}

// series is one campaign's pooled result, as the figure renders it.
type series struct {
	Name  string
	Bcbpt bool
	Dist  measure.Distribution
	Lost  int
}

// sweepRun is one untraced iteration: the campaign runner's sweep with
// its own per-unit clock and metrics hooks switched on.
type sweepRun struct {
	series    []series
	wall      time.Duration // first call into the program to the result
	build     time.Duration // Σ unit experiment.Build wall time
	run       time.Duration // Σ unit campaign wall time
	injects   int
	units     int
	completed int
	err       error
}

func wallClock() int64 { return time.Now().UnixNano() }

// sweep runs one iteration of w at seed through experiment.Runner.
func sweep(ctx context.Context, w workload, seed int64, workers int) sweepRun {
	reg := experiment.NewMetricsRegistry()
	r := &experiment.Runner{Workers: workers, Metrics: reg, Clock: wallClock}
	t0 := time.Now()
	camps := w.campaigns(seed)
	outs, err := r.Sweep(ctx, camps)
	s := sweepRun{wall: time.Since(t0), injects: injections(camps), units: units(camps), err: err}
	if err != nil {
		return s
	}
	vals, err := promValues(reg)
	if err != nil {
		s.err = err
		return s
	}
	s.build = secondsDur(vals["bcbpt_sweep_unit_build_seconds_sum"])
	s.run = secondsDur(vals["bcbpt_sweep_unit_run_seconds_sum"])
	s.completed = int(vals["bcbpt_sweep_units_completed_total"])
	for i, o := range outs {
		if o.Replications != camps[i].WithDefaults().Replications {
			s.err = fmt.Errorf("campaign %s: %d of %d replications completed", o.Name, o.Replications, camps[i].WithDefaults().Replications)
			return s
		}
		s.series = append(s.series, series{Name: o.Name, Bcbpt: camps[i].Spec.Protocol == experiment.ProtoBCBPT,
			Dist: o.Result.Dist, Lost: o.Result.Lost})
	}
	return s
}

func secondsDur(s float64) time.Duration { return time.Duration(s * 1e9) }

// promValues reads every sample of the registry's Prometheus exposition
// into a map keyed by series name.
func promValues(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("registry exposition: %w", err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("registry line %q: %w", line, err)
		}
		vals[line[:i]] = v
	}
	return vals, nil
}

// checkSeries is the output check every iteration of every workload
// passes: each series measured something, and on figure3 the Δt medians
// keep the paper's order bcbpt < lbc < bitcoin.
func (w workload) checkSeries(ss []series) error {
	medians := map[string]time.Duration{}
	for _, s := range ss {
		if s.Dist.N() == 0 {
			return fmt.Errorf("series %s has no samples", s.Name)
		}
		key := s.Name
		if s.Bcbpt {
			key = "bcbpt"
		}
		medians[key] = s.Dist.Median()
	}
	if w.ordered {
		b, l, c := medians["bcbpt"], medians["lbc"], medians["bitcoin"]
		if len(medians) != 3 || !(b < l && l < c) {
			return fmt.Errorf("Δt medians out of order: bcbpt %v, lbc %v, bitcoin %v (want bcbpt < lbc < bitcoin)", b, l, c)
		}
	}
	return nil
}

// check is the untimed output check of one untraced iteration.
func (w workload) check(s sweepRun) error {
	if s.err != nil {
		return s.err
	}
	if s.completed != s.units {
		return fmt.Errorf("%d of %d units completed", s.completed, s.units)
	}
	return w.checkSeries(s.series)
}

// digest is an FNV-64a over each series' name, sorted Δt samples and
// Lost count: equal digests mean the same simulation results.
func digest(ss []series) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range ss {
		h.Write([]byte(s.Name))
		put(uint64(s.Dist.N()))
		for _, v := range s.Dist.Samples() {
			put(uint64(v))
		}
		put(uint64(s.Lost))
	}
	return h.Sum64()
}

// bcbptDist returns the BCBPT series' distribution.
func bcbptDist(ss []series) measure.Distribution {
	for _, s := range ss {
		if s.Bcbpt {
			return s.Dist
		}
	}
	return measure.Distribution{}
}

// goldenCSV is the checked-in Fig. 3 smoke golden the simulator's own
// tests pin; the benchmark runs the same configuration and demands the
// same bytes, so a change that moves the simulation's results fails here
// loudly rather than showing up as a faster number.
var goldenCSV = filepath.Join("internal", "experiment", "testdata", "figure3_smoke_golden.csv")

func checkGolden(ctx context.Context) error {
	want, err := os.ReadFile(goldenCSV)
	if err != nil {
		return fmt.Errorf("smoke golden: %w", err)
	}
	fig, err := experiment.Figure3Ctx(ctx, experiment.Options{Nodes: 120, Runs: 5, Replications: 2, Seed: 1})
	if err != nil {
		return fmt.Errorf("smoke golden: figure3: %w", err)
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		return fmt.Errorf("smoke golden: %w", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return errors.New("smoke golden: figure3 N=120 runs=5 replications=2 seed=1 CSV differs from " + goldenCSV)
	}
	return nil
}

// checkChurn replays the first injections of iteration 0's churn unit
// and demands that peers both left and arrived: the runner does not
// expose its units' churn drivers, so the untraced run checks them here.
func checkChurn(ctx context.Context, w workload, seed int64) error {
	cs := w.campaigns(seed)[0].WithDefaults()
	spec := cs.Spec
	spec.Seed = cs.ReplicationSeed(0)
	b, err := experiment.Build(ctx, spec)
	if err != nil {
		return fmt.Errorf("churn check: %w", err)
	}
	defer b.Close()
	if b.ChurnDriver == nil {
		return errors.New("churn check: workload built without a churn driver")
	}
	if _, err := b.CampaignContext(ctx, 3, cs.Deadline); err != nil {
		return fmt.Errorf("churn check: %w", err)
	}
	return churnActive(b.ChurnDriver.Stats())
}

func churnActive(leaves, arrivals uint64) error {
	if leaves == 0 || arrivals == 0 {
		return fmt.Errorf("churn inactive: %d leaves, %d arrivals", leaves, arrivals)
	}
	return nil
}
