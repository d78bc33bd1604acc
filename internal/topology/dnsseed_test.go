package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p"
)

// referenceRecommend is the full-sort DNSSeed.Recommend the latitude walk
// replaced: rank every registered node except self by (distance, id) and
// keep the first k. It is the oracle the walk must match exactly.
func referenceRecommend(locs map[p2p.NodeID]geo.Location, self p2p.NodeID, loc geo.Location, k int) []p2p.NodeID {
	type cand struct {
		id p2p.NodeID
		d  float64
	}
	cands := make([]cand, 0, len(locs))
	for id, l := range locs {
		if id == self {
			continue
		}
		cands = append(cands, cand{id: id, d: geo.DistanceMeters(loc.Coord, l.Coord)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]p2p.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out
}

// seedModel drives a DNSSeed and a plain map through the same operations
// and holds the seed to the map after each one.
type seedModel struct {
	t    *testing.T
	seed *DNSSeed
	locs map[p2p.NodeID]geo.Location
}

func newSeedModel(t *testing.T) *seedModel {
	return &seedModel{t: t, seed: NewDNSSeed(), locs: make(map[p2p.NodeID]geo.Location)}
}

func (m *seedModel) register(id p2p.NodeID, loc geo.Location) {
	m.t.Helper()
	m.seed.Register(id, loc)
	m.locs[id] = loc
	m.checkAll("Register", id)
}

func (m *seedModel) remove(id p2p.NodeID) {
	m.t.Helper()
	m.seed.Remove(id)
	delete(m.locs, id)
	m.checkAll("Remove", id)
}

// checkAll asserts that All lists exactly the model's ids, sorted.
func (m *seedModel) checkAll(op string, id p2p.NodeID) {
	m.t.Helper()
	want := make([]p2p.NodeID, 0, len(m.locs))
	for id := range m.locs {
		want = append(want, id)
	}
	slices.Sort(want)
	if got := m.seed.All(); !slices.Equal(got, want) {
		m.t.Fatalf("after %s(%d): All() = %v, want %v", op, id, got, want)
	}
	if m.seed.Len() != len(want) {
		m.t.Fatalf("after %s(%d): Len() = %d, want %d", op, id, m.seed.Len(), len(want))
	}
}

// checkRecommend compares Recommend with the oracle at k ∈ {0, 1, 64,
// more than Len()}.
func (m *seedModel) checkRecommend(self p2p.NodeID, loc geo.Location) {
	m.t.Helper()
	for _, k := range []int{0, 1, 64, m.seed.Len() + 3} {
		got := m.seed.Recommend(self, loc, k)
		want := referenceRecommend(m.locs, self, loc, k)
		if len(got) != len(want) {
			m.t.Fatalf("Recommend(self=%d, %v, k=%d): %d results, want %d", self, loc.Coord, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				m.t.Fatalf("Recommend(self=%d, %v, k=%d)[%d] = %d, want %d (of %d registered)",
					self, loc.Coord, k, i, got[i], want[i], m.seed.Len())
			}
		}
	}
}

// absentID is never registered, so queries with it as self exclude nobody.
const absentID p2p.NodeID = 0

// edgeLocations are hand-placed points at and near both poles and on
// both sides of the ±180° meridian, plus antipodal pairs.
func edgeLocations() []geo.Location {
	coords := []geo.Coord{
		{LatDeg: 90, LonDeg: 0}, {LatDeg: 90, LonDeg: 135}, {LatDeg: -90, LonDeg: 0}, {LatDeg: -90, LonDeg: -45},
		{LatDeg: 89.9999, LonDeg: 10}, {LatDeg: 89.9999, LonDeg: -170}, {LatDeg: -89.9999, LonDeg: 179.9999},
		{LatDeg: 89.5, LonDeg: 180}, {LatDeg: -89.5, LonDeg: -180},
		{LatDeg: 0, LonDeg: 180}, {LatDeg: 0, LonDeg: -180}, {LatDeg: 0, LonDeg: 179.9999}, {LatDeg: 0, LonDeg: -179.9999},
		{LatDeg: 65.5, LonDeg: -179.99}, {LatDeg: 65.5, LonDeg: 179.99}, {LatDeg: -16.5, LonDeg: 179.5}, {LatDeg: -16.5, LonDeg: -179.5},
		{LatDeg: 45, LonDeg: 0}, {LatDeg: -45, LonDeg: 180}, {LatDeg: 0, LonDeg: 0},
		{LatDeg: 10, LonDeg: 20}, {LatDeg: -10, LonDeg: -160},
	}
	out := make([]geo.Location, len(coords))
	for i, c := range coords {
		out[i] = geo.Location{Coord: c}
	}
	return out
}

// edgePlace draws a point within a degree of a pole or of the ±180°
// meridian.
func edgePlace(r *rand.Rand) geo.Location {
	if r.Intn(2) == 0 {
		lat := 90 - r.Float64()
		if r.Intn(2) == 0 {
			lat = -lat
		}
		return geo.Location{Coord: geo.Coord{LatDeg: lat, LonDeg: 360*r.Float64() - 180}}
	}
	lon := 180 - r.Float64()
	if r.Intn(2) == 0 {
		lon = -lon
	}
	return geo.Location{Coord: geo.Coord{LatDeg: 180*r.Float64() - 90, LonDeg: lon}}
}

func TestDNSSeedRecommendMatchesFullSort(t *testing.T) {
	jittered := geo.DefaultPlacer()
	// Zero jitter puts every node of a city on the same coordinate, so
	// exact distance ties are ordered by the id tie-break alone.
	exact := geo.NewPlacer(geo.WorldCities(), 0)
	edge := func(r *rand.Rand) geo.Location {
		if e := edgeLocations(); r.Intn(3) == 0 {
			return e[r.Intn(len(e))]
		}
		return edgePlace(r)
	}
	for _, tc := range []struct {
		name  string
		place func(*rand.Rand) geo.Location
	}{
		{"default-placer", jittered.Place},
		{"zero-jitter", exact.Place},
		{"poles-antimeridian", edge},
	} {
		place := tc.place
		t.Run(tc.name, func(t *testing.T) {
			for seed, n := range []int{1, 2, 65, 130, 400} {
				r := rand.New(rand.NewSource(int64(seed + 1)))
				m := newSeedModel(t)
				for i := 1; i <= n; i++ {
					m.register(p2p.NodeID(i), place(r))
				}
				for i := 1; i <= n; i += 1 + n/40 {
					m.checkRecommend(p2p.NodeID(i), m.locs[p2p.NodeID(i)])
				}
				for q := 0; q < 20; q++ {
					m.checkRecommend(absentID, place(r))
				}
				for _, loc := range edgeLocations() {
					m.checkRecommend(absentID, loc)
				}
			}
		})
	}

	// On a shared meridian the haversine equals the meridian arc in exact
	// arithmetic, but for this pair the computed distance falls 5e-10 m
	// below the computed arc: without its slack the search bound would
	// stop before reaching id 1.
	t.Run("meridian-rounding", func(t *testing.T) {
		m := newSeedModel(t)
		below := geo.Location{Coord: geo.Coord{LatDeg: -37.24, LonDeg: -78.11}}
		m.register(1, below)
		m.register(2, below)
		m.checkRecommend(absentID, geo.Location{Coord: geo.Coord{LatDeg: -5.6, LonDeg: -78.11}})
	})

	t.Run("churn", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		sources := []func(*rand.Rand) geo.Location{jittered.Place, exact.Place, edgePlace}
		place := func() geo.Location { return sources[r.Intn(len(sources))](r) }
		m := newSeedModel(t)
		next := p2p.NodeID(1)
		for ; next <= 120; next++ {
			m.register(next, place())
		}
		known := func() p2p.NodeID { return m.seed.All()[r.Intn(m.seed.Len())] }
		for op := 0; op < 1500; op++ {
			switch r.Intn(6) {
			case 0: // join under a fresh id
				m.register(next, place())
				next++
			case 1: // rejoin under an id that may have left before
				m.register(1+p2p.NodeID(r.Intn(int(next-1))), place())
			case 2: // move a known node
				m.register(known(), place())
			case 3: // re-register a known node where it already is
				id := known()
				m.register(id, m.locs[id])
			case 4: // leave
				m.remove(known())
			case 5: // forget an unknown id
				m.remove(next + p2p.NodeID(r.Intn(10)))
			}
			if m.seed.Len() < 5 {
				m.register(next, place())
				next++
			}
			id := known()
			m.checkRecommend(id, m.locs[id])
			m.checkRecommend(absentID, place())
		}
	})
}

func TestDNSSeedRejectsInvalidLatitude(t *testing.T) {
	for _, lat := range []float64{90.5, -91} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register at latitude %v did not panic", lat)
				}
			}()
			NewDNSSeed().Register(1, geo.Location{Coord: geo.Coord{LatDeg: lat}})
		}()
	}
}

// BenchmarkDNSSeedRecommend times one k=64 query (BCBPT's default
// 4×Candidates) against a registry of N DefaultPlacer nodes, querying from
// each registered node in turn as the bootstrap precompute does.
func BenchmarkDNSSeedRecommend(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			locs := geo.DefaultPlacer().PlaceN(rand.New(rand.NewSource(1)), n)
			seed := NewDNSSeed()
			for i, loc := range locs {
				seed.Register(p2p.NodeID(i+1), loc)
			}
			query := func(i int) {
				j := i % n
				seed.Recommend(p2p.NodeID(j+1), locs[j], 64)
			}
			for i := 0; i < 500; i++ {
				query(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
		})
	}
}
