// Package topology defines neighbour-selection protocols for the simulated
// Bitcoin network and implements the two baselines the paper compares
// against:
//
//   - Random: the vanilla Bitcoin behaviour — "a node connects with nodes
//     regardless of any proximity criteria" (§I);
//   - LBC: the authors' earlier Locality Based Clustering protocol [6],
//     which clusters peers by geographic location (country).
//
// The paper's contribution, BCBPT, implements the same Protocol interface
// in internal/core. LBC and BCBPT differ only in how a node picks its
// cluster; both keep their clusters and links in a Membership.
package topology

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/p2p"
)

// Protocol is a neighbour-selection policy driving who connects to whom.
// Implementations receive lifecycle events and edit the overlay through
// p2p.Network.Connect/Disconnect.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Bootstrap wires the initial population (nodes already added to the
	// network). It may schedule virtual-time work; it returns once that
	// work is scheduled (run the network to complete it). Bootstrap does
	// host-time work proportional to the population (wiring, candidate
	// ranking), so it polls ctx and returns an error wrapping ctx.Err()
	// when cancelled mid-way.
	Bootstrap(ctx context.Context, ids []p2p.NodeID) error
	// OnJoin wires a newly arrived node (already added to the network).
	OnJoin(id p2p.NodeID)
	// OnLeave tells the protocol a node is departing, before the network
	// removes it, so registries can forget the node first.
	OnLeave(id p2p.NodeID)
	// OnDisconnect reports a torn-down edge (including those caused by
	// departures); protocols refill degree here.
	OnDisconnect(a, b p2p.NodeID)
}

// DNSSeed is the node-discovery oracle. The paper gives DNS two roles:
// supplying addresses of reachable nodes, and — for BCBPT — recommending
// nodes that are geographically close to the joiner ("DNS service nodes
// should recommend available nodes to the node N based on the proximity in
// the physical geographical location", §IV.B).
//
// The registry keeps two sorted slices alongside the location map, both
// updated in place by Register/Remove: the ID listing All serves, and a
// latitude-ordered index that lets Recommend answer an exact k-nearest
// query by walking outward from the query latitude instead of ranking
// every node.
type DNSSeed struct {
	locs  map[p2p.NodeID]geo.Location
	ids   []p2p.NodeID // sorted by id
	byLat []latEntry   // sorted by (latitude, id)
}

// latEntry is one node of the latitude index.
type latEntry struct {
	id    p2p.NodeID
	coord geo.Coord
}

// NewDNSSeed returns an empty seed registry.
func NewDNSSeed() *DNSSeed {
	return &DNSSeed{locs: make(map[p2p.NodeID]geo.Location)}
}

// Register adds a reachable node, or moves a known one to loc. It panics
// on a latitude outside [-90, 90], for which Recommend's search bound
// would not hold.
func (d *DNSSeed) Register(id p2p.NodeID, loc geo.Location) {
	checkLat(loc.Coord.LatDeg)
	if old, known := d.locs[id]; known {
		i := d.latIndex(old.Coord.LatDeg, id)
		d.byLat = slices.Delete(d.byLat, i, i+1)
	} else {
		i, _ := slices.BinarySearch(d.ids, id)
		d.ids = slices.Insert(d.ids, i, id)
	}
	d.locs[id] = loc
	i := d.latIndex(loc.Coord.LatDeg, id)
	d.byLat = slices.Insert(d.byLat, i, latEntry{id: id, coord: loc.Coord})
}

// Remove forgets a node.
func (d *DNSSeed) Remove(id p2p.NodeID) {
	old, known := d.locs[id]
	if !known {
		return
	}
	delete(d.locs, id)
	i, _ := slices.BinarySearch(d.ids, id)
	d.ids = slices.Delete(d.ids, i, i+1)
	i = d.latIndex(old.Coord.LatDeg, id)
	d.byLat = slices.Delete(d.byLat, i, i+1)
}

// Len returns the number of registered nodes.
func (d *DNSSeed) Len() int { return len(d.ids) }

// All returns every registered node ID, sorted. The slice is shared and
// Register/Remove edit it in place, so it is valid only until the next
// of those calls; callers must not mutate it.
func (d *DNSSeed) All() []p2p.NodeID { return d.ids }

// boundSlackMeters shrinks Recommend's latitude lower bound to absorb
// floating-point rounding in geo.DistanceMeters: about 1e-8 m at
// ordinary distances, and at most ~0.2 m near antipodes, where the
// haversine's final asin is ill-conditioned.
const boundSlackMeters = 1

// Recommend returns up to k registered nodes closest to loc by great-
// circle distance (the "geographical distance calculation methodology" of
// the paper's ref [6]), excluding the given node. Ties break by ID so
// results are deterministic.
//
// The search walks the latitude index outward from loc, always taking the
// side with the smaller latitude gap, and keeps the k best (distance, id)
// pairs in a sorted buffer. Great-circle distance is at least R·|Δφ|, so
// once the buffer is full and the next node's latitude gap alone puts it
// beyond the buffer's worst distance, no unvisited node can rank: the
// result equals a full sort of every candidate.
func (d *DNSSeed) Recommend(self p2p.NodeID, loc geo.Location, k int) []p2p.NodeID {
	lat := loc.Coord.LatDeg
	checkLat(lat)
	k = max(0, min(k, len(d.byLat)))
	best := make([]cand, 0, k+1)
	hi := sort.Search(len(d.byLat), func(i int) bool { return d.byLat[i].coord.LatDeg >= lat })
	lo := hi - 1
	for k > 0 && (lo >= 0 || hi < len(d.byLat)) {
		var e latEntry
		if hi < len(d.byLat) && (lo < 0 || d.byLat[hi].coord.LatDeg-lat <= lat-d.byLat[lo].coord.LatDeg) {
			e = d.byLat[hi]
			hi++
		} else {
			e = d.byLat[lo]
			lo--
		}
		if len(best) == k && meridianBound(e.coord.LatDeg-lat) > best[k-1].d {
			break
		}
		if e.id == self {
			continue
		}
		c := cand{d: geo.DistanceMeters(loc.Coord, e.coord), id: e.id}
		i := len(best)
		for i > 0 && c.less(best[i-1]) {
			i--
		}
		best = slices.Insert(best, i, c)
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]p2p.NodeID, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out
}

// Location returns the registered location of a node.
func (d *DNSSeed) Location(id p2p.NodeID) (geo.Location, bool) {
	loc, ok := d.locs[id]
	return loc, ok
}

// latIndex is the position of (lat, id) in the latitude index, or where
// it would go.
func (d *DNSSeed) latIndex(lat float64, id p2p.NodeID) int {
	return sort.Search(len(d.byLat), func(i int) bool {
		e := d.byLat[i]
		return e.coord.LatDeg > lat || (e.coord.LatDeg == lat && e.id >= id)
	})
}

func checkLat(lat float64) {
	if !(lat >= -90 && lat <= 90) {
		panic(fmt.Sprintf("topology: latitude %v outside [-90, 90]", lat))
	}
}

// meridianBound is a lower bound on the great-circle distance between two
// points dLatDeg degrees of latitude apart: the meridian arc R·|Δφ|,
// shrunk by boundSlackMeters.
func meridianBound(dLatDeg float64) float64 {
	return geo.EarthRadiusMeters*math.Abs(dLatDeg)*math.Pi/180 - boundSlackMeters
}

// cand is one ranked recommendation.
type cand struct {
	d  float64
	id p2p.NodeID
}

func (a cand) less(b cand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.id < b.id
}
