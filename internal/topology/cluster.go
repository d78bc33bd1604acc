package topology

import (
	"math/rand"
	"slices"

	"repro/internal/p2p"
)

// Membership is the cluster overlay LBC and BCBPT share: which cluster
// each node belongs to, and the links every member keeps — peers inside
// its cluster plus "a few long distance links to the outside cluster"
// (§IV). The two protocols differ only in how a node picks its cluster
// (LBC by country label, BCBPT by measured ping time), and that rule
// stays with each protocol; K is its cluster key.
//
// Member lists are kept sorted by ID, so random draws over them depend
// only on the membership, never on the order nodes joined in.
type Membership[K comparable] struct {
	net *p2p.Network
	// r is the owning protocol's RNG stream; Fill draws from it.
	r       *rand.Rand
	of      map[p2p.NodeID]K
	members map[K][]p2p.NodeID
}

// NewMembership returns an empty registry whose Fill connects nodes of
// net, drawing random choices from r.
func NewMembership[K comparable](net *p2p.Network, r *rand.Rand) *Membership[K] {
	return &Membership[K]{
		net:     net,
		r:       r,
		of:      make(map[p2p.NodeID]K),
		members: make(map[K][]p2p.NodeID),
	}
}

// Assign moves id into cluster k, leaving its previous cluster if any.
func (m *Membership[K]) Assign(id p2p.NodeID, k K) {
	m.Unassign(id)
	m.of[id] = k
	ids := m.members[k]
	i, _ := slices.BinarySearch(ids, id)
	m.members[k] = slices.Insert(ids, i, id)
}

// Unassign removes id from its cluster; a cluster left empty is dropped.
func (m *Membership[K]) Unassign(id p2p.NodeID) {
	k, ok := m.of[id]
	if !ok {
		return
	}
	delete(m.of, id)
	ids := m.members[k]
	if i, found := slices.BinarySearch(ids, id); found {
		ids = slices.Delete(ids, i, i+1)
	}
	if len(ids) == 0 {
		delete(m.members, k)
	} else {
		m.members[k] = ids
	}
}

// Of returns the cluster of id.
func (m *Membership[K]) Of(id p2p.NodeID) (K, bool) {
	k, ok := m.of[id]
	return k, ok
}

// Members returns cluster k's members, sorted. The slice is shared and
// valid only until the next Assign or Unassign; callers must not mutate
// it.
func (m *Membership[K]) Members(k K) []p2p.NodeID { return m.members[k] }

// Len returns how many nodes are in some cluster.
func (m *Membership[K]) Len() int { return len(m.of) }

// Snapshot returns a copy of the cluster -> members map.
func (m *Membership[K]) Snapshot() map[K][]p2p.NodeID {
	out := make(map[K][]p2p.NodeID, len(m.members))
	for k, v := range m.members {
		out[k] = slices.Clone(v)
	}
	return out
}

// Fill tops up a clustered node's links: first to the preferred nodes
// that are in its cluster, in order, until it has intra same-cluster
// peers; then to random cluster members, up to intra or the cluster's
// size; then to random nodes of all outside the cluster, up to long
// links. Each random phase gives up after ten draws per wanted link.
// Unclustered or departed nodes are left alone.
func (m *Membership[K]) Fill(id p2p.NodeID, preferred []p2p.NodeID, intra, long int, all []p2p.NodeID) {
	node, ok := m.net.Node(id)
	if !ok {
		return
	}
	k, ok := m.of[id]
	if !ok {
		return
	}
	for _, p := range preferred {
		if m.intraCount(node, k) >= intra {
			break
		}
		if pk, ok := m.of[p]; ok && pk == k {
			_ = m.net.Connect(id, p)
		}
	}
	mates := m.members[k]
	target := min(intra, len(mates)-1)
	for attempts := 0; m.intraCount(node, k) < target && attempts < 10*intra; attempts++ {
		if p := mates[m.r.Intn(len(mates))]; p != id {
			_ = m.net.Connect(id, p)
		}
	}
	for attempts := 0; node.NumPeers()-m.intraCount(node, k) < long && attempts < 10*long; attempts++ {
		p := all[m.r.Intn(len(all))]
		if pk, ok := m.of[p]; p == id || (ok && pk == k) {
			continue
		}
		_ = m.net.Connect(id, p)
	}
}

// intraCount counts node's peers in cluster k. EachPeer keeps the scan
// allocation-free: it runs once per connect attempt.
func (m *Membership[K]) intraCount(node *p2p.Node, k K) int {
	c := 0
	node.EachPeer(func(p p2p.NodeID) bool {
		if pk, ok := m.of[p]; ok && pk == k {
			c++
		}
		return true
	})
	return c
}
