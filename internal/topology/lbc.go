package topology

import (
	"context"
	"fmt"

	"repro/internal/p2p"
)

// LBC is the authors' earlier Locality Based Clustering protocol (the
// paper's ref [6] and the comparison baseline of Fig. 3): peers cluster by
// physical geographic location — the implementation uses the country
// label, matching the paper's remark that BCBPT "aims to have clusters
// based on countries" as LBC does by construction — and keep a small
// number of long-distance links outside the cluster for global
// reachability.
//
// The paper's critique of LBC, which Fig. 3 quantifies, is that two
// geographically close nodes "may be actually quite far from each other in
// the physical internet"; LBC cannot see that, because it never measures
// the links it chooses.
//
// LBC decides only which cluster a node belongs to; the registry and the
// link upkeep are the Membership it shares with BCBPT.
type LBC struct {
	net      *p2p.Network
	seed     *DNSSeed
	clusters *Membership[string]
	// intra is the target number of same-cluster links.
	intra int
}

const (
	// lbcLongLinks is the number of out-of-cluster links per node.
	lbcLongLinks = 2
	// lbcMinCluster is the smallest viable country cluster; smaller
	// countries merge into their continental region cluster.
	lbcMinCluster = 8
)

// NewLBC creates the protocol. Each node targets MaxOutbound-2
// same-cluster links (at least 1) plus 2 long links.
func NewLBC(net *p2p.Network, seed *DNSSeed) *LBC {
	return &LBC{
		net:      net,
		seed:     seed,
		clusters: NewMembership[string](net, net.Streams().Stream("topology/lbc")),
		intra:    max(1, net.Config().MaxOutbound-lbcLongLinks),
	}
}

// Name implements Protocol.
func (t *LBC) Name() string { return "lbc" }

// clusterKey picks the cluster for a node: its country, unless the
// country's population is below lbcMinCluster, in which case the
// continental region.
func (t *LBC) clusterKey(id p2p.NodeID, countryCount map[string]int) string {
	node, ok := t.net.Node(id)
	if !ok {
		return ""
	}
	loc := node.Location()
	if countryCount[loc.Country] >= lbcMinCluster {
		return "country/" + loc.Country
	}
	return "region/" + loc.Region
}

// Bootstrap implements Protocol: group by country (small countries by
// region), then wire intra-cluster plus long links. ctx is polled between
// batches of nodes during the wiring pass.
func (t *LBC) Bootstrap(ctx context.Context, ids []p2p.NodeID) error {
	countryCount := make(map[string]int)
	for _, id := range ids {
		if node, ok := t.net.Node(id); ok {
			t.seed.Register(id, node.Location())
			countryCount[node.Location().Country]++
		}
	}
	for _, id := range ids {
		t.clusters.Assign(id, t.clusterKey(id, countryCount))
	}
	for i, id := range ids {
		if i%bootstrapCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("topology: lbc bootstrap interrupted at node %d of %d: %w", i, len(ids), err)
			}
		}
		t.fill(id)
	}
	return nil
}

// ClusterOf returns the cluster key for a node.
func (t *LBC) ClusterOf(id p2p.NodeID) (string, bool) { return t.clusters.Of(id) }

// Clusters returns a copy of the cluster membership map.
func (t *LBC) Clusters() map[string][]p2p.NodeID { return t.clusters.Snapshot() }

// OnJoin implements Protocol: a new node joins the cluster of its country
// (or region if the country cluster is still too small).
func (t *LBC) OnJoin(id p2p.NodeID) {
	node, ok := t.net.Node(id)
	if !ok {
		return
	}
	loc := node.Location()
	t.seed.Register(id, loc)
	key := "country/" + loc.Country
	if n := len(t.clusters.Members(key)); n < lbcMinCluster {
		if len(t.clusters.Members("region/"+loc.Region)) > 0 || n == 0 {
			key = "region/" + loc.Region
		}
	}
	t.clusters.Assign(id, key)
	t.fill(id)
}

// OnLeave implements Protocol.
func (t *LBC) OnLeave(id p2p.NodeID) {
	t.seed.Remove(id)
	t.clusters.Unassign(id)
}

// OnDisconnect implements Protocol: survivors refill their cluster links.
func (t *LBC) OnDisconnect(a, b p2p.NodeID) {
	if _, ok := t.net.Node(a); ok {
		t.fill(a)
	}
	if _, ok := t.net.Node(b); ok {
		t.fill(b)
	}
}

// fill opens intra-cluster links up to the target, then long links
// ("each node maintains a few long distance links to the outside
// cluster", §IV).
func (t *LBC) fill(id p2p.NodeID) {
	t.clusters.Fill(id, nil, t.intra, lbcLongLinks, t.seed.All())
}
