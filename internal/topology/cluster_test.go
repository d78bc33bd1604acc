package topology

import (
	"slices"
	"testing"

	"repro/internal/p2p"
)

func TestMembershipRegistry(t *testing.T) {
	net, _ := buildNetwork(t, 0, 1)
	m := NewMembership[string](net, net.Streams().Stream("test"))
	for _, id := range []p2p.NodeID{9, 3, 7, 1} {
		m.Assign(id, "a")
	}
	m.Assign(5, "b")
	if got := m.Members("a"); !slices.Equal(got, []p2p.NodeID{1, 3, 7, 9}) {
		t.Fatalf("Members(a) = %v, want sorted [1 3 7 9]", got)
	}
	m.Assign(3, "b") // move
	if got := m.Members("b"); !slices.Equal(got, []p2p.NodeID{3, 5}) {
		t.Fatalf("after move Members(b) = %v, want [3 5]", got)
	}
	if k, ok := m.Of(3); !ok || k != "b" {
		t.Fatalf("Of(3) = %q, %v; want b, true", k, ok)
	}
	snap := m.Snapshot()
	snap["a"][0] = 99
	m.Unassign(5)
	m.Unassign(3)
	m.Unassign(42) // unknown: no-op
	if _, ok := m.Snapshot()["b"]; ok {
		t.Error("emptied cluster b still listed")
	}
	if got := m.Members("a"); !slices.Equal(got, []p2p.NodeID{1, 7, 9}) {
		t.Errorf("Members(a) = %v, want [1 7 9] (Snapshot must copy)", got)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
}

func TestMembershipFill(t *testing.T) {
	net, ids := buildNetwork(t, 60, 2)
	m := NewMembership[int](net, net.Streams().Stream("test"))
	clustered := ids[1:] // ids[0] stays unclustered
	for i, id := range clustered {
		m.Assign(id, 1+i%3)
	}
	self := ids[1] // cluster 1
	outsider := ids[2]
	inside := ids[4] // cluster 1, offered first
	m.Fill(self, []p2p.NodeID{outsider, inside}, 4, 2, clustered)

	node, _ := net.Node(self)
	if !slices.Contains(node.Peers(), inside) {
		t.Error("preferred same-cluster node not connected")
	}
	intra, long := 0, 0
	for _, p := range node.Peers() {
		if k, _ := m.Of(p); k == 1 {
			intra++
		} else {
			long++
		}
	}
	if intra != 4 || long != 2 {
		t.Errorf("intra=%d long=%d, want 4 and 2", intra, long)
	}

	// A full node draws nothing and allocates nothing.
	allocs := testing.AllocsPerRun(100, func() { m.Fill(self, nil, 4, 2, clustered) })
	if allocs != 0 {
		t.Errorf("Fill on a full node: %v allocs, want 0", allocs)
	}

	// Fill leaves an unclustered node alone.
	m.Fill(ids[0], nil, 4, 2, clustered)
	if n, _ := net.Node(ids[0]); n.NumPeers() != 0 {
		t.Errorf("unclustered node got %d peers", n.NumPeers())
	}
}
