package webtier

import (
	"reflect"
	"testing"
	"time"
)

// checkLayout asserts the cluster's lookups against the numbering contract
// spelled out by hand: voters group-major, then readers group-major.
func checkLayout(t *testing.T, c *Cluster, shards, servers, readers int) {
	t.Helper()
	if c.Shards() != shards || c.TotalServers() != shards*(servers+readers) {
		t.Fatalf("%d groups, %d servers; want %d, %d", c.Shards(), c.TotalServers(), shards, shards*(servers+readers))
	}
	for g := 0; g < shards; g++ {
		var voters, rdrs []int
		for m := 0; m < servers; m++ {
			voters = append(voters, g*servers+m)
		}
		for j := 0; j < readers; j++ {
			rdrs = append(rdrs, shards*servers+g*readers+j)
		}
		if got := c.Voters(g); !reflect.DeepEqual(got, voters) {
			t.Errorf("Voters(%d) = %v, want %v", g, got, voters)
		}
		if got := c.Readers(g); !reflect.DeepEqual(got, rdrs) {
			t.Errorf("Readers(%d) = %v, want %v", g, got, rdrs)
		}
		for _, i := range append(voters, rdrs...) {
			if c.GroupOfServer(i) != g {
				t.Errorf("GroupOfServer(%d) = %d, want %d", i, c.GroupOfServer(i), g)
			}
		}
		if n := len(c.groups[g].members) + len(c.groups[g].learners); n != servers+readers {
			t.Errorf("group %d hands Paxos %d node IDs, want %d", g, n, servers+readers)
		}
	}
}

// TestLayoutContract: the records the cluster builds, and those Rebalance
// appends, follow the flat numbering bench/ and the fault selectors index
// by; the proxy's per-server and per-group state grows with them.
func TestLayoutContract(t *testing.T) {
	c := testCluster(t, 3, func(cfg *Config) { cfg.Shards, cfg.Readers = 2, 2 })
	checkLayout(t, c, 2, 3, 2)

	c = shardedTestCluster(t, 2, 3)
	checkLayout(t, c, 2, 3, 0)
	c.Sim().At(c.Sim().Now(), func() { c.Rebalance(RebalanceOptions{}) })
	c.Sim().RunFor(time.Second)
	checkLayout(t, c, 3, 3, 0)
	if len(c.proxy.health) != 9 || len(c.proxy.outages) != 3 {
		t.Errorf("proxy tracks %d servers and %d groups after the rebalance, want 9 and 3",
			len(c.proxy.health), len(c.proxy.outages))
	}
}
