package webtier

// Layout states the flat server numbering of a deployment, a public
// contract (bench/tpcw.go and exp's fault selectors index by it): the voters
// come first, group-major, and the learner readers follow all of them,
// group-major again. The cluster builds its server records from this rule
// and everything else looks a server up (Voters, Readers, GroupOfServer).
// A group added by Rebalance takes the next Servers indices — the same rule,
// because Rebalance refuses Readers > 0.
type Layout struct{ Shards, Servers, Readers int }

// Voter returns the flat index of voting member m of group g.
func (l Layout) Voter(g, m int) int { return g*l.Servers + m }

// Reader returns the flat index of learner reader j of group g.
func (l Layout) Reader(g, j int) int { return l.Shards*l.Servers + g*l.Readers + j }
