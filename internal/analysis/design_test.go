package analysis_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"robuststore/internal/analysis"
)

// A designRule is one rule of the design that tier-1 holds: a shape the code
// must keep or must not take, stated by type and object rather than by
// spelling, so a rename, an import alias or a reformat cannot get past it.
type designRule struct {
	name string
	// step is the CI step whose grep, sed or awk lines the rule replaced,
	// or, for a rule added since, the design it holds.
	step  string
	check func(c *ctx)
	// forbidden are edits that each give the real tree the shape the rule
	// forbids; the rule must report on every one (mutation analysis: a check
	// never seen failing proves nothing).
	forbidden []edit
}

// An edit replaces old, which must occur exactly once, by new in file
// (relative to the repository root), in memory. An edit with no old text
// appends new to file, or creates file at the root when there is none.
type edit struct{ file, old, new string }

// TestDesignRules holds the design rules of designRules on the tree, and
// shows each failing on its negative cases: every edit is applied in memory
// to the file it names, the package is type-checked again, and the rule
// must report it, naming the identifier and its position.
func TestDesignRules(t *testing.T) {
	tr := loadTree(t)
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range tr.check(t, r) {
				t.Error(f)
			}
			if len(r.forbidden) == 0 {
				t.Error("the rule has no negative case")
			}
			for _, e := range r.forbidden {
				found := tr.with(t, e).check(t, r)
				if len(found) == 0 {
					t.Errorf("reports nothing on its negative case: %s with %q in place of %q", e.file, e.new, e.old)
				}
				for _, f := range found {
					t.Logf("negative case in %s: %s", e.file, f)
				}
			}
		})
	}
}

const modulePath = "robuststore/"

var designRules = []designRule{
	{
		name: "2PC records are built in core and webtier alone",
		step: "One transaction coordinator",
		check: func(c *ctx) {
			c.each("...", func(s *spot, n ast.Node) {
				if lit, ok := n.(*ast.CompositeLit); ok && s.dir != "internal/core" && s.dir != "internal/webtier" &&
					named(deref(s.typeOf(lit)), "internal/core", "TxnPrepare", "TxnDecision") {
					s.report(lit, "builds a %s", s.typeOf(lit))
				}
			})
		},
		forbidden: []edit{{"internal/shard/scaling.go",
			"\"robuststore/internal/sim\"\n)\n",
			"\"robuststore/internal/sim\"\n\tcx \"robuststore/internal/core\"\n)\n\nvar _ = cx.TxnPrepare{}\n"}},
	},
	{
		name: "the link-fault state is declared in netfault alone",
		step: "Link-fault table defined once",
		check: func(c *ctx) {
			var handles, maps int
			linkState := func(s *spot, n ast.Node) {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if n.Name.Name != "Handle" || !isStruct(s, n.Type) {
						return
					}
					if s.dir != "internal/netfault" {
						s.report(n, "declares a Handle struct outside netfault")
					} else if s.pkg != nil {
						handles++
					}
				case *ast.MapType:
					if typeName(s, n.Key) != "linkKey" {
						return
					}
					if s.dir != "internal/netfault" {
						s.report(n, "declares a map keyed by linkKey outside netfault")
					} else if s.pkg != nil {
						maps++
					}
				}
			}
			c.each("...", linkState)
			c.eachTest("...", linkState)
			if handles == 0 || maps == 0 {
				c.errorf("netfault no longer declares Handle and its map[linkKey]: restate the rule")
			}
		},
		forbidden: []edit{
			{"internal/sim/net.go", "type NetConfig struct {", "type Handle struct{ heal func() }\n\ntype NetConfig struct {"},
			{"internal/sim/net.go", "type NetConfig struct {", "type linkKey struct{ a, b int }\n\nvar _ map[linkKey]bool\n\ntype NetConfig struct {"},
			{"internal/exp/overlap_test.go", "", "type Handle struct{ heal func() }"},
		},
	},
	{
		name: "a link fault has no setter beside Table.Open",
		step: "Link-fault table defined once",
		check: func(c *ctx) {
			c.each("internal/...", func(s *spot, n ast.Node) {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && slices.Contains(
					[]string{"SetLink", "SetLinkLoss", "SetLinkDelay", "Partition", "PartitionDir"}, fd.Name.Name) {
					s.report(fd.Name, "declares the per-link setter %s", s.decl)
				}
			})
		},
		forbidden: []edit{{"internal/netfault/netfault.go", "func (t *Table) Open(",
			"func (tb Table) SetLinkLoss(from, to env.NodeID, p float64) {}\n\nfunc (t *Table) Open("}},
	},
	{
		name: "tpcw records a write in the table's dirty bitmap alone",
		step: "Dirty rows and checkpoint envelope recorded once",
		check: func(c *ctx) {
			mark := regexp.MustCompile(`^(mark[A-Z]\w*|killCart)$`)
			marks := func(s *spot, n ast.Node) {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == "storeDirty" {
						s.report(n, "names storeDirty")
					}
				case *ast.CallExpr:
					if name := calleeName(s, n); mark.MatchString(name) {
						s.report(n, "calls %s, a per-action mark", name)
					}
				}
			}
			c.each("internal/tpcw", marks)
			c.eachTest("internal/tpcw", marks)
		},
		forbidden: []edit{{"internal/tpcw/actions.go", "",
			"func (st *Store) markOrder(id OrderID) {}\n\nfunc (st *Store) touch(id OrderID) { st.markOrder(id) }"}},
	},
	{
		name: "core has one checkpoint envelope constructor",
		step: "Dirty rows and checkpoint envelope recorded once",
		check: func(c *ctx) {
			copies := func(s *spot, n ast.Node) {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && typeName(s, fd.Recv.List[0].Type) == "Replica" &&
					(strings.HasPrefix(fd.Name.Name, "copyImported") || strings.HasPrefix(fd.Name.Name, "copyTxn")) {
					s.report(fd.Name, "declares %s, a copy helper per map", s.decl)
				}
			}
			c.each("internal/core", copies)
			c.eachTest("internal/core", copies)
		},
		forbidden: []edit{{"internal/core/txn.go", "", "func (rep Replica) copyTxnState() {}"}},
	},
	{
		name: "server arithmetic lives in webtier/layout.go",
		step: "Server layout and fault kinds stated once",
		check: func(c *ctx) {
			servers := func(s *spot, x ast.Expr) {
				x = ast.Unparen(x)
				if call, ok := x.(*ast.CallExpr); ok {
					x = call.Fun
				}
				var id *ast.Ident
				switch x := x.(type) {
				case *ast.Ident:
					id = x
				case *ast.SelectorExpr:
					id = x.Sel
				}
				if id != nil && s.objOf(id) != nil && strings.HasSuffix(id.Name, "Servers") {
					s.report(x, "multiplies or divides by %s outside webtier/layout.go", id.Name)
				}
			}
			arith := func(s *spot, n ast.Node) {
				if s.file == "internal/webtier/layout.go" {
					return
				}
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.MUL || n.Op == token.QUO {
						servers(s, n.X)
						servers(s, n.Y)
					}
				case *ast.AssignStmt:
					if n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN {
						servers(s, n.Lhs[0])
						servers(s, n.Rhs[0])
					}
				}
			}
			c.each("internal/...", arith)
			c.each("cmd/...", arith)
		},
		forbidden: []edit{{"internal/exp/run.go", "c.Servers = 5", "c.Servers = 5 * (c.Servers)"}},
	},
	{
		name: "a group's report carries no per-kind fault field",
		step: "Server layout and fault kinds stated once",
		check: func(c *ctx) {
			kind := regexp.MustCompile(`(Partition|Degraded|Loss|Gray|Delay)Sec|Partitions|Degradations|(Loss|Gray|Delay)Windows`)
			c.each("internal/metrics", func(s *spot, n ast.Node) {
				if id, ok := n.(*ast.Ident); ok && kind.MatchString(id.Name) {
					s.report(id, "names %s, a per-kind fault figure", id.Name)
				}
			})
		},
		forbidden: []edit{{"internal/metrics/metrics.go", "\tCrashes         int\n", "\tCrashes         int\n\tGrayWindows int\n"}},
	},
	{
		name: "core has one checkpoint layout",
		step: "One checkpoint layout",
		check: func(c *ctx) {
			gone := regexp.MustCompile(`FullCheckpoints|DisableRemoteSnapshot|HasBase`)
			c.each("internal/core", func(s *spot, n ast.Node) {
				switch n := n.(type) {
				case *ast.Ident:
					if gone.MatchString(n.Name) {
						s.report(n, "names %s", n.Name)
					}
				case *ast.BasicLit, *ast.BinaryExpr:
					if v := s.pkg.TypesInfo.Types[n.(ast.Expr)].Value; v != nil && v.Kind() == constant.String && constant.StringVal(v) == "app" {
						s.report(n, `spells the monolithic "app" snapshot's name`)
					}
				case *ast.FuncDecl:
					if n.Recv != nil && slices.Contains([]string{"checkpointLayered", "loadChain", "serveLayered"}, n.Name.Name) {
						s.report(n.Name, "declares %s, a second checkpoint path", s.decl)
					}
				}
			})
		},
		forbidden: []edit{
			{"internal/core/delta.go", "", "const appSnapshot = \"ap\" + \"p\""},
			{"internal/core/delta.go", "", "func (rp *Replica) loadChain() {}"},
			{"internal/core/replica.go", "type Replica struct {\n", "type Replica struct {\n\tHasBaseLayer bool\n"},
		},
	},
	{
		name: "exp sizes a run by RunConfig alone",
		step: "A run is sized and windowed once",
		check: func(c *ctx) {
			suites := []string{"ScaleConfig", "ReadScaleConfig", "ShardedSuiteConfig", "CheckpointCurveConfig"}
			configs := func(s *spot, n ast.Node) {
				if ts, ok := n.(*ast.TypeSpec); ok && slices.Contains(suites, ts.Name.Name) && isStruct(s, ts.Type) {
					s.report(ts, "declares %s beside RunConfig", ts.Name.Name)
				}
			}
			c.each("internal/exp", configs)
			c.eachTest("internal/exp", configs)
		},
		forbidden: []edit{{"internal/exp/run.go", "", "type ScaleConfig RunConfig"}},
	},
	{
		name: "exp computes performability in ledger windows, at most three calls",
		step: "A run is sized and windowed once",
		check: func(c *ctx) {
			var calls []*ast.CallExpr
			var at []*spot
			c.each("internal/exp", func(s *spot, n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok && isMethod(s.callee(call), "internal/metrics", "Recorder", "ComputePerformability") {
					calls = append(calls, call)
					sp := *s
					at = append(at, &sp)
				}
			})
			if len(calls) > 3 {
				for i, call := range calls {
					at[i].report(call, "one of %d calls of ComputePerformability; the ledger's windows allow 3", len(calls))
				}
			}
		},
		forbidden: []edit{{"internal/exp/run.go", "p = rec.ComputePerformability(ff, w)\n",
			"p = rec.ComputePerformability(ff, w)\n\t\t\tp = rec.ComputePerformability(nil, w)\n"}},
	},
	{
		name: "exp memoises a run under its printed config, with no hand-kept key",
		step: "A run is sized and windowed once",
		check: func(c *ctx) {
			keys := func(s *spot, n ast.Node) {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "key" && fd.Recv != nil &&
					slices.Contains([]string{"RunConfig", "Faultload", "Selector"}, typeName(s, fd.Recv.List[0].Type)) {
					s.report(fd.Name, "declares %s", s.decl)
				}
			}
			c.each("internal/exp", keys)
			c.eachTest("internal/exp", keys)
		},
		forbidden: []edit{{"internal/exp/run.go", "", "func (cfg *RunConfig) key() string { return \"\" }"}},
	},
	{
		name: "exp writes a report through the renderer alone",
		step: "Every printed number is a typed cell: a report is cells and layout, and one renderer writes it",
		check: func(c *ctx) {
			// The exemptions: runEntries writes each entry's "== name =="
			// header and copies the sections out in table order; render
			// writes a report and Format a cell.
			c.only("internal/exp", "write to a writer", false, []string{"runEntries", "report.render", "cell.Format"},
				func(s *spot, n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return false
					}
					fn, ok := s.callee(call).(*types.Func)
					switch {
					case !ok || fn.Pkg() == nil:
						return false
					case fn.Type().(*types.Signature).Recv() != nil:
						return fn.Name() == "Write" || fn.Name() == "WriteString"
					}
					return slices.Contains([]string{"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln", "io.WriteString"},
						fn.Pkg().Path()+"."+fn.Name())
				})
		},
		forbidden: []edit{
			{"internal/exp/format.go", "", "func printAblation(w interface{ Write([]byte) (int, error) }, a AblationResult) {\n\tfmt.Fprintf(w, \"Ablation %s:\\n\", a.Name)\n}"},
			{"internal/exp/format.go", "", "func printRaw(w interface{ Write([]byte) (int, error) }, b []byte) { w.Write(b) }"},
			{"internal/exp/table.go", "", "func header(w io.Writer, name string) { io.WriteString(w, \"== \"+name+\" ==\\n\") }"},
		},
	},
	{
		name: "paxos keeps no per-instance map of ballots, votes or values",
		step: "The log is one window",
		check: func(c *ctx) {
			c.each("internal/paxos", func(s *spot, n ast.Node) {
				if mt, ok := n.(*ast.MapType); ok && named(s.typeOf(mt.Key), "internal/paxos", "InstanceID") &&
					named(deref(s.typeOf(mt.Value)), "internal/paxos", "Ballot", "acceptedInfo", "Value") {
					s.report(mt, "declares a %s beside the instance log", s.typeOf(mt))
				}
			})
		},
		forbidden: []edit{{"internal/paxos/engine.go", "\tpromised   Ballot\n", "\tpromised   Ballot\n\tbyInst     map[InstanceID]*Value\n"}},
	},
	{
		name: "a storage keeps no record slice beside its window",
		step: "The log is one window",
		check: func(c *ctx) {
			records := func(s *spot, n ast.Node) {
				id, ok := n.(*ast.Ident)
				if !ok {
					return
				}
				v, ok := s.pkg.TypesInfo.Defs[id].(*types.Var)
				if !ok {
					return
				}
				if sl, ok := v.Type().(*types.Slice); ok && named(deref(sl.Elem()), "internal/env", "Record") &&
					(v.IsField() || v.Parent() == s.pkg.Types.Scope() || v.Name() == "records") {
					s.report(id, "keeps %s %s beside the WAL window", v.Name(), v.Type())
				}
			}
			c.each("internal/sim", records)
			c.each("internal/livenet", records)
		},
		forbidden: []edit{{"internal/sim/storage.go", "type diskStorage struct {\n", "type diskStorage struct {\n\trecs []env.Record\n"}},
	},
	{
		name: "the coordinator keeps no map keyed by instance",
		step: "The log is one window",
		check: func(c *ctx) {
			st := c.lookup("internal/paxos", "leaderState").Type().Underlying().(*types.Struct)
			for f := range st.Fields() {
				if m, ok := f.Type().Underlying().(*types.Map); ok && named(m.Key(), "internal/paxos", "InstanceID") {
					c.reportObj("internal/paxos", f, "leaderState.%s is a %s", f.Name(), f.Type())
				}
			}
		},
		forbidden: []edit{{"internal/paxos/leader.go", "\tfree    []*instState\n", "\tfree    []*instState\n\tprops   map[InstanceID]ValueID\n"}},
	},
	{
		name: "the coordinator's records have one free list",
		step: "The log is one window",
		check: func(c *ctx) {
			lists := regexp.MustCompile(`freeVotes|freeProps|freeRecs`)
			c.each("internal/paxos", func(s *spot, n ast.Node) {
				switch n := n.(type) {
				case *ast.Ident:
					if lists.MatchString(n.Name) {
						s.report(n, "names %s, a per-part free list", n.Name)
					}
				case *ast.FuncDecl:
					if n.Name.Name == "take" {
						s.report(n.Name, "declares take, a per-part free-list helper")
					}
				}
			})
		},
		forbidden: []edit{{"internal/paxos/leader.go", "", "func take[T any](free *[]T) T { x := (*free)[0]; *free = (*free)[1:]; return x }"}},
	},
	{
		name: "a log slot holds no value, vote or announcement of its own",
		step: "A vote, a decision and a timer are held once",
		check: func(c *ctx) {
			st := c.lookup("internal/paxos", "slot").Type().Underlying().(*types.Struct)
			for f := range st.Fields() {
				if named(f.Type(), "internal/paxos", "Value", "acceptedInfo", "acceptedMsg", "chosenMsg") {
					c.reportObj("internal/paxos", f, "slot.%s holds a %s by value", f.Name(), f.Type())
				}
			}
		},
		forbidden: []edit{{"internal/paxos/engine.go", "\tchosen *Value\n", "\tchosen *Value\n\tvalue  Value\n"}},
	},
	{
		name: "votes, announcements, accepts and pings are built by address",
		step: "A vote, a decision and a timer are held once",
		check: func(c *ctx) {
			c.each("internal/paxos", func(s *spot, n ast.Node) {
				if lit, ok := n.(*ast.CompositeLit); ok && named(s.typeOf(lit), "internal/paxos", "acceptedMsg", "chosenMsg", "acceptMsg", "pingMsg") &&
					!s.addressed(lit) {
					s.report(lit, "builds a %s by value: a literal handed to Send is boxed per send", s.typeOf(lit))
				}
			})
		},
		forbidden: []edit{{"internal/paxos/engine.go", "", "func pingAll(e env.Env, to []env.NodeID) {\n\tfor _, p := range to {\n\t\tm := pingMsg{}\n\t\te.Send(p, &m)\n\t}\n}"}},
	},
	{
		name: "an armed timer is not an event",
		step: "A vote, a decision and a timer are held once",
		check: func(c *ctx) {
			c.each("internal/sim", func(s *spot, n ast.Node) {
				if id, ok := n.(*ast.Ident); ok && id.Name == "evTimer" {
					s.report(id, "names evTimer, a timer event kind")
				}
			})
			c.each("internal/sim/queue.go", func(s *spot, n ast.Node) {
				if st, ok := n.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						if named(deref(s.typeOf(f.Type)), "internal/sim", "simTimer") {
							s.report(f, "%s holds a %s", s.decl, s.typeOf(f.Type))
						}
					}
				}
			})
		},
		forbidden: []edit{{"internal/sim/queue.go", "\tkind eventKind\n", "\tkind eventKind\n\tt    *simTimer\n"}},
	},
	{
		name: "a decision is announced to the others, not to this node",
		step: "A decision is announced once",
		check: func(c *ctx) {
			me := c.member("internal/paxos", "Engine", "me")
			broadcast := c.member("internal/paxos", "Engine", "broadcast")
			guarded := false
			c.each("internal/paxos", func(s *spot, n ast.Node) {
				if s.decl != "Engine.choose" && s.decl != "Engine.announceChosen" {
					return
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					switch fn := s.callee(n); {
					case fn == broadcast:
						s.report(n, "%s broadcasts, this node included", s.decl)
					case fn != nil && fn.Name() == "Send" && len(n.Args) > 0 && s.selects(n.Args[0], me):
						s.report(n, "%s sends to this node (Engine.me)", s.decl)
					}
				case *ast.BinaryExpr:
					if n.Op == token.NEQ && s.decl == "Engine.announceChosen" && (s.selects(n.X, me) || s.selects(n.Y, me)) {
						guarded = true
					}
				}
			})
			if !guarded {
				c.reportObj("internal/paxos", c.member("internal/paxos", "Engine", "announceChosen"),
					"Engine.announceChosen no longer leaves Engine.me out of the members it sends to")
			}
		},
		forbidden: []edit{
			{"internal/paxos/leader.go", "func (en *Engine) announceChosen(inst InstanceID, v *Value) {\n\tm := en.announces.Next()\n",
				"func (eng *Engine) announceChosen(inst InstanceID, v *Value) {\n\ten := eng\n\tm := en.announces.Next()\n\teng.e.Send(eng.me, m)\n"},
			{"internal/paxos/leader.go", "\t\tif p != en.me {\n\t\t\ten.e.Send(p, m)", "\t\tif p != -1 {\n\t\t\ten.e.Send(p, m)"},
			{"internal/paxos/leader.go", "\ten.announceChosen(inst, v)\n", "\ten.broadcast(&chosenMsg{Inst: inst, V: v})\n"},
		},
	},
	{
		name: "every recovery prefers the value placed nowhere else",
		step: "A collision's loser is placed",
		check: func(c *ctx) {
			placed := c.member("internal/paxos", "Engine", "placedElsewhere")
			c.only("internal/paxos", "call of placedElsewhere", true,
				[]string{"Engine.establish", "Engine.onRecInfo", "Engine.recoverFromVotes"},
				func(s *spot, n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					return ok && s.callee(call) == placed
				})
		},
		forbidden: []edit{{"internal/paxos/leader.go", "selectValue(reports, len(reports), en.n, en.placedElsewhere(inst))",
			"selectValue(reports, len(reports), en.n, nil)"}},
	},
	{
		name: "a recovery round is built by Ballot.recovery alone",
		step: "A fast round's recovery skips phase 1",
		check: func(c *ctx) {
			rec := c.member("internal/paxos", "Ballot", "Rec")
			c.only("internal/paxos", "recovery ballot (Rec set to true)", true, []string{"Ballot.recovery"},
				func(s *spot, n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := deref(s.typeOf(n)).Underlying().(*types.Struct)
						if !ok || !named(deref(s.typeOf(n)), "internal/paxos", "Ballot") {
							return false
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if s.objOf(kv.Key.(*ast.Ident)) == rec && s.isTrue(kv.Value) {
									return true
								}
							} else if st.Field(i) == rec && s.isTrue(el) {
								return true
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							if s.selects(lhs, rec) && i < len(n.Rhs) && s.isTrue(n.Rhs[i]) {
								return true
							}
						}
					}
					return false
				})
		},
		forbidden: []edit{{"internal/paxos/types.go", "", "func recoveryOf(b Ballot) Ballot { return Ballot{b.Seq, false, true} }"}},
	},
	{
		name: "the fast-quorum test is written once, in fastPossible",
		step: "A fast quorum leaves an acceptor out",
		check: func(c *ctx) {
			alive := c.member("internal/paxos", "Engine", "aliveCount")
			quorum := c.lookup("internal/paxos", "FastQuorum")
			calls := func(s *spot, x ast.Expr, fn types.Object) bool {
				call, ok := ast.Unparen(x).(*ast.CallExpr)
				return ok && s.callee(call) == fn
			}
			c.only("internal/paxos", "comparison of aliveCount with FastQuorum", true, []string{"Engine.fastPossible"},
				func(s *spot, n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					return ok && slices.Contains([]token.Token{token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ}, b.Op) &&
						(calls(s, b.X, alive) && calls(s, b.Y, quorum) || calls(s, b.X, quorum) && calls(s, b.Y, alive))
				})
		},
		forbidden: []edit{{"internal/paxos/leader.go", "func (en *Engine) leaderSweep(now time.Time) {\n",
			"func (en *Engine) leaderSweep(now time.Time) {\n\tif FastQuorum(en.n) <= en.aliveCount() {\n\t\treturn\n\t}\n"}},
	},
	{
		name: "the peers' restore signal is kept by onPing and read by fastPossible",
		step: "A fast quorum leaves an acceptor out",
		check: func(c *ctx) {
			c.usedIn("internal/paxos", c.member("internal/paxos", "Engine", "peerRestoring"), "New", "Engine.fastPossible", "Engine.onPing")
		},
		forbidden: []edit{{"internal/paxos/leader.go", "func (en *Engine) leaderSweep(now time.Time) {\n",
			"func (en *Engine) leaderSweep(now time.Time) {\n\tif len(en.peerRestoring) > 0 {\n\t\treturn\n\t}\n"}},
	},
	{
		name: "this node's restore signal is set, sent, reported and read by fastPossible",
		step: "A fast quorum leaves an acceptor out",
		check: func(c *ctx) {
			c.usedIn("internal/paxos", c.member("internal/paxos", "Engine", "restoring"),
				"Engine.Restoring", "Engine.SetRestoring", "Engine.fastPossible", "Engine.sendPing")
		},
		forbidden: []edit{{"internal/paxos/leader.go", "", "func (e2 *Engine) classicWhileRestoring() bool { return e2.restoring }"}},
	},
	{
		name: "the acceptor reads one floor, votesFrom",
		step: "The acceptor reads one floor",
		check: func(c *ctx) {
			floors := []types.Object{c.member("internal/paxos", "Engine", "retainedFrom"), c.member("internal/paxos", "Engine", "voteFloor")}
			c.each("internal/paxos/acceptor.go", func(s *spot, n ast.Node) {
				if id, ok := n.(*ast.Ident); ok && slices.Contains(floors, s.objOf(id)) {
					s.report(id, "%s reads Engine.%s", s.decl, id.Name)
				}
			})
		},
		forbidden: []edit{{"internal/paxos/acceptor.go", "if m.Inst < en.votesFrom() {", "if m.Inst < en.retainedFrom {"}},
	},
	{
		name: "the whole-group-restart repro runs with no skip",
		step: "The acceptor reads one floor",
		check: func(c *ctx) {
			c.eachTest("internal/paxos/log_test.go", func(s *spot, n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok && slices.Contains([]string{"Skip", "Skipf", "SkipNow"}, calleeName(s, call)) {
					s.report(call, "%s skips", s.decl)
				}
			})
		},
		forbidden: []edit{{"internal/paxos/log_test.go", "\nfunc TestRestartAboveVoteFloor(t *testing.T) {\n",
			"\nfunc TestRestartAboveVoteFloor(t *testing.T) {\n\tt.SkipNow()\n"}},
	},
	{
		name: "the runnable programs are core's Example, not an examples tree",
		step: "The acceptor reads one floor",
		check: func(c *ctx) {
			if slices.Contains(c.entries, "examples") {
				c.errorf("examples: the runnable programs are core's Example")
			}
		},
		forbidden: []edit{{file: "examples"}},
	},
	{
		name: "the proxy keeps no admission policy",
		step: "One write-admission gate",
		check: func(c *ctx) {
			c.each("internal/webtier/proxy.go", func(s *spot, n ast.Node) {
				if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "Admission") {
					s.report(id, "the proxy names %s", id.Name)
				}
			})
		},
		forbidden: []edit{{"internal/webtier/proxy.go", "type Proxy struct {\n", "type Proxy struct {\n\tmaxAdmission int\n"}},
	},
	{
		name: "core publishes no admission grade",
		step: "One write-admission gate",
		check: func(c *ctx) {
			grade := regexp.MustCompile(`AdmissionHint|pubAdmission|FreezePublish`)
			names := func(s *spot, n ast.Node) {
				if id, ok := n.(*ast.Ident); ok && grade.MatchString(id.Name) {
					s.report(id, "core names %s", id.Name)
				}
			}
			c.each("internal/core", names)
			c.eachTest("internal/core", names)
		},
		forbidden: []edit{{"internal/core/replica.go", "type Replica struct {\n", "type Replica struct {\n\tpubAdmission int\n"}},
	},
	{
		name: "paxos derives its admission triggers and takes none as config",
		step: "One write-admission gate",
		check: func(c *ctx) {
			st := c.lookup("internal/paxos", "Config").Type().Underlying().(*types.Struct)
			for f := range st.Fields() {
				if strings.HasPrefix(f.Name(), "Admission") {
					c.reportObj("internal/paxos", f, "paxos.Config.%s", f.Name())
				}
			}
		},
		forbidden: []edit{{"internal/paxos/engine.go", "\tFastEnabled bool\n", "\tFastEnabled bool\n\tAdmissionSlowdown int\n"}},
	},
	{
		name: "the simulator loses messages per link only",
		step: "One write-admission gate",
		check: func(c *ctx) {
			nc := c.lookup("internal/sim", "NetConfig")
			if f, _, _ := types.LookupFieldOrMethod(nc.Type(), false, nc.Pkg(), "DropRate"); f != nil {
				c.reportObj("internal/sim", f, "sim.NetConfig.DropRate: a cluster-wide loss rate beside the per-link faults")
			}
		},
		forbidden: []edit{{"internal/sim/net.go", "\tJitter float64\n", "\tJitter float64\n\n\tDropRate float64\n"}},
	},
	{
		name: "tpcw keeps no whole Item or Customer by pointer",
		step: "A write copies only the head",
		check: func(c *ctx) {
			c.each("internal/tpcw", func(s *spot, n ast.Node) {
				if x, ok := n.(ast.Expr); ok {
					if p, ok := s.typeOf(x).(*types.Pointer); ok && named(p.Elem(), "internal/tpcw", "Item", "Customer") {
						s.report(x, "a %s: a write copies the head alone", p)
					}
				}
			})
		},
		forbidden: []edit{{"internal/tpcw/actions.go", "", "var spare = new(Item)"}},
	},
	{
		name: "a stored row keeps no column that is a function of its ID",
		step: "A write copies only the head",
		check: func(c *ctx) {
			for _, row := range []string{"customerBody", "orderRow", "ccRow"} {
				tn := c.lookup("internal/tpcw", row)
				for _, col := range []string{"UName", "Passwd", "AuthID"} {
					if f, _, _ := types.LookupFieldOrMethod(tn.Type(), false, tn.Pkg(), col); f != nil {
						c.reportObj("internal/tpcw", f, "%s stores %s, a function of the ID", row, col)
					}
				}
			}
		},
		forbidden: []edit{{"internal/tpcw/tpcw.go", "type ccRow struct {\n", "type ccAuth struct{ AuthID string }\n\ntype ccRow struct {\n\tccAuth\n"}},
	},
	{
		name: "the engine names no bug toggle",
		step: "The engine plants no bug",
		check: func(c *ctx) {
			c.each("...", func(s *spot, n ast.Node) {
				if id, ok := n.(*ast.Ident); ok && id.Name == "BugStaleLeaderRejoin" {
					s.report(id, "names BugStaleLeaderRejoin: a known bug is a mutant, not a switch")
				}
			})
		},
		forbidden: []edit{{"internal/paxos/leader.go", "", "const BugStaleLeaderRejoin = 1"}},
	},
	{
		name: "production code declares no exported package-level bool",
		step: "The engine plants no bug",
		check: func(c *ctx) {
			toggles := func(s *spot, n ast.Node) {
				vs, ok := n.(*ast.ValueSpec)
				if _, top := s.top.(*ast.GenDecl); !ok || !top {
					return
				}
				for _, id := range vs.Names {
					if v, ok := s.objOf(id).(*types.Var); ok && v.Exported() && types.Identical(v.Type().Underlying(), types.Typ[types.Bool]) {
						s.report(id, "declares %s, an exported package-level bool a test could flip", id.Name)
					}
				}
			}
			c.each("internal/...", toggles)
			c.each("cmd/...", toggles)
		},
		forbidden: []edit{{"internal/paxos/leader.go", "", "var StaleRejoin = 1 > 2"}},
	},
	{
		name: "requests and responses are sent by pointer",
		step: "Wire records travel by pointer",
		check: func(c *ctx) {
			c.each("internal/webtier", func(s *spot, n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok || calleeName(s, call) != "Send" {
					return
				}
				for _, arg := range call.Args {
					if named(s.typeOf(arg), "internal/webtier", "reqMsg", "respMsg") {
						s.report(arg, "sends a %s by value, boxed per message", s.typeOf(arg))
					}
				}
			})
		},
		forbidden: []edit{{"internal/webtier/server.go", "\ts.e.Send(proxy, w)\n", "\ts.e.Send(proxy, m)\n"}},
	},
	{
		name: "the gift and sweep handlers hand their shares to runTxn and submit nothing",
		step: "A cross-shard write has one shape",
		check: func(c *ctx) {
			handlers := []string{"Server.performGiftPurchase", "Server.performStockSweep"}
			seen := 0
			c.each("internal/webtier", func(s *spot, n ast.Node) {
				if !slices.Contains(handlers, s.decl) {
					return
				}
				if n == s.top {
					seen++
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := s.callee(call); fn != nil && strings.HasPrefix(fn.Name(), "Submit") && isMethod(fn, "internal/core", "Replica", fn.Name()) {
						s.report(call, "%s calls Replica.%s: runTxn alone decides whether a write needs 2PC", s.decl, fn.Name())
					}
				}
			})
			if seen != len(handlers) {
				c.errorf("internal/webtier no longer declares %s: restate the rule", strings.Join(handlers, " and "))
			}
		},
		forbidden: []edit{
			{"internal/webtier/txn.go", "\t\tshares[g] = gift\n\t}\n",
				"\t\tshares[g] = gift\n\t}\n\tif len(shares) == 1 {\n\t\ts.replica.SubmitIndexed(gift, r.applied)\n\t\treturn\n\t}\n"},
			{"internal/webtier/txn.go", "\tshares := make(map[int]any, len(byGroup))\n",
				"\tif items, local := byGroup[s.group()]; local && len(byGroup) == 1 {\n\t\trep := s.replica\n\t\trep.Submit(tpcw.InventorySweepAction{Items: items}, nil)\n\t\treturn\n\t}\n\tshares := make(map[int]any, len(byGroup))\n"},
		},
	},
	{
		name: "a resolution loop is armed by the staged-branch hook alone",
		step: "A cross-shard write has one shape",
		check: func(c *ctx) {
			arm := c.member("internal/webtier", "Server", "armTxnResolve")
			type span struct{ from, to token.Pos }
			var hooks []span
			var uses []ast.Node
			var at []spot
			c.each("internal/webtier", func(s *spot, n ast.Node) {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if !named(s.typeOf(n), "internal/core", "Config") {
						return
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "OnTxnStaged" {
							hooks = append(hooks, span{kv.Value.Pos(), kv.Value.End()})
						}
					}
				case *ast.Ident:
					if s.pkg.TypesInfo.Uses[n] == arm {
						uses = append(uses, n)
						at = append(at, *s)
					}
				}
			})
			inHook := 0
			for i, u := range uses {
				if !slices.ContainsFunc(hooks, func(h span) bool { return h.from <= u.Pos() && u.End() <= h.to }) {
					at[i].report(u, "%s refers to armTxnResolve outside the OnTxnStaged hook", at[i].decl)
				} else if inHook++; inHook == 2 {
					at[i].report(u, "a second reference to armTxnResolve in the OnTxnStaged hook")
				}
			}
			if inHook == 0 {
				c.reportObj("internal/webtier", arm, "the OnTxnStaged hook no longer calls armTxnResolve")
			}
		},
		forbidden: []edit{
			{"internal/webtier/txn.go", "\t\t\tif vr, ok := result.(core.TxnVoteResult); err == nil && ok {\n",
				"\t\t\tif vr, ok := result.(core.TxnVoteResult); err == nil && ok {\n\t\t\t\tif vr.Prepared {\n\t\t\t\t\ts.armTxnResolve(m.ID, m.Home)\n\t\t\t\t}\n"},
			{"internal/webtier/server.go", "\t\ts.caughtUp = true\n\t\tif s.c.cfg.OnRecovered",
				"\t\ts.caughtUp = true\n\t\tarm := s.armTxnResolve\n\t\tarm(\"\", 0)\n\t\tif s.c.cfg.OnRecovered"},
			{"internal/webtier/server.go", "\t\t\t\ts.armTxnResolve(id, home)\n",
				"\t\t\t\ts.armTxnResolve(id, home)\n\t\t\t\ts.armTxnResolve(id, s.group())\n"},
		},
	},
	{
		name: "the coordinator keeps one record per participant, in no map",
		step: "A cross-shard write has one shape",
		check: func(c *ctx) {
			for _, typ := range []string{"txnCoord", "txnPart"} {
				st := c.lookup("internal/webtier", typ).Type().Underlying().(*types.Struct)
				for f := range st.Fields() {
					if _, ok := f.Type().Underlying().(*types.Map); ok {
						c.reportObj("internal/webtier", f, "%s.%s is a %s beside the participant records", typ, f.Name(), f.Type())
					}
				}
			}
		},
		forbidden: []edit{
			{"internal/webtier/txn.go", "\tdecided   bool\n", "\tdecided   bool\n\tvotes     map[int]bool\n"},
			{"internal/webtier/txn.go", "type txnPart struct {\n", "type groupSet map[int]bool\n\ntype txnPart struct {\n\tacks groupSet\n"},
		},
	},
	{
		name: "tpcw declares one gift action and one gift result",
		step: "A cross-shard write has one shape",
		check: func(c *ctx) {
			c.lookup("internal/tpcw", "GiftAction")
			c.lookup("internal/tpcw", "GiftResult")
			scope := c.pkg("internal/tpcw").Types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if _, ok := obj.(*types.TypeName); !ok || !strings.HasPrefix(name, "Gift") || name == "GiftAction" || name == "GiftResult" {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Struct); ok {
					c.reportObj("internal/tpcw", obj, "tpcw declares %s beside GiftAction and GiftResult", name)
				}
			}
		},
		forbidden: []edit{
			{"internal/tpcw/gift.go", "", "type GiftDebitAction struct {\n\tCart  CartID\n\tTotal float64\n}"},
			{"internal/tpcw/gift.go", "", "type GiftDeliverResult GiftResult"},
		},
	},
	{
		name: "no root-level test harness or BENCH output",
		step: "No root-level test harness or BENCH files",
		check: func(c *ctx) {
			for _, name := range c.entries {
				if m, _ := path.Match("*_test.go", name); m {
					c.errorf("%s: the experiments have one driver, cmd/experiment, and one golden file", name)
				}
				if m, _ := path.Match("BENCH_*.json", name); m {
					c.errorf("%s: the benchmark's output is bench/'s last stdout line", name)
				}
			}
		},
		forbidden: []edit{{file: "bench_test.go"}, {file: "BENCH_batching.json"}},
	},
}

// A tree is what the design rules read: the type-checked packages of the
// module and of bench/ by directory ("internal/paxos", "bench"), every test
// file parsed (untyped) by path, and the names at the repository root. All
// paths are slash-separated and relative to root.
type tree struct {
	root     string
	pkgs     map[string]*analysis.Package
	tests    map[string]*ast.File
	testFset *token.FileSet
	entries  []string
}

func loadTree(t *testing.T) *tree {
	root, pkgs := modulePackages(t)
	tr := &tree{root: root, pkgs: map[string]*analysis.Package{}, tests: map[string]*ast.File{}, testFset: token.NewFileSet()}
	for _, p := range pkgs {
		tr.pkgs[tr.rel(p.Dir)] = p
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case strings.HasSuffix(p, "_test.go"):
			f, err := parser.ParseFile(tr.testFset, p, nil, parser.SkipObjectResolution)
			tr.tests[tr.rel(p)] = f
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		tr.entries = append(tr.entries, de.Name())
	}
	return tr
}

func (tr *tree) rel(p string) string {
	r, err := filepath.Rel(tr.root, p)
	if err != nil {
		return p
	}
	return filepath.ToSlash(r)
}

// check runs rule r over the tree and returns what it reports, sorted, each
// finding once.
func (tr *tree) check(t *testing.T, r designRule) []string {
	t.Helper()
	c := &ctx{tree: tr, t: t}
	r.check(c)
	slices.Sort(c.found)
	return slices.Compact(c.found)
}

// with returns the tree with e applied: a new root entry, a test file parsed
// again, or a package type-checked again with one file's source edited. The
// edited file keeps its name, so what a rule reports points into it.
func (tr *tree) with(t *testing.T, e edit) *tree {
	t.Helper()
	cp := *tr
	abs := filepath.Join(tr.root, filepath.FromSlash(e.file))
	src, err := os.ReadFile(abs)
	switch {
	case e.old == "" && errors.Is(err, fs.ErrNotExist) && !strings.Contains(e.file, "/"):
		cp.entries = append(slices.Clone(tr.entries), e.file)
		return &cp
	case err != nil:
		t.Fatal(err)
	case e.old == "":
		src = append(src, "\n"+e.new+"\n"...)
	case strings.Count(string(src), e.old) != 1:
		t.Fatalf("negative case: %q occurs %d times in %s, not once", e.old, strings.Count(string(src), e.old), e.file)
	default:
		src = []byte(strings.Replace(string(src), e.old, e.new, 1))
	}
	if strings.HasSuffix(e.file, "_test.go") {
		f, err := parser.ParseFile(tr.testFset, abs, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("negative case: %v", err)
		}
		cp.tests = maps.Clone(tr.tests)
		cp.tests[e.file] = f
		return &cp
	}
	dir := path.Dir(e.file)
	p := tr.pkgs[dir]
	if p == nil {
		t.Fatalf("negative case: no package in %s", dir)
	}
	files := slices.Clone(p.Syntax)
	i := slices.Index(p.GoFiles, abs)
	if i < 0 {
		t.Fatalf("negative case: %s is not a file of %s", e.file, p.PkgPath)
	}
	if files[i], err = parser.ParseFile(p.Fset, abs, src, parser.ParseComments); err != nil {
		t.Fatalf("negative case: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	// The edited package imports what the package did, as it was checked.
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			for _, q := range p.Types.Imports() {
				if q.Path() == path {
					return q, nil
				}
			}
			return nil, fmt.Errorf("%s does not import %s", p.PkgPath, path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	tp, err := conf.Check(p.PkgPath, p.Fset, files, info)
	if err != nil {
		t.Fatalf("negative case does not type-check: %v", err)
	}
	edited := *p
	edited.Syntax, edited.Types, edited.TypesInfo = files, tp, info
	cp.pkgs = maps.Clone(tr.pkgs)
	cp.pkgs[dir] = &edited
	return &cp
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// A ctx is one run of one rule: the tree it reads and what it found.
type ctx struct {
	*tree
	t     *testing.T
	found []string
}

func (c *ctx) errorf(format string, args ...any) {
	c.found = append(c.found, fmt.Sprintf(format, args...))
}

// lookup returns the package-level object name of the package in dir; a
// rule whose object is gone fails, to be restated, rather than pass.
func (c *ctx) lookup(dir, name string) types.Object {
	c.t.Helper()
	obj := c.pkg(dir).Types.Scope().Lookup(name)
	if obj == nil {
		c.t.Fatalf("%s declares no %s: restate the rule", dir, name)
	}
	return obj
}

// member returns the field or method name of type typ of the package in dir.
func (c *ctx) member(dir, typ, name string) types.Object {
	c.t.Helper()
	tn := c.lookup(dir, typ)
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, tn.Pkg(), name)
	if obj == nil {
		c.t.Fatalf("%s.%s has no member %s: restate the rule", dir, typ, name)
	}
	return obj
}

func (c *ctx) pkg(dir string) *analysis.Package {
	c.t.Helper()
	p := c.pkgs[dir]
	if p == nil {
		c.t.Fatalf("no package in %s", dir)
	}
	return p
}

// reportObj reports obj, declared in the package in dir.
func (c *ctx) reportObj(dir string, obj types.Object, format string, args ...any) {
	c.errorf("%s: %s", c.position(c.pkg(dir).Fset, obj.Pos()), fmt.Sprintf(format, args...))
}

func (c *ctx) position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", c.rel(p.Filename), p.Line)
}

// in reports whether file lies in pattern: "..." is every file, "dir/..."
// every file at or below dir, a name ending in ".go" that file, and any
// other pattern the files of that directory.
func in(pattern, file string) bool {
	switch {
	case pattern == "...":
		return true
	case strings.HasSuffix(pattern, "/..."):
		d := strings.TrimSuffix(pattern, "/...")
		return path.Dir(file) == d || strings.HasPrefix(file, d+"/")
	case strings.HasSuffix(pattern, ".go"):
		return file == pattern
	}
	return path.Dir(file) == pattern
}

// each calls fn on every node of every non-test file in pattern.
func (c *ctx) each(pattern string, fn func(*spot, ast.Node)) {
	dirs := make([]string, 0, len(c.pkgs))
	for d := range c.pkgs {
		dirs = append(dirs, d)
	}
	slices.Sort(dirs)
	for _, d := range dirs {
		p := c.pkgs[d]
		for i, f := range p.Syntax {
			if file := c.rel(p.GoFiles[i]); in(pattern, file) {
				c.walk(&spot{c: c, pkg: p, fset: p.Fset, dir: d, file: file}, f, fn)
			}
		}
	}
}

// eachTest calls fn on every node of every test file in pattern; the spot
// carries no types there.
func (c *ctx) eachTest(pattern string, fn func(*spot, ast.Node)) {
	files := make([]string, 0, len(c.tests))
	for f := range c.tests {
		files = append(files, f)
	}
	slices.Sort(files)
	for _, file := range files {
		if in(pattern, file) {
			c.walk(&spot{c: c, fset: c.testFset, dir: path.Dir(file), file: file}, c.tests[file], fn)
		}
	}
}

func (c *ctx) walk(s *spot, f *ast.File, fn func(*spot, ast.Node)) {
	visit := func(n ast.Node) bool {
		if n != nil {
			fn(s, n)
		}
		return true
	}
	for _, d := range f.Decls {
		s.top = d
		switch d := d.(type) {
		case *ast.FuncDecl:
			s.decl = d.Name.Name
			if d.Recv != nil {
				s.decl = typeName(s, d.Recv.List[0].Type) + "." + s.decl
			}
			ast.Inspect(d, visit)
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					s.decl = sp.Name.Name
				case *ast.ValueSpec:
					s.decl = sp.Names[0].Name
				default:
					s.decl = ""
				}
				ast.Inspect(sp, visit)
			}
		}
	}
}

// only reports each node match accepts in pattern's files that lies outside
// the declarations in want, and each declaration in want that holds none
// or, with once set, more than one.
func (c *ctx) only(pattern, what string, once bool, want []string, match func(*spot, ast.Node) bool) {
	count := map[string]int{}
	decls := map[string]spot{}
	c.each(pattern, func(s *spot, n ast.Node) {
		if n == s.top {
			decls[s.decl] = *s
		}
		if !match(s, n) {
			return
		}
		switch count[s.decl]++; {
		case !slices.Contains(want, s.decl):
			s.report(n, "a %s in %s, outside %s", what, s.decl, strings.Join(want, ", "))
		case once && count[s.decl] == 2:
			s.report(n, "a second %s in %s", what, s.decl)
		}
	})
	for _, d := range want {
		if count[d] > 0 {
			continue
		}
		if s, ok := decls[d]; ok {
			s.report(s.top, "%s holds no %s", d, what)
		} else {
			c.errorf("%s: no %s is declared, so none holds a %s", pattern, d, what)
		}
	}
}

// usedIn reports each use of obj in pattern's files outside the
// declarations in want, and each of those that uses it not at all.
func (c *ctx) usedIn(pattern string, obj types.Object, want ...string) {
	c.only(pattern, "use of "+obj.Name(), false, want, func(s *spot, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && s.pkg.TypesInfo.Uses[id] == obj
	})
}

// A spot is where a walk stands: the file, its package (nil in a test file)
// and the top-level declaration the node lies in, named "Type.Method" for a
// method.
type spot struct {
	c         *ctx
	pkg       *analysis.Package
	fset      *token.FileSet
	dir, file string
	top       ast.Decl
	decl      string
}

func (s *spot) report(n ast.Node, format string, args ...any) {
	s.c.errorf("%s: %s", s.c.position(s.fset, n.Pos()), fmt.Sprintf(format, args...))
}

func (s *spot) typeOf(e ast.Expr) types.Type {
	if s.pkg == nil {
		return nil
	}
	return s.pkg.TypesInfo.TypeOf(e)
}

func (s *spot) objOf(id *ast.Ident) types.Object {
	if s.pkg == nil {
		return nil
	}
	return s.pkg.TypesInfo.ObjectOf(id)
}

// callee returns the function or method call calls, or nil.
func (s *spot) callee(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return s.objOf(fn)
	case *ast.SelectorExpr:
		return s.objOf(fn.Sel)
	case *ast.IndexExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return s.objOf(id)
		}
	}
	return nil
}

// selects reports whether x, parentheses aside, is a selector of obj.
func (s *spot) selects(x ast.Expr, obj types.Object) bool {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	return ok && s.objOf(sel.Sel) == obj
}

func (s *spot) isTrue(x ast.Expr) bool {
	v := s.pkg.TypesInfo.Types[x].Value
	return v != nil && v.Kind() == constant.Bool && constant.BoolVal(v)
}

// addressed reports whether lit is the operand of &, parentheses aside.
func (s *spot) addressed(lit *ast.CompositeLit) bool {
	found := false
	ast.Inspect(s.top, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND && ast.Unparen(u.X) == lit {
			found = true
		}
		return !found
	})
	return found
}

// calleeName names the function or method call calls: by its object in a
// typed file, by its spelling in a test file.
func calleeName(s *spot, call *ast.CallExpr) string {
	if obj := s.callee(call); obj != nil {
		return obj.Name()
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// typeName names the type x denotes, a pointer's element for a pointer: by
// its object in a typed file, by its spelling in a test file.
func typeName(s *spot, x ast.Expr) string {
	if n, ok := types.Unalias(deref(s.typeOf(x))).(*types.Named); ok {
		return n.Obj().Name()
	}
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// isStruct reports whether type expression x denotes a struct.
func isStruct(s *spot, x ast.Expr) bool {
	if t := s.typeOf(x); t != nil {
		_, ok := t.Underlying().(*types.Struct)
		return ok
	}
	_, ok := x.(*ast.StructType)
	return ok
}

// named reports whether t is one of the named types names of the module's
// package in dir ("internal/core").
func named(t types.Type, dir string, names ...string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == modulePath+dir && slices.Contains(names, n.Obj().Name())
}

// isMethod reports whether obj is method name of the named type typ of the
// module's package in dir.
func isMethod(obj types.Object, dir, typ, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && named(deref(recv.Type()), dir, typ)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
