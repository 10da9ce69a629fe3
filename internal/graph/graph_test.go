package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// diamond is the 4-node graph 0→1, 0→2, 1→3, 2→3.
func diamond(t *testing.T) *Digraph {
	t.Helper()
	g, err := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := diamond(t)
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Out(0) = %v, want [1 2]", got)
	}
	if got := g.In(3); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("In(3) = %v, want [1 2]", got)
	}
	if g.OutDegree(3) != 0 || g.InDegree(0) != 0 {
		t.Errorf("degree mismatch at extremes")
	}
}

func TestBuilderGrowsNodes(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 7)
	g := b.MustBuild()
	if g.N() != 8 {
		t.Fatalf("N = %d, want 8", g.N())
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestBuilderDedupes(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (dedupe)", g.M())
	}
}

func TestBuilderParallelEdges(t *testing.T) {
	b := NewBuilder(2).AllowParallelEdges()
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (parallel kept)", g.M())
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a self-loop")
	}
}

func TestBuilderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(-1, 0) did not panic")
		}
	}()
	NewBuilder(1).AddEdge(-1, 0)
}

func TestHasEdge(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{1, 0, false}, {0, 3, false}, {3, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if got := g.Sources(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Sources = %v, want [0]", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Sinks = %v, want [3]", got)
	}
}

func TestTranspose(t *testing.T) {
	g := diamond(t)
	tr := g.Transpose()
	if !tr.HasEdge(3, 1) || !tr.HasEdge(1, 0) {
		t.Error("transpose missing reversed edges")
	}
	if tr.HasEdge(0, 1) {
		t.Error("transpose kept a forward edge")
	}
	if tr.M() != g.M() || tr.N() != g.N() {
		t.Error("transpose changed size")
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Errorf("order = %v, want [0 1 2 3]", order)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, err := g.TopoOrder(); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
	if g.IsDAG() {
		t.Error("IsDAG true for a 3-cycle")
	}
}

func TestTopoRank(t *testing.T) {
	g := diamond(t)
	rank, err := g.TopoRank()
	if err != nil {
		t.Fatalf("TopoRank: %v", err)
	}
	for _, e := range g.Edges() {
		if rank[e[0]] >= rank[e[1]] {
			t.Errorf("edge (%d,%d) violates rank %d >= %d", e[0], e[1], rank[e[0]], rank[e[1]])
		}
	}
}

// TestTopoOrderProperty checks that on random DAGs (edges oriented low→high)
// every edge respects the returned order.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 30, 0.15)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomDAG generates a DAG by sampling edges u→v for u < v after a random
// relabeling, so topological order is not simply 0..n-1.
func randomDAG(rng *rand.Rand, n int, p float64) *Digraph {
	perm := rng.Perm(n)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(perm[i], perm[j])
			}
		}
	}
	return b.MustBuild()
}

func TestReachable(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	seen := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("Reachable(0) = %v, want %v", seen, want)
	}
	if n := g.CountReachable(0); n != 3 {
		t.Errorf("CountReachable(0) = %d, want 3", n)
	}
	if n := g.CountReachable(0, 3); n != 5 {
		t.Errorf("CountReachable(0,3) = %d, want 5", n)
	}
}

func TestBFSLevels(t *testing.T) {
	g := diamond(t)
	level, levels := g.BFSLevels(0)
	if !reflect.DeepEqual(level, []int{0, 1, 1, 2}) {
		t.Errorf("level = %v", level)
	}
	if len(levels) != 3 {
		t.Errorf("levels count = %d, want 3", len(levels))
	}
}

func TestDFSTree(t *testing.T) {
	g := diamond(t)
	tr := g.DFS(0)
	if tr.Parent[0] != -1 {
		t.Error("root has a parent")
	}
	for _, v := range []int{1, 2, 3} {
		if !tr.Visited(v) {
			t.Errorf("node %d unvisited", v)
		}
	}
	// Node 3 is discovered via 1 (ascending adjacency order).
	if tr.Parent[3] != 1 {
		t.Errorf("Parent[3] = %d, want 1", tr.Parent[3])
	}
	if len(tr.TreeEdges()) != 3 {
		t.Errorf("tree edges = %d, want 3", len(tr.TreeEdges()))
	}
	// Discovery times are a permutation of 0..3.
	seen := map[int]bool{}
	for _, d := range tr.Discovery {
		seen[d] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Errorf("discovery time %d missing", i)
		}
	}
}

func TestDFSUnreachable(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{0, 1}})
	tr := g.DFS(0)
	if tr.Visited(2) {
		t.Error("unreachable node marked visited")
	}
	if tr.Discovery[2] != -1 {
		t.Error("unreachable node has a discovery time")
	}
}

func TestSCCThreeCycle(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	comp, n := g.SCC()
	if n != 2 {
		t.Fatalf("ncomp = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("cycle nodes not in one component")
	}
	if comp[3] == comp[0] {
		t.Error("node 3 merged into the cycle component")
	}
	// Reverse topological numbering: edge comp(2)→comp(3) implies
	// comp[2] > comp[3].
	if comp[2] <= comp[3] {
		t.Errorf("component ids not reverse-topological: %v", comp)
	}
}

func TestSCCOnDAGIsIdentityLike(t *testing.T) {
	g := diamond(t)
	_, n := g.SCC()
	if n != g.N() {
		t.Fatalf("DAG: ncomp = %d, want %d", n, g.N())
	}
}

func TestCondensationIsDAG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		b := NewBuilder(n)
		for i := 0; i < 60; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		cond, comp := g.Condensation()
		if !cond.IsDAG() {
			return false
		}
		for _, e := range g.Edges() {
			cu, cv := comp[e[0]], comp[e[1]]
			if cu != cv && !cond.HasEdge(cu, cv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond(t)
	sub, remap := g.InducedSubgraph([]bool{true, true, false, true})
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d, want 3", sub.N())
	}
	if remap[2] != -1 {
		t.Errorf("remap[2] = %d, want -1", remap[2])
	}
	// Edges 0→1 and 1→3 survive under new ids.
	if !sub.HasEdge(remap[0], remap[1]) || !sub.HasEdge(remap[1], remap[3]) {
		t.Error("surviving edges missing")
	}
	if sub.M() != 2 {
		t.Errorf("sub.M = %d, want 2", sub.M())
	}
}

func TestAddSuperSource(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 2}, {1, 2}, {2, 3}})
	ng, s, err := g.AddSuperSource([]int{0, 1})
	if err != nil {
		t.Fatalf("AddSuperSource: %v", err)
	}
	if s != 4 || ng.N() != 5 {
		t.Fatalf("s=%d N=%d", s, ng.N())
	}
	if !ng.HasEdge(s, 0) || !ng.HasEdge(s, 1) {
		t.Error("super-source edges missing")
	}
	if got := ng.Sources(); !reflect.DeepEqual(got, []int{s}) {
		t.Errorf("Sources = %v, want [%d]", got, s)
	}
	if _, _, err := g.AddSuperSource([]int{99}); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestDegreeStats(t *testing.T) {
	g := diamond(t)
	in := g.InDegreeStats()
	if in.Min != 0 || in.Max != 2 || in.Zero != 1 || in.One != 2 {
		t.Errorf("in stats = %+v", in)
	}
	if in.Mean != 1.0 {
		t.Errorf("in mean = %f, want 1", in.Mean)
	}
	out := g.OutDegreeStats()
	if out.Max != 2 || out.Zero != 1 {
		t.Errorf("out stats = %+v", out)
	}
}

func TestLabels(t *testing.T) {
	g := diamond(t)
	if g.HasLabels() {
		t.Error("unlabeled graph claims labels")
	}
	if g.Label(2) != "2" {
		t.Errorf("Label(2) = %q, want \"2\"", g.Label(2))
	}
	lg, err := g.WithLabels([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatalf("WithLabels: %v", err)
	}
	if lg.Label(2) != "c" {
		t.Errorf("Label(2) = %q, want \"c\"", lg.Label(2))
	}
	if _, err := g.WithLabels([]string{"too", "short"}); err == nil {
		t.Error("short label slice accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("clone size mismatch")
	}
	c.outAdj[0] = 99
	if g.outAdj[0] == 99 {
		t.Error("clone shares storage with original")
	}
}

func TestEdgeListRoundTripNumeric(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip size: got (%d,%d), want (%d,%d)", g2.N(), g2.M(), g.N(), g.M())
	}
	if !reflect.DeepEqual(g2.Edges(), g.Edges()) {
		t.Error("round trip edges differ")
	}
}

func TestEdgeListLabeled(t *testing.T) {
	in := "# comment\nalpha beta\nbeta gamma\n\nalpha gamma\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("got (%d,%d), want (3,3)", g.N(), g.M())
	}
	if !g.HasLabels() {
		t.Fatal("labels lost")
	}
	if g.Label(0) != "alpha" || g.Label(1) != "beta" || g.Label(2) != "gamma" {
		t.Errorf("labels = %q %q %q", g.Label(0), g.Label(1), g.Label(2))
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	if !strings.Contains(buf.String(), "alpha beta") {
		t.Errorf("labeled output missing tokens:\n%s", buf.String())
	}
}

func TestWeightedEdgeList(t *testing.T) {
	in := "# weighted\n0 1 0.5\n0 2 1.0\n1 3 0.25\n2 3 0.75\n"
	g, w, err := ReadWeightedEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("size = (%d,%d)", g.N(), g.M())
	}
	cases := []struct {
		u, v int
		want float64
	}{{0, 1, 0.5}, {0, 2, 1.0}, {1, 3, 0.25}, {2, 3, 0.75}, {3, 0, 1.0}}
	for _, c := range cases {
		if got := w(c.u, c.v); got != c.want {
			t.Errorf("w(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestWeightedEdgeListLabeled(t *testing.T) {
	in := "src mid 0.9\nmid dst 0.8\n"
	g, w, err := ReadWeightedEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasLabels() || g.Label(0) != "src" {
		t.Error("labels lost")
	}
	if w(0, 1) != 0.9 {
		t.Errorf("w = %v", w(0, 1))
	}
}

func TestWeightedEdgeListMalformed(t *testing.T) {
	for _, in := range []string{
		"0 1\n",       // missing probability
		"0 1 1.5\n",   // out of range
		"0 1 -0.5\n",  // negative
		"0 1 x\n",     // non-numeric
		"0 1 0.5 9\n", // too many fields
	} {
		if _, _, err := ReadWeightedEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("malformed weighted input %q accepted", in)
		}
	}
}

func TestEdgeListMalformed(t *testing.T) {
	cases := []string{
		"1 2 3\n",
		"only-one-field\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("malformed input %q accepted", in)
		}
	}
}

// TestEdgeListWithin: the bounded reader refuses lists past either limit,
// and an id past MaxNodeID only while the list is in numeric mode.
func TestEdgeListWithin(t *testing.T) {
	lim := Limits{MaxEdges: 2, MaxNodeID: 10}
	for _, in := range []string{"0 1\n1 2\n2 3\n", "0 11\n", "0 99999999999999999999\n"} {
		if _, err := ReadEdgeListWithin(strings.NewReader(in), lim); err == nil {
			t.Errorf("%q accepted within %+v", in, lim)
		}
	}
	g, err := ReadEdgeListWithin(strings.NewReader("# c\n+1 2000000000\n"), lim)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || !g.HasLabels() || g.Label(1) != "2000000000" {
		t.Errorf("label-mode list read as %d nodes, labels %v", g.N(), g.HasLabels())
	}
}

func TestEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty input produced (%d,%d)", g.N(), g.M())
	}
}

func TestMaxDegrees(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}})
	if g.MaxOutDegree() != 3 {
		t.Errorf("MaxOutDegree = %d, want 3", g.MaxOutDegree())
	}
	if g.MaxInDegree() != 2 {
		t.Errorf("MaxInDegree = %d, want 2", g.MaxInDegree())
	}
}

func TestDegreesSlices(t *testing.T) {
	g := diamond(t)
	if !reflect.DeepEqual(g.InDegrees(), []int{0, 1, 1, 2}) {
		t.Errorf("InDegrees = %v", g.InDegrees())
	}
	if !reflect.DeepEqual(g.OutDegrees(), []int{2, 1, 1, 0}) {
		t.Errorf("OutDegrees = %v", g.OutDegrees())
	}
}

// sortInts is a helper for comparisons where order is irrelevant.
func sortInts(a []int) []int {
	b := append([]int(nil), a...)
	sort.Ints(b)
	return b
}

func TestEdgesEnumeration(t *testing.T) {
	g := diamond(t)
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("Edges len = %d", len(es))
	}
	var targets []int
	for _, e := range es {
		targets = append(targets, e[1])
	}
	if !reflect.DeepEqual(sortInts(targets), []int{1, 2, 3, 3}) {
		t.Errorf("edge targets = %v", targets)
	}
}
