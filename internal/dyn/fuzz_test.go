package dyn

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// FuzzDynamicApply builds a random DAG and applies a stream of batches
// decoded from the fuzz input — cycle-creating and invalid ones included —
// checking the overlay's contract: a committed batch changes exactly its
// edges and leaves OrdOf a topological order of Snapshot(); a rejected
// batch leaves the edge set, the order and Gen() untouched.
func FuzzDynamicApply(f *testing.F) {
	f.Add(int64(1), []byte{0x14, 3, 1, 0x10, 2, 1})
	f.Add(int64(2), []byte{0x15, 5, 0, 1, 4, 0x31, 2, 7, 9})
	f.Add(int64(3), []byte{0x0c, 1, 2, 2, 1, 0x20, 5, 6})
	f.Add(int64(4), []byte{})
	// A reordering insertion, then a cycle-creating one, in one batch: the
	// rollback must restore the shifted order positions.
	f.Add(int64(22), []byte("\f100102"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(rng.Intn(v), v)
			if u := rng.Intn(v); rng.Intn(2) == 0 {
				b.AddEdge(u, v)
			}
		}
		d, err := FromDigraph(b.MustBuild(), []int{0})
		if err != nil {
			t.Fatal(err)
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			x := int(ops[0])
			ops = ops[1:]
			return x
		}
		for round := 0; round < 64 && len(ops) > 0; round++ {
			// Header: bits 0-1 grow the graph, 2-3 count insertions, 4-5
			// removals; endpoints may fall one past the node range.
			h := next()
			batch := Batch{AddNodes: h & 3}
			n2 := d.N() + batch.AddNodes
			for i := 0; i < (h>>2)&3; i++ {
				batch.Add = append(batch.Add, [2]int{next() % (n2 + 1), next() % (n2 + 1)})
			}
			edges := d.Snapshot().Edges()
			for i := 0; i < (h>>4)&3; i++ {
				if x := next(); x&1 == 1 && len(edges) > 0 {
					batch.Remove = append(batch.Remove, edges[(x>>1)%len(edges)])
				} else {
					batch.Remove = append(batch.Remove, [2]int{x % (d.N() + 1), next() % (d.N() + 1)})
				}
			}

			gen, order := d.Gen(), d.Order()
			_, err := d.Apply(batch)
			after := d.Snapshot()
			if err != nil {
				if !errors.Is(err, ErrCycle) && !errors.Is(err, ErrEdgeExists) && !errors.Is(err, ErrEdgeMissing) &&
					!errors.Is(err, ErrBadNode) && !errors.Is(err, ErrPinnedSource) {
					t.Fatalf("untyped rejection of %+v: %v", batch, err)
				}
				if d.Gen() != gen || !reflect.DeepEqual(d.Order(), order) || !reflect.DeepEqual(after.Edges(), edges) {
					t.Fatalf("rejected batch %+v (%v) changed the overlay", batch, err)
				}
				continue
			}
			if d.Gen() != gen+1 || d.N() != n2 || d.M() != after.M() {
				t.Fatalf("committed %+v: gen %d→%d, n %d (want %d), M %d vs snapshot %d",
					batch, gen, d.Gen(), d.N(), n2, d.M(), after.M())
			}
			want := map[[2]int]bool{}
			for _, e := range edges {
				want[e] = true
			}
			for _, e := range batch.Remove {
				delete(want, e)
			}
			for _, e := range batch.Add {
				want[e] = true
			}
			if len(want) != after.M() {
				t.Fatalf("committed %+v: %d edges, want %d", batch, after.M(), len(want))
			}
			seen := make([]bool, d.N())
			for v := range seen {
				if o := d.OrdOf(v); o < 0 || o >= d.N() || seen[o] {
					t.Fatalf("committed %+v: OrdOf is not a permutation", batch)
				} else {
					seen[o] = true
				}
			}
			for _, e := range after.Edges() {
				if !want[e] {
					t.Fatalf("committed %+v: unexpected edge %v", batch, e)
				}
				if d.OrdOf(e[0]) >= d.OrdOf(e[1]) {
					t.Fatalf("committed %+v: order violates edge %v", batch, e)
				}
			}
		}
	})
}
