package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Edge-list text format.
//
// One edge per line, "u v", whitespace separated. Lines starting with '#'
// are comments; blank lines are skipped. Node tokens may be arbitrary
// strings: purely numeric token sets are mapped to their numeric ids when
// every token is a valid non-negative integer (so files written by
// WriteEdgeList round-trip exactly); otherwise tokens are interned in first-
// appearance order and kept as labels.

// Limits bounds what one edge-list parse may hold: MaxEdges caps the edge
// lines and MaxNodeID the largest numeric node id, since the builder
// allocates state for every id up to the largest. Both are checked before
// any node is allocated; a zero field leaves its bound off. Label-mode
// lists need no id bound: distinct labels are bounded by the edge count.
type Limits struct {
	MaxEdges  int
	MaxNodeID int
}

// errLimit marks a parse refused for exceeding its Limits.
var errLimit = errors.New("graph: edge list over limit")

// ReadEdgeList parses the edge-list format described in the package
// documentation from r.
func ReadEdgeList(r io.Reader) (*Digraph, error) {
	return ReadEdgeListWithin(r, Limits{})
}

// ReadEdgeListWithin is ReadEdgeList refusing input beyond lim; it is the
// entry point for untrusted input, where a body as small as "0 2000000000"
// would otherwise allocate gigabytes.
func ReadEdgeListWithin(r io.Reader, lim Limits) (*Digraph, error) {
	el, err := scanEdgeList(r, lim, false)
	if err != nil {
		return nil, err
	}
	g, _, err := el.build(lim)
	return g, err
}

// ReadWeightedEdgeList parses a three-column variant of the edge-list
// format: "u v p" per line, where p ∈ [0, 1] is the relay probability of
// the edge (the probabilistic model of paper §3). Comments and blank lines
// are skipped as in ReadEdgeList; node tokens follow the same numeric/label
// rules. It returns the graph and a weight lookup suitable for
// Model.WithWeights (1.0 for edges not present, which cannot occur when the
// lookup is used with the same graph).
func ReadWeightedEdgeList(r io.Reader) (*Digraph, func(u, v int) float64, error) {
	el, err := scanEdgeList(r, Limits{}, true)
	if err != nil {
		return nil, nil, err
	}
	g, edges, err := el.build(Limits{})
	if err != nil {
		return nil, nil, err
	}
	weights := make(map[[2]int]float64, len(edges))
	for i, e := range edges {
		weights[e] = el.probs[i]
	}
	lookup := func(u, v int) float64 {
		if p, ok := weights[[2]int{u, v}]; ok {
			return p
		}
		return 1
	}
	return g, lookup, nil
}

// edgeList is an edge-list text after the line rules and before any node
// is allocated: the endpoint tokens of every edge line, in file order and
// back to back in one buffer rather than one string each.
type edgeList struct {
	toks []byte
	// ends[i] is where token i ends in toks; tokens 2e and 2e+1 are the
	// endpoints of edge e.
	ends []int
	// probs holds each edge's relay probability (weighted lists only).
	probs []float64
	// numeric reports that every token is a decimal node id.
	numeric bool
}

// scanEdgeList applies the line rules every reader shares — '#' comments,
// blank lines, the field count, MaxEdges — and, for a weighted list, parses
// the probability column.
func scanEdgeList(r io.Reader, lim Limits, weighted bool) (*edgeList, error) {
	want := 2
	if weighted {
		want = 3
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	el := &edgeList{numeric: true}
	for lineNo := 1; sc.Scan(); lineNo++ {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if len(fields) != want {
			return nil, fmt.Errorf("graph: line %d: want %d fields, got %d", lineNo, want, len(fields))
		}
		if lim.MaxEdges > 0 && len(el.ends)/2 >= lim.MaxEdges {
			return nil, fmt.Errorf("%w: more than %d edges", errLimit, lim.MaxEdges)
		}
		for _, tok := range fields[:2] {
			el.toks = append(el.toks, tok...)
			el.ends = append(el.ends, len(el.toks))
			el.numeric = el.numeric && isUint(tok)
		}
		if weighted {
			p, err := strconv.ParseFloat(string(fields[2]), 64)
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("graph: line %d: bad probability %q", lineNo, fields[2])
			}
			el.probs = append(el.probs, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return el, nil
}

// build resolves the tokens to node ids — numeric ids as written, labels
// in first-appearance order — and assembles the graph. It also returns the
// edges as id pairs in file order. A numeric id past lim.MaxNodeID is
// refused here, before the builder allocates any node.
func (el *edgeList) build(lim Limits) (*Digraph, [][2]int, error) {
	edges := make([][2]int, len(el.ends)/2)
	var labels []string
	intern := make(map[string]int)
	n, start := 0, 0
	for i, end := range el.ends {
		tok := el.toks[start:end]
		start = end
		id, ok := 0, false
		if el.numeric {
			var err error
			if id, err = strconv.Atoi(string(tok)); err != nil { // isUint passed, so the id overflows int
				return nil, nil, fmt.Errorf("graph: node id %s out of range", tok)
			}
			if lim.MaxNodeID > 0 && id > lim.MaxNodeID {
				return nil, nil, fmt.Errorf("%w: node id %d exceeds %d", errLimit, id, lim.MaxNodeID)
			}
		} else if id, ok = intern[string(tok)]; !ok {
			id = len(labels)
			labels = append(labels, string(tok))
			intern[labels[id]] = id
		}
		edges[i/2][i%2] = id
		n = max(n, id+1)
	}
	g, err := (&Builder{n: n, edges: edges}).Build()
	if err != nil {
		return nil, nil, err
	}
	g.labels = labels
	return g, edges, nil
}

// isUint reports whether tok is a non-empty run of decimal digits.
func isUint(tok []byte) bool {
	for _, c := range tok {
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(tok) > 0
}

// WriteEdgeList writes the graph in edge-list format. When the graph has
// labels, labels are written instead of numeric ids.
func WriteEdgeList(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			var err error
			if g.HasLabels() {
				_, err = fmt.Fprintf(bw, "%s %s\n", g.Label(u), g.Label(v))
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
