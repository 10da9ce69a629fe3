package gen

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/graph"
)

// Params carries the parameters of every dataset in the table. A zero
// field asks for the dataset's default, and a zero Seed means seed 1.
// fpd's graph spec and fpgen's flags both fill it field by field.
type Params struct {
	Seed     int64
	Scale    float64
	X, Y     float64
	Levels   int
	PerLevel int
	N        int
	P        float64
	EPN      int
	Width    int
	ChainLen int
	Depth    int
}

// Field returns a pointer to the field of p that the parameter name
// fills — the field of that name, ignoring case: an *int or a *float64.
// It panics on a name that matches no field.
func (p *Params) Field(name string) any {
	f := reflect.ValueOf(p).Elem().FieldByNameFunc(func(field string) bool { return strings.EqualFold(field, name) })
	return f.Addr().Interface()
}

// Param is one parameter a dataset reads: its name (fpgen's flag and
// fpd's JSON field), what it means for that dataset, its default, and the
// range [Min, Max] a value must lie in. The ranges keep every generator
// from panicking or allocating without bound on a hostile request.
type Param struct {
	Name, Usage   string
	Def, Min, Max float64
}

// Dataset is one row of the dataset table.
type Dataset struct {
	Name   string
	Params []Param
	// build runs the generator on resolved parameters; a row whose size
	// grows with a product of parameters bounds that product first.
	build func(p *Params) (*graph.Digraph, []int, error)
}

// Generator size caps: the quadratic generators (dag, layered) stop at
// 20K nodes, the linear ones at 2M.
const (
	maxQuadratic = 20_000
	maxLinear    = 2_000_000
)

// datasets is the table. Each row's defaults are the values fpd and fpgen
// used before the two shared it.
var datasets = []Dataset{
	{Name: "quote", build: func(p *Params) (*graph.Digraph, []int, error) { return one(QuoteLike(p.Seed)) }},
	{
		Name:   "twitter",
		Params: []Param{{"scale", "level-size scale", 1, 0, 1}},
		build:  func(p *Params) (*graph.Digraph, []int, error) { return one(TwitterLike(p.Scale, p.Seed)) },
	},
	{Name: "citation", build: func(p *Params) (*graph.Digraph, []int, error) { return one(CitationLike(p.Seed)) }},
	{
		Name: "layered",
		Params: []Param{
			{"levels", "number of levels", 10, 1, maxQuadratic},
			{"perlevel", "expected nodes per level", 100, 1, maxQuadratic},
			{"x", "edge-probability numerator", 1, 0, 1e6},
			{"y", "edge-probability base", 4, 1, 1e6},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) {
			if n := p.Levels * p.PerLevel; n > maxQuadratic {
				return nil, nil, fmt.Errorf("levels*perlevel = %d exceeds %d (the generator is quadratic)", n, maxQuadratic)
			}
			return one(Layered(p.Levels, p.PerLevel, p.X, p.Y, p.Seed))
		},
	},
	{
		Name: "dag",
		Params: []Param{
			{"n", "node count", 1000, 1, maxQuadratic},
			{"p", "edge probability", 0.01, 0, 1},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) { return one(RandomDAG(p.N, p.P, p.Seed)) },
	},
	{
		Name: "powerlaw",
		Params: []Param{
			{"n", "node count", 1000, 1, maxLinear},
			{"epn", "average edges per node", 3, 1, 100},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) {
			if m := p.N * p.EPN; m > 2*maxLinear {
				return nil, nil, fmt.Errorf("n*epn = %d exceeds %d edges", m, 2*maxLinear)
			}
			return one(PowerLawDAG(p.N, p.EPN, p.Seed))
		},
	},
	{
		Name: "tree",
		Params: []Param{
			{"n", "node count", 1000, 1, maxLinear},
			{"p", "source-link probability", 0.01, 0, 1},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) { return one(RandomCTree(p.N, p.P, p.Seed)) },
	},
	{
		Name: "bottleneck",
		Params: []Param{
			{"width", "fan width above the gateway", 10, 1, 1_000_000},
			{"chainlen", "chain length", 5, 1, 1_000_000},
			{"depth", "binary-tree depth below the chain", 3, 1, 20},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) {
			return one(BottleneckChain(p.Width, p.ChainLen, p.Depth, p.Seed))
		},
	},
	{
		Name: "chain",
		Params: []Param{
			{"n", "node count", 1000, 1, maxLinear},
			{"chainlen", "mean relay-chain length", 8, 1, 1_000_000},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) { return one(ChainDAG(p.N, p.ChainLen, p.Seed)) },
	},
	{
		Name: "deep",
		Params: []Param{
			{"n", "node count", 1000, 1, maxLinear},
			{"depth", "level count", 50, 1, maxLinear},
		},
		build: func(p *Params) (*graph.Digraph, []int, error) { return one(DeepDAG(p.N, p.Depth, p.Seed)) },
	},
	{
		Name:   "diamonds",
		Params: []Param{{"depth", "diamonds in series", 120, 1, maxLinear}},
		build:  func(p *Params) (*graph.Digraph, []int, error) { return one(DiamondChain(p.Depth)) },
	},
	{Name: "fig1", build: func(*Params) (*graph.Digraph, []int, error) { return one(Figure1()) }},
	{Name: "fig2", build: func(*Params) (*graph.Digraph, []int, error) { return one(Figure2()) }},
	{Name: "fig3", build: func(*Params) (*graph.Digraph, []int, error) {
		g, sources := Figure3()
		return g, sources, nil
	}},
}

func one(g *graph.Digraph, source int) (*graph.Digraph, []int, error) { return g, []int{source}, nil }

// Datasets returns the dataset table in its listing order.
func Datasets() []Dataset { return datasets }

// Names lists the dataset names in table order.
func Names() []string {
	names := make([]string, len(datasets))
	for i, d := range datasets {
		names[i] = d.Name
	}
	return names
}

// Build instantiates the named dataset and returns its graph and default
// sources. Every parameter the dataset reads is defaulted and then
// range-checked before the generator runs.
func Build(name string, p Params) (*graph.Digraph, []int, error) {
	for _, d := range datasets {
		if d.Name != name {
			continue
		}
		if p.Seed == 0 {
			p.Seed = 1
		}
		for _, prm := range d.Params {
			if err := prm.resolve(&p); err != nil {
				return nil, nil, err
			}
		}
		return d.build(&p)
	}
	return nil, nil, fmt.Errorf("unknown dataset %q (have %s)", name, strings.Join(Names(), ", "))
}

// resolve replaces a zero value of the parameter in p with its default
// and checks the result against the range.
func (prm Param) resolve(p *Params) error {
	switch v := p.Field(prm.Name).(type) {
	case *int:
		if *v == 0 {
			*v = int(prm.Def)
		}
		if lo, hi := int(prm.Min), int(prm.Max); *v < lo || *v > hi {
			return fmt.Errorf("%s = %d outside [%d, %d]", prm.Name, *v, lo, hi)
		}
	case *float64:
		if *v == 0 {
			*v = prm.Def
		}
		if !(*v >= prm.Min && *v <= prm.Max) {
			return fmt.Errorf("%s = %v outside [%v, %v]", prm.Name, *v, prm.Min, prm.Max)
		}
	}
	return nil
}
