package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Report is the printable result of one experiment: a table whose rows are
// the same series the corresponding paper figure plots, plus free-form
// notes recording scalar findings (Φ values, chosen filter sets, timings).
type Report struct {
	ID      string
	Title   string
	Dataset string
	Header  []string
	Rows    [][]string
	Notes   []string
	// Plot holds an optional ASCII rendering of the figure (FR curves);
	// printed by cmd/fpexp under -plot.
	Plot string
}

// Note appends a formatted note line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddRow appends a table row; values are formatted with %v, floats with
// four decimals.
func (r *Report) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				row[i] = fmt.Sprintf("%d", int64(v))
			} else {
				row[i] = fmt.Sprintf("%.4f", v)
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	r.Rows = append(r.Rows, row)
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s", r.ID, r.Title)
	if r.Dataset != "" {
		fmt.Fprintf(&sb, " [%s]", r.Dataset)
	}
	sb.WriteString(" ==\n")
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					sb.WriteString("  ")
				}
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			}
			sb.WriteString("\n")
		}
		writeRow(r.Header)
		for i, w := range widths {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat("-", w))
		}
		sb.WriteString("\n")
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders header and rows as comma-separated values (cells containing
// commas are quoted).
func (r *Report) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteString("\n")
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
}

// reportFromFR converts an FR figure into a Report table with one row per
// k and one column per algorithm.
func reportFromFR(id, title string, res *FRResult) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Dataset: fmt.Sprintf("%s: %d nodes, %d edges", res.Dataset, res.Nodes, res.Edges),
	}
	rep.Header = []string{"k"}
	for _, s := range res.Series {
		rep.Header = append(rep.Header, s.Algorithm)
	}
	if len(res.Series) == 0 {
		return rep
	}
	for i, p := range res.Series[0].Points {
		row := []any{p.K}
		for _, s := range res.Series {
			row = append(row, s.Points[i].FR)
		}
		rep.AddRow(row...)
	}
	rep.Plot = PlotFR(res, 60, 12)
	return rep
}

// Options configures experiment runs.
type Options struct {
	// Seed drives every random generator involved. Default 1.
	Seed int64
	// Reps is the number of runs averaged for randomized baselines; the
	// paper uses 25 (the default).
	Reps int
	// Quick shrinks datasets and repetition counts so the whole suite
	// runs in seconds; used by unit tests. Benchmarks run full size.
	Quick bool
	// Parallelism is the core.Place worker bound used by the greedy
	// algorithms (fpexp -procs); ≤ 1 is serial. Series are bit-for-bit
	// identical at any setting.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reps == 0 {
		if o.Quick {
			o.Reps = 5
		} else {
			o.Reps = 25
		}
	}
	return o
}

// Runner is an experiment driver.
type Runner func(Options) (*Report, error)

// registry maps experiment ids (listed by IDs and `fpexp -list`) to
// drivers; populated in figures.go.
var registry = map[string]Runner{}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(opt.withDefaults())
}
