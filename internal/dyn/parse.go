package dyn

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBatch parses the text form of a mutation batch, one mutation per
// line:
//
//   - u v    insert edge (u, v)
//   - u v    remove edge (u, v)
//     n k      append k fresh nodes
//     # ...    comment (blank lines are skipped)
//
// Node ids are decimal and non-negative. Multiple "n" lines accumulate.
// The format is the PATCH /v1/graphs/{id}/edges "patch" field; parse
// errors carry the 1-based line number.
func ParseBatch(text string) (Batch, error) {
	var b Batch
	lineNo := 0
	for line := range strings.Lines(text) {
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		switch op {
		case "+", "-":
			if len(fields) != 3 {
				return Batch{}, fmt.Errorf("dyn: line %d: %q wants two node ids", lineNo, op)
			}
			u, err := parseNode(fields[1])
			if err != nil {
				return Batch{}, fmt.Errorf("dyn: line %d: %v", lineNo, err)
			}
			v, err := parseNode(fields[2])
			if err != nil {
				return Batch{}, fmt.Errorf("dyn: line %d: %v", lineNo, err)
			}
			if op == "+" {
				b.Add = append(b.Add, [2]int{u, v})
			} else {
				b.Remove = append(b.Remove, [2]int{u, v})
			}
		case "n":
			if len(fields) != 2 {
				return Batch{}, fmt.Errorf("dyn: line %d: \"n\" wants a count", lineNo)
			}
			k, err := parseNode(fields[1])
			if err != nil {
				return Batch{}, fmt.Errorf("dyn: line %d: %v", lineNo, err)
			}
			if b.AddNodes > maxParseNodes-k {
				return Batch{}, fmt.Errorf("dyn: line %d: node count exceeds %d", lineNo, maxParseNodes)
			}
			b.AddNodes += k
		default:
			return Batch{}, fmt.Errorf("dyn: line %d: unknown op %q (want +, - or n)", lineNo, op)
		}
	}
	return b, nil
}

// maxParseNodes bounds the node ids and counts a parsed batch may carry, so
// a tiny hostile payload cannot make the daemon allocate gigabytes.
const maxParseNodes = 5_000_000

func parseNode(tok string) (int, error) {
	v, err := strconv.Atoi(tok)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad node id %q", tok)
	}
	if v > maxParseNodes {
		return 0, fmt.Errorf("node id %d exceeds %d", v, maxParseNodes)
	}
	return v, nil
}
