package sched

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"localwm/internal/cdfg"
)

// Schedule text format
//
// The serialization is the line-oriented companion of the cdfg text
// format, shared by the lwm CLI and the lwmd daemon:
//
//	budget <n>
//	step <node-name> <control-step>
//
// Numbers are unsigned decimal integers (digits only); a line holds
// exactly the fields shown, separated by white space. Blank lines and
// lines starting with '#' are skipped; anything else is an error.
// Rows are emitted sorted by (step, name) so the output is deterministic
// for a given schedule; Parse accepts the lines in any order. Nodes
// absent from the file keep step 0 (the unscheduled kinds: inputs,
// outputs, constants, delays).

// WriteSchedule serializes s against g in the text schedule format.
func WriteSchedule(w io.Writer, g *cdfg.Graph, s *Schedule) error {
	bw := bufio.NewWriter(w)
	num := make([]byte, 0, 20)
	bw.WriteString("budget ")
	bw.Write(strconv.AppendInt(num, int64(s.Budget), 10))
	bw.WriteByte('\n')
	type row struct {
		name string
		step int
	}
	var rows []row
	for v := 0; v < g.Len(); v++ {
		if st := s.Steps[v]; st > 0 {
			rows = append(rows, row{g.Node(cdfg.NodeID(v)).Name, st})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].step != rows[j].step {
			return rows[i].step < rows[j].step
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		bw.WriteString("step ")
		bw.WriteString(r.name)
		bw.WriteByte(' ')
		bw.Write(strconv.AppendInt(num, int64(r.step), 10))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ParseSchedule reads a schedule in the text format, resolving node names
// against g. A missing budget line defaults to the makespan of the parsed
// steps.
func ParseSchedule(g *cdfg.Graph, r io.Reader) (*Schedule, error) {
	s := &Schedule{Steps: make([]int, g.Len())}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var buf [3][]byte
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f := cdfg.AppendFields(buf[:0], line)
		switch {
		case len(f) == 2 && string(f[0]) == "budget":
			if n, ok := parseCount(f[1]); ok {
				s.Budget = n
				continue
			}
		case len(f) == 3 && string(f[0]) == "step":
			if n, ok := parseCount(f[2]); ok {
				node, ok := g.NodeByName(string(f[1]))
				if !ok {
					return nil, fmt.Errorf("sched: schedule line %d: unknown node %q", lineno, f[1])
				}
				s.Steps[node.ID] = n
				continue
			}
		}
		return nil, fmt.Errorf("sched: schedule line %d: unparseable %q", lineno, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sched: reading schedule: %v", err)
	}
	if s.Budget == 0 {
		s.Budget = s.Makespan()
	}
	return s, nil
}

// parseCount parses an unsigned decimal integer: one or more digits, no
// sign, within the range of int.
func parseCount(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
