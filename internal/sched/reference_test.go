package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"localwm/internal/cdfg"
)

// The fmt-based schedule codec the strict, allocation-free one replaced,
// kept as the reference its tests compare against. It agrees with the new
// codec on every text WriteSchedule produces and on every well-formed
// line; on malformed numbers (3.5, 3x, 0x10, +3, -3) and trailing fields
// it read a prefix instead of rejecting the line.

func writeScheduleReference(w io.Writer, g *cdfg.Graph, s *Schedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "budget %d\n", s.Budget)
	type row struct {
		name string
		step int
	}
	var rows []row
	for _, node := range g.Nodes() {
		if st := s.Steps[node.ID]; st > 0 {
			rows = append(rows, row{node.Name, st})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].step != rows[j].step {
			return rows[i].step < rows[j].step
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		fmt.Fprintf(bw, "step %s %d\n", r.name, r.step)
	}
	return bw.Flush()
}

func parseScheduleReference(g *cdfg.Graph, r io.Reader) (*Schedule, error) {
	s := &Schedule{Steps: make([]int, g.Len())}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var n int
		if cnt, _ := fmt.Sscanf(line, "budget %d", &n); cnt == 1 {
			s.Budget = n
			continue
		}
		if cnt, _ := fmt.Sscanf(line, "step %s %d", &name, &n); cnt == 2 {
			node, ok := g.NodeByName(name)
			if !ok {
				return nil, fmt.Errorf("sched: schedule line %d: unknown node %q", lineno, name)
			}
			s.Steps[node.ID] = n
			continue
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
