package domain

import (
	"fmt"

	"localwm/internal/cdfg"
	"localwm/internal/order"
	"localwm/internal/prng"
)

// This file keeps the original map-based domain selection and root
// fingerprint as the reference the differential tests compare Select,
// RootFingerprint and AppendRootFingerprint against.

func refSelect(g *cdfg.Graph, bs *prng.Bitstream, root cdfg.NodeID, cfg Config) (*Domain, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tree, err := refCappedFaninTree(g, root, cfg.MaxDist, cfg.MaxTreeSize)
	if err != nil {
		return nil, err
	}
	to := make([]cdfg.NodeID, 0, len(tree))
	for v := range tree {
		to = append(to, v)
	}
	to = cdfg.SortedIDs(to)

	ord, err := order.Order(g, root, to, 0)
	if err != nil {
		return nil, err
	}

	d := &Domain{Root: root, To: ord.Ordered, Order: ord}
	rank := make(map[cdfg.NodeID]int, len(ord.Ordered))
	for i, v := range ord.Ordered {
		rank[v] = i
	}
	inT := map[cdfg.NodeID]bool{root: true}
	d.T = append(d.T, root)
	queue := []cdfg.NodeID{root}
	for len(queue) > 0 && len(d.T) < cfg.Tau {
		v := queue[0]
		queue = queue[1:]

		var cands []cdfg.NodeID
		for _, u := range g.DataIn(v) {
			if _, inTree := tree[u]; inTree && !inT[u] {
				cands = append(cands, u)
			}
		}
		if len(cands) == 0 {
			continue
		}
		cands = refSortByRank(cands, rank)

		mandatory := bs.Intn(len(cands))
		for i, u := range cands {
			take := i == mandatory || bs.Coin(cfg.IncludeNum, cfg.IncludeDen)
			if !take {
				continue
			}
			inT[u] = true
			d.T = append(d.T, u)
			queue = append(queue, u)
			if len(d.T) >= cfg.Tau {
				break
			}
		}
	}
	return d, nil
}

func refRootFingerprint(g *cdfg.Graph, v cdfg.NodeID) string {
	ins := g.DataIn(v)
	ops := make([]int, 0, len(ins))
	for _, u := range ins {
		ops = append(ops, int(g.Node(u).Op))
	}
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j] < ops[j-1]; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	return fmt.Sprintf("%d/%d/%v", int(g.Node(v).Op), len(ins), ops)
}

func refCappedFaninTree(g *cdfg.Graph, root cdfg.NodeID, maxDist, maxNodes int) (map[cdfg.NodeID]int, error) {
	if maxNodes <= 0 {
		return nil, fmt.Errorf("domain: non-positive tree cap %d", maxNodes)
	}
	dist := map[cdfg.NodeID]int{root: 0}
	frontier := []cdfg.NodeID{root}
	for d := 1; d <= maxDist && len(frontier) > 0 && len(dist) < maxNodes; d++ {
		var next []cdfg.NodeID
		seen := map[cdfg.NodeID]bool{}
		for _, v := range frontier {
			for _, u := range g.DataIn(v) {
				if _, ok := dist[u]; !ok && !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		next = cdfg.SortedIDs(next)
		for _, u := range next {
			if len(dist) >= maxNodes {
				return dist, nil
			}
			dist[u] = d
		}
		frontier = next
	}
	return dist, nil
}

func refSortByRank(nodes []cdfg.NodeID, rank map[cdfg.NodeID]int) []cdfg.NodeID {
	out := append([]cdfg.NodeID(nil), nodes...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank[out[j]] < rank[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
